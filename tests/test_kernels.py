import numpy as np
import pytest

from tilq import (
    InvalidInputError,
    OneTimeMatrixFn,
    TimeGrid,
    TwoTimeKernel,
    kernel_norms,
    matrix_norm,
)
from tilq.kernels import finite_difference_dt, matrix_norm_many


def test_matrix_norm_row_sum():
    m = np.array([[1.0, -2.0], [0.5, 0.25]])
    assert matrix_norm(m) == 3.0
    assert matrix_norm(np.eye(3)) == 1.0


def test_matrix_norm_many():
    stack = np.stack([np.eye(2), 2 * np.eye(2), np.array([[0.0, 3.0], [1.0, 1.0]])])
    np.testing.assert_allclose(matrix_norm_many(stack), [1.0, 2.0, 3.0])


def test_one_time_constant_and_derivative():
    f = OneTimeMatrixFn.constant([[1.0, 2.0], [3.0, 4.0]], 1.0)
    np.testing.assert_allclose(f.eval(0.3), [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(f.eval_dt(0.3), np.zeros((2, 2)))
    # batched evaluation stacks along the leading axis
    vals = f.eval(np.array([0.0, 0.5, 1.0]))
    assert vals.shape == (3, 2, 2)


def test_one_time_polynomial():
    # coefficient list is [c0, c1, ...] for c0 + c1 t + ...
    f = OneTimeMatrixFn.polynomial([np.eye(1), 2 * np.eye(1), 3 * np.eye(1)], 1.0)
    t = 0.4
    np.testing.assert_allclose(f.eval(t), [[1 + 2 * t + 3 * t * t]])
    np.testing.assert_allclose(f.eval_dt(t), [[2 + 6 * t]])


def test_one_time_from_callable_fd_derivative():
    f = OneTimeMatrixFn.from_callable(lambda t: np.array([[np.sin(t)]]), (1, 1), 1.0)
    np.testing.assert_allclose(f.eval_dt(0.3), [[np.cos(0.3)]], atol=1e-7)


def test_two_time_constant_broadcast():
    k = TwoTimeKernel.constant(np.eye(2), 1.0, symmetry_required=True)
    v = k.eval(0.2, 0.7)
    assert v.shape == (2, 2)
    ts = np.linspace(0.0, 1.0, 5)
    v = k.eval(0.0, ts)
    assert v.shape == (5, 2, 2)
    v = k.eval(ts, ts)
    assert v.shape == (5, 2, 2)
    np.testing.assert_allclose(k.eval_dt(0.3, 0.8), np.zeros((2, 2)))


def test_two_time_symmetry_enforced():
    bad = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(InvalidInputError):
        TwoTimeKernel.constant(bad, 1.0, symmetry_required=True)
    # asymmetric base is fine when symmetry is not required (e.g. S)
    TwoTimeKernel.constant(bad, 1.0, symmetry_required=False)


def test_two_time_callable_partial():
    k = TwoTimeKernel.from_callable(
        lambda t, s: np.array([[np.exp(-0.5 * (s - t))]]), (1, 1), 1.0,
        dfn=lambda t, s: np.array([[0.5 * np.exp(-0.5 * (s - t))]]))
    np.testing.assert_allclose(k.eval_dt(0.2, 0.9), [[0.5 * np.exp(-0.35)]])


def test_finite_difference_dt_matches_analytic():
    k = TwoTimeKernel.from_callable(
        lambda t, s: np.array([[np.cos(2 * t + s)]]), (1, 1), 1.0)
    got = finite_difference_dt(k, 0.3, 0.6, 1e-5)
    np.testing.assert_allclose(got, [[-2 * np.sin(1.2)]], atol=1e-8)


def test_kernel_norms_constant():
    g = TimeGrid.uniform(2.0, 50)
    f = OneTimeMatrixFn.constant(3.0 * np.eye(1), 2.0)
    nb = kernel_norms(f, g)
    np.testing.assert_allclose(nb.c_norm, 3.0)
    np.testing.assert_allclose(nb.c1_norm, 3.0)  # derivative is zero
    np.testing.assert_allclose(nb.l1_norm, 6.0, rtol=1e-12)  # integral of 3 over [0,2]
    np.testing.assert_allclose(nb.linf_norm, 3.0)


def test_kernel_norms_two_time():
    g = TimeGrid.uniform(1.0, 64)
    k = TwoTimeKernel.from_callable(
        lambda t, s: np.array([[1.0 + (s - t)]]), (1, 1), 1.0,
        dfn=lambda t, s: np.array([[-1.0]]))
    nb = kernel_norms(k, g)
    np.testing.assert_allclose(nb.c_norm, 2.0)  # at (0, 1)
    np.testing.assert_allclose(nb.c1_norm, 3.0)  # sup |k| + sup |dk|


def test_finite_difference_dt_at_the_corner():
    # at s = 0 the admissible t-range is a point; the forward stencil
    # reaches past s into the closure
    k = TwoTimeKernel.from_callable(
        lambda t, s: np.array([[np.exp(-0.5 * (s - t))]]), (1, 1), 1.0)
    got, stencil = finite_difference_dt(k, 0.0, 0.0, 1e-6, return_info=True)
    assert stencil == "forward-extended"
    np.testing.assert_allclose(got, [[0.5]], atol=1e-8)
    np.testing.assert_allclose(k.eval_dt(0.0, 0.0), [[0.5]], atol=1e-8)
    assert finite_difference_dt(k, 0.1, 0.3, 1e-6, return_info=True)[1] == "central"
