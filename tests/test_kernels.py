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


@pytest.mark.parametrize("m", range(1, 10))
def test_matrix_norm_many_equals_numpy_reduction(m):
    # summed column by column below 8 columns: bit for bit numpy's own order
    rng = np.random.default_rng(m)
    stack = rng.standard_normal((500, 3, m)) * 10.0 ** rng.integers(-8, 9, (500, 3, m))
    stack[7, 1, 0] = np.nan
    for x in (stack, stack[:, :1]):
        np.testing.assert_array_equal(matrix_norm_many(x), np.abs(x).sum(axis=-1).max(axis=-1))


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


def _ladder_dt(k, t, s, h):
    """The former per-pair finite difference: (value, stencil) at one pair."""
    f = k.eval
    if t - h >= 0.0 and t + h <= s:
        return (f(t + h, s) - f(t - h, s)) / (2 * h), "central"
    if t + 2 * h <= s or s < 2 * h:
        val = (-3.0 * f(t, s) + 4.0 * f(t + h, s) - f(t + 2 * h, s)) / (2 * h)
        return val, "forward" if t + 2 * h <= s else "forward-extended"
    if t - 2 * h >= 0.0:
        return (3.0 * f(t, s) - 4.0 * f(t - h, s) + f(t - 2 * h, s)) / (2 * h), "backward"
    lo, hi = max(0.0, t - h), min(s, t + h)
    return (f(hi, s) - f(lo, s)) / (hi - lo), "first-order"


def _kink(x):
    """Zero for x <= 0, slope 50 beyond: a stencil that crosses 0 shows."""
    return 50.0 * np.maximum(x, 0.0)


def _extending_kernel(**kw):
    """A 2 x 2 kernel whose closure extends off the triangle with kinks at
    t = 0 and t = s, so a stencil placed other than the ladder's shows."""
    def fn(t, s):
        t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
        return np.stack([np.stack([np.exp(-0.5 * (s - t)) * np.cos(t), np.sin(2 * t + s)], -1),
                         np.stack([t * t * s, 1.0 / (1.0 + s - t) + _kink(t - s) + _kink(-t)],
                                  -1)], -2)
    return TwoTimeKernel.from_callable(fn, (2, 2), 1.0, **kw)


def test_batched_stencil_matches_pair_ladder():
    # h = 1e-6 on [0, 1]; the nodes near 0 reach every stencil class, the
    # forward-extended corner s < 2h and the first-order band 2h <= s < 3h
    # included
    h = 1e-6
    nodes = np.unique(np.concatenate([[0.0, 0.5, 1.0, 1.5, 2.2, 2.5, 3.5] * np.array(h),
                                      np.linspace(0.0, 1.0, 41), [1.0 - 0.5 * h]]))
    ii, jj = np.triu_indices(nodes.size)
    tt, ss = nodes[ii], nodes[jj]
    for vectorized in (True, False):
        k = _extending_kernel(vectorized=vectorized)
        ladder = [_ladder_dt(k, float(t), float(s), h) for t, s in zip(tt, ss)]
        want = np.stack([v for v, _ in ladder])
        assert {label for _, label in ladder} == {
            "central", "forward", "forward-extended", "backward", "first-order"}
        got = k.eval_dt(tt, ss)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
        for (t, s), (v, label) in zip(zip(tt[::7], ss[::7]), ladder[::7]):
            got_v, got_label = finite_difference_dt(k, float(t), float(s), h, return_info=True)
            assert got_label == label
            np.testing.assert_allclose(got_v, v, rtol=1e-9, atol=1e-9 * np.abs(want).max())


def test_derivative_free_triangle_calls_closure_a_few_times():
    calls = []

    def fn(t, s):
        calls.append(np.size(t))
        return np.exp(-0.5 * (s - t))[:, None, None] * np.eye(2)

    k = TwoTimeKernel.from_callable(fn, (2, 2), 1.0, vectorized=True)
    for K in (21, 201):
        nodes = np.linspace(0.0, 1.0, K)
        ii, jj = np.triu_indices(K)
        calls.clear()
        got = k.eval_dt(nodes[ii], nodes[jj])
        assert len(calls) <= 10
        assert sum(calls) <= 3 * ii.size
        want = 0.5 * np.exp(-0.5 * (nodes[jj] - nodes[ii]))
        np.testing.assert_allclose(got[:, 0, 0], want, atol=1e-8)
        np.testing.assert_array_equal(got[:, 0, 1], 0.0)


def test_one_time_differences_at_the_ends():
    # one-sided stencils at t = 0 and t = T, central inside, on [0, 2]; the
    # kinks outside [0, 2] show any stencil that leaves it
    f = OneTimeMatrixFn.from_callable(
        lambda t: np.stack([np.sin(3 * t), t ** 3 - t + _kink(t - 2.0) + _kink(-t)],
                           -1)[:, None, :], (1, 2), 2.0, vectorized=True)
    ts = np.array([0.0, 1e-6, 0.7, 2.0 - 1e-6, 2.0])
    want = np.stack([3 * np.cos(3 * ts), 3 * ts ** 2 - 1], -1)[:, None, :]
    np.testing.assert_allclose(f.eval_dt(ts), want, atol=1e-8)
    np.testing.assert_allclose(f.eval_dt(2.0), want[-1], atol=1e-8)
    np.testing.assert_allclose(f.eval_dt(0.0), want[0], atol=1e-8)


def test_differences_outside_the_triangle_raise():
    k = _extending_kernel()
    for t, s in [(0.6, 0.3), (-0.1, 0.5), (0.5, 1.5)]:
        with pytest.raises(InvalidInputError):
            finite_difference_dt(k, t, s, 1e-6)
        with pytest.raises(InvalidInputError):
            k.eval_dt(np.array([0.1, t]), np.array([0.2, s]))
    with pytest.raises(InvalidInputError):
        finite_difference_dt(k, 0.1, 0.2, 0.0)
    # an analytic partial is the closure's own business off the triangle
    analytic = TwoTimeKernel.from_callable(
        lambda t, s: np.array([[np.exp(t - s)]]), (1, 1), 1.0,
        dfn=lambda t, s: np.array([[np.exp(t - s)]]))
    np.testing.assert_allclose(analytic.eval_dt(0.6, 0.3), [[np.exp(0.3)]])


@pytest.mark.parametrize("vectorized", [False, True])
def test_closure_of_the_wrong_shape_is_refused(vectorized):
    with pytest.raises(InvalidInputError, match=r"declared dims \(3, 3\)"):
        TwoTimeKernel.from_callable(lambda t, s: np.eye(2), (3, 3), 1.0,
                                    vectorized=vectorized)
    with pytest.raises(InvalidInputError, match=r"declared dims \(3, 3\)"):
        OneTimeMatrixFn.from_callable(lambda t: np.eye(2), (3, 3), 1.0,
                                      vectorized=vectorized)
    # a vectorized closure that ignores the batch returns too few values
    flat = OneTimeMatrixFn.from_callable(lambda t: np.eye(2), (2, 2), 1.0,
                                         vectorized=vectorized)
    if vectorized:
        with pytest.raises(InvalidInputError, match=r"declared dims \(2, 2\)"):
            flat.eval(np.array([0.1, 0.2]))
    else:
        assert flat.eval(np.array([0.1, 0.2])).shape == (2, 2, 2)
