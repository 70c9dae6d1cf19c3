import numpy as np
import pytest
from scipy.linalg import expm

from tilq import InvalidInputError, OneTimeMatrixFn, TimeGrid, fundamental_solution


def _transition(prop, g, t, s):
    """Phi(t, s) = U(t) U(s)^{-1} between two node times of g."""
    return prop.values[g.index_of(t)] @ prop.inverse[g.index_of(s)]


def test_constant_coefficient_matches_expm(rng):
    A = rng.standard_normal((3, 3))
    g = TimeGrid.uniform(1.0, 128)
    prop = fundamental_solution(OneTimeMatrixFn.constant(A, 1.0), g)
    for t in (0.25, 0.5, 1.0):
        i = g.index_of(t)
        np.testing.assert_allclose(prop.values[i], expm(A * t), rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(prop.inverse[i], expm(-A * t), rtol=1e-7, atol=1e-9)


def test_transition_composition():
    # non-commuting time-varying coefficient pins the argument convention:
    # Phi(t, s) maps the state at s to the state at t
    A0 = np.array([[0.0, 1.0], [0.0, 0.0]])
    A1 = np.array([[0.0, 0.0], [1.0, 0.0]])
    f = OneTimeMatrixFn.from_callable(lambda t: A0 + t * A1, (2, 2), 1.0)
    g = TimeGrid.uniform(1.0, 160)
    prop = fundamental_solution(f, g)
    lhs = _transition(prop, g, 0.9, 0.2)
    rhs = _transition(prop, g, 0.9, 0.6) @ _transition(prop, g, 0.6, 0.2)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-11)
    # reverse transition inverts
    np.testing.assert_allclose(
        _transition(prop, g, 0.2, 0.9) @ lhs, np.eye(2), rtol=1e-8, atol=1e-9)


def test_time_varying_scalar_exact():
    # x' = 2t x has flow exp(t^2 - s^2)
    f = OneTimeMatrixFn.from_callable(lambda t: np.array([[2.0 * t]]), (1, 1), 1.0)
    g = TimeGrid.uniform(1.0, 160)
    prop = fundamental_solution(f, g)
    got = _transition(prop, g, 0.8, 0.3)
    np.testing.assert_allclose(got, [[np.exp(0.64 - 0.09)]], rtol=1e-9)


def test_rk4_convergence_order():
    A = np.array([[0.0, 1.0], [-4.0, -0.4]])
    f = OneTimeMatrixFn.constant(A, 1.0)
    ref = expm(A)

    def err(n):
        prop = fundamental_solution(f, TimeGrid.uniform(1.0, n))
        return np.abs(prop.values[-1] - ref).max()

    # fourth order: halving h shrinks the error ~16x
    assert err(16) / err(32) > 8.0
    # past 32 steps the flow is chunked (flow_prefix), and the order stays 4
    for n in (64, 128):
        assert np.log2(err(n) / err(2 * n)) > 3.9


def test_fundamental_solution_takes_a_coefficient_fn_and_a_grid():
    # a plain callable or a bare node array is no longer sampled
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    f, g = OneTimeMatrixFn.constant(A, 1.0), TimeGrid.uniform(1.0, 8)
    for coefficient, grid in [(lambda t: A, g), (A, g), (f, g.nodes), (f, [0.0, 0.5, 1.0])]:
        with pytest.raises(InvalidInputError, match="OneTimeMatrixFn and a TimeGrid"):
            fundamental_solution(coefficient, grid)


def test_flow_prefix_matches_the_step_loop():
    # the products are written into their slots; each is E[i] @ U[i] bit for
    # bit, for one flow and for stacked independent flows
    from tilq.propagators import flow_prefix

    rng = np.random.default_rng(4)
    for shape in ((30, 3, 3), (30, 4, 2, 2)):
        E = np.eye(shape[-1]) + 0.1 * rng.standard_normal(shape)
        want = [np.broadcast_to(np.eye(shape[-1]), shape[1:])]
        for e in E:
            want.append(e @ want[-1])
        np.testing.assert_array_equal(flow_prefix(E), np.array(want))


@pytest.mark.parametrize("steps", [31, 32, 33, 64, 65, 401])
def test_chunked_flow_prefix_matches_the_step_loop(steps):
    # past 32 steps a single flow runs in chunks of 32, carried by the chunk
    # ends, and agrees with the step loop to rounding; up to 32 steps it is
    # the loop, and stacked (K, S, d, d) flows are the loop at every length
    from tilq.propagators import flow_prefix

    rng = np.random.default_rng(steps)
    for shape in ((steps, 3, 3), (steps, 4, 2, 2)):
        E = np.eye(shape[-1]) + rng.standard_normal(shape) / steps
        want = [np.broadcast_to(np.eye(shape[-1]), shape[1:])]
        for e in E:
            want.append(e @ want[-1])
        want = np.array(want)
        got = flow_prefix(E)
        assert got.shape == want.shape
        if steps <= 32 or len(shape) > 3:
            np.testing.assert_array_equal(got, want)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_a_flow_singular_to_working_precision_is_an_input_error():
    # the saddle [[0, 2], [1, 0]] over T = 20 grows the flow to ~e^{28}, and
    # inverting it raised numpy's LinAlgError
    f = OneTimeMatrixFn.constant([[0.0, 2.0], [1.0, 0.0]], 20.0)
    with pytest.raises(InvalidInputError, match="cannot be inverted on this grid"):
        fundamental_solution(f, TimeGrid.uniform(20.0, 2000))
