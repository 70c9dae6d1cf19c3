import numpy as np
import pytest
from scipy.linalg import expm

from tilq import (
    InvalidInputError,
    LQProblem,
    RiccatiSolution,
    TimeConsistencyError,
    TimeGrid,
    TwoTimeKernel,
    brute_force_cost,
    classical_riccati,
    constant_problem,
    cost,
)

TANH1 = 0.7615941559557649  # tanh(1)


def test_classical_tanh():
    p = constant_problem(A=0.0, B=1.0, Q=1.0, S=0.0, M=1.0, G=0.0, T=1.0)
    ref = classical_riccati(p, TimeGrid.uniform(1.0, 400))
    assert isinstance(ref, RiccatiSolution) and ref.meta == {"reference": "classical"}
    np.testing.assert_allclose(ref(0.0)[0, 0], TANH1, atol=1e-9)


def test_classical_lyapunov_closed_form(rng):
    # B = 0, Q = 0: P(t) = e^{A'(T-t)} G e^{A(T-t)}
    A = rng.standard_normal((3, 3)) * 0.6
    Wg = rng.standard_normal((3, 3))
    G = Wg @ Wg.T / 3
    p = constant_problem(A=A, B=np.zeros((3, 1)), Q=np.zeros((3, 3)),
                         S=np.zeros((1, 3)), M=np.eye(1), G=G, T=1.0)
    ref = classical_riccati(p, TimeGrid.uniform(1.0, 200))
    for t in (0.0, 0.35, 1.0):
        E = expm(A * (1.0 - t))
        np.testing.assert_allclose(ref(t), E.T @ G @ E, rtol=1e-8, atol=1e-10)


def test_classical_rejects_time_inconsistent(hyperbolic_scalar):
    with pytest.raises(TimeConsistencyError):
        classical_riccati(hyperbolic_scalar, TimeGrid.uniform(1.0, 50))


def _with_q(p, fn, dfn):
    Q = TwoTimeKernel.from_callable(fn, (1, 1), p.T, dfn, symmetry_required=True,
                                    vectorized=True)
    return LQProblem(A=p.A, B=p.B, Q=Q, S=p.S, M=p.M, G=p.G)


def test_classical_checks_every_node_pair():
    # Q(t, s) = 1 + bump(t)/2, the bump supported in (0.0275, 0.0475): no node
    # of every tenth of a 400-interval grid lies in there, but seven nodes do
    def bump(t):
        u = (t - 0.0375) / 0.01
        inside = np.abs(u) < 1.0
        w = np.where(inside, 1.0 - u ** 2, 1.0)
        b = np.where(inside, np.exp(1.0 - 1.0 / w), 0.0)
        return b, b * (-2.0 * u / w ** 2) / 0.01

    p = _with_q(constant_problem(A=0.0, B=1.0, Q=1.0, S=0.0, M=1.0, G=0.0, T=1.0),
                lambda t, s: (1.0 + 0.5 * bump(t)[0])[:, None, None],
                lambda t, s: (0.5 * bump(t)[1])[:, None, None])
    with pytest.raises(TimeConsistencyError):
        classical_riccati(p, TimeGrid.uniform(1.0, 400))


def test_classical_refuses_a_nan_partial():
    p = _with_q(constant_problem(A=0.0, B=1.0, Q=1.0, S=0.0, M=1.0, G=0.0, T=1.0),
                lambda t, s: np.ones((t.size, 1, 1)),
                lambda t, s: np.where(t > 0.5, np.nan, 0.0)[:, None, None])
    with pytest.raises(TimeConsistencyError):
        classical_riccati(p, TimeGrid.uniform(1.0, 400))


def test_classical_refuses_a_non_finite_integration():
    p = constant_problem(A=1e100, B=0.0, Q=0.0, S=0.0, M=1.0, G=1.0, T=1.0)
    with np.errstate(all="ignore"), pytest.raises(InvalidInputError):
        classical_riccati(p, TimeGrid.uniform(1.0, 20))


def test_classical_refuses_a_grid_past_the_horizon():
    p = constant_problem(A=0.0, B=1.0, Q=1.0, S=0.0, M=1.0, G=0.0, T=1.0)
    with pytest.raises(InvalidInputError, match="horizon"):
        classical_riccati(p, TimeGrid.uniform(2.0, 100))


def test_classical_solution_symmetric_psd(rng):
    n, m = 3, 2
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, m))
    Wq = rng.standard_normal((n, n))
    Wm = rng.standard_normal((m, m))
    p = constant_problem(A=A, B=B, Q=Wq @ Wq.T / n, S=np.zeros((m, n)),
                         M=Wm @ Wm.T / m + np.eye(m), G=np.eye(n), T=1.0)
    ref = classical_riccati(p, TimeGrid.uniform(1.0, 200))
    drift = np.abs(ref.values - np.swapaxes(ref.values, -1, -2)).max()
    assert drift < 1e-12
    assert np.linalg.eigvalsh(ref.values).min() > -1e-10


def test_brute_force_matches_quadrature_cost(tanh_problem):
    x = np.array([1.2])
    v = np.array([-0.4])
    J4 = cost(tanh_problem, 0.2, x, v)
    J2 = brute_force_cost(tanh_problem, 0.2, x, v, refinement=16)
    np.testing.assert_allclose(J2, J4, rtol=1e-5)


def test_brute_force_second_order(tanh_problem):
    # independent integrator: order-2, so error ratio ~4 under doubling
    x = np.array([1.0])
    v = np.array([0.5])
    J_exact = cost(tanh_problem, 0.0, x, v)  # order-4 reference
    errs = [abs(brute_force_cost(tanh_problem, 0.0, x, v, refinement=r) - J_exact)
            for r in (4, 8, 16)]
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_brute_force_feedback_control(tanh_problem, tanh_solution):
    from tilq import build_policy

    pol = build_policy(tanh_problem, tanh_solution)
    x = np.ones(1)
    J = brute_force_cost(tanh_problem, 0.0, x, pol, refinement=16)
    np.testing.assert_allclose(J, TANH1, atol=1e-5)


def test_brute_force_refinement_floor(tanh_problem):
    with pytest.raises(InvalidInputError):
        brute_force_cost(tanh_problem, 0.0, np.ones(1), np.zeros(1), refinement=2)
