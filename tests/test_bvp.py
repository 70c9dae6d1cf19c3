import numpy as np
import pytest

from tilq import (
    GridTooCoarseError,
    TimeGrid,
    build_policy,
    bvp_residual,
    from_riccati,
    hyperbolic_problem,
    q_hat_quadratic,
    simulate,
    solve_riccati,
)
from tilq.bvp import BvpSolution


def test_tanh_forward_backward_closed_form(tanh_problem, tanh_solution):
    # X(s) = cosh(1-s)/cosh(1), phi(s) = sinh(1-s)/cosh(1) from x0 = 1 at t0 = 0
    sol = from_riccati(tanh_problem, tanh_solution, 0.0, np.ones(1))
    c1 = np.cosh(1.0)
    np.testing.assert_allclose(sol.X[:, 0], np.cosh(1.0 - sol.nodes) / c1, atol=1e-7)
    np.testing.assert_allclose(sol.phi[:, 0], np.sinh(1.0 - sol.nodes) / c1, atol=1e-7)
    assert sol.nodes[0] == 0.0
    # terminal coupling phi(T) = G(T) X(T) with G = 0
    np.testing.assert_allclose(sol.phi[-1], 0.0, atol=1e-12)


def test_decoupled_adjoint(decoupled_problem):
    # A=B=0: X stays at x0 and phi(s) = (G0 + (T-s) Q0) x0
    g = TimeGrid.uniform(1.0, 100)
    P = solve_riccati(decoupled_problem, g)
    x0 = np.array([3.0])
    sol = from_riccati(decoupled_problem, P, 0.0, x0)
    np.testing.assert_allclose(sol.X[:, 0], 3.0, atol=1e-12)
    exact = (0.5 + (1.0 - sol.nodes) * 2.0) * 3.0
    np.testing.assert_allclose(sol.phi[:, 0], exact, atol=1e-9)


def test_residuals_small(tanh_problem, tanh_solution):
    sol = from_riccati(tanh_problem, tanh_solution, 0.0, np.ones(1))
    res_X, res_phi = bvp_residual(tanh_problem, tanh_solution, sol)
    assert res_X < 1e-8
    assert res_phi < 1e-7


def test_residuals_small_hyperbolic(hyperbolic_scalar, hyperbolic_solution):
    sol = from_riccati(hyperbolic_scalar, hyperbolic_solution, 0.25, np.array([-1.5]))
    res_X, res_phi = bvp_residual(hyperbolic_scalar, hyperbolic_solution, sol)
    assert res_X < 1e-8
    assert res_phi < 2e-6


def test_residual_detects_wrong_adjoint(tanh_problem, tanh_solution):
    from tilq.bvp import BvpSolution

    sol = from_riccati(tanh_problem, tanh_solution, 0.0, np.ones(1))
    bad = BvpSolution(sol.nodes, sol.X, sol.phi * 1.1, sol.t0, sol.x0)
    _, res_phi = bvp_residual(tanh_problem, tanh_solution, bad)
    assert res_phi > 1e-3


def test_q_hat_matches_effective_weight(hyperbolic_scalar, hyperbolic_solution):
    # the quadratic form assembled from the cost partials must agree with the
    # effective weight contraction along the equilibrium pair
    from tilq.riccati import q_bar_nodes

    sol = from_riccati(hyperbolic_scalar, hyperbolic_solution, 0.0, np.ones(1))
    table = q_bar_nodes(hyperbolic_scalar, hyperbolic_solution)
    nodes = hyperbolic_solution.grid.nodes
    for i in (0, 40, 100, 160):
        s = float(nodes[i])
        j = int(np.searchsorted(sol.nodes, s))
        direct = float(sol.X[j] @ table[i] @ sol.X[j])
        got = q_hat_quadratic(hyperbolic_scalar, hyperbolic_solution, sol, s)
        np.testing.assert_allclose(got, direct, atol=1e-8)


def test_residual_needs_enough_nodes(tanh_problem, tanh_solution):
    from tilq.bvp import BvpSolution

    sol = from_riccati(tanh_problem, tanh_solution, 0.0, np.ones(1))
    tiny = BvpSolution(sol.nodes[:3], sol.X[:3], sol.phi[:3], sol.t0, sol.x0)
    with pytest.raises(GridTooCoarseError):
        bvp_residual(tanh_problem, tanh_solution, tiny)


def test_csv_header(tanh_problem, tanh_solution):
    import io

    sol = from_riccati(tanh_problem, tanh_solution, 0.0, np.ones(1))
    buf = io.StringIO()
    sol.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,X_1,phi_1"
    assert len(lines) == sol.nodes.size + 1


def _n3_problem():
    rng = np.random.default_rng(0)
    A = 0.3 * rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 2))
    return hyperbolic_problem(np.eye(3), np.eye(2), np.eye(3), A=A, B=B,
                              k=1.0, theta=1.0, T=1.0)


@pytest.fixture(scope="module")
def n3_solution():
    p = _n3_problem()
    return p, solve_riccati(p, TimeGrid.uniform(1.0, 400))


def test_start_next_to_a_node_reads_the_node(n3_solution):
    # t0 = s_100 - 1e-11 is s_100: a 1e-11 first interval, differentiated as
    # it stands, would read res_phi 7e-6
    p, P = n3_solution
    s100 = float(P.grid.nodes[100])
    x0 = np.array([1.0, -0.5, 0.3])
    on = from_riccati(p, P, s100, x0)
    near = from_riccati(p, P, s100 - 1e-11, x0)
    assert near.t0 == s100
    np.testing.assert_array_equal(near.nodes, on.nodes)
    assert bvp_residual(p, P, near) == bvp_residual(p, P, on)
    assert max(bvp_residual(p, P, on)) < 1e-7


def test_residual_on_a_nonuniform_pair(n3_solution):
    # the pair starts off the grid and runs on jittered nodes; the derivative
    # stencil follows the nodes, so both residuals stay at the uniform level
    p, P = n3_solution
    rng = np.random.default_rng(3)
    nodes = np.linspace(0.0, 1.0, 401)
    nodes[1:-1] += 0.3 / 400 * rng.uniform(-1.0, 1.0, 399)
    traj = simulate(build_policy(p, P), 0.2 + 0.3 / 400, [1.0, -0.5, 0.3], g=TimeGrid(nodes))
    phi = np.einsum("kij,kj->ki", P(traj.nodes), traj.states)
    pair = BvpSolution(traj.nodes, traj.states, phi, traj.t0, traj.x0)
    assert max(bvp_residual(p, P, pair)) < 2e-6
