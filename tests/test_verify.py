import json

import numpy as np
import pytest

from tilq import (RiccatiSolution, TimeGrid, hyperbolic_problem, riccati, run_verification,
                  solve_riccati)
from tilq import _quad
from tilq.verify import default_state_samples


def _n3_problem(seed):
    """Hyperbolic n=3, m=2, k=theta=1 with A = 0.3 randn, B = randn."""
    rng = np.random.default_rng(seed)
    A = 0.3 * rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 2))
    return hyperbolic_problem(np.eye(3), np.eye(2), np.eye(3), A=A, B=B,
                              k=1.0, theta=1.0, T=1.0)


def test_verification_passes_scalar(hyperbolic_scalar):
    rep = run_verification(hyperbolic_scalar, TimeGrid.uniform(1.0, 200))
    assert rep.passed
    assert rep.riccati["pass"]
    assert all(leg["pass"] for leg in rep.bvp)
    assert all(leg["pass"] for leg in rep.value)
    assert rep.certificate.passed
    d = rep.to_json_dict()
    json.dumps(d, allow_nan=False)  # strictly serializable
    assert d["pass"] is True


def test_verification_reuses_solution(hyperbolic_scalar, hyperbolic_solution):
    rep = run_verification(hyperbolic_scalar, hyperbolic_solution.grid,
                           solution=hyperbolic_solution)
    assert rep.solution is hyperbolic_solution
    assert rep.passed


def test_default_state_samples(hyperbolic_scalar):
    g = TimeGrid.uniform(1.0, 100)
    samples = default_state_samples(hyperbolic_scalar, g, count=5)
    assert len(samples) == 5
    for t0, x0 in samples:
        assert 0.0 <= t0 < 1.0
        assert np.any(np.abs(np.asarray(x0)) > 0)
    # deterministic plan
    again = default_state_samples(hyperbolic_scalar, g, count=5)
    for (a, xa), (b, xb) in zip(samples, again):
        assert a == b
        np.testing.assert_array_equal(xa, xb)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("N", [200, 400])
def test_n3_passes_verification(seed, N):
    # the BVP leg differentiates P, so an even/odd h^3 error next to T from
    # the window quadrature would fail it at these grids
    rep = run_verification(_n3_problem(seed), TimeGrid.uniform(1.0, N))
    worst = max(max(leg["res_X"], leg["res_phi"]) / leg["tol"] for leg in rep.bvp)
    assert rep.passed, f"BVP worst/tol {worst:.3g}"


def test_n3_error_next_to_horizon_is_no_outlier():
    p = _n3_problem(0)
    coarse = solve_riccati(p, TimeGrid.uniform(1.0, 200))
    fine = solve_riccati(p, TimeGrid.uniform(1.0, 800))
    err = np.abs(coarse.values - fine.values[::4]).max(axis=(1, 2))
    K = err.size
    assert err[K - 2] / err[K - 3] <= 5.0
    assert err[K - 4] / err[K - 3] <= 5.0


def test_full_grid_left_slice_built_once(monkeypatch, hyperbolic_scalar, hyperbolic_solution):
    # the residual profile's full-grid window weights also seed the tail
    # weights of the nonlocal term
    sol = hyperbolic_solution
    sol = RiccatiSolution(sol.grid, sol.values, sol.meta)  # a fresh engine
    sizes = []
    build = _quad.left_slice_weights

    def counted(x):
        sizes.append(len(x))
        return build(x)

    monkeypatch.setattr(_quad, "left_slice_weights", counted)
    monkeypatch.setattr(riccati, "left_slice_weights", counted)
    run_verification(hyperbolic_scalar, sol.grid, solution=sol)
    assert sizes == [sol.grid.nodes.size]


@pytest.mark.parametrize("first", ["q_bar_nodes", "riccati_residual_profile"])
def test_left_slice_built_once_in_either_order(monkeypatch, hyperbolic_scalar, first):
    # the nonlocal term's tail weights and the residual profile share the
    # full-grid left slice whichever asks first; a solving engine keeps none
    g = TimeGrid.uniform(1.0, 64)
    sol = solve_riccati(hyperbolic_scalar, g)
    sol = RiccatiSolution(sol.grid, sol.values, sol.meta)  # a fresh engine
    K = sol.grid.nodes.size
    sizes = []
    build = _quad.left_slice_weights

    def counted(x):
        sizes.append(len(x))
        return build(x)

    monkeypatch.setattr(_quad, "left_slice_weights", counted)
    monkeypatch.setattr(riccati, "left_slice_weights", counted)
    calls = [riccati.q_bar_nodes, riccati.riccati_residual_profile]
    if first == "riccati_residual_profile":
        calls.reverse()
    for call in calls:
        call(hyperbolic_scalar, sol)
    assert sizes == [K]
    solving = riccati._Engine(hyperbolic_scalar, sol.grid)
    solving.tail_weights
    assert (0, K - 1) not in solving._win_w
