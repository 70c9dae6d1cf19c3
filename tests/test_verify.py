import gc
import json
import tracemalloc

import numpy as np
import pytest

from tilq import (RiccatiSolution, TimeGrid, constant_problem, hyperbolic_problem,
                  run_verification, solve_riccati)
from tilq.verify import _STATE_DRAWS, default_state_samples


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


def test_kept_state_draws_are_the_generators():
    # a numpy that changes its normal stream fails here, not in a verify
    draws = np.random.default_rng(20260815).standard_normal(40)
    np.testing.assert_array_equal(np.array(_STATE_DRAWS), draws)


@pytest.mark.parametrize("count", [1, 5])
@pytest.mark.parametrize("n", [1, 3, 8, 9])
def test_default_state_samples_are_the_generators_bit_for_bit(n, count):
    # count * n <= 40 reads the kept draws, n = 9 at count = 5 the generator;
    # either way sample k is the k-th standard_normal(n) call of the
    # fixed-seed generator
    p = constant_problem(A=np.zeros((n, n)), B=np.eye(n), Q=np.eye(n), S=None,
                         M=np.eye(n), G=np.eye(n), T=1.0)
    g = TimeGrid.uniform(1.0, 100)
    rng = np.random.default_rng(20260815)
    samples = default_state_samples(p, g, count)
    assert len(samples) == count
    for t0, x0 in samples:
        want = rng.standard_normal(n)
        want /= max(1.0, np.abs(want).max())
        assert x0.shape == (n,)
        assert x0.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("N", [200, 400])
def test_n3_passes_verification(seed, N):
    # the BVP leg differentiates P, so an even/odd h^3 error next to T from
    # the window quadrature would fail it at these grids
    rep = run_verification(_n3_problem(seed), TimeGrid.uniform(1.0, N))
    worst = max(max(leg["res_X"], leg["res_phi"]) / leg["tol"] for leg in rep.bvp)
    assert rep.passed, f"BVP worst/tol {worst:.3g}"


@pytest.mark.parametrize("N", [400, 800])
def test_n3_passes_verification_on_a_jittered_grid(N):
    # interior nodes moved by up to 0.3 h: every leg, the BVP leg included,
    # runs on the nonuniform nodes
    rng = np.random.default_rng(3)
    nodes = np.linspace(0.0, 1.0, N + 1)
    nodes[1:-1] += 0.3 / N * rng.uniform(-1.0, 1.0, N - 1)
    rep = run_verification(_n3_problem(0), TimeGrid(nodes))
    assert rep.passed
    assert max(max(leg["res_X"], leg["res_phi"]) for leg in rep.bvp) < 1e-6


def test_n3_error_next_to_horizon_is_no_outlier():
    p = _n3_problem(0)
    coarse = solve_riccati(p, TimeGrid.uniform(1.0, 200))
    fine = solve_riccati(p, TimeGrid.uniform(1.0, 800))
    err = np.abs(coarse.values - fine.values[::4]).max(axis=(1, 2))
    K = err.size
    assert err[K - 2] / err[K - 3] <= 5.0
    assert err[K - 4] / err[K - 3] <= 5.0


def test_verification_memory_at_n1600():
    # the tail integrals are reverse sums and the pair weights a K x 4 band
    # plus one vector: 2.0 MiB stay on the engine and the peak is 30.7 MiB;
    # with K x K weight matrices they were 41.1 and 69.0 MiB
    p, g = _n3_problem(0), TimeGrid.uniform(1.0, 1600)
    sol = solve_riccati(p, g)
    sol = RiccatiSolution(sol.grid, sol.values, sol.meta)  # a fresh engine
    tracemalloc.start()
    try:
        assert run_verification(p, g, solution=sol).passed
        with_engine, peak = tracemalloc.get_traced_memory()
        sol._engine = None
        gc.collect()
        retained = with_engine - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained / 2 ** 20 <= 8.0
    assert peak / 2 ** 20 <= 45.0
