import math

import numpy as np
import pytest

from tilq import (
    InvalidInputError,
    NonconvergenceError,
    SolveOptions,
    TimeGrid,
    constant_problem,
    contraction_constants,
    f_map,
    fundamental_solution,
    hyperbolic_problem,
    picard_step,
    q_bar,
    riccati_residual,
    riccati_residual_profile,
    solve_riccati,
    upsilon,
)
from tilq.kernels import matrix_norm_many
from tilq.propagators import closed_loop_coefficient
from tilq.riccati import RiccatiSolution, q_bar_nodes

TANH1 = 0.7615941559557649  # tanh(1)


def test_tanh_closed_form(tanh_solution):
    # P(t) = tanh(T - t) for A=0, B=Q=M=1, S=G=0
    nodes = tanh_solution.grid.nodes
    exact = np.tanh(1.0 - nodes)
    got = tanh_solution.values[:, 0, 0]
    assert np.abs(got - exact).max() < 1e-8
    np.testing.assert_allclose(tanh_solution(0.0)[0, 0], TANH1, atol=1e-8)


def test_decoupled_affine(decoupled_problem):
    g = TimeGrid.uniform(1.0, 100)
    sol = solve_riccati(decoupled_problem, g)
    # the solver may refine its working grid in guaranteed mode
    exact = 0.5 + (1.0 - sol.grid.nodes) * 2.0
    np.testing.assert_allclose(sol.values[:, 0, 0], exact, atol=1e-10)


def test_hyperbolic_decoupled_closed_form(hyperbolic_decoupled):
    # B=0 with hyperbolic Q and G (k=theta=1, T=1) integrates to
    # P(t) = log(2-t) + 1/(2-t); the nonlocal term is fully active
    g = TimeGrid.uniform(1.0, 200)
    sol = solve_riccati(hyperbolic_decoupled, g)
    nodes = sol.grid.nodes
    exact = np.log(2.0 - nodes) + 1.0 / (2.0 - nodes)
    assert np.abs(sol.values[:, 0, 0] - exact).max() < 1e-8
    np.testing.assert_allclose(sol(0.0)[0, 0], math.log(2.0) + 0.5, atol=1e-9)


def test_f_map_analytic(hyperbolic_decoupled):
    # closed form for B=0, k=theta=1: F(t; s) = (2-s)^-2 + (1+t-s)^-1 - (2-s)^-1
    p = hyperbolic_decoupled
    g = TimeGrid.uniform(1.0, 200)
    sol = solve_riccati(p, g)
    phi = fundamental_solution(closed_loop_coefficient(p, sol), sol.grid)

    def exact(t, s):
        return (2 - s) ** -2 + (1 + t - s) ** -1 - (2 - s) ** -1

    for t, s in [(0.5, 0.5), (0.5, 0.25), (0.0, 0.0), (0.25, 0.1)]:
        np.testing.assert_allclose(f_map(p, sol, phi, t, s)[0, 0], exact(t, s),
                                   atol=1e-9)
    # at the horizon the integral term vanishes and F = dG/dt
    np.testing.assert_allclose(f_map(p, sol, phi, 1.0, 0.5)[0, 0], (2 - 0.5) ** -2,
                               atol=1e-12)


def test_q_bar_matches_nodes_table(hyperbolic_scalar, hyperbolic_solution):
    p, sol = hyperbolic_scalar, hyperbolic_solution
    phi = fundamental_solution(closed_loop_coefficient(p, sol), sol.grid)
    table = q_bar_nodes(p, sol)
    for i in (0, 50, 120, 199):
        t = float(sol.grid.nodes[i])
        np.testing.assert_allclose(q_bar(p, sol, phi, t), table[i], atol=1e-9)


def test_upsilon_gain(tanh_problem, tanh_solution):
    # M = B = 1, S = 0: gain equals P
    u = upsilon(tanh_problem, tanh_solution, 0.0)
    np.testing.assert_allclose(u, tanh_solution(0.0), atol=1e-12)


def test_residual_small_on_solution(tanh_problem, tanh_solution):
    prof = riccati_residual_profile(tanh_problem, tanh_solution)
    assert prof.max() < 1e-8
    assert riccati_residual(tanh_problem, tanh_solution, 0.0) < 1e-8


def test_residual_detects_wrong_solution(tanh_problem, tanh_solution):
    from tilq.riccati import RiccatiSolution

    bad = RiccatiSolution(tanh_solution.grid, tanh_solution.values * 1.05,
                          dict(tanh_solution.meta))
    prof = riccati_residual_profile(tanh_problem, bad)
    assert prof.max() > 1e-3


def test_hand_constants_exact():
    p = constant_problem(A=0.0, B=0.0, Q=1.0, S=0.0, M=1.0, G=1.0, T=1.0)
    cc = contraction_constants(p, TimeGrid.uniform(1.0, 64))
    assert cc.r == 2.0
    assert cc.tau2 == 1.0 / 3.0
    assert cc.tau3 == 1.0 / 16.0
    assert cc.tau1 == 1.0
    assert cc.tau == 1.0 / 16.0


def test_constants_survive_extreme_instances():
    # stiff discounting blows the exponentials past the float range; the
    # certificate must degrade to tau ~ 0, not raise
    p = hyperbolic_problem(np.eye(2), np.eye(2), np.eye(2), B=np.eye(2),
                           k=2.0, theta=2.0, T=1.0)
    cc = contraction_constants(p, TimeGrid.uniform(1.0, 50))
    assert cc.tau >= 0.0
    assert math.isfinite(cc.r)


def test_guaranteed_mode_on_drift_free_instance(hyperbolic_decoupled):
    sol = solve_riccati(hyperbolic_decoupled, TimeGrid.uniform(1.0, 200))
    assert sol.meta["mode"] == "guaranteed"
    assert sol.meta["max_contraction_factor"] <= 0.75
    for w in sol.meta["windows"]:
        assert w["b"] - w["a"] <= sol.meta["constants"]["tau"] + 1e-12


def test_practical_mode_meta(tanh_solution):
    meta = tanh_solution.meta
    assert meta["mode"] == "practical"
    assert meta["windows"]
    assert meta["max_contraction_factor"] < 1.0
    assert meta["iterations_total"] >= len(meta["windows"])


def test_symmetry_and_psd(hyperbolic_solution):
    vals = hyperbolic_solution.values
    pc = matrix_norm_many(vals).max()
    drift = np.abs(vals - np.swapaxes(vals, -1, -2)).max()
    assert drift <= 1e-12 * (1 + pc)
    eigs = np.linalg.eigvalsh(vals)
    assert eigs.min() >= -1e-8 * (1 + pc)


def test_apriori_bound(hyperbolic_scalar, hyperbolic_solution):
    cc = contraction_constants(hyperbolic_scalar, hyperbolic_solution.grid)
    pc = matrix_norm_many(hyperbolic_solution.values).max()
    assert pc <= cc.r * (1 + 1e-6)


def test_picard_fixed_point(tanh_problem, tanh_solution):
    # the solved values are a fixed point of the window map
    nodes = tanh_solution.grid.nodes
    step = picard_step(tanh_problem, tanh_solution, (nodes[150], nodes[200]),
                       tanh_solution.values[200])
    diff = np.abs(step.values - tanh_solution.values[150:201]).max()
    assert diff < 1e-8


def test_picard_contraction_rate(tanh_problem, tanh_solution):
    # two iterates started from different points contract on a narrow window
    nodes = tanh_solution.grid.nodes
    a, b = nodes[188], nodes[200]  # width 0.06 < 1/16
    boundary = tanh_solution.values[200]
    from tilq.riccati import RiccatiSolution

    base = tanh_solution.values
    v1 = base.copy()
    v1[188:201] += 0.3
    v2 = base.copy()
    v2[188:201] -= 0.3
    s1 = RiccatiSolution(tanh_solution.grid, v1, {})
    s2 = RiccatiSolution(tanh_solution.grid, v2, {})
    m1 = picard_step(tanh_problem, s1, (a, b), boundary)
    m2 = picard_step(tanh_problem, s2, (a, b), boundary)
    before = np.abs(v1[188:201] - v2[188:201]).max()
    after = np.abs(m1.values - m2.values).max()
    assert after <= 0.5 * before


def test_picard_step_rejects_empty_window(tanh_problem, tanh_solution):
    nodes = tanh_solution.grid.nodes
    with pytest.raises(InvalidInputError):
        picard_step(tanh_problem, tanh_solution, (nodes[5], nodes[5]),
                    tanh_solution.values[5])


def test_nonconvergence_diagnostics(tanh_problem):
    with pytest.raises(NonconvergenceError) as exc:
        solve_riccati(tanh_problem, TimeGrid.uniform(1.0, 64),
                      SolveOptions(max_iter=1))
    assert exc.value.diagnostics


def test_window_override(tanh_problem):
    g = TimeGrid.uniform(1.0, 100)
    sol = solve_riccati(tanh_problem, g, SolveOptions(window_override=0.5))
    assert sol.meta["mode"] == "override"
    exact = np.tanh(1.0 - g.nodes)
    assert np.abs(sol.values[:, 0, 0] - exact).max() < 1e-7


def test_one_interval_windows(tanh_problem):
    # the last windows see 2- and 3-node tails; one-interval windows
    # integrate by the trapezoid rule, hence the second-order bound
    g = TimeGrid.uniform(1.0, 50)
    sol = solve_riccati(tanh_problem, g, SolveOptions(window_override=g.h))
    assert len(sol.meta["windows"]) == 50
    assert np.abs(sol.values[:, 0, 0] - np.tanh(1.0 - g.nodes)).max() < 5e-5


@pytest.mark.parametrize("num_intervals", [1, 2, 5])
def test_eval_many_exact_on_low_degree_data(num_intervals):
    # degree min(3, K - 1) data on a nonuniform grid is reproduced exactly
    nodes = np.array([0.0, 0.3, 0.8, 0.9, 1.3, 1.5])[:num_intervals + 1]
    coeffs = np.random.default_rng(7).standard_normal((min(3, num_intervals) + 1, 2, 2))

    def f(ts):
        return sum(c * ts[:, None, None] ** k for k, c in enumerate(coeffs))

    sol = RiccatiSolution(TimeGrid(nodes), f(nodes))
    ts = np.linspace(0.0, nodes[-1], 23)
    np.testing.assert_allclose(sol.eval_many(ts), f(ts), rtol=0, atol=1e-13)


def test_engine_cache_is_per_problem(hyperbolic_scalar):
    p1 = hyperbolic_scalar
    p2 = hyperbolic_problem(2.0, 1.0, 1.0, B=0.5, k=2.0, theta=1.0, T=1.0)
    sol = solve_riccati(p1, TimeGrid.uniform(1.0, 40))

    def uncached():
        return RiccatiSolution(sol.grid, sol.values, sol.meta)

    prof = riccati_residual_profile(p1, sol)
    table = q_bar_nodes(p1, sol)
    table_again = q_bar_nodes(p1, sol)
    np.testing.assert_array_equal(riccati_residual_profile(p1, sol), prof)
    np.testing.assert_array_equal(table_again, table)
    table_again[:] = 0.0  # callers get a copy, not the cached table
    np.testing.assert_array_equal(q_bar_nodes(p1, sol), table)
    np.testing.assert_array_equal(prof, riccati_residual_profile(p1, uncached()))
    # a second problem on the same solution gets its own answer
    for fn in (riccati_residual_profile, q_bar_nodes):
        np.testing.assert_array_equal(fn(p2, sol), fn(p2, uncached()))
    assert np.abs(q_bar_nodes(p2, sol) - table).max() > 1e-3
    assert riccati_residual(p2, sol, 0.31) == riccati_residual(p2, uncached(), 0.31)
    np.testing.assert_array_equal(q_bar_nodes(p1, sol), table)


def test_eval_many_between_nodes(tanh_solution):
    mids = 0.5 * (tanh_solution.grid.nodes[:-1] + tanh_solution.grid.nodes[1:])
    got = tanh_solution.eval_many(mids)[:, 0, 0]
    assert np.abs(got - np.tanh(1.0 - mids)).max() < 1e-7
    # exact snap at nodes
    at_nodes = tanh_solution.eval_many(tanh_solution.grid.nodes)
    assert np.all(at_nodes == tanh_solution.values)


def test_serialization_round_trip(tanh_solution):
    import io

    d = tanh_solution.to_json_dict()
    K = tanh_solution.grid.nodes.size
    vals = np.asarray(d["values"]).reshape(K, 1, 1)  # row-major entries per node
    np.testing.assert_allclose(vals, tanh_solution.values)
    buf = io.StringIO()
    tanh_solution.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,P_1_1"
    assert len(lines) == K + 1


def test_validation_gate():
    p = constant_problem(A=0.0, B=1.0, Q=1.0, S=0.0, M=-1.0, G=0.0, T=1.0)
    with pytest.raises(InvalidInputError):
        solve_riccati(p, TimeGrid.uniform(1.0, 32))
