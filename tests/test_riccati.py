import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from tilq import (
    InvalidInputError,
    LQProblem,
    NonconvergenceError,
    OneTimeMatrixFn,
    SolveOptions,
    TimeGrid,
    TwoTimeKernel,
    build_policy,
    constant_problem,
    contraction_constants,
    bvp_residual,
    exponential_kernel,
    hyperbolic_kernel,
    hyperbolic_problem,
    hyperbolic_terminal,
    picard_step,
    q_bar,
    riccati_residual,
    riccati_residual_profile,
    simulate,
    solve_riccati,
    upsilon,
    validate_assumptions,
)
from tilq._quad import local_cubic, simpson_weights
from tilq.kernels import _ROW_BLOCK, matrix_norm_many
from tilq.propagators import closed_loop_coefficient, flow_condition, rk4_flow
from tilq.bvp import BvpSolution
from tilq.riccati import RiccatiSolution, _Engine, q_bar_nodes
from tilq.verify import RICCATI_TOL

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


def test_q_bar_closed_form(hyperbolic_decoupled):
    # B = 0, k = theta = 1: F(t; t, P) = (2-t)^-2 + 1 - (2-t)^-1, so
    # Q(t,t) - F = (2-t)^-1 - (2-t)^-2 on the nodes and off them, 0.9951 in
    # the last interval included
    p = hyperbolic_decoupled
    sol = solve_riccati(p, TimeGrid.uniform(1.0, 200))
    ts = np.array([0.0, 0.1234, 0.5, 0.77, 0.9951, 1.0])
    exact = 1.0 / (2.0 - ts) - (2.0 - ts) ** -2
    np.testing.assert_allclose(q_bar(p, sol, ts)[:, 0, 0], exact, rtol=0, atol=1e-10)
    np.testing.assert_allclose(q_bar(p, sol, 0.9951), [[exact[4]]], rtol=0, atol=1e-10)


def test_q_bar_off_the_nodes_matches_a_finer_table():
    # the odd nodes of a 4N grid are off the nodes of N = 400; away from the
    # last two intervals their rows agree with the 4N solve's node table
    p = _n3_problem()
    coarse = solve_riccati(p, TimeGrid.uniform(1.0, 400))
    fine = solve_riccati(p, TimeGrid.uniform(1.0, 1600))
    idx = np.arange(1, 1592, 6)
    got = q_bar(p, coarse, fine.grid.nodes[idx])
    assert np.abs(got - q_bar_nodes(p, fine)[idx]).max() < 1e-8


def test_q_bar_next_to_a_node_reads_its_row(hyperbolic_scalar, hyperbolic_solution):
    p, sol = hyperbolic_scalar, hyperbolic_solution
    nodes, table = sol.grid.nodes, q_bar_nodes(p, sol)
    i = np.array([0, 57, 199, 200])
    got = q_bar(p, sol, nodes[i] + 1e-13)
    np.testing.assert_array_equal(got, table[i])
    np.testing.assert_array_equal(q_bar(p, sol, nodes[57] - 1e-13), table[57])


@pytest.mark.parametrize("t", [-1e-3, 1.0 + 1e-3])
def test_q_bar_outside_the_horizon_raises(hyperbolic_scalar, hyperbolic_solution, t):
    with pytest.raises(InvalidInputError):
        q_bar(hyperbolic_scalar, hyperbolic_solution, t)
    with pytest.raises(InvalidInputError):
        q_bar(hyperbolic_scalar, hyperbolic_solution, [0.5, t])


def test_bvp_residual_off_the_grid(monkeypatch):
    # a pair on 300 intervals against P on 400: two thirds of its times are
    # off the nodes of P, and q_bar reads all of them from one engine
    p = _n3_problem()
    P = solve_riccati(p, TimeGrid.uniform(1.0, 400))
    traj = simulate(build_policy(p, P), 0.0, [1.0, -0.5, 0.3], g=TimeGrid.uniform(1.0, 300))
    phi = np.einsum("kij,kj->ki", P(traj.nodes), traj.states)
    pair = BvpSolution(traj.nodes, traj.states, phi, 0.0, traj.x0)
    q_bar_nodes(p, P)  # the engine of P, whose rows the shared nodes read
    built = []
    real = _Engine.__init__

    def counted(self, *args):
        built.append(args[1])
        real(self, *args)

    monkeypatch.setattr(_Engine, "__init__", counted)
    res_X, res_phi = bvp_residual(p, P, pair)
    assert len(built) == 1 and len(built[0]) == 401 + 200
    assert res_X < 1e-7 and res_phi < 1e-6


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


@pytest.mark.parametrize("t", [0.0123, 0.3037, 0.77, 0.9037])
def test_off_node_residual(tanh_problem, tanh_solution, t):
    # off a node, the first fractional interval reads q_bar at t: small on
    # the solution, large on a 5 % error
    assert riccati_residual(tanh_problem, tanh_solution, t) < 1e-8
    bad = RiccatiSolution(tanh_solution.grid, tanh_solution.values * 1.05)
    assert riccati_residual(tanh_problem, bad, t) > 1e-3


def test_off_node_residual_in_the_last_interval_tanh(tanh_problem, tanh_solution):
    # [t, T] is integrated on the parabola through s_{K-2}, t and T; the
    # trapezoid on [t, T] alone reads 2e-8 here
    assert riccati_residual(tanh_problem, tanh_solution, 0.9951) < 1e-10


def test_off_node_residual_in_the_last_interval_n3():
    # at T - 0.7h the trapezoid on [t, T] alone reads 1.7e-6, above
    # RICCATI_TOL on a correct P; the parabola reads 1.2e-7
    p = _n3_problem()
    sol = solve_riccati(p, TimeGrid.uniform(1.0, 400))
    assert riccati_residual(p, sol, 1.0 - 0.7 / 400) < 0.25 * RICCATI_TOL


def test_residual_one_ulp_from_a_node_reads_the_node():
    # node 201 of the N = 400 grid is 0.5025000000000001; taken off the grid,
    # 0.5025 would be integrated across a 1e-16-wide interval and read 3.9e-6,
    # above RICCATI_TOL on a correct P whose profile reads 2.7e-9 there
    p = _n3_problem()
    sol = solve_riccati(p, TimeGrid.uniform(1.0, 400))
    assert sol.grid.nodes[201] != 0.5025
    profile = riccati_residual_profile(p, sol)
    assert riccati_residual(p, sol, 0.5025) == profile[201] < RICCATI_TOL
    assert riccati_residual(p, sol, 1.0 + 1e-12) == profile[-1]
    with pytest.raises(InvalidInputError):
        riccati_residual(p, sol, 1.0 + 1e-8)


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


def _coupled_problem(*, vectorized=True, b_scale=0.5):
    """n=3, m=2 with every weight depending on the evaluation time, S too."""
    rng = np.random.default_rng(3)
    Q = hyperbolic_kernel(np.eye(3), 1.0, 1.0, 1.0)
    if not vectorized:
        Q = TwoTimeKernel.from_callable(
            lambda t, s, k=Q: k.eval(t, s), (3, 3), 1.0,
            dfn=lambda t, s, k=Q: k.eval_dt(t, s), symmetry_required=True)
    return LQProblem(
        A=OneTimeMatrixFn.constant(0.3 * rng.standard_normal((3, 3)), 1.0),
        B=OneTimeMatrixFn.constant(b_scale * rng.standard_normal((3, 2)), 1.0),
        Q=Q,
        S=exponential_kernel(0.2 * rng.standard_normal((2, 3)), 0.7, 1.0,
                             symmetry_required=False),
        M=hyperbolic_kernel(np.array([[1.0, 0.2], [0.2, 0.8]]), 2.0, 0.5, 1.0),
        G=hyperbolic_terminal(np.eye(3), 1.0, 1.0, 1.0),
    )


def _smooth_values(nodes):
    C = np.array([[1.0, 0.3, 0.0], [0.3, 0.5, -0.2], [0.0, -0.2, 0.7]])
    t = nodes[:, None, None]
    return (0.5 + 0.5 * t) * np.eye(3) + 0.2 * np.sin(3.0 * t) * C


def _loop_f_diag(engine, values, a, b):
    """F(s_i; s_i, P) row by row: one solve for Phi(r, s_i) over each tail."""
    p = engine.p
    U = rk4_flow(engine.nodes[a:], engine.drift(values, a, a, engine.nodes.size - 1))
    ups = engine.upsilon_nodes(values, a)
    upsT = np.swapaxes(ups, -1, -2)
    out = np.empty((b - a + 1, p.n, p.n))
    for i in range(a, b + 1):
        j = i - a
        s, ts = engine.nodes[i], engine.nodes[i:]
        Qd, Md, Sd = p.Q.eval_dt(s, ts), p.M.eval_dt(s, ts), p.S.eval_dt(s, ts)
        Phi = np.swapaxes(np.linalg.solve(U[j].T, np.swapaxes(U[j:], -1, -2)), -1, -2)
        uj, ujT = ups[j:], upsT[j:]
        core = Qd + ujT @ Md @ uj - ujT @ Sd - np.swapaxes(Sd, -1, -2) @ uj
        integrand = np.swapaxes(Phi, -1, -2) @ core @ Phi
        F = np.tensordot(simpson_weights(ts), integrand, axes=(0, 0))
        out[j] = Phi[-1].T @ engine.Gd_nodes[i] @ Phi[-1] + F
    return 0.5 * (out + np.swapaxes(out, -1, -2))


_UNIFORM = np.linspace(0.0, 1.0, 81)
_NONUNIFORM = np.sort(np.concatenate([[0.0, 1.0], np.random.default_rng(5).uniform(0, 1, 79)]))


@pytest.mark.parametrize("nodes, a, b, vectorized", [
    (_UNIFORM, 0, 80, True),  # full grid, as behind q_bar_nodes
    (_UNIFORM, 11, 11 + _ROW_BLOCK + 9, True),  # crosses a block edge mid-grid
    (_UNIFORM, 79, 80, True),  # one-interval window: the trapezoid row K-2
    (_NONUNIFORM, 0, 80, True),
    (_NONUNIFORM, 30, 79, True),
    (_UNIFORM, 5, 60, False),  # pair-by-pair callable kernel with dfn
    # the tail past the split node b + 1 folded once per window
    (_UNIFORM, 40, 76, True),  # b = K - 5
    (_UNIFORM, 50, 77, True),  # b = K - 4, the last b that splits
    (_UNIFORM, 60, 78, True),  # b = K - 3: the drift past b + 1 reads node b - 1
    (_NONUNIFORM, 20, 60, True),
    (_UNIFORM, 33, 70, False),
])
def test_f_diag_matches_row_loop(nodes, a, b, vectorized):
    p = _coupled_problem(vectorized=vectorized)
    engine = _Engine(p, TimeGrid(nodes))
    K = nodes.size
    assert engine.split_node(b) == (b + 1 if b <= K - 4 else K - 1)
    values = _smooth_values(nodes)
    want = _loop_f_diag(engine, values, a, b)
    cached = engine.cached_window(values, a, b)
    ups = engine.upsilon_nodes(values, a)
    got = engine.f_diag(values, a, b, cached, ups)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # an iterate reuses the cached window, which equals a fresh one bit for bit
    assert engine.cached_window(values, a, b) is cached
    fresh = engine.window(values, a, b)
    assert fresh.c == cached.c
    np.testing.assert_array_equal(fresh.flow, cached.flow)
    np.testing.assert_array_equal(fresh.inverse, cached.inverse)
    fresh_blocks = list(fresh.blocks)
    assert len(fresh_blocks) == len(cached.blocks)
    for (i0, core, Z), (j0, core_c, Z_c) in zip(fresh_blocks, cached.blocks):
        assert i0 == j0 and core.shape[0] == cached.c - i0  # in-window columns only
        np.testing.assert_array_equal(core, core_c)
        np.testing.assert_array_equal(Z, Z_c)
    streamed = engine.f_diag(values, a, b, engine.window(values, a, b), ups)
    np.testing.assert_array_equal(streamed, got)


def test_f_diag_ill_conditioned_flow():
    # a strongly contracting closed loop (condition ~3e8 over the grid): the
    # row loop and the batched form both lose about cond * eps, but the flow
    # must be re-anchored per row block; conjugating by the inverse of the
    # flow from the window start instead amplifies rounding by cond^2.  On a
    # mid-grid window the tail past the split node is folded through the
    # fixed flow from that node, so the same bound holds there
    p = _coupled_problem(b_scale=1.0)
    engine = _Engine(p, TimeGrid(_UNIFORM))
    values = 2.0 * _smooth_values(_UNIFORM)
    U = rk4_flow(_UNIFORM, engine.drift(values, 0, 0, _UNIFORM.size - 1))
    assert flow_condition(U, np.linalg.inv(U)) > 1e8
    for a, b in ((0, 80), (10, 60)):
        want = _loop_f_diag(engine, values, a, b)
        got = engine.f_diag(values, a, b, engine.cached_window(values, a, b),
                            engine.upsilon_nodes(values, a))
        assert np.abs(got - want).max() <= 1e-7 * np.abs(want).max()


def test_kernel_partials_once_per_window(hyperbolic_scalar):
    # every iterate of a window reuses its partials: more iterations, no
    # more eval_dt calls
    calls = []
    Q = hyperbolic_scalar.Q

    def dfn(t, s):
        calls.append(1)
        return Q.eval_dt(t, s)

    counted = TwoTimeKernel.from_callable(Q.eval, (1, 1), 1.0, dfn=dfn,
                                          symmetry_required=True, vectorized=True)
    p = LQProblem(A=hyperbolic_scalar.A, B=hyperbolic_scalar.B, Q=counted,
                  S=hyperbolic_scalar.S, M=hyperbolic_scalar.M, G=hyperbolic_scalar.G)
    g = TimeGrid.uniform(1.0, 80)
    counts, iterations = [], []
    for tol in (1e-4, 1e-12):
        calls.clear()
        sol = solve_riccati(p, g, SolveOptions(tol=tol, window_override=0.25))
        counts.append(len(calls))
        iterations.append(sol.meta["iterations_total"])
    assert iterations[1] > iterations[0] + 8
    assert counts[0] == counts[1]


def test_derivative_free_kernel_validates_and_solves(hyperbolic_scalar):
    # the finite-difference partial must work at the corner t = s = 0, which
    # validation samples
    ref = hyperbolic_scalar
    Q = TwoTimeKernel.from_callable(lambda t, s: np.array([[1.0 / (1.0 + s - t)]]),
                                    (1, 1), 1.0, symmetry_required=True)
    assert Q.provenance == "finite-difference"
    p = LQProblem(A=ref.A, B=ref.B, Q=Q, S=ref.S, M=ref.M, G=ref.G)
    g = TimeGrid.uniform(1.0, 40)
    assert validate_assumptions(p, g).hard_ok
    got = solve_riccati(p, g)
    want = solve_riccati(ref, g)
    assert np.abs(got.values - want.values).max() < 1e-6


def _n3_problem():
    """Hyperbolic n=3, m=2, k=theta=1 with A = 0.3 randn, B = randn (rng 0)."""
    rng = np.random.default_rng(0)
    A = 0.3 * rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 2))
    return hyperbolic_problem(np.eye(3), np.eye(2), np.eye(3), A=A, B=B,
                              k=1.0, theta=1.0, T=1.0)


def test_node_residual_matches_profile(tanh_problem, tanh_solution):
    # every node, K-2 included, integrates by the profile's rule
    n3 = _n3_problem()
    for p, sol in [(tanh_problem, tanh_solution),
                   (n3, solve_riccati(n3, TimeGrid.uniform(1.0, 100)))]:
        prof = riccati_residual_profile(p, sol)
        got = [riccati_residual(p, sol, float(t)) for t in sol.grid.nodes]
        np.testing.assert_allclose(got, prof, rtol=1e-9, atol=0.0)


def test_solve_memory_keeps_in_window_columns():
    # a window keeps its kernel partials against the in-window columns only
    # and folds the tail past the split node; keeping every block against the
    # whole tail peaked at 42.5 MiB here
    p, g = _n3_problem(), TimeGrid.uniform(1.0, 800)
    tracemalloc.start()
    try:
        solve_riccati(p, g, SolveOptions(validate=False))
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak <= 36.0


def test_condition_warning_covers_the_window_tail():
    # S = diag(30, 0) makes the closed loop contract one state at a rate near
    # 40 and barely move the other: the flow over [s_a, T] passes 1e12 for
    # the early windows, while the flow over a window of width <= T/4 stays
    # below e^10
    p = constant_problem(A=np.zeros((2, 2)), B=np.eye(2), Q=np.diag([1000.0, 1.0]),
                         S=np.diag([30.0, 0.0]), M=np.eye(2), G=np.eye(2), T=1.0)
    with pytest.warns(RuntimeWarning, match="propagator condition number"):
        sol = solve_riccati(p, TimeGrid.uniform(1.0, 100))
    assert max(w["b"] - w["a"] for w in sol.meta["windows"]) <= 0.25


def test_diverging_window_emits_no_numpy_warning():
    # A = 0.5 over T = 20 grows the flow past the double range inside a
    # quarter-horizon window; such an iterate is rejected as non-finite, so
    # the overflow it passes through is no warning.  P is not checked here.
    one = np.eye(1)
    p = hyperbolic_problem(one, one, one, A=0.5 * one, B=one, k=1.0, theta=1.0, T=20.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            solve_riccati(p, TimeGrid.uniform(20.0, 1700))
        except NonconvergenceError:
            pass
    numpy_warnings = [str(w.message) for w in caught
                      if issubclass(w.category, RuntimeWarning) and "encountered" in str(w.message)]
    assert numpy_warnings == []


# --- the window pair blocks, the feedback tables and the warm start ------------

def _scatter_block(engine, i0, i1, c):
    """Reference build of _Engine.triangle_block: the kernels on the
    triangle pairs of rows [i0, i1) only, packed with np.block, weighted by
    simpson_weights(nodes[i:]) row by row and scattered into zero-filled
    arrays."""
    p, nodes, K = engine.p, engine.nodes, engine.nodes.size
    row_of = np.repeat(np.arange(i0, i1), K - np.arange(i0, i1))
    tail = np.concatenate([np.arange(i, K) for i in range(i0, i1)])
    s, r = nodes[row_of], nodes[tail]
    w = np.concatenate([simpson_weights(nodes[i:]) for i in range(i0, i1)])[:, None, None]
    Sd = p.S.eval_dt(s, r)
    pairs = w * np.block([[p.Q.eval_dt(s, r), -np.swapaxes(Sd, -1, -2)],
                          [-Sd, p.M.eval_dt(s, r)]])
    q = pairs.shape[-1]
    out = []
    for lo, hi, sel in ((i0, c, tail < c), (c, K, tail >= c)):
        dense = np.zeros((hi - lo, q, i1 - i0, q))
        dense[tail[sel] - lo, :, row_of[sel] - i0, :] = pairs[sel]
        out.append(dense)
    return tuple(out)


def _on_triangle(k, dims, symmetric):
    """k as a plain pointwise callable with finite-difference partials that
    refuses every pair with t > s."""
    def fn(t, s):
        assert t <= s, (t, s)
        return k.eval(t, s)

    return TwoTimeKernel.from_callable(fn, dims, 1.0, symmetry_required=symmetric)


def _guarded_problem():
    p = _coupled_problem()
    return LQProblem(A=p.A, B=p.B, Q=_on_triangle(p.Q, (3, 3), True),
                     S=_on_triangle(p.S, (2, 3), False), M=_on_triangle(p.M, (2, 2), True),
                     G=p.G)


_K41, _K101 = np.linspace(0.0, 1.0, 41), np.linspace(0.0, 1.0, 101)
_RANDOM41 = np.sort(np.concatenate([[0.0, 1.0], np.random.default_rng(8).uniform(0, 1, 39)]))
_RANDOM101 = np.sort(np.concatenate([[0.0, 1.0], np.random.default_rng(8).uniform(0, 1, 99)]))


@pytest.mark.parametrize("problem, nodes", [
    ("n3", _K101), ("n3", _RANDOM101), ("guarded", _K41), ("guarded", _RANDOM41)])
def test_triangle_block_matches_pair_scatter(problem, nodes):
    p = _n3_problem() if problem == "n3" else _guarded_problem()
    engine = _Engine(p, TimeGrid(nodes))
    K = nodes.size
    # (i0, i1, c): the last block of a window split at c = b + 1, an inner
    # block, and the blocks of windows with b = K - 1 and b = K - 3, which
    # split at c = K - 1
    for i0, i1, c in [(1, 33, 33), (8, 20, 30), (K - 31, K, K - 1), (K - 26, K - 2, K - 1)]:
        core, folded = engine.triangle_block(i0, i1, c)
        want_core, want_folded = _scatter_block(engine, i0, i1, c)
        assert core.shape == want_core.shape and folded.shape == want_folded.shape
        np.testing.assert_array_equal(core, want_core)
        np.testing.assert_array_equal(folded, want_folded)
        # a window keeps its cores; they must not keep the folded columns
        assert not np.shares_memory(core, folded)


def test_picard_iterate_solves_against_neither_m_nor_psi(monkeypatch):
    # one iterate of an n3 window at N=400 multiplies by the tabulated
    # M^{-1}B', M^{-1}S and psi^{-1}; only the per-block anchoring of the
    # closed-loop flow still solves
    p, g = _n3_problem(), TimeGrid.uniform(1.0, 400)
    engine = _Engine(p, g)
    nodes = g.nodes
    a, b = 200, 300
    values = _smooth_values(nodes)
    callers = []
    real_solve = np.linalg.solve

    def counted(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    engine.picard_iterate(values, a, b, values[b])
    monkeypatch.undo()
    assert set(callers) <= {"_anchored"}
    assert len(callers) <= math.ceil((b - a + 1) / _ROW_BLOCK)

    # the tables give the solve-based gain and closed-loop drift
    def gain(ts, P):
        rhs = np.swapaxes(p.B.eval(ts), -1, -2) @ P + p.S.eval(ts, ts)
        return np.linalg.solve(p.M.eval(ts, ts), rhs)

    def close(got, want):
        return np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    assert close(engine.upsilon_nodes(values, a, b + 1), gain(nodes[a:b + 1], values[a:b + 1]))
    half = engine.half[2 * a:2 * b + 1]
    Pm = local_cubic(nodes[a:], values[a:], half)
    want = p.A.eval(half) - p.B.eval(half) @ gain(half, Pm)
    assert close(engine.drift(values, a, a, b), want)


def test_validated_solve_memory_at_n1600():
    # the window blocks are built in place, and a window's cores do not keep
    # its folded columns: a core that viewed one buffer with the folded
    # columns peaked at 137.8 MiB here, the pair-scatter build at 74.8 MiB
    p, g = _n3_problem(), TimeGrid.uniform(1.0, 1600)
    tracemalloc.start()
    try:
        solve_riccati(p, g)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak <= 72.0


def test_windows_start_from_the_extrapolated_tail():
    # each window after the first starts from the local cubic through the
    # four solved nodes past it: 56 iterations from the boundary, 48 here
    sol = solve_riccati(_n3_problem(), TimeGrid.uniform(1.0, 400))
    assert len(sol.meta["windows"]) > 1
    assert sol.meta["iterations_total"] <= 50


def test_long_horizon_tight_tolerance():
    # hyperbolic, A = 0.5 over T = 20: the warm start still reaches the
    # right P(0) within two or three window halvings
    one = np.eye(1)
    p = hyperbolic_problem(one, one, one, A=0.5 * one, B=one, k=1.0, theta=1.0, T=20.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # condition warnings
        sol = solve_riccati(p, TimeGrid.uniform(20.0, 1000), SolveOptions(tol=1e-10))
    assert abs(sol.values[0, 0, 0] - 1.153849) <= 1e-6
    assert sol.meta["halvings"] <= 3


def test_m_singular_between_nodes_is_an_input_error():
    # M(s, s) = 2 (s - h/2)^2 is positive at every node, so validation
    # passes, but the feedback tables need M^{-1} at the first midpoint too
    c = 0.5 / 32
    M = TwoTimeKernel.from_callable(lambda t, s: np.array([[(t - c) ** 2 + (s - c) ** 2]]),
                                    (1, 1), 1.0, dfn=lambda t, s: np.array([[2 * (t - c)]]),
                                    symmetry_required=True)
    one = OneTimeMatrixFn.constant(np.eye(1), 1.0)
    p = LQProblem(A=OneTimeMatrixFn.constant(np.zeros((1, 1)), 1.0), B=one,
                  Q=TwoTimeKernel.constant(np.eye(1), 1.0, symmetry_required=True),
                  S=TwoTimeKernel.constant(np.zeros((1, 1)), 1.0), M=M, G=one)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # failed sign conditions
        with pytest.raises(InvalidInputError, match="singular"):
            solve_riccati(p, TimeGrid.uniform(1.0, 32))


def test_m_singular_off_the_grid_is_an_input_error():
    # M(s, s) = (s - 0.5025)^2 vanishes at no node or midpoint of the N=100
    # grid, only between them; every gain read there is a typed error
    c = 0.5025
    M = TwoTimeKernel.from_callable(lambda t, s: np.array([[((t + s) / 2 - c) ** 2]]),
                                    (1, 1), 1.0, dfn=lambda t, s: np.array([[(t + s) / 2 - c]]),
                                    symmetry_required=True)
    one = TwoTimeKernel.constant(np.eye(1), 1.0, symmetry_required=True)
    p = LQProblem(A=OneTimeMatrixFn.constant(np.zeros((1, 1)), 1.0),
                  B=OneTimeMatrixFn.constant(np.eye(1), 1.0), Q=one,
                  S=TwoTimeKernel.constant(np.zeros((1, 1)), 1.0), M=M,
                  G=OneTimeMatrixFn.constant(np.eye(1), 1.0))
    g = TimeGrid.uniform(1.0, 100)
    P = RiccatiSolution(g, np.tanh(1.0 - g.nodes)[:, None, None])
    pol = build_policy(p, P)
    calls = [lambda: upsilon(p, P, c), lambda: pol.gain_many([0.2, c]),
             lambda: closed_loop_coefficient(p, P).eval(c), lambda: simulate(pol, c, [1.0]),
             lambda: q_bar(p, P, c)]
    for call in calls:
        with pytest.raises(InvalidInputError, match="singular at s = 0.5025"):
            call()


@pytest.mark.parametrize("problem", ["n3", "coupled"])
def test_gain_matches_a_solve_off_the_grid(problem):
    # the one gain, Ups = MiBt P + MiS from feedback_tables, against a solve
    # with M(s, s) at random off-grid times; the policy's gain is -Ups
    g = TimeGrid.uniform(1.0, 400)
    if problem == "n3":
        p = _n3_problem()
        P = solve_riccati(p, g)
    else:
        p = _coupled_problem()
        P = RiccatiSolution(g, _smooth_values(g.nodes))
    ts = np.random.default_rng(11).uniform(0.0, 1.0, 40)
    rhs = np.swapaxes(p.B.eval(ts), -1, -2) @ P(ts) + p.S.eval(ts, ts)
    want = np.linalg.solve(p.M.eval(ts, ts), rhs)
    got = upsilon(p, P, ts)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    np.testing.assert_array_equal(upsilon(p, P, ts[7]), got[7])
    np.testing.assert_array_equal(build_policy(p, P).gain_many(ts), -got)


def test_m_singular_at_a_node_without_validation_is_an_input_error():
    # M = 0: the bound on M^{-1} of the triangle walk meets it first
    one = np.eye(1)
    p = constant_problem(A=0 * one, B=one, Q=one, S=0 * one, M=0 * one, G=0 * one, T=1.0)
    g = TimeGrid.uniform(1.0, 32)
    with pytest.raises(InvalidInputError, match="singular"):
        solve_riccati(p, g, SolveOptions(validate=False))
    with pytest.raises(InvalidInputError, match="singular"):
        contraction_constants(p, g)


@pytest.mark.parametrize("a, b", [(200, 300), (380, 400)])  # b = K - 1 splits at K - 1
def test_picard_iterate_computes_the_gain_once(monkeypatch, a, b):
    # the window's fixed tail takes its gain once per window; each iterate
    # then computes Ups once and shares it between f_diag and the quadratic
    # term, with the map unchanged
    p, g = _n3_problem(), TimeGrid.uniform(1.0, 400)
    values = _smooth_values(g.nodes)
    engine = _Engine(p, g)
    engine.cached_window(values, a, b)
    calls = []
    real = _Engine.upsilon_nodes

    def counted(self, *args):
        calls.append(args[1:])
        return real(self, *args)

    monkeypatch.setattr(_Engine, "upsilon_nodes", counted)
    got = engine.picard_iterate(values, a, b, values[b])
    monkeypatch.undo()
    assert len(calls) == 1
    c = engine.split_node(b)
    F = engine.f_diag(values, a, b, engine.cached_window(values, a, b),
                      engine.upsilon_nodes(values, a, c))
    ups = engine.upsilon_nodes(values, a, b + 1)
    quad = np.swapaxes(ups, -1, -2) @ engine.M_nodes[a:b + 1] @ ups
    U = engine.psi.values[a:b + 1]
    Y = np.swapaxes(U, -1, -2) @ (engine.Q_nodes[a:b + 1] - F - quad) @ U
    C = U[-1].T @ values[b] @ U[-1] + np.tensordot(simpson_weights(g.nodes[a:b + 1]), Y,
                                                   axes=(0, 0))
    first = engine.psi.inverse[a].T @ C @ engine.psi.inverse[a]
    assert np.abs(got[0] - 0.5 * (first + first.T)).max() <= 1e-13 * np.abs(first).max()
    np.testing.assert_array_equal(got[-1], values[b])


@pytest.mark.parametrize("opts", [
    SolveOptions(tol=0.0), SolveOptions(tol=-1.0), SolveOptions(tol=float("nan")),
    SolveOptions(tol=float("inf")), SolveOptions(max_iter=0), SolveOptions(max_iter=-3),
])
def test_bad_solver_options_are_invalid_input(hyperbolic_scalar, opts):
    # unchecked, these surface from inside the solve as a math domain
    # ValueError, a ZeroDivisionError or an IndexError
    with pytest.raises(InvalidInputError):
        solve_riccati(hyperbolic_scalar, TimeGrid.uniform(1.0, 64), opts)
