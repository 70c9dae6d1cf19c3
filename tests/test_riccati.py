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
    NotPositiveDefiniteError,
    OneTimeMatrixFn,
    SolveOptions,
    TimeGrid,
    TwoTimeKernel,
    brute_force_cost,
    build_policy,
    constant_problem,
    contraction_constants,
    bvp_residual,
    equilibrium_certificate,
    classical_riccati,
    exponential_kernel,
    exponential_terminal,
    fundamental_solution,
    hyperbolic_kernel,
    hyperbolic_problem,
    hyperbolic_terminal,
    cost,
    perturbation_limit_finite_eps,
    q_bar,
    riccati_residual,
    riccati_residual_profile,
    simulate,
    solve_riccati,
    upsilon,
    validate_assumptions,
    value_identity_gap,
)
from tilq import riccati
from tilq._quad import (apply_cubic, local_cubic, simpson_weights, tail_integrals,
                        tail_sums)
from tilq.kernels import _ROW_BLOCK, matrix_norm_many
from tilq.propagators import flow_condition, half_times, rk4_flow
from tilq.bvp import BvpSolution
from tilq.equilibrium import SampleSpec
from tilq.riccati import RiccatiSolution, _Engine, _engine_for, q_bar_nodes
from tilq.verify import RICCATI_TOL
from conftest import n3_problem

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
    p = n3_problem()
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
    p = n3_problem()
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
    p = n3_problem()
    sol = solve_riccati(p, TimeGrid.uniform(1.0, 400))
    assert riccati_residual(p, sol, 1.0 - 0.7 / 400) < 0.25 * RICCATI_TOL


def test_residual_one_ulp_from_a_node_reads_the_node():
    # node 201 of the N = 400 grid is 0.5025000000000001; taken off the grid,
    # 0.5025 would be integrated across a 1e-16-wide interval and read 3.9e-6,
    # above RICCATI_TOL on a correct P whose profile reads 2.7e-9 there
    p = n3_problem()
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


def test_tau1_is_the_widest_span_a_scan_finds():
    # tau1 is the widest node span w over which the drift-only flow U stays
    # within 1 / (2 (1 + e^{2 beta})) of the identity, in both directions;
    # a drift of 0.5 leaves the span 16 of 64 nodes, which the bisection
    # reaches by moving its lower end up
    p = constant_problem(A=0.5, B=0.0, Q=1.0, S=0.0, M=1.0, G=1.0, T=1.0)
    g = TimeGrid.uniform(1.0, 64)
    cc = contraction_constants(p, g)
    U = fundamental_solution(p.A, g)
    U, U_inv = U.values, U.inverse
    bound = 1.0 / (2.0 * (1.0 + math.exp(2.0 * cc.beta_bar)))
    eye, K = np.eye(1), g.nodes.size

    def span_ok(w):
        return max(matrix_norm_many(U[w:] @ U_inv[:-w] - eye).max(),
                   matrix_norm_many(U[:-w] @ U_inv[w:] - eye).max()) <= bound

    widest = max(w for w in range(1, K) if span_ok(w))
    assert widest == 16
    assert cc.tau1 == 0.25 == float((g.nodes[widest:] - g.nodes[:K - widest]).min())


def test_tau1_is_the_gronwall_width_on_a_matrix_drift():
    # ||A|| = 0.2 (row sums) and beta = 0.2: tau1 is the widest node span no
    # longer than log1p(bound) / 0.2 = 0.914, which is 58 of 64 intervals.
    # The flow scan finds 61 (0.953125): the Gronwall width is never wider,
    # and it certifies the same bound on every span up to it
    p = constant_problem(A=0.1 * np.array([[0.0, 2.0], [1.0, 0.0]]), B=np.zeros((2, 2)),
                         Q=np.eye(2), S=None, M=np.eye(2), G=np.eye(2), T=1.0)
    g = TimeGrid.uniform(1.0, 64)
    cc = contraction_constants(p, g)
    assert cc.tau1 == 0.90625
    flow = fundamental_solution(p.A, g)
    U, U_inv = flow.values, flow.inverse
    bound = 1.0 / (2.0 * (1.0 + math.exp(2.0 * cc.beta_bar)))
    eye, K = np.eye(2), g.nodes.size

    def worst(w):
        return max(matrix_norm_many(U[w:] @ U_inv[:-w] - eye).max(),
                   matrix_norm_many(U[:-w] @ U_inv[w:] - eye).max())

    assert all(worst(w) <= bound for w in range(1, 59))
    assert max(w for w in range(1, K) if worst(w) <= bound) == 61


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
    # the solved values are a fixed point of the window map that
    # solve_riccati iterates
    values = tanh_solution.values
    engine = _engine_for(tanh_problem, tanh_solution)
    mapped = engine.picard_iterate(values, engine.iterated_window(values, 150, 200), values[200])
    diff = np.abs(mapped - values[150:201]).max()
    assert diff < 1e-8


def test_picard_contraction_rate(tanh_problem, tanh_solution):
    # two iterates started from different points contract on a narrow window
    a, b = 188, 200  # width 0.06 < 1/16
    boundary = tanh_solution.values[200]
    base = tanh_solution.values
    v1 = base.copy()
    v1[188:201] += 0.3
    v2 = base.copy()
    v2[188:201] -= 0.3
    s1 = RiccatiSolution(tanh_solution.grid, v1, {})
    s2 = RiccatiSolution(tanh_solution.grid, v2, {})
    e1, e2 = _engine_for(tanh_problem, s1), _engine_for(tanh_problem, s2)
    m1 = e1.picard_iterate(s1.values, e1.iterated_window(s1.values, a, b), boundary)
    m2 = e2.picard_iterate(s2.values, e2.iterated_window(s2.values, a, b), boundary)
    before = np.abs(v1[188:201] - v2[188:201]).max()
    after = np.abs(m1 - m2).max()
    assert after <= 0.5 * before


def test_nonconvergence_diagnostics(tanh_problem):
    with pytest.raises(NonconvergenceError) as exc:
        solve_riccati(tanh_problem, TimeGrid.uniform(1.0, 64),
                      SolveOptions(max_iter=1))
    assert exc.value.diagnostics


def test_one_interval_windows(tanh_problem):
    # the last windows see 2- and 3-node tails; one-interval windows
    # integrate by the trapezoid rule, hence the second-order bound
    g = TimeGrid.uniform(1.0, 50)
    engine = _Engine(tanh_problem, g)
    values = np.broadcast_to(engine.G_T, (g.nodes.size, 1, 1)).copy()
    for pos in range(g.nodes.size - 1, 0, -1):
        info = engine.run_window(values, pos - 1, pos, values[pos].copy(),
                                 tol=2e-10, max_iter=200, ball_cap=5.0, mix=True)
        assert info["final_diff"] <= 2e-10
    assert np.abs(values[:, 0, 0] - np.tanh(1.0 - g.nodes)).max() < 5e-5


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


def _pair_twin(p):
    """p with Q, S and M given to from_callable by their own closures: the
    same values, but no declared profile, so an engine takes dense pairs."""
    def pair(k):
        return TwoTimeKernel.from_callable(k.eval, k.dims, k.horizon, k.eval_dt,
                                           symmetry_required=k.symmetry_required,
                                           vectorized=True)

    return LQProblem(A=p.A, B=p.B, Q=pair(p.Q), S=pair(p.S), M=pair(p.M), G=p.G)


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


_F_DIAG_WINDOWS = [
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
]


@pytest.mark.parametrize("nodes, a, b, vectorized", _F_DIAG_WINDOWS)
def test_f_diag_matches_row_loop(nodes, a, b, vectorized):
    p = _coupled_problem(vectorized=vectorized)
    engine = _Engine(p, TimeGrid(nodes))
    K = nodes.size
    assert engine.split_node(b) == (b + 1 if b <= K - 4 else K - 1)
    values = _smooth_values(nodes)
    want = _loop_f_diag(engine, values, a, b)
    cached = engine.iterated_window(values, a, b)
    ups = engine.upsilon_nodes(values, a)
    got = engine.f_diag(values, cached, ups)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # the window every iterate reads equals a fresh one bit for bit, profile
    # tables included (a solve builds it once: test_a_solve_builds_each_window_once)
    fresh = engine.window(values, a, b)
    assert fresh.c == cached.c
    np.testing.assert_array_equal(fresh.flow, cached.flow)
    fresh_blocks = list(fresh.blocks)
    assert len(fresh_blocks) == len(cached.blocks)
    for (i0, core, Z), (j0, core_c, Z_c) in zip(fresh_blocks, cached.blocks):
        assert i0 == j0 and core.S is not None  # this problem's S_t is nonzero
        # the hyperbolic Q (unless it is a pair callable), the exponential S
        # and the hyperbolic M are profile tables
        profiled = [isinstance(part, riccati._Profiled) for part in core_c]
        assert profiled == [vectorized, True, True]
        for block, block_c in zip(core, core_c):  # Q, S and M
            if isinstance(block_c, riccati._Profiled):
                np.testing.assert_array_equal(block.base, block_c.base)
                block, block_c = block.table, block_c.table
            assert block_c.shape[0] == cached.c - i0  # in-window columns only
            np.testing.assert_array_equal(block, block_c)
        np.testing.assert_array_equal(Z, Z_c)
    streamed = engine.f_diag(values, engine.window(values, a, b), ups)
    np.testing.assert_array_equal(streamed, got)
    # the pair twin's engine contracts every kernel's dense pairs, and gives
    # the same F
    twin = _Engine(_pair_twin(p), TimeGrid(nodes))
    dense_window = twin.iterated_window(values, a, b)
    assert all(isinstance(part, np.ndarray) for _, core, _ in dense_window.blocks
               for part in core)
    dense = twin.f_diag(values, dense_window, ups)
    assert np.abs(dense - got).max() <= 1e-13 * np.abs(got).max()


def _per_block_f_diag(engine, values, window, ups):
    """f_diag block by block: each row block folds U_c' Z U_c, inverts its
    rows' U_i and conjugates its rows on its own."""
    a, c, n = window.a, window.c, values.shape[-1]
    out = np.empty((window.b - a + 1, n, n))
    for (i0, core, Z), Ub in zip(window.blocks, engine.block_flows(values, window)):
        j0, rows = i0 - a, Z.shape[0]
        acc = riccati._contract(core, Ub[:-1], ups[j0:c - a] @ Ub[:-1]) \
            + Ub[-1].T @ Z @ Ub[-1]
        Ui_inv = np.linalg.inv(Ub[:rows])
        out[j0:j0 + rows] = np.swapaxes(Ui_inv, -1, -2) @ acc @ Ui_inv
    return 0.5 * (out + np.swapaxes(out, -1, -2))


@pytest.mark.parametrize("nodes, a, b, vectorized", _F_DIAG_WINDOWS)
def test_f_diag_matches_the_per_block_loop(nodes, a, b, vectorized):
    # f_diag folds, inverts and conjugates every row of the window in one
    # call each; the numbers are those of the block-by-block loop, bit for
    # bit, for profile tables, dense pairs and a zero S_t
    p = _coupled_problem(vectorized=vectorized)
    values = _smooth_values(nodes)
    for problem in (p, _pair_twin(p), n3_problem()):
        engine = _Engine(problem, TimeGrid(nodes))
        window = engine.iterated_window(values, a, b)
        ups = engine.upsilon_nodes(values, a)
        want = _per_block_f_diag(engine, values, window, ups)
        got = engine.f_diag(values, window, ups)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("nodes", [_UNIFORM, _NONUNIFORM])
def test_window_rules_reproduce_local_cubic_and_tail_integrals(nodes):
    # a window builds the drift's cubic basis and the map's interval weights
    # once; the iterates that read them get local_cubic and tail_integrals
    # bit for bit, on windows that split at b + 1 and at the last node
    engine = _Engine(_coupled_problem(), TimeGrid(nodes))
    values = _smooth_values(nodes)
    Y = np.random.default_rng(2).standard_normal(values.shape)
    for a, b in [(0, 80), (11, 52), (60, 78), (79, 80)]:
        window = engine.iterated_window(values, a, b)
        c = window.c
        half = engine.half[2 * a:2 * c + 1]
        np.testing.assert_array_equal(apply_cubic(window.cubic, values[a:]),
                                      local_cubic(nodes[a:], values[a:], half))
        np.testing.assert_array_equal(engine.drift(values, a, a, c, window.cubic),
                                      engine.drift(values, a, a, c))
        np.testing.assert_array_equal(tail_sums(window.rule, Y[a:b + 1]),
                                      tail_integrals(Y[a:b + 1], nodes[a:b + 1]))


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
        got = engine.f_diag(values, engine.iterated_window(values, a, b),
                            engine.upsilon_nodes(values, a))
        assert np.abs(got - want).max() <= 1e-7 * np.abs(want).max()


_GRID64 = np.linspace(0.0, 1.0, 65)
_NONUNIFORM64 = np.sort(np.concatenate([[0.0, 1.0],
                                        np.random.default_rng(7).uniform(0, 1, 63)]))


@pytest.mark.parametrize("nodes", [_GRID64, _NONUNIFORM64], ids=["uniform", "nonuniform"])
@pytest.mark.parametrize("a, b", [
    (10, 30),  # c - a = 21 steps, fewer than _ROW_BLOCK
    (10, 41),  # c - a = 32 steps, one row block
    (5, 37),   # c - a = 33 steps: the second row block has one row
    (0, 62),   # c = K - 1 past b = K - 3: c - a = 64 steps, 63 rows
    (20, 63),  # c = K - 1 = b + 1
    (0, 64),   # the full grid: its last row block starts at c = K - 1
])
def test_block_flows_match_the_sequential_flow(nodes, a, b):
    # each row block's flow is built from forward products of chunk flows;
    # it must equal U_r U_i0^{-1} of the sequential rk4_flow
    engine = _Engine(_coupled_problem(), TimeGrid(nodes))
    values = _smooth_values(nodes)
    window = engine.iterated_window(values, a, b)
    c = window.c
    assert c == (b + 1 if b <= nodes.size - 4 else nodes.size - 1)
    U = rk4_flow(nodes[a:c + 1], engine.drift(values, a, a, c))
    flows = list(engine.block_flows(values, window))
    starts = range(a, b + 1, _ROW_BLOCK)
    assert len(flows) == len(starts) == len(window.blocks)
    for i0, got in zip(starts, flows):
        want = U[i0 - a:] @ np.linalg.inv(U[i0 - a])
        assert got.shape == want.shape == (c - i0 + 1,) + U.shape[1:]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # the tail past c and the drift-only flow are chained the same way
    K = nodes.size
    tail = rk4_flow(nodes[c:], engine.drift(values, a, c, K - 1))
    V = rk4_flow(nodes[a:b + 1], engine.A_half[2 * a:2 * b + 1])
    for got, want in ((window.flow, tail), (window.conj[0], V)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


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
        sol = solve_riccati(p, g, SolveOptions(tol=tol))
        assert sol.meta["mode"] == "practical"
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


def test_node_residual_matches_profile(tanh_problem, tanh_solution):
    # every node, K-2 included, integrates by the profile's rule
    n3 = n3_problem()
    for p, sol in [(tanh_problem, tanh_solution),
                   (n3, solve_riccati(n3, TimeGrid.uniform(1.0, 100)))]:
        prof = riccati_residual_profile(p, sol)
        got = [riccati_residual(p, sol, float(t)) for t in sol.grid.nodes]
        np.testing.assert_allclose(got, prof, rtol=1e-9, atol=0.0)


def test_solve_memory_keeps_in_window_columns():
    # a window keeps its kernel partials against the in-window columns only
    # and folds the tail past the split node; keeping every block against the
    # whole tail peaked at 42.5 MiB here
    p, g = n3_problem(), TimeGrid.uniform(1.0, 800)
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


def test_diverging_window_emits_no_numpy_warning(monkeypatch):
    # A = 1 over T = 20 grows the flow past the double range inside a
    # quarter-horizon window; such an iterate is rejected as non-finite, so
    # the overflow it passes through is no warning.  P is not checked here.
    one = np.eye(1)
    p = hyperbolic_problem(one, one, one, A=one, B=one, k=1.0, theta=1.0, T=20.0)
    seen = _recorded_divergences(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            solve_riccati(p, TimeGrid.uniform(20.0, 1000))
        except NonconvergenceError:
            pass
    assert "non-finite iterate" in seen
    numpy_warnings = [str(w.message) for w in caught
                      if issubclass(w.category, RuntimeWarning) and "encountered" in str(w.message)]
    assert numpy_warnings == []


# --- the window pair blocks, the feedback tables and the warm start ------------

def _scatter_block(engine, i0, i1, c):
    """Reference build of _Engine.triangle_block: Q_t, S_t and M_t on the
    triangle pairs of rows [i0, i1) only, weighted by
    simpson_weights(nodes[i:]) row by row and scattered into zero-filled
    arrays, one per kernel, for the columns before c and from c."""
    p, nodes, K = engine.p, engine.nodes, engine.nodes.size
    row_of = np.repeat(np.arange(i0, i1), K - np.arange(i0, i1))
    tail = np.concatenate([np.arange(i, K) for i in range(i0, i1)])
    s, r = nodes[row_of], nodes[tail]
    w = np.concatenate([simpson_weights(nodes[i:]) for i in range(i0, i1)])[:, None, None]
    kernels = (w * p.Q.eval_dt(s, r), w * p.S.eval_dt(s, r), w * p.M.eval_dt(s, r))
    out = []
    for lo, hi, sel in ((i0, c, tail < c), (c, K, tail >= c)):
        part = []
        for pairs in kernels:
            dense = np.zeros((hi - lo, pairs.shape[1], i1 - i0, pairs.shape[2]))
            dense[tail[sel] - lo, :, row_of[sel] - i0, :] = pairs[sel]
            part.append(dense)
        out.append(part)
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
    # n3's family kernels are profile tables, so the dense layout is that of
    # its pair twin; the tables expand to the same partials to rounding
    p = n3_problem() if problem == "n3" else _guarded_problem()
    engine = _Engine(p, TimeGrid(nodes))
    dense = _Engine(_pair_twin(p), TimeGrid(nodes)) if problem == "n3" else engine
    K = nodes.size
    # (i0, i1, c): the last block of a window split at c = b + 1, an inner
    # block, and the blocks of windows with b = K - 1 and b = K - 3, which
    # split at c = K - 1
    for i0, i1, c in [(1, 33, 33), (8, 20, 30), (K - 31, K, K - 1), (K - 26, K - 2, K - 1)]:
        got, scatter = dense.triangle_block(i0, i1, c), _scatter_block(engine, i0, i1, c)
        if problem == "n3":
            for part, want_part in zip(engine.triangle_block(i0, i1, c), scatter):
                for block, want in zip(part, want_part):
                    if block is None:  # the zero S_t
                        assert not want.any()
                        continue
                    assert isinstance(block, riccati._Profiled)
                    np.testing.assert_allclose(
                        block.table[:, None, :, None] * block.base[:, None], want,
                        rtol=1e-15, atol=0.0)
        for part, want_part in zip(got, scatter):
            for block, want in zip(part, want_part):
                assert (block is None) == (not want.any())  # only a zero part is left out
                if block is None:
                    continue
                assert block.shape == want.shape and block.flags.c_contiguous
                np.testing.assert_array_equal(block, want)
        core, folded = got
        # n3 has S = 0: no S block is stored; the guarded S_t is nonzero
        assert (core.S is None and folded.S is None) == (problem == "n3")
        # a window keeps its cores; they must not keep the folded columns
        for block, other in zip(core, folded):
            assert block is None or not np.shares_memory(block, other)


def _rectangle_block(engine, i0, i1, c):
    """_Engine.triangle_block built on rectangles: the row times, the clipped
    column times, the column-minus-row offsets and the weights of every pair
    of the block as (cols, rows) arrays, the weights by two nested
    np.where, and each profile kernel's lags as r - s."""
    p, nodes, K = engine.p, engine.nodes, engine.nodes.size
    rows, cols = i1 - i0, K - i0
    i = np.arange(i0, i1)
    s = np.broadcast_to(nodes[i], (cols, rows)).ravel()
    r = nodes[np.maximum(np.arange(i0, K)[:, None], i)].ravel()
    v, band = engine.tail_rule
    d = np.arange(i0, K)[:, None] - i
    w = np.where(d < 0, 0.0, np.where(d < 4, band[i, np.clip(d, 0, 3)], v[i0:, None]))
    halves = ((0, c - i0), (c - i0, cols))

    def parts(k):
        if k.base is not None:
            dp = None if k.dprofile is None else k.dprofile(r - s).reshape(cols, rows)
            return [riccati._Profiled(w[lo:hi] * dp[lo:hi], k.base)
                    if dp is not None and dp[lo:hi].any() else None for lo, hi in halves]
        pd = k.eval_dt(s, r).reshape((cols, rows) + k.dims).transpose(0, 2, 1, 3)
        return [w[lo:hi, None, :, None] * pd[lo:hi] if pd[lo:hi].any() else None
                for lo, hi in halves]

    core, folded = zip(*(parts(k) for k in (p.Q, p.S, p.M)))
    return riccati._Pairs(*core), riccati._Pairs(*folded)


@pytest.mark.parametrize("problem, nodes", [
    ("n3", _K101), ("n3", _RANDOM101), ("guarded", _K41), ("guarded", _RANDOM41)])
def test_triangle_block_matches_the_rectangle_build(problem, nodes):
    # the lags as one broadcast and the weights as v plus a head of rows + 3
    # columns give the rectangle build's profile tables and dense parts bit
    # for bit, each a C-contiguous array of its own
    p = n3_problem() if problem == "n3" else _guarded_problem()
    engines = [_Engine(p, TimeGrid(nodes))]
    if problem == "n3":
        engines.append(_Engine(_pair_twin(p), TimeGrid(nodes)))
    K = nodes.size
    last = (K - 1) // _ROW_BLOCK * _ROW_BLOCK
    blocks = [(1, 33, 33), (8, 20, 30),
              (K - 31, K, K - 1), (K - 26, K - 2, K - 1),  # cols < rows + 3
              (last, K, K - 1),  # the last, short block of the full-grid window
              (K - 1, K, K - 1)]  # one row, one column
    for engine in engines:
        for i0, i1, c in blocks:
            for got, want in zip(engine.triangle_block(i0, i1, c),
                                 _rectangle_block(engine, i0, i1, c)):
                for block, ref in zip(got, want):
                    if ref is None:
                        assert block is None
                        continue
                    if isinstance(ref, riccati._Profiled):
                        assert isinstance(block, riccati._Profiled) and block.base is ref.base
                        block, ref = block.table, ref.table
                    assert block.flags.c_contiguous and block.base is None
                    assert block.shape == ref.shape and block.tobytes() == ref.tobytes()


def test_picard_iterate_solves_no_linear_system(monkeypatch):
    # one iterate of an n3 window at N=400 multiplies by the tabulated
    # M^{-1}B', M^{-1}S and the stored inverse of the window's drift-only
    # flow, and anchors the closed-loop flow at each row block by forward
    # products of chunk flows: it calls np.linalg.solve zero times
    p, g = n3_problem(), TimeGrid.uniform(1.0, 400)
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
    engine.picard_iterate(values, engine.iterated_window(values, a, b), values[b])
    monkeypatch.undo()
    assert callers == []

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
    p, g = n3_problem(), TimeGrid.uniform(1.0, 1600)
    tracemalloc.start()
    try:
        solve_riccati(p, g)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak <= 72.0


def test_windows_start_from_the_extrapolated_tail():
    # each window after the first starts from the local cubic through the
    # four solved nodes past it: 57 plain iterations from the boundary, 50
    # plain ones here, and 39 map applications with mixing (45 from the
    # boundary)
    sol = solve_riccati(n3_problem(), TimeGrid.uniform(1.0, 400))
    assert len(sol.meta["windows"]) > 1
    assert sol.meta["iterations_total"] <= 40


def _long_horizon_problem(T=20.0, rho=None):
    """A = 0.5, B = Q0 = M0 = G0 = 1 over [0, T]: hyperbolic weights, k = theta
    = 1, or exponential ones of rate rho."""
    one = np.eye(1)
    if rho is None:
        return hyperbolic_problem(one, one, one, A=0.5 * one, B=one, k=1.0, theta=1.0, T=T)
    return LQProblem(A=OneTimeMatrixFn.constant(0.5 * one, T),
                     B=OneTimeMatrixFn.constant(one, T),
                     Q=exponential_kernel(one, rho, T), S=TwoTimeKernel.constant(0 * one, T),
                     M=exponential_kernel(one, rho, T), G=exponential_terminal(one, rho, T))


def test_long_horizon_tight_tolerance():
    # hyperbolic, A = 0.5 over T = 20: the plain window map expands here
    # (factor ~1.5), and plain Picard needed two halvings, 17 windows and
    # 226 iterations at N = 1000; mixed windows converge at full width
    p = _long_horizon_problem()
    for N in (1000, 2000):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # condition warnings
            sol = solve_riccati(p, TimeGrid.uniform(20.0, N), SolveOptions(tol=1e-10))
        assert abs(sol.values[0, 0, 0] - 1.153849) <= 1e-6
        assert sol.meta["halvings"] == 0 and len(sol.meta["windows"]) == 4
        # the image that closes each mixed window is a fixed point to tol
        for w in sol.meta["windows"]:
            assert w["final_diff"] <= sol.meta["tol"]


@pytest.mark.parametrize("N", [1000, 2000])
def test_long_horizon_default_options_solve_every_node(N):
    # the default tol reads the weights, not the a-priori bound r (1e10
    # here), so no window stops far from its fixed point; checked on the
    # whole residual profile, since P(0) came out right while P(15) did not
    p = _long_horizon_problem()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # condition warnings
        sol = solve_riccati(p, TimeGrid.uniform(20.0, N))
    assert sol.meta["tol"] <= 1e-8
    assert riccati_residual_profile(p, sol).max() <= 1e-6


@pytest.mark.parametrize("rho, T, N", [(1.0, 20.0, 1000), (1.0, 20.0, 2000),
                                       (0.2, 50.0, 2500)])
def test_exponential_weights_match_the_shifted_classical_riccati(rho, T, N):
    # with Q, M and G discounted as exp(-rho (s - t)) the problem is time
    # consistent, and its P solves the classical Riccati equation with A
    # shifted to A - rho/2: an exact reference with a nonzero nonlocal term
    g = TimeGrid.uniform(T, N)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # condition warnings
        sol = solve_riccati(_long_horizon_problem(T, rho), g)
    ref = classical_riccati(constant_problem(0.5 - rho / 2, 1.0, 1.0, 0.0, 1.0, 1.0, T), g)
    assert np.abs(sol.values - ref.values).max() <= 1e-6


_SADDLE = np.array([[0.0, 2.0], [1.0, 0.0]])  # eigenvalues +-sqrt(2)


@pytest.mark.parametrize("T, N", [(5.0, 500), (10.0, 1000), (20.0, 2000)])
def test_a_saddle_drift_solves_on_long_horizons(T, N):
    # the drift-only flow of a saddle over [0, T] has condition ~e^{2 sqrt(2) T}:
    # conjugating every window by that flow anchored at 0 exhausted the
    # halving at T = 5, warned and failed at T = 10 and hit a singular
    # matrix at T = 20.  Each window conjugates by its own flow instead
    I = np.eye(2)
    p = constant_problem(A=_SADDLE, B=I, Q=I, S=None, M=I, G=I, T=T)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_riccati(p, TimeGrid.uniform(T, N))
    assert np.abs(sol.values - classical_riccati(p, sol.grid).values).max() <= 1e-6


def _random_drift_problem():
    """Hyperbolic, n = m = 3, T = 10, entries of A up to 0.95 (rng 124)."""
    rng = np.random.default_rng(124)
    n = int(rng.integers(1, 4))
    m, T = int(rng.integers(1, n + 1)), float(rng.choice([0.5, 1, 2, 5, 10]))
    A = rng.uniform(0, 0.8) * rng.standard_normal((n, n))
    B = rng.standard_normal((n, m))
    Q, M, G = (rng.uniform(0.2, 3) * np.eye(n), rng.uniform(0.3, 2) * np.eye(m),
               rng.uniform(0, 2) * np.eye(n))
    return hyperbolic_problem(Q, M, G, A=A, B=B, k=rng.uniform(0.2, 2), theta=1.0, T=T)


@pytest.mark.parametrize("make, N", [
    (lambda: hyperbolic_problem(np.eye(2), np.eye(2), np.eye(2), A=_SADDLE, B=np.eye(2),
                                k=1.0, theta=1.0, T=5.0), 500),
    (lambda: hyperbolic_problem(np.eye(2), np.eye(2), np.eye(2), A=_SADDLE, B=np.eye(2),
                                k=1.0, theta=1.0, T=10.0), 1000),
    (_random_drift_problem, 1000),
], ids=["saddle-5", "saddle-10", "random-124"])
def test_long_horizon_drifts_solve_to_the_residual_tolerance(make, N):
    # the time-inconsistent twins of the saddle above, and a random drift
    # whose halving was exhausted next to T while every window conjugated by
    # the drift-only flow from 0
    p = make()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_riccati(p, TimeGrid.uniform(p.T, N))
    assert riccati_residual_profile(p, sol).max() <= RICCATI_TOL


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
             lambda: simulate(pol, c, [1.0]), lambda: q_bar(p, P, c)]
    for call in calls:
        with pytest.raises(InvalidInputError, match="singular at s = 0.5025"):
            call()


@pytest.mark.parametrize("problem", ["n3", "coupled"])
def test_gain_matches_a_solve_off_the_grid(problem):
    # the one gain, Ups = MiBt P + MiS from feedback_tables, against a solve
    # with M(s, s) at random off-grid times; the policy's gain is -Ups
    g = TimeGrid.uniform(1.0, 400)
    if problem == "n3":
        p = n3_problem()
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
    p, g = n3_problem(), TimeGrid.uniform(1.0, 400)
    values = _smooth_values(g.nodes)
    engine = _Engine(p, g)
    window = engine.iterated_window(values, a, b)
    calls = []
    real = _Engine.upsilon_nodes

    def counted(self, *args):
        calls.append(args[1:])
        return real(self, *args)

    monkeypatch.setattr(_Engine, "upsilon_nodes", counted)
    got = engine.picard_iterate(values, window, values[b])
    monkeypatch.undo()
    assert len(calls) == 1
    c = engine.split_node(b)
    F = engine.f_diag(values, window, engine.upsilon_nodes(values, a, c))
    ups = engine.upsilon_nodes(values, a, b + 1)
    quad = np.swapaxes(ups, -1, -2) @ engine.M_nodes[a:b + 1] @ ups
    # the map conjugates by the drift-only flow of the window, I at s_a
    U = rk4_flow(g.nodes[a:b + 1], p.A.eval(half_times(g.nodes[a:b + 1])))
    Y = np.swapaxes(U, -1, -2) @ (engine.Q_nodes[a:b + 1] - F - quad) @ U
    first = U[-1].T @ values[b] @ U[-1] + np.tensordot(simpson_weights(g.nodes[a:b + 1]), Y,
                                                       axes=(0, 0))
    assert np.abs(got[0] - 0.5 * (first + first.T)).max() <= 1e-13 * np.abs(first).max()
    np.testing.assert_array_equal(got[-1], values[b])


@pytest.mark.parametrize("opts", [
    SolveOptions(tol=0.0), SolveOptions(tol=-1.0), SolveOptions(tol=float("nan")),
    SolveOptions(tol=float("inf")), SolveOptions(max_iter=0), SolveOptions(max_iter=-3),
    SolveOptions(max_iter=2.5),
])
def test_bad_solver_options_are_invalid_input(hyperbolic_scalar, opts):
    # unchecked, these surface from inside the solve as a math domain
    # ValueError, a ZeroDivisionError, an IndexError or, for a max_iter that
    # is not an integer, a TypeError from range
    with pytest.raises(InvalidInputError):
        solve_riccati(hyperbolic_scalar, TimeGrid.uniform(1.0, 64), opts)


def test_eval_many_takes_a_time_next_to_the_ends_as_the_end():
    # within 1e-9 (1 + T) of 0 or T a time is that node (grids.node_index)
    p, g = n3_problem(), TimeGrid.uniform(1.0, 400)
    sol = solve_riccati(p, g)
    np.testing.assert_array_equal(sol(1.0 + 5e-10), sol.values[-1])
    np.testing.assert_array_equal(sol.eval_many([-5e-10, 0.5, 1.0 + 5e-10])[[0, 2]],
                                  sol.values[[0, -1]])
    for t in (1.0 + 1e-8, -1e-8):
        with pytest.raises(InvalidInputError, match="outside"):
            sol(t)


def test_m_not_positive_definite_raises_its_type():
    # the typed error is an InvalidInputError, so callers and the CLI's
    # exit code 2 see no change; where is the failing check's pair
    p = constant_problem(A=0.0, B=1.0, Q=1.0, S=0.0, M=-1.0, G=0.0, T=1.0)
    g = TimeGrid.uniform(1.0, 32)
    with pytest.raises(NotPositiveDefiniteError) as exc:
        solve_riccati(p, g)
    assert isinstance(exc.value, InvalidInputError)
    check = {c.assumption: c for c in validate_assumptions(p, g).checks}
    assert exc.value.where == check["H2-M-positive-definite"].where == (0.0, 0.0)
    assert "H2-M-positive-definite" in str(exc.value)
    # another hard failure keeps the plain type
    q_bad = constant_problem(A=0.0, B=1.0, Q=-1.0, S=0.0, M=1.0, G=0.0, T=1.0)
    with pytest.raises(InvalidInputError) as exc:
        solve_riccati(q_bad, g)
    assert not isinstance(exc.value, NotPositiveDefiniteError)


# --- every divergence branch of the window march ------------------------------

def _crawling_picard(steps):
    """An _Engine.picard_iterate whose k-th call moves every window node but
    the pinned last one by steps(k): a window map with a chosen contraction."""
    calls = []

    def fake(self, values, window, boundary):
        new = values[window.a:window.b + 1] + steps(len(calls))
        calls.append(1)
        new[-1] = boundary
        return new

    return fake


def _recorded_divergences(monkeypatch):
    seen = []

    class Recorded(riccati._Diverged):
        def __init__(self, message):
            seen.append(message)
            super().__init__(message)

    monkeypatch.setattr(riccati, "_Diverged", Recorded)
    return seen


def test_projected_nonconvergence_halves_a_practical_window(monkeypatch):
    # the first quarter-horizon window of the T = 20 case needs 53 map
    # applications; at max_iter = 40 the rate of its best diff projects past
    # the cap, so the window is halved once, and the halves converge
    p = _long_horizon_problem()
    g = TimeGrid.uniform(20.0, 1000)
    seen = _recorded_divergences(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # condition warnings
        sol = solve_riccati(p, g, SolveOptions(tol=1e-10, max_iter=40))
        full = solve_riccati(p, g, SolveOptions(tol=1e-10))
    assert sol.meta["mode"] == "practical" and sol.meta["halvings"] == 1
    assert [m.split(" (")[0] for m in seen] == ["projected nonconvergence"]
    assert full.meta["halvings"] == 0
    assert np.abs(sol.values - full.values).max() <= 1e-8


def test_a_closing_image_that_moves_resumes_mixing(monkeypatch, tanh_problem):
    # the first window's second application barely moves its mixed
    # iterate, so the plain image of that iterate is checked by one more
    # application; that one moves by 1e-3, so the window mixes on, with the
    # real map, until a plain image moves by at most tol: no halving, and
    # the window's last application is within tol
    real = _Engine.picard_iterate
    steps = [1e-3, 0.0, 1e-3]
    crawl = _crawling_picard(lambda k: steps[k])
    calls = []

    def closing_moves_once(self, values, window, boundary):
        calls.append(1)
        if len(calls) <= len(steps):
            return crawl(self, values, window, boundary)
        return real(self, values, window, boundary)

    seen = _recorded_divergences(monkeypatch)
    g = TimeGrid.uniform(1.0, 64)
    want = solve_riccati(tanh_problem, g)
    monkeypatch.setattr(_Engine, "picard_iterate", closing_moves_once)
    sol = solve_riccati(tanh_problem, g)
    first = sol.meta["windows"][0]
    assert sol.meta["mode"] == "practical" and seen == []
    assert first["iterations"] > len(steps) and first["final_diff"] <= sol.meta["tol"]
    assert np.abs(sol.values - want.values).max() <= 1e-9


def test_a_stalled_practical_window_is_halved(monkeypatch, hyperbolic_scalar):
    # a map that moves the iterate by the same amount every time makes no
    # progress over _SPAN iterates (mixing has nothing to combine: every
    # residual difference is zero); the window is halved, and the real map
    # then solves as without the stall
    real = _Engine.picard_iterate
    stall = _crawling_picard(lambda k: 1e-3)
    calls = []

    def first_stalls(self, values, window, boundary):
        calls.append(1)
        if len(calls) <= riccati._SPAN + 1:
            return stall(self, values, window, boundary)
        return real(self, values, window, boundary)

    seen = _recorded_divergences(monkeypatch)
    g = TimeGrid.uniform(1.0, 200)
    want = solve_riccati(hyperbolic_scalar, g)
    monkeypatch.setattr(_Engine, "picard_iterate", first_stalls)
    sol = solve_riccati(hyperbolic_scalar, g)
    assert sol.meta["mode"] == "practical" and sol.meta["halvings"] == 1
    assert seen == [f"no progress over the last {riccati._SPAN} iterates"]
    assert np.abs(sol.values - want.values).max() <= 1e-9


def test_divergence_in_a_certified_window_is_an_error(monkeypatch, hyperbolic_decoupled):
    # no real certified window needs more than three iterates, so the map
    # crawls at factor 0.99: projected nonconvergence, and no halving
    monkeypatch.setattr(_Engine, "picard_iterate", _crawling_picard(lambda k: 1e-3 * 0.99 ** k))
    with pytest.raises(NonconvergenceError, match="divergence inside a certified window: "
                                                  "projected nonconvergence") as exc:
        solve_riccati(hyperbolic_decoupled, TimeGrid.uniform(1.0, 200))
    assert exc.value.diagnostics["mode"] == "guaranteed"


def test_window_halving_exhausted(monkeypatch, tanh_problem):
    # a practical window that never converges is halved down to one interval
    monkeypatch.setattr(_Engine, "picard_iterate", _crawling_picard(lambda k: 1e-3 * 0.99 ** k))
    with pytest.raises(NonconvergenceError, match="window halving exhausted") as exc:
        solve_riccati(tanh_problem, TimeGrid.uniform(1.0, 64))
    assert exc.value.diagnostics["mode"] == "practical"
    assert 0 < exc.value.diagnostics["halvings"] < 40


def test_a_singular_flow_at_acceptance_halves_the_window(monkeypatch, tanh_problem):
    # the condition check inverts the closed-loop flow of the accepted
    # values once per window; a flow singular there diverges the window, as
    # it did inside an iterate, and no raw LinAlgError leaves the solve
    real = _Engine.check_condition
    calls = []

    def first_singular(self, values, window):
        calls.append(1)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return real(self, values, window)

    seen = _recorded_divergences(monkeypatch)
    monkeypatch.setattr(_Engine, "check_condition", first_singular)
    sol = solve_riccati(tanh_problem, TimeGrid.uniform(1.0, 64))
    assert sol.meta["halvings"] == 1
    assert seen == ["singular closed-loop flow: Singular matrix"]


def test_only_practical_windows_mix(monkeypatch, hyperbolic_decoupled, tanh_problem):
    # criterion 6 certifies the plain map on a certified window, so those
    # iterate plain Picard; practical windows mix
    calls = []
    real = riccati._Anderson.mix

    def counted(self, x, g):
        calls.append(1)
        return real(self, x, g)

    monkeypatch.setattr(riccati._Anderson, "mix", counted)
    g = TimeGrid.uniform(1.0, 200)
    assert solve_riccati(hyperbolic_decoupled, g).meta["mode"] == "guaranteed"
    assert calls == []
    assert solve_riccati(tanh_problem, g).meta["mode"] == "practical"
    assert calls


def _first_iterate_singular(monkeypatch):
    # picard_iterate raises LinAlgError on its first call, then runs as usual
    real = _Engine.picard_iterate
    calls = []

    def first_singular(self, values, window, boundary):
        calls.append(1)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return real(self, values, window, boundary)

    monkeypatch.setattr(_Engine, "picard_iterate", first_singular)


def test_a_singular_iterate_halves_a_practical_window(monkeypatch, tanh_problem):
    # a LinAlgError inside an iterate diverges the window, which is halved
    g = TimeGrid.uniform(1.0, 64)
    want = solve_riccati(tanh_problem, g)
    seen = _recorded_divergences(monkeypatch)
    _first_iterate_singular(monkeypatch)
    sol = solve_riccati(tanh_problem, g)
    assert sol.meta["mode"] == "practical" and sol.meta["halvings"] == 1
    assert seen == ["singular matrix in the iterate: Singular matrix"]
    # other windows, the same fixed point to the iteration tolerance
    assert np.abs(sol.values - want.values).max() <= 10.0 * want.meta["tol"]


def test_a_solve_builds_each_window_once(monkeypatch, tanh_problem):
    # every iterate of a window and its closing condition check read the one
    # window run_window builds, a window that diverges on its first iterate
    # included; its halves build their own
    built, runs = [], []
    real_window, real_run = _Engine.window, _Engine.run_window

    def window(self, values, a, b):
        built.append((a, b))
        return real_window(self, values, a, b)

    def run_window(self, values, a, b, *args):
        runs.append((a, b))
        return real_run(self, values, a, b, *args)

    _first_iterate_singular(monkeypatch)
    monkeypatch.setattr(_Engine, "window", window)
    monkeypatch.setattr(_Engine, "run_window", run_window)
    sol = solve_riccati(tanh_problem, TimeGrid.uniform(1.0, 64))
    assert sol.meta["halvings"] == 1 and len(runs) == len(sol.meta["windows"]) + 1
    assert built == runs and sol.meta["iterations_total"] > 2 * len(runs)


def test_a_singular_iterate_in_a_certified_window_is_an_error(monkeypatch,
                                                              hyperbolic_decoupled):
    _first_iterate_singular(monkeypatch)
    with pytest.raises(NonconvergenceError, match="divergence inside a certified window: "
                                                  "singular matrix in the iterate") as exc:
        solve_riccati(hyperbolic_decoupled, TimeGrid.uniform(1.0, 200))
    assert exc.value.diagnostics["mode"] == "guaranteed"


def test_slow_contraction_on_a_certified_window_is_an_error(monkeypatch, hyperbolic_decoupled):
    # the window converges, but at an observed factor 0.9 > 0.75
    steps = [1e-3, 9e-4]
    monkeypatch.setattr(_Engine, "picard_iterate",
                        _crawling_picard(lambda k: steps[k] if k < len(steps) else 0.0))
    with pytest.raises(NonconvergenceError, match="contraction factor 0.900 exceeds 0.75"):
        solve_riccati(hyperbolic_decoupled, TimeGrid.uniform(1.0, 200))


# --- grids that end elsewhere than the horizon, non-finite times --------------

@pytest.mark.parametrize("T_grid", [2.0, 0.5])
def test_a_grid_off_the_horizon_is_refused_before_any_evaluation(monkeypatch, T_grid):
    # a T = 2 grid on a T = 1 problem used to return P(0) = tanh 2, not tanh 1;
    # a solution of another horizon passed the residual leg (9.8e-12), q_bar
    # answered past T, and simulate on a grid ending at 0.5 stopped there
    from tilq import problem, run_verification, verify

    p = constant_problem(0, 1, 1, None, 1, 0, 1.0)
    g, right = TimeGrid.uniform(T_grid, 100), TimeGrid.uniform(1.0, 100)

    def evaluated(*args, **kwargs):
        raise AssertionError("evaluated before the horizon check")

    for module, name in [(riccati, "_triangle_pass"), (problem, "_triangle_pass"),
                         (verify, "riccati_residual_profile")]:
        monkeypatch.setattr(module, name, evaluated)
    wrong_solution = RiccatiSolution(g, np.zeros((101, 1, 1)))
    pol = build_policy(p, RiccatiSolution(right, np.zeros((101, 1, 1))))
    for call in (lambda: solve_riccati(p, g), lambda: validate_assumptions(p, g),
                 lambda: contraction_constants(p, g), lambda: run_verification(p, g),
                 lambda: run_verification(p, right, solution=wrong_solution),
                 lambda: riccati.riccati_residual_profile(p, wrong_solution),
                 lambda: riccati_residual(p, wrong_solution, g.nodes[1]),
                 lambda: riccati_residual(p, wrong_solution, 0.3333),
                 lambda: q_bar_nodes(p, wrong_solution),
                 lambda: q_bar(p, wrong_solution, [g.nodes[1], 0.3333]),
                 lambda: build_policy(p, wrong_solution),
                 lambda: simulate(pol, 0.0, [1.0], g=g),
                 lambda: cost(p, 0.0, [1.0], pol, g),
                 lambda: value_identity_gap(p, pol, 0.0, [1.0], g),
                 lambda: perturbation_limit_finite_eps(p, pol, 0.0, [1.0], [0.5], [0.2], g)):
        with pytest.raises(InvalidInputError, match="horizon"):
            call()


def test_non_finite_times_are_refused(tanh_problem, tanh_solution):
    # each used to return NaN
    pol = build_policy(tanh_problem, tanh_solution)
    for call in (lambda: tanh_solution.eval_many(np.nan),
                 lambda: tanh_solution([0.5, np.nan]),
                 lambda: upsilon(tanh_problem, tanh_solution, np.nan),
                 lambda: pol.gain_many(np.array([0.2, np.inf]))):
        with pytest.raises(InvalidInputError, match="finite"):
            call()


def test_time_arrays_beyond_one_dimension_are_refused(tanh_problem, tanh_solution):
    # the rule of the kernels: a time is a scalar or a 1-d array; eval_many
    # used to raise a ValueError and q_bar an IndexError
    ts = np.array([[0.2, 0.5], [0.25, 0.75]])
    for call in (lambda: tanh_solution.eval_many(ts), lambda: tanh_solution(ts),
                 lambda: q_bar(tanh_problem, tanh_solution, ts)):
        with pytest.raises(InvalidInputError, match="1-d"):
            call()


@pytest.mark.parametrize("call, name", [
    (lambda p, P, pol: q_bar(p, P, np.nan), "finite times ts"),
    (lambda p, P, pol: q_bar(p, P, [0.3, np.nan]), "finite times ts"),
    (lambda p, P, pol: riccati_residual(p, P, np.nan), "one finite time t"),
    (lambda p, P, pol: riccati_residual(p, P, [0.5, 0.6]), "one finite time t"),
    (lambda p, P, pol: perturbation_limit_finite_eps(p, pol, np.nan, [1.0], [0.5], [0.2]),
     "deviation time t"),
    (lambda p, P, pol: perturbation_limit_finite_eps(p, pol, -0.5, [1.0], [0.5], [0.2]),
     "deviation time t"),
    (lambda p, P, pol: perturbation_limit_finite_eps(p, pol, 0.1, [1.0], [0.5],
                                                     [np.nan, 0.2]), "eps_list"),
    (lambda p, P, pol: equilibrium_certificate(p, pol, SampleSpec(eps_list=(np.nan, 0.1))),
     "eps_list"),
    (lambda p, P, pol: equilibrium_certificate(p, pol, SampleSpec(eps_list=0.1)),
     "eps_list"),
    (lambda p, P, pol: P.grid.refine(2.5), "refinement factor"),
    (lambda p, P, pol: TimeGrid.uniform(np.inf, 10), "finite T"),
    (lambda p, P, pol: riccati_residual(p, P, "abc"), "time arguments must be numbers"),
    (lambda p, P, pol: q_bar(p, P, "abc"), "time arguments must be numbers"),
    (lambda p, P, pol: P.eval_many("x"), "time arguments must be numbers"),
    (lambda p, P, pol: validate_assumptions(p, P.grid, np.nan), "tol must be a finite number"),
    (lambda p, P, pol: validate_assumptions(p, P.grid, -1.0), "tol must be a finite number"),
    (lambda p, P, pol: validate_assumptions(p, P.grid, "x"), "tol must be a finite number"),
    (lambda p, P, pol: validate_assumptions(p, P.grid, None), "tol must be a finite number"),
    (lambda p, P, pol: brute_force_cost(p, 0.0, [1.0], pol, refinement=4.5),
     "refinement must be an integer"),
    (lambda p, P, pol: brute_force_cost(p, 0.0, [1.0], pol, refinement="8"),
     "refinement must be an integer"),
], ids=["q_bar-nan", "q_bar-nan-entry", "residual-nan", "residual-array",
        "finite-eps-t-nan", "finite-eps-t-negative", "finite-eps-nan-eps",
        "certificate-nan-eps", "certificate-scalar-eps", "refine-float", "uniform-T-inf",
        "residual-string", "q_bar-string", "eval-many-string", "validate-tol-nan",
        "validate-tol-negative", "validate-tol-string", "validate-tol-none",
        "brute-force-refinement-float", "brute-force-refinement-string"])
def test_malformed_times_and_factors_name_the_input(tanh_problem, tanh_solution, call, name):
    # a malformed time, width or factor is an input error that names that
    # input: not a message about grid nodes or [0, T], not a coarse grid
    # (GridTooCoarseError) and not a bare TypeError
    pol = build_policy(tanh_problem, tanh_solution)
    with pytest.raises(InvalidInputError, match=name):
        call(tanh_problem, tanh_solution, pol)
