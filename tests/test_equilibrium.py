import tracemalloc

import numpy as np
import pytest

from tilq import (
    GridTooCoarseError,
    InvalidInputError,
    LQProblem,
    RiccatiSolution,
    TimeGrid,
    brute_force_cost,
    build_policy,
    cost,
    equilibrium_certificate,
    exponential_kernel,
    from_riccati,
    perturbation_limit_closed_form,
    perturbation_limit_finite_eps,
    simulate,
    solve_riccati,
    value_identity_gap,
)
import tilq.equilibrium as eq
from tilq._quad import simpson_weights
from tilq.equilibrium import SampleSpec, _splice_batch
from tilq.propagators import half_times
from conftest import n3_problem

TANH1 = 0.7615941559557649  # tanh(1)
TANH1_SQ = 0.5800256583859739  # tanh(1)^2


@pytest.fixture(scope="module")
def tanh_policy(tanh_problem, tanh_solution):
    return build_policy(tanh_problem, tanh_solution)


@pytest.fixture(scope="module")
def hyp_policy(hyperbolic_scalar, hyperbolic_solution):
    return build_policy(hyperbolic_scalar, hyperbolic_solution)


def _two_time_s_problem():
    """The n3 problem with a two-time cross weight S(t, s)."""
    n3 = n3_problem()
    return LQProblem(A=n3.A, B=n3.B, Q=n3.Q, M=n3.M, G=n3.G,
                     S=exponential_kernel(0.3 * np.arange(6.0).reshape(2, 3) - 0.5,
                                          0.7, 1.0, symmetry_required=False))


@pytest.fixture(scope="module")
def n3_policy():
    p = n3_problem()
    return p, build_policy(p, solve_riccati(p, TimeGrid.uniform(1.0, 400)))


def test_gain_equals_p_for_unit_weights(tanh_policy, tanh_solution):
    # M = B = 1, S = 0 makes the gain -M^{-1}(B'P+S) = -P
    np.testing.assert_allclose(tanh_policy.gain(0.0), -tanh_solution(0.0), atol=1e-12)
    np.testing.assert_allclose(tanh_policy.control(0.0, np.ones(1)),
                               [-TANH1], atol=1e-7)


def test_simulate_closed_form(tanh_policy):
    # closed loop x' = -tanh(1-s) x from x(0)=1 gives x(s) = cosh(1-s)/cosh(1)
    tr = simulate(tanh_policy, 0.0, np.ones(1))
    exact = np.cosh(1.0 - tr.nodes) / np.cosh(1.0)
    assert np.abs(tr.states[:, 0] - exact).max() < 1e-7
    np.testing.assert_allclose(tr.controls[:, 0],
                               -np.tanh(1.0 - tr.nodes) * tr.states[:, 0], atol=1e-6)
    assert tr.states.shape == (tr.nodes.size, 1)


def test_simulate_from_interior_time(tanh_policy):
    tr = simulate(tanh_policy, 0.5, np.array([2.0]))
    assert tr.nodes[0] == 0.5
    exact = 2.0 * np.cosh(1.0 - tr.nodes) / np.cosh(0.5)
    assert np.abs(tr.states[:, 0] - exact).max() < 1e-7


def test_simulate_from_off_grid_time(tanh_policy):
    # the policy path starts at t0 itself, between nodes, and then steps
    # through the nodes past it
    t0 = 0.3037
    tr = simulate(tanh_policy, t0, np.array([1.5]))
    assert tr.nodes[0] == t0 and np.all(np.diff(tr.nodes) > 0)
    exact = 1.5 * np.cosh(1.0 - tr.nodes) / np.cosh(1.0 - t0)
    assert np.abs(tr.states[:, 0] - exact).max() < 1e-7
    np.testing.assert_allclose(tr.controls[:, 0], -np.tanh(1.0 - tr.nodes) * tr.states[:, 0],
                               atol=1e-7)


def test_simulate_from_next_to_a_node_starts_there(tanh_policy):
    # a t0 within 1e-9 (1 + T) of a node is that node, on either side; just
    # before T it is T, which is no start
    nodes = tanh_policy.P.grid.nodes
    on = simulate(tanh_policy, nodes[60], np.array([1.5]))
    for t0 in (nodes[60] - 1e-11, nodes[60] + 1e-10):
        tr = simulate(tanh_policy, t0, np.array([1.5]))
        assert tr.t0 == nodes[60]
        np.testing.assert_array_equal(tr.nodes, on.nodes)
        np.testing.assert_array_equal(tr.states, on.states)
    with pytest.raises(InvalidInputError):
        simulate(tanh_policy, 1.0 - 1e-11, np.array([1.5]))


def test_trajectory_csv(tanh_policy):
    import io

    tr = simulate(tanh_policy, 0.0, np.ones(1))
    buf = io.StringIO()
    tr.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,x_1,u_1"
    assert len(lines) == tr.nodes.size + 1


def test_cost_constant_control_analytic(tanh_problem):
    # A=0, B=1: X(s) = x + v(s-t); J = int_t^1 (X^2 + v^2) ds, G = 0
    t, x, v = 0.25, 1.5, -0.75

    def exact():
        from scipy.integrate import quad

        f = lambda s: (x + v * (s - t)) ** 2 + v**2
        return quad(f, t, 1.0)[0]

    got = cost(tanh_problem, t, np.array([x]), np.array([v]))
    np.testing.assert_allclose(got, exact(), rtol=1e-10)


def test_cost_time_function_control(tanh_problem):
    # time-only callable: u(s) = -s; X(s) = x - (s^2 - t^2)/2
    t, x = 0.0, 1.0
    got = cost(tanh_problem, t, np.array([x]), lambda s: np.array([-s]))
    from scipy.integrate import quad

    X = lambda s: x - 0.5 * s**2
    exact = quad(lambda s: X(s) ** 2 + s**2, 0.0, 1.0)[0]
    np.testing.assert_allclose(got, exact, rtol=1e-8)


def test_cost_refuses_a_feedback_callable(tanh_problem, tanh_policy):
    # every control is affine in the state: a callable is a time function
    # u(s), called with the time alone, so a feedback u(s, x) is refused by
    # cost and by the brute-force oracle alike
    x = np.array([0.8])
    for fn in (cost, brute_force_cost):
        with pytest.raises(InvalidInputError, match=r"u\(s\)"):
            fn(tanh_problem, 0.0, x, lambda s, y: tanh_policy.control(s, y))
    for bad in (lambda s: np.ones(2), np.ones(2), [np.nan], None, "v"):
        with pytest.raises(InvalidInputError):
            cost(tanh_problem, 0.0, x, bad)


def _ivp_cost(p, t, x, controls, edges):
    """J(t, x; u) by scipy's solve_ivp (DOP853), the running cost riding
    along as one more state: controls[i](s, x) holds on [edges[i], edges[i+1]]."""
    from scipy.integrate import solve_ivp

    def rhs(s, y, u):
        xs = y[:p.n]
        us = u(s, xs)
        run = (xs @ p.Q.eval(t, s) @ xs + 2.0 * us @ p.S.eval(t, s) @ xs
               + us @ p.M.eval(t, s) @ us)
        return np.append(p.A.eval(s) @ xs + p.B.eval(s) @ us, run)

    y = np.append(x, 0.0)
    for a, b, u in zip(edges[:-1], edges[1:], controls):
        y = solve_ivp(rhs, (a, b), y, method="DOP853", args=(u,),
                      rtol=1e-12, atol=1e-13).y[:, -1]
    return y[p.n] + y[:p.n] @ p.G.eval(t) @ y[:p.n]


def test_cost_shift_controls_match_an_ode_reference(n3_policy):
    # a constant and a time function ride along as held state z = (x, 1);
    # scipy's DOP853 on x' = A x + B u with the running cost as extra state
    # checks the held drift [[A, B u], [0, 0]] with A != 0 and m = 2, spliced
    # with the policy at a breakpoint, and the cross weight through a
    # two-time S
    p, pol = n3_policy
    x, v = np.array([0.5, -1.0, 2.0]), np.array([0.7, -0.3])
    wave = lambda s: v * np.cos(3.0 * s)
    feedback = lambda s, y: pol.control(s, y)
    cases = [(p, v, [lambda s, y: v], (0.2, 1.0)),
             (p, wave, [lambda s, y: wave(s)], (0.2, 1.0)),
             (p, [v, pol], [lambda s, y: v, feedback], (0.2, 0.45, 1.0)),
             (_two_time_s_problem(), v, [lambda s, y: v], (0.2, 1.0))]
    for prob, u, ref, edges in cases:
        np.testing.assert_allclose(cost(prob, 0.2, x, u, breakpoints=edges[1:-1]),
                                   _ivp_cost(prob, 0.2, x, ref, edges), rtol=1e-10)


def test_cost_at_horizon_is_terminal(hyperbolic_scalar):
    x = np.array([2.0])
    got = cost(hyperbolic_scalar, 1.0, x, np.zeros(1))
    np.testing.assert_allclose(got, 4.0)  # <G(T)x, x>, G(T) = 1


def test_cost_spliced_segments(tanh_problem, tanh_policy):
    # splicing the policy against itself must equal the plain policy cost
    x = np.array([1.0])
    J = cost(tanh_problem, 0.0, x, tanh_policy)
    J_spliced = cost(tanh_problem, 0.0, x, [tanh_policy, tanh_policy],
                     breakpoints=(0.37,))
    np.testing.assert_allclose(J_spliced, J, rtol=1e-10)


def test_cost_breakpoint_at_horizon(hyperbolic_scalar, hyp_policy):
    # a breakpoint at T closes an empty last segment whose control is unused
    p, t, x, v = hyperbolic_scalar, 0.75, np.array([1.5]), np.array([0.3])
    J = cost(p, t, x, v)
    assert cost(p, t, x, [v, hyp_policy], breakpoints=(1.0,)) == J
    assert cost(p, t, x, [v], breakpoints=(1.0,)) == J
    with pytest.raises(InvalidInputError):
        cost(p, t, x, [v, hyp_policy, v], breakpoints=(1.0,))


def test_value_identity(tanh_problem, tanh_policy):
    # J(t, x; policy) = <P(t)x, x>; at t=0, x=1 this is tanh(1)
    J = cost(tanh_problem, 0.0, np.ones(1), tanh_policy)
    np.testing.assert_allclose(J, TANH1, atol=1e-7)
    gap = value_identity_gap(tanh_problem, tanh_policy, 0.0, np.ones(1))
    assert gap < 1e-7


def test_value_identity_hyperbolic(hyperbolic_scalar, hyp_policy):
    for t, x in [(0.0, 1.0), (0.3, -2.0), (0.6, 0.5)]:
        gap = value_identity_gap(hyperbolic_scalar, hyp_policy, t, np.array([x]))
        assert gap < 1e-7 * (1 + x * x)


def test_closed_form_quotient(tanh_problem, tanh_policy):
    x = np.ones(1)
    u_bar = tanh_policy.control(0.0, x)
    # <M(v - u), v - u> with M = 1
    v = np.array([0.3])
    got = perturbation_limit_closed_form(tanh_problem, tanh_policy, 0.0, x, v)
    np.testing.assert_allclose(got, (v[0] - u_bar[0]) ** 2, atol=1e-12)
    # zero exactly at the policy value
    assert perturbation_limit_closed_form(
        tanh_problem, tanh_policy, 0.0, x, u_bar) == 0.0


def test_finite_eps_matches_closed_form(tanh_problem, tanh_policy):
    # the spike-variation quotient tends to (v - u)^2; v = 0 at x = 1 gives
    # tanh(1)^2 in the limit
    x = np.ones(1)
    quotients, extrapolated = perturbation_limit_finite_eps(
        tanh_problem, tanh_policy, 0.0, x, np.zeros(1), [0.1, 0.05, 0.025])
    assert abs(extrapolated - TANH1_SQ) < 2e-4
    # smaller eps lands closer to the limit
    qs = [quotients[e] for e in sorted(quotients, reverse=True)]
    errs = [abs(q - TANH1_SQ) for q in qs]
    assert errs[2] < errs[1] < errs[0]


def test_finite_eps_needs_resolved_interval(tanh_problem, tanh_policy):
    with pytest.raises(GridTooCoarseError):
        perturbation_limit_finite_eps(
            tanh_problem, tanh_policy, 0.0, np.ones(1), np.zeros(1), [1e-4])


def test_certificate_passes(hyperbolic_scalar, hyp_policy):
    spec = SampleSpec(times=(0.0, 0.4), eps_list=(0.08, 0.04))
    rep = equilibrium_certificate(hyperbolic_scalar, hyp_policy, spec)
    assert rep.passed
    assert rep.worst_closed_form >= -1e-10
    assert rep.worst_extrapolated >= -1e-4
    d = rep.to_json_dict()
    assert d["pass"] is True
    assert d["samples"]


def test_certificate_flags_corruption(hyperbolic_scalar, hyperbolic_solution):
    from tilq.riccati import RiccatiSolution

    nodes = hyperbolic_solution.grid.nodes
    bump = 0.2 * np.exp(-(((nodes - 0.5) / 0.125) ** 2))
    bad_vals = hyperbolic_solution.values + bump[:, None, None]
    bad = RiccatiSolution(hyperbolic_solution.grid, bad_vals, {})
    pol = build_policy(hyperbolic_scalar, bad)
    spec = SampleSpec(times=(0.35, 0.45, 0.55), eps_list=(0.08, 0.04))
    rep = equilibrium_certificate(hyperbolic_scalar, pol, spec)
    assert not rep.passed
    assert rep.worst_extrapolated < -1e-4


def test_certificate_rejects_empty_times(hyperbolic_scalar, hyp_policy):
    # no time to sample is an input error
    spec = SampleSpec(times=())
    with pytest.raises(InvalidInputError, match="times"):
        equilibrium_certificate(hyperbolic_scalar, hyp_policy, spec)


@pytest.mark.parametrize("t", [np.nan, 1.0, -0.1, np.inf])
def test_certificate_rejects_times_outside_the_horizon(hyperbolic_scalar, hyp_policy, t):
    # nan used to read "spans only 0 grid nodes", T "eps_list must contain
    # positive values"
    spec = SampleSpec(times=(0.2, t))
    with pytest.raises(InvalidInputError, match=r"times .*\[0, T\)"):
        equilibrium_certificate(hyperbolic_scalar, hyp_policy, spec)


def test_cost_refuses_a_non_finite_state(tanh_problem):
    # a NaN state used to come back as a NaN cost; simulate refused it already
    for fn in (cost, brute_force_cost):
        with pytest.raises(InvalidInputError, match="finite state x"):
            fn(tanh_problem, 0.0, [np.nan], np.zeros(1))


_VECTOR_DOORS = {
    "control": lambda p, pol, bad: pol.control(0.0, bad),
    "simulate": lambda p, pol, bad: simulate(pol, 0.0, bad),
    "from_riccati": lambda p, pol, bad: from_riccati(p, pol.P, 0.0, bad),
    "cost": lambda p, pol, bad: cost(p, 0.0, bad, pol),
    "brute_force_cost": lambda p, pol, bad: brute_force_cost(p, 0.0, bad, pol),
    "value_identity_gap": lambda p, pol, bad: value_identity_gap(p, pol, 0.0, bad),
    "closed_form_x": lambda p, pol, bad: perturbation_limit_closed_form(p, pol, 0.0, bad, [0.0]),
    "closed_form_v": lambda p, pol, bad: perturbation_limit_closed_form(p, pol, 0.0, [1.0], bad),
    "finite_eps_x": lambda p, pol, bad: perturbation_limit_finite_eps(p, pol, 0.0, bad, [0.0],
                                                                      [0.2, 0.1]),
    "finite_eps_v": lambda p, pol, bad: perturbation_limit_finite_eps(p, pol, 0.0, [1.0], bad,
                                                                      [0.2, 0.1]),
}


@pytest.mark.parametrize("bad", [[1.0, 2.0], [np.nan], [np.inf]],
                         ids=["wrong-length", "nan", "inf"])
@pytest.mark.parametrize("door", list(_VECTOR_DOORS))
def test_every_state_and_control_vector_is_checked(tanh_problem, tanh_policy, door, bad):
    # a wrong length used to be an untyped ValueError from reshape; a NaN or
    # inf came back as nan from the closed form, as inf quotients from the
    # finite-eps limit and as [nan] from control
    with pytest.raises(InvalidInputError, match="expected a finite .* of length 1"):
        _VECTOR_DOORS[door](tanh_problem, tanh_policy, bad)


def _path_quotients(p, pol, t, x, v, eps):
    """Quotients and extrapolation from two plain path-based cost calls per eps."""
    g = pol.P.grid
    q = {}
    for e in sorted(eps, reverse=True):
        bp = (t + e,)
        dev = cost(p, t, x, [v, pol], g, breakpoints=bp)
        base = cost(p, t, x, [pol, pol], g, breakpoints=bp)
        q[e] = (dev - base) / e
    (e1, q1), (e2, q2) = list(q.items())[-2:]
    return q, (e1 * q2 - e2 * q1) / (e1 - e2)


def test_certificate_makes_no_cost_call(hyperbolic_scalar, hyp_policy, monkeypatch):
    # every quotient is read off the value matrices, and equals the one
    # perturbation_limit_finite_eps gives for the same sample bit for bit
    import tilq.equilibrium as eq

    calls = []
    real_cost = eq.cost

    def counted(*args, **kwargs):
        calls.append(1)
        return real_cost(*args, **kwargs)

    spec = SampleSpec(times=(0.0, 0.4), eps_list=(0.08, 0.04))
    monkeypatch.setattr(eq, "cost", counted)
    rep = equilibrium_certificate(hyperbolic_scalar, hyp_policy, spec)
    monkeypatch.undo()
    assert calls == []
    probed = [s for s in rep.samples if s.finite_eps is not None]
    assert len(probed) == len(spec.times) * 3
    for s in probed:
        fe, ext = perturbation_limit_finite_eps(
            hyperbolic_scalar, hyp_policy, s.t, s.x, s.v, spec.eps_list)
        assert fe == s.finite_eps
        assert ext == s.extrapolated


def test_value_matrices_match_path_cost(hyperbolic_scalar, hyp_policy, n3_policy):
    # x' H_pol x and z' H_dev z, z = (x, v), equal the costs integrated along
    # the path; any linear policy will do, so the third case (a two-time S,
    # which enters through the cross weight) runs on a made-up P
    p_s = _two_time_s_problem()
    cases = [(hyperbolic_scalar, hyp_policy), n3_policy, (p_s, build_policy(p_s, _made_up_p()))]
    # the last two splices end at t + eps = T
    splices = [(0.0, 0.1), (0.3125, 0.0390625), (0.5, 0.2), (0.75, 0.25), (0.5, 0.5)]
    plan = [(t, (e,)) for t, e in splices]
    for p, pol in cases:
        grid = pol.P.grid
        states = [np.linspace(1.0, -0.5, p.n), -np.ones(p.n)]
        for (t, e), mats in zip(splices, _splice_batch(p, pol, plan, grid.nodes)):
            b = t + e
            H_pol, H_dev = mats[e]
            for x in states:
                want = cost(p, t, x, [pol, pol], grid, breakpoints=(b,))
                np.testing.assert_allclose(x @ H_pol @ x, want, rtol=1e-12, atol=0.0)
                v = 0.7 * np.ones(p.m)
                z = np.concatenate([x, v])
                want = cost(p, t, x, [v, pol], grid, breakpoints=(b,))
                np.testing.assert_allclose(z @ H_dev @ z, want, rtol=1e-12, atol=0.0)
    p, pol = cases[0]
    fe, _ = perturbation_limit_finite_eps(p, pol, 0.75, np.ones(1), np.zeros(1),
                                          [0.25, 0.125])
    assert set(fe) == {0.25, 0.125}


def _made_up_p(g=None):
    """A smooth symmetric 3 x 3 'P' on g (uniform, 120 intervals, by default):
    the value matrices take any linear policy."""
    g = g if g is not None else TimeGrid.uniform(1.0, 120)
    t_n = g.nodes[:, None, None]
    return RiccatiSolution(g, (1.0 + 0.5 * np.cos(2.0 * t_n)) * np.eye(3)
                           + 0.1 * t_n * np.ones((3, 3)))


# --- reference: one splice at a time, each flow by its own RK4 loop ------

def _ref_rk4_flow(nodes, C):
    hs = np.diff(nodes)[:, None, None]
    eye = np.eye(C.shape[-1])
    C0, Cm, C1 = C[0:-1:2], C[1::2], C[2::2]
    K1 = C0
    K2 = Cm @ (eye + 0.5 * hs * K1)
    K3 = Cm @ (eye + 0.5 * hs * K2)
    K4 = C1 @ (eye + hs * K3)
    E = eye + (hs / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
    U = np.empty((nodes.size,) + E.shape[1:])
    U[0] = eye
    for i in range(nodes.size - 1):
        U[i + 1] = E[i] @ U[i]
    return U


def _ref_value_matrix(seg, C, L, final):
    Phi = _ref_rk4_flow(seg, C)
    PhiT = np.swapaxes(Phi, -1, -2)
    running = np.tensordot(simpson_weights(seg), PhiT @ L @ Phi, axes=(0, 0))
    return running + PhiT[-1] @ final @ Phi[-1]


def _ref_policy_segment(p, pol, t, seg):
    half = half_times(seg)
    A, B = p.A.eval(half), p.B.eval(half)
    gains = pol.gain_many(half)
    W = eq._weights(p, t, seg)
    IK = np.concatenate([np.broadcast_to(np.eye(p.n), (seg.size, p.n, p.n)),
                         gains[0::2]], axis=-2)
    return A, B, W, A + B @ gains, np.swapaxes(IK, -1, -2) @ W @ IK


def _ref_splice_matrices(p, pol, t, b, gnodes):
    T = p.T
    Pi, end = p.G.eval(t), T
    if T - b > 1e-12 * (1.0 + T):
        seg = eq._segment_nodes(gnodes, b, T, eq._MIN_SEGMENT_NODES)
        Pi, end = _ref_value_matrix(seg, *_ref_policy_segment(p, pol, t, seg)[3:], Pi), b
    seg = eq._segment_nodes(gnodes, t, end, eq._MIN_SEGMENT_NODES)
    A, B, W, C, L = _ref_policy_segment(p, pol, t, seg)
    return (_ref_value_matrix(seg, C, L, Pi),
            _ref_value_matrix(seg, eq._held(A, B), W, np.pad(Pi, (0, p.m))))


def _assert_per_splice(p, pol, plan, gnodes, batch):
    assert len(batch) == len(plan)
    for (t, eps), mats in zip(plan, batch):
        assert list(mats) == list(eps)
        for e in eps:
            want = _ref_splice_matrices(p, pol, t, t + e, gnodes)
            for got, ref in zip(mats[e], want):
                np.testing.assert_array_equal(got, ref)


def test_splice_batch_matches_per_splice_build(n3_policy, monkeypatch):
    # the batch evaluates each table once and runs the flows stacked, but
    # computes every number as the splice-by-splice build did: bit for bit
    p, pol = n3_policy
    seen = []
    real = eq._splice_batch

    def recorded(*args):
        seen.append((args, real(*args)))
        return seen[-1][1]

    monkeypatch.setattr(eq, "_splice_batch", recorded)
    # the default plan refines the smallest eps heads to 17 nodes
    equilibrium_certificate(p, pol)
    equilibrium_certificate(p, pol, SampleSpec(times=(0.0, 0.3, 0.6), eps_list=(0.2, 0.01)))
    monkeypatch.undo()
    assert len(seen) == 2
    for (_, _, plan, gnodes), batch in seen:
        _assert_per_splice(p, pol, plan, gnodes, batch)
    # t + eps = T (an empty tail, one with the whole horizon as head) next to
    # a short refined head
    gnodes = pol.P.grid.nodes
    plan = [(0.75, (0.25, 0.01)), (0.9, (0.1,)), (0.0, (1.0, 0.5))]
    _assert_per_splice(p, pol, plan, gnodes, _splice_batch(p, pol, plan, gnodes))
    # a two-time S on a random nonuniform grid
    rng = np.random.default_rng(3)
    g = TimeGrid(np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 150)), [1.0]]))
    p_s = _two_time_s_problem()
    pol_s = build_policy(p_s, _made_up_p(g))
    plan = [(float(g.nodes[3]), (0.2, 0.05, 0.01)), (0.37, (0.3,)), (0.6, (0.4,))]
    _assert_per_splice(p_s, pol_s, plan, g.nodes, _splice_batch(p_s, pol_s, plan, g.nodes))


def test_certificate_memory_is_flat_in_the_splices(n3_policy):
    # the batch stacks steps and flows, not per-splice tables: the 30 tails
    # take two stacks of 1601 x 30 x 3 x 3 doubles (7 MiB) at N = 1600;
    # keeping A, B, W, C and L of every segment alive at once as well
    # would grow with the number of segments times K
    p, pol = n3_policy
    g = TimeGrid.uniform(1.0, 1600)
    fine = build_policy(p, RiccatiSolution(g, pol.P.eval_many(g.nodes)))
    tracemalloc.start()
    try:
        equilibrium_certificate(p, fine)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak <= 16.0


def test_certificate_tail_matches_path_based(n3_policy):
    # the certificate's quotients against two plain path-based cost calls
    # each; closed forms bit-identical to w @ M(t,t) @ w
    p, pol = n3_policy
    rep = equilibrium_certificate(p, pol)
    assert rep.passed
    exts = []
    for s in rep.samples:
        u = pol.control(s.t, s.x)
        w = s.v - u
        assert s.closed_form == float(w @ p.M.eval(s.t, s.t) @ w)
        if s.finite_eps is not None:
            fe, ext = _path_quotients(p, pol, s.t, s.x, s.v, s.finite_eps)
            assert list(fe) == list(s.finite_eps)
            for e, q in s.finite_eps.items():
                assert abs(q - fe[e]) <= 1e-10
            assert abs(s.extrapolated - ext) <= 1e-10
            exts.append(ext)
            # probes sit at u(t, x) +/- eta e_j
            if np.any(s.v):
                eta = eq.PROBE_SCALE * (1.0 + np.abs(u).max())
                assert np.count_nonzero(w) == 1
                np.testing.assert_allclose(np.abs(w).max(), eta, rtol=1e-12)
    assert abs(rep.worst_extrapolated - min(exts)) <= 1e-10


def test_certificate_builds_each_splice_once(n3_policy, monkeypatch):
    # one (H_pol, H_dev) pair per (t, eps), shared by all states and
    # deviations at t, all from one batch
    p, pol = n3_policy
    plans = []
    real = eq._splice_batch

    def counted(*args):
        plans.append(args[2])
        return real(*args)

    monkeypatch.setattr(eq, "_splice_batch", counted)
    spec = SampleSpec(times=(0.0, 0.25, 0.5), eps_list=(0.1, 0.05))
    rep = equilibrium_certificate(p, pol, spec)
    monkeypatch.undo()
    assert sum(s.finite_eps is not None for s in rep.samples) == 3 * p.n * (1 + 2 * p.m)
    assert len(plans) == 1
    builds = [(t, e) for t, eps in plans[0] for e in eps]
    assert len(builds) == len(spec.times) * len(spec.eps_list)
    assert len(set(builds)) == len(builds)


def test_value_leg_has_no_sliver_segment(n3_policy):
    # a start 1e-11 below node 100 is that node by grids.node_index, so the
    # cost integrates from it over the node's intervals instead of a 1e-11
    # sliver first (the sliver read 5.5e-12 against 8.4e-11 from the node)
    p, pol = n3_policy
    s = pol.P.grid.nodes[100]
    x = np.array([1.0, -0.5, 0.3])
    at_node = value_identity_gap(p, pol, s, x)
    assert abs(value_identity_gap(p, pol, s - 1e-11, x) - at_node) <= 1e-13
