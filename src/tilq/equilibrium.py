"""Equilibrium feedback policy, simulation, cost evaluation, certificates.

The policy is the linear feedback u(t, x) = gain(t) x derived from a solved
Riccati kernel, gain = -Ups with Ups from riccati.upsilon; its value
satisfies J(t, x; u) = <P(t)x, x>.

Every control here is affine in the state, u(s, x) = gain(s) x + shift(s)
(_AffineControl): a policy gives the gain, a constant vector or a time
function u(s) the shift.  simulate and cost run every one through one
integrator (_integrate_segment): propagators.rk4_flow on the drift
A + B gain sampled at the nodes and midpoints of the path, a shift riding
along as held state z = (x, 1) with drift [[A + B gain, B shift], [0, 0]].

Deviating to a constant control v on a short interval [t, t+eps] changes
the cost, to first order in eps, by the quadratic
<M(t,t)(v - u(t,x)), v - u(t,x)>; the certificate checks that limit both in closed form and through difference
quotients of the actual cost functional, so a wrong kernel shows up as a
profitable deviation.

For a fixed (t, eps) both costs of a quotient are quadratic forms: the
policy from (t, x) costs x' H_pol x, and holding v on [t, t+eps] first costs
z' H_dev z with z = (x, v), since a held control is extra state with v' = 0.
_value_matrix builds each on the segments cost integrates, so one pair per
(t, eps) serves every state and deviation there; neither depends on P
beyond the policy.  _splice_batch builds every pair of a certificate at
once: the policy tables (A, B, gains) once on the union of all half-times,
each distinct RK4 step once, and one stacked prefix loop each for the
tails, the policy heads and the held heads, with the same numbers as a
splice-by-splice build.  The value identity keeps the path-based cost.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._quad import integrate, simpson_weights
from .errors import GridTooCoarseError, InvalidInputError
from .grids import TimeGrid, node_index
from .kernels import _unique
from .problem import LQProblem, _check_horizon, _vector
from .propagators import flow_prefix, half_times, rk4_flow, rk4_steps
from .riccati import RiccatiSolution, _write_csv, upsilon

# node count below which cost and the value matrices refine a segment
_MIN_SEGMENT_NODES = 17
# the certificate passes when no closed form and no extrapolated quotient
# is below minus these
CLOSED_FORM_TOL = 1e-10
FINITE_EPS_TOL = 1e-4
# relative offset of the certificate's policy-centered deviations (SampleSpec)
PROBE_SCALE = 0.1


@dataclass(frozen=True)
class EquilibriumPolicy:
    """Linear feedback u(t, x) = gain(t) x of a solved kernel P.

    The gain is -Ups = -M(t,t)^{-1}(B(t)' P(t) + S(t,t)) (riccati.upsilon);
    the closed loop is integrated where it is needed (simulate, cost), so
    building a policy does no work.
    """

    problem: LQProblem
    P: RiccatiSolution

    def __post_init__(self):
        _check_horizon(self.problem, self.P.grid)

    def gain_many(self, ts) -> np.ndarray:
        """Gain matrices -M(t,t)^{-1}(B(t)' P(t) + S(t,t)) at times ts."""
        return -upsilon(self.problem, self.P, ts)

    def gain(self, t) -> np.ndarray:
        return self.gain_many(np.asarray([float(t)]))[0]

    def control(self, t, x) -> np.ndarray:
        """Feedback value u(t, x)."""
        return self.gain(t) @ _vector(x, self.problem.n, "state x")


def build_policy(p: LQProblem, P: RiccatiSolution) -> EquilibriumPolicy:
    """The equilibrium feedback of P."""
    return EquilibriumPolicy(p, P)


@dataclass(frozen=True)
class Trajectory:
    """Closed-loop path: nodes, states X(t_i), controls u(t_i)."""

    nodes: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    t0: float
    x0: np.ndarray

    def to_csv(self, fh) -> None:
        names = ([f"x_{i + 1}" for i in range(self.states.shape[1])]
                 + [f"u_{j + 1}" for j in range(self.controls.shape[1])])
        _write_csv(fh, names, self.nodes, self.states, self.controls)


def simulate(pol: EquilibriumPolicy, t0: float, x0, g: TimeGrid | None = None
             ) -> Trajectory:
    """Trajectory X(s) = Phi(s, t0) x0 under the policy, u(s) = gain(s) X(s).

    The path runs on t0 and the nodes past it (of g, else of the policy's
    grid), by the RK4 steps that cost integrates a policy with: the flow
    starts at t0 itself, so no transition is inverted or interpolated.  A t0
    that is a node by grids.node_index starts the path at that node.  A g
    that does not end at the horizon is an InvalidInputError.
    """
    p = pol.problem
    if g is not None:
        _check_horizon(p, g)
    nodes = g.nodes if g is not None else pol.P.grid.nodes
    t0 = float(t0)
    i = int(node_index(nodes, t0))
    t0 = float(nodes[i]) if i >= 0 else t0
    if not 0.0 <= t0 < p.T:
        raise InvalidInputError("simulate needs t0 in [0, T)")
    x0 = _vector(x0, p.n, "initial state x0")
    ts = np.concatenate([[t0], nodes[nodes > t0]])
    X, U = _integrate_segment(p, ts, x0, _AffineControl(gain=pol.gain_many))
    return Trajectory(ts, X, U, t0, x0)


@dataclass(frozen=True)
class _AffineControl:
    """u(s, x) = gain(s) x + shift(s): gain(ts) and shift(ts) give the (k, m, n)
    gains and (k, m) shifts at the times of a 1-d array ts; None is no term."""

    gain: object = None
    shift: object = None

    def tables(self, p: LQProblem, ts: np.ndarray) -> tuple:
        """(D, K) at the times ts: the state z follows z' = D z and u = K z.

        With a gain alone z = x, D = A + B gain and K = gain.  A shift rides
        along as held state z = (x, 1): D = [[A + B gain, B shift], [0, 0]]
        and K = [gain, shift].
        """
        A, B = p.A.eval(ts), p.B.eval(ts)
        K = np.zeros((ts.size, p.m, p.n)) if self.gain is None else self.gain(ts)
        if self.shift is not None:
            K = np.concatenate([K, self.shift(ts)[..., None]], axis=-1)
            A = np.pad(A, ((0, 0), (0, 1), (0, 1)))
            B = np.pad(B, ((0, 0), (0, 1), (0, 0)))
        return A + B @ K, K


def _as_control(u, m: int) -> _AffineControl:
    """A policy as its gain; a time function u(s) or a constant vector as the
    shift.  A callable is called with the time alone, so a feedback u(s, x)
    is refused."""
    if isinstance(u, EquilibriumPolicy):
        return _AffineControl(gain=u.gain_many)
    if callable(u):
        def shift(ts):
            try:
                return np.array([np.asarray(u(float(s)), dtype=float).reshape(m) for s in ts])
            except (TypeError, ValueError) as exc:
                raise InvalidInputError(
                    f"a control function is called as u(s), giving {m} values: {exc}") from exc
        return _AffineControl(shift=shift)
    try:
        v = _vector(u, m, "control")
    except InvalidInputError as exc:
        raise InvalidInputError(f"a control is a policy, a time function u(s) or a "
                                f"finite constant vector of {m} values") from exc
    return _AffineControl(shift=lambda ts: np.broadcast_to(v, (ts.size, m)))


def _segment_nodes(gnodes: np.ndarray, a: float, b: float, min_nodes: int
                   ) -> np.ndarray:
    """a, the grid nodes strictly between a and b, and b; a node that
    grids.node_index calls a or b is left out, so no interval is a sliver.
    min_nodes equally spaced nodes when that gives fewer."""
    inner = (gnodes > a) & (gnodes < b)
    ends = node_index(gnodes, [a, b])
    inner[ends[ends >= 0]] = False
    inner = gnodes[inner]
    seg = np.concatenate([[a], inner, [b]])
    if seg.size < min_nodes:
        seg = np.linspace(a, b, min_nodes)
    return seg


def _held(A, B) -> np.ndarray:
    """Drift [[A, B], [0, 0]] of z = (x, v): a constant control as held state."""
    return np.pad(np.concatenate([A, B], -1), ((0, 0), (0, B.shape[-1]), (0, 0)))


def _weights(p: LQProblem, t: float, seg) -> np.ndarray:
    """W = [[Q, S'], [S, M]](t, seg): the running cost of (x, u) is (x, u)' W (x, u)."""
    S = p.S.eval(t, seg)
    return np.block([[p.Q.eval(t, seg), np.swapaxes(S, -1, -2)], [S, p.M.eval(t, seg)]])


def _integrate_segment(p: LQProblem, seg: np.ndarray, x_start: np.ndarray,
                       ctrl: _AffineControl):
    """State and control at the nodes of seg from x_start: RK4 (rk4_flow) on
    the drift of ctrl.tables, so a gain alone runs the n x n closed-loop
    flow and a shift the held state z = (x, 1)."""
    D, K = ctrl.tables(p, half_times(seg))
    Z = rk4_flow(seg, D) @ np.concatenate([x_start, np.ones(D.shape[-1] - p.n)])
    return Z[:, :p.n], np.einsum("kij,kj->ki", K[0::2], Z)


def _running_cost(p: LQProblem, t_freeze: float, seg, X, U) -> float:
    Z = np.concatenate([X, U], axis=1)
    vals = np.einsum("ki,kij,kj->k", Z, _weights(p, t_freeze, seg), Z)
    return float(integrate(vals, seg))


def cost(p: LQProblem, t: float, x, u, grid: TimeGrid | None = None, *,
         breakpoints=()) -> float:
    """Cost functional J(t, x; u) with weights frozen at evaluation time t.

    u is an affine control u(s, x) = gain(s) x + shift(s): a policy object
    (the gain), a constant vector or a time function u(s) (the shift); a
    callable is called with the time alone, so a feedback u(s, x) is refused
    with InvalidInputError.  With breakpoints u may also be a sequence of
    such controls, one per segment, so discontinuous splices are integrated
    exactly up to the scheme order.  The state follows RK4 (a policy through
    its closed-loop flow, a shift as held state z = (x, 1)) and the running
    cost uses the local cubic rule of _quad segment by segment; segments
    shorter than _MIN_SEGMENT_NODES grid nodes are refined to that count.

    A breakpoint at T closes an empty last segment; its control, when u
    lists one, is not integrated.  A grid that does not end at the horizon
    is an InvalidInputError.
    """
    if grid is not None:
        _check_horizon(p, grid)
    T = p.T
    t = float(t)
    if not 0.0 <= t <= T + 1e-12 * (1 + T):
        raise InvalidInputError("cost needs t in [0, T]")
    x = _vector(x, p.n, "state x")
    tiny = 1e-12 * (1.0 + T)
    if T - t <= tiny:
        return float(x @ p.G.eval(t) @ x)
    gnodes = (grid if grid is not None else TimeGrid.uniform(T, 400)).nodes
    bps = [float(b) for b in breakpoints]
    cuts = sorted({b for b in bps if t + tiny < b < T - tiny})
    edges = [t, *cuts, T]
    n_seg = len(edges) - 1
    # a breakpoint at T closes an empty segment; u may list its control
    closed = any(abs(b - T) <= tiny for b in bps)
    if isinstance(u, (list, tuple)) and u and not np.isscalar(u[0]):
        if not n_seg <= len(u) <= n_seg + closed:
            raise InvalidInputError("need one control per segment")
        ctrls = [_as_control(ui, p.m) for ui in u]
    else:
        ctrls = [_as_control(u, p.m)] * n_seg
    total = 0.0
    xs = x
    for (a, b), ctrl in zip(zip(edges[:-1], edges[1:]), ctrls):
        seg = _segment_nodes(gnodes, a, b, _MIN_SEGMENT_NODES)
        X, U = _integrate_segment(p, seg, xs, ctrl)
        total += _running_cost(p, t, seg, X, U)
        xs = X[-1]
    return total + float(xs @ p.G.eval(t) @ xs)


def _value_matrix(w: np.ndarray, Phi: np.ndarray, L, final) -> np.ndarray:
    """H with z' H z = the cost cost() integrates on a segment from state z
    at its start.

    The state follows the flow Phi (Phi[0] = I, one matrix per node), the
    running cost is z' L z (L at the nodes) and the end cost z' final z.
    With the weights w of the local cubic rule on the segment's nodes,
        H = sum_k w_k Phi_k' L_k Phi_k + Phi_K' final Phi_K.
    """
    PhiT = np.swapaxes(Phi, -1, -2)
    running = np.tensordot(w, PhiT @ L @ Phi, axes=(0, 0))
    return running + PhiT[-1] @ final @ Phi[-1]


def _stacked_flows(segs: list, drift, d: int) -> list:
    """RK4 flows of the segments segs, all through one prefix loop.

    drift(ts) gives the (d, d) drift at times ts among the segments' half
    times.  A step matrix depends only on its interval, so each distinct
    interval gets one; a shorter segment is padded with identity steps.
    Returns one flow of shape (K, d, d) per segment, views into the stack.
    """
    if not segs:
        return []
    # an interval [lo, hi] as the key lo + i hi: numpy sorts complex numbers
    # lexicographically, much faster than rows of a 2-d array
    spans, which = np.unique(np.concatenate([seg[:-1] + 1j * seg[1:] for seg in segs]),
                             return_inverse=True)
    lo, hi = spans.real, spans.imag
    E = np.concatenate([rk4_steps(hi - lo, drift(lo), drift(0.5 * (lo + hi)), drift(hi)),
                        np.eye(d)[None]])
    steps = np.full((max(seg.size for seg in segs) - 1, len(segs)), spans.size)
    starts = np.cumsum([0] + [seg.size - 1 for seg in segs])
    for j, (seg, a) in enumerate(zip(segs, starts)):
        steps[:seg.size - 1, j] = which[a:a + seg.size - 1]
    U = flow_prefix(E[steps])
    return [U[:seg.size, j] for j, seg in enumerate(segs)]


def _splice_batch(p: LQProblem, pol: EquilibriumPolicy, plan: list,
                  gnodes: np.ndarray) -> list:
    """(H_pol, H_dev) of every splice in plan, a list of (t, eps list): one
    dict eps -> (H_pol, H_dev) per entry, in the order of its eps list.

    x' H_pol x = J(t, x; policy) and z' H_dev z = J(t, x; v on [t, t+eps],
    then policy) with z = (x, v), on the segments cost uses with breakpoint
    t+eps: a head [t, t+eps] and a tail [t+eps, T], each refined to
    _MIN_SEGMENT_NODES nodes when shorter, the tail empty when t+eps = T.
    After t+eps both follow the policy, whose cost from there is x' Pi x,
    Pi the value matrix of the tail ending in G(t).  Pi is not P(t+eps):
    the weights stay frozen at t, and the discount is non-exponential.

    The plan is one batch: A, B and the gains are evaluated once on the
    union of every segment's half-times, W(t, .) and the policy's running
    weight once per time on the union of that time's nodes, and the tails,
    policy heads and held (n+m) heads each run through one stacked prefix
    loop (_stacked_flows).  Every number is computed as for a single
    splice, so a splice's matrices do not depend on what else the plan
    holds.
    """
    T, n, m = p.T, p.n, p.m
    groups = []  # per plan entry: (eps, head, tail or None) per eps
    for t, eps in plan:
        group = []
        for e in eps:
            b = t + e
            tail = (_segment_nodes(gnodes, b, T, _MIN_SEGMENT_NODES)
                    if T - b > 1e-12 * (1.0 + T) else None)
            head = _segment_nodes(gnodes, t, b if tail is not None else T,
                                  _MIN_SEGMENT_NODES)
            group.append((e, head, tail))
        groups.append(group)
    heads = [head for group in groups for _, head, _ in group]
    tails = [tail for group in groups for _, _, tail in group if tail is not None]
    half = _unique(np.concatenate([half_times(seg) for seg in heads + tails]))
    A, B = p.A.eval(half), p.B.eval(half)
    gains = pol.gain_many(half)
    C = A + B @ gains

    def policy_drift(ts):
        return C[np.searchsorted(half, ts)]

    def held_drift(ts):
        i = np.searchsorted(half, ts)
        return _held(A[i], B[i])

    tail_flows = iter(_stacked_flows(tails, policy_drift, n))
    pol_flows = iter(_stacked_flows(heads, policy_drift, n))
    dev_flows = iter(_stacked_flows(heads, held_drift, n + m))
    out = []
    for (t, _), group in zip(plan, groups):
        nodes = _unique(np.concatenate(
            [seg for _, head, tail in group for seg in (head, tail) if seg is not None]))
        W = _weights(p, t, nodes)
        IK = np.concatenate([np.broadcast_to(np.eye(n), (nodes.size, n, n)),
                             gains[np.searchsorted(half, nodes)]], axis=-2)
        L = np.swapaxes(IK, -1, -2) @ W @ IK
        G = p.G.eval(t)
        mats = {}
        for e, head, tail in group:
            Pi = G
            if tail is not None:
                Pi = _value_matrix(simpson_weights(tail), next(tail_flows),
                                   L[np.searchsorted(nodes, tail)], G)
            i, w = np.searchsorted(nodes, head), simpson_weights(head)
            mats[e] = (_value_matrix(w, next(pol_flows), L[i], Pi),
                       _value_matrix(w, next(dev_flows), W[i], np.pad(Pi, (0, m))))
        out.append(mats)
    return out


def value_identity_gap(p: LQProblem, pol: EquilibriumPolicy, t: float, x,
                       grid: TimeGrid | None = None) -> float:
    """|J(t, x; policy) - <P(t)x, x>|, the two sides computed independently.
    J is cost's on grid, else on the policy's grid; a grid that does not end
    at the horizon is an InvalidInputError."""
    x = _vector(x, p.n, "state x")
    J = cost(p, t, x, pol, grid if grid is not None else pol.P.grid)
    return abs(J - float(x @ pol.P(float(t)) @ x))


def _closed_forms(gains, Ms, X, V) -> np.ndarray:
    """<M w, w> with w = v - gain x, one row per stacked (gain, M, x, v)."""
    W = V - (gains @ X[:, :, None])[:, :, 0]
    return ((W[:, None, :] @ Ms) @ W[:, :, None])[:, 0, 0]


def perturbation_limit_closed_form(p: LQProblem, pol: EquilibriumPolicy,
                                   t: float, x, v) -> float:
    """First-order cost change for deviating to v at (t, x).

    Equals <M(t,t) w, w> with w = v - u(t, x): nonnegative, and zero exactly
    at the policy value.
    """
    ts = np.asarray([float(t)])
    x, v = _vector(x, p.n, "state x")[None], _vector(v, p.m, "deviation v")[None]
    return float(_closed_forms(pol.gain_many(ts), p.M.eval(ts, ts), x, v)[0])


def _checked_eps(p: LQProblem, t: float, eps_list, gnodes: np.ndarray) -> tuple:
    """eps_list without repeats, largest first, after checking that t is in
    [0, T) and each eps is a positive finite number that fits before T and
    spans >= 4 grid nodes."""
    if not 0.0 <= t < p.T:
        raise InvalidInputError(f"the deviation time t must be in [0, T), not {t!r}")
    try:
        eps = sorted({float(e) for e in eps_list}, reverse=True)
    except (TypeError, ValueError):
        eps = None
    if not eps or not all(0.0 < e < np.inf for e in eps):
        raise InvalidInputError(f"eps_list must hold positive finite widths, not {eps_list!r}")
    if t + eps[0] > p.T + 1e-12 * (1 + p.T):
        raise InvalidInputError("t + eps exceeds the horizon")
    hmax = float(np.diff(gnodes).max())
    for e in eps:
        covered = int(np.count_nonzero(
            (gnodes >= t - 1e-12) & (gnodes <= t + e + 1e-12)))
        if covered < 4:
            raise GridTooCoarseError(
                f"eps={e:g} spans only {covered} grid nodes; refine the grid "
                f"(max spacing {hmax:g}) or increase eps")
    return tuple(eps)


def _quotients(mats: dict, x: np.ndarray, v: np.ndarray):
    """(dict eps -> (J_dev - J_pol)/eps, linear-in-eps extrapolation)."""
    z = np.concatenate([x, v])
    quotients = {e: float(z @ H_dev @ z - x @ H_pol @ x) / e
                 for e, (H_pol, H_dev) in mats.items()}
    if len(quotients) == 1:
        return quotients, next(iter(quotients.values()))
    (e1, q1), (e2, q2) = list(quotients.items())[-2:]
    return quotients, (e1 * q2 - e2 * q1) / (e1 - e2)


def perturbation_limit_finite_eps(p: LQProblem, pol: EquilibriumPolicy,
                                  t: float, x, v, eps_list,
                                  grid: TimeGrid | None = None):
    """Difference quotients (J(t,x;spliced) - J(t,x;policy))/eps and their
    linear-in-eps extrapolation.

    The spliced control holds the constant v on [t, t+eps] and follows the
    policy afterwards.  Both costs are the ones cost integrates with the
    breakpoint t+eps (splice sub-grid refined to >= 17 nodes), so
    quadrature bias cancels in the quotient, but read as quadratic forms:
    x' H_pol x and z' H_dev z with z = (x, v) (see _splice_batch).
    Neither depends on P beyond the policy itself.
    Returns (dict eps -> quotient, extrapolated).  A grid that does not end
    at the horizon is an InvalidInputError.
    """
    if grid is not None:
        _check_horizon(p, grid)
    x, v = _vector(x, p.n, "state x"), _vector(v, p.m, "deviation v")
    gnodes = (grid if grid is not None else pol.P.grid).nodes
    t = float(t)
    [mats] = _splice_batch(p, pol, [(t, _checked_eps(p, t, eps_list, gnodes))], gnodes)
    return _quotients(mats, x, v)


@dataclass(frozen=True)
class SampleSpec:
    """Sampling plan for the deviation certificate.

    At each time t and state x = +/- e_i the deviations are v = 0, the axis
    deviations v = +/- e_j and the policy-centered v = u(t,x) +/- eta e_j,
    eta = PROBE_SCALE (1 + |u(t,x)|_inf).

    times: evaluation times (default 10 points spanning [0, 0.8 T]).
    eps_list: quotient widths; None picks (b, b/2, b/4) with
        b = min(0.1 T, 0.25 (T - t)) per time, each raised to at least
        min(4 h_max, b) and to the width from t to the 4th node at or after
        it (T - t when there is none), so that it spans 4 nodes.
    """

    times: tuple | None = None
    eps_list: tuple | None = None


@dataclass(frozen=True)
class PerturbationSample:
    t: float
    x: np.ndarray
    v: np.ndarray
    closed_form: float
    finite_eps: dict | None = None
    extrapolated: float | None = None

    def to_dict(self) -> dict:
        d = {"t": self.t, "x": [float(c) for c in self.x],
             "v": [float(c) for c in self.v], "closed_form": self.closed_form}
        if self.finite_eps is not None:
            d["finite_eps"] = {format(e, ".12g"): q
                               for e, q in sorted(self.finite_eps.items(), reverse=True)}
            d["extrapolated"] = self.extrapolated
        return d


@dataclass(frozen=True)
class PerturbationReport:
    """Certificate outcome over all (t, x, v) samples."""

    samples: list
    passed: bool
    worst_closed_form: float
    worst_extrapolated: float
    tol_closed_form: float
    tol_finite_eps: float

    def to_json_dict(self) -> dict:
        return {
            "kind": "perturbation_report",
            "pass": bool(self.passed),
            "n_samples": len(self.samples),
            "worst_closed_form": self.worst_closed_form,
            "worst_extrapolated": self.worst_extrapolated,
            "tol_closed_form": self.tol_closed_form,
            "tol_finite_eps": self.tol_finite_eps,
            "samples": [s.to_dict() for s in self.samples],
        }


def equilibrium_certificate(p: LQProblem, pol: EquilibriumPolicy,
                            spec: SampleSpec | None = None) -> PerturbationReport:
    """Check the no-profitable-deviation property over a sample plan.

    Closed-form quotients are evaluated for every sampled (t, x, v), in one
    batch with the gain and M(t,t) evaluated once per time; the finite-eps
    quotients — independent evidence through the actual cost functional —
    run on the +axis states with deviations probing around the policy
    value, which is where a wrong kernel becomes visible.  They read every
    quotient at t from one (H_pol, H_dev) pair per eps, and one
    _splice_batch builds the pairs of all times.
    Passes when every closed form is >= -CLOSED_FORM_TOL and every
    extrapolated quotient is >= -FINITE_EPS_TOL.  Raises InvalidInputError
    unless spec.times is a non-empty sequence of times in [0, T).
    """
    spec = spec if spec is not None else SampleSpec()
    T = p.T
    n, m = p.n, p.m
    times = (np.asarray(spec.times, dtype=float) if spec.times is not None
             else np.linspace(0.0, 0.8 * T, 10))
    if times.ndim != 1 or times.size == 0 or not np.all((times >= 0.0) & (times < T)):
        raise InvalidInputError("SampleSpec.times must be a non-empty sequence of times"
                                " in [0, T)")
    gains = pol.gain_many(times)
    eye_n = np.eye(n)
    eye_m = np.eye(m)
    gnodes = pol.P.grid.nodes
    # an eps probe needs >= 4 grid nodes inside [t, t+eps] to be resolvable
    h_floor = 4.0 * float(np.diff(gnodes).max())
    # the width from each t to the 4th node at or after it, capped by T - t
    fourth = np.searchsorted(gnodes, times - 1e-12, side="left") + 3
    reach = gnodes[np.minimum(fourth, gnodes.size - 1)] - times
    spikes = []
    for t, floor in zip(times.tolist(), reach.tolist()):
        if spec.eps_list is not None:
            eps = spec.eps_list
        else:
            base = min(0.1 * T, 0.25 * (T - t))
            eps = {max(e, min(h_floor, base), floor) for e in (base, 0.5 * base, 0.25 * base)}
        spikes.append((t, _checked_eps(p, t, eps, gnodes)))
    plan = []  # (time index, x, v, quotients, extrapolated) per sample
    # mats: eps -> (H_pol, H_dev) at time it
    for it, mats in enumerate(_splice_batch(p, pol, spikes, gnodes)):
        for i in range(n):
            for sgn in (1.0, -1.0):
                x = sgn * eye_n[i]
                ubar = gains[it] @ x
                eta = PROBE_SCALE * (1.0 + float(np.abs(ubar).max()))
                vset = [np.zeros(m)]
                vset += [sv * eye_m[j] for j in range(m) for sv in (1.0, -1.0)]
                probes = [ubar + sv * eta * eye_m[j]
                          for j in range(m) for sv in (1.0, -1.0)]
                vset += probes
                fe_set = {0} | set(range(len(vset) - len(probes), len(vset)))
                for k, v in enumerate(vset):
                    fe = ext = None
                    if sgn > 0 and k in fe_set:
                        fe, ext = _quotients(mats, x, v)
                    plan.append((it, x, v, fe, ext))
    idx = np.array([s[0] for s in plan])
    closed = _closed_forms(gains[idx], p.M.eval(times, times)[idx],
                           np.array([s[1] for s in plan]), np.array([s[2] for s in plan]))
    samples = [PerturbationSample(float(times[it]), x, v, float(cf), fe, ext)
               for (it, x, v, fe, ext), cf in zip(plan, closed)]
    worst_cf = min(s.closed_form for s in samples)
    worst_ext = min(s.extrapolated for s in samples if s.extrapolated is not None)
    passed = worst_cf >= -CLOSED_FORM_TOL and worst_ext >= -FINITE_EPS_TOL
    return PerturbationReport(samples, bool(passed), float(worst_cf), float(worst_ext),
                              CLOSED_FORM_TOL, FINITE_EPS_TOL)
