"""Equilibrium Riccati integral equation and its windowed fixed-point solver.

The object solved for is the symmetric kernel P with

    P(t) = G(T) + int_t^T [ A'P + PA + Qbar(s,s)
                            - (PB + S')(s) M(s,s)^{-1} (B'P + S)(s) ] ds,

    Qbar(s,s) = Q(s,s) - F(s; s, P),

where F aggregates the time-preference drift of the weights along the
closed-loop flow Phi of A - B*Ups, Ups(s) = M(s,s)^{-1}(B(s)'P(s) + S(s,s)):

    F(t; s, P) = Phi(T,t)' Gdot(s) Phi(T,t)
               + int_t^T Phi(r,t)' [ Q_t(s,r) + Ups(r)' M_t(s,r) Ups(r)
                                     - Ups(r)' S_t(s,r) - S_t(s,r)' Ups(r) ] Phi(r,t) dr.

The solver marches backward from T in windows, iterating on each window the
flow-conjugated integral map (boundary value propagated with the drift-only
flow plus a windowed integral of the effective weight), which is a
contraction on windows below the width tau certified by
contraction_constants.  It conjugates by the drift-only flow of A on its
own window, anchored at the window start: no solve inverts a flow over the
whole horizon, and every flow a window map builds is a forward product of
chunk flows (_Chunked), with no linear solve.  Certified windows iterate
that map plainly.  The certified width collapses numerically whenever B is
nonzero, so by default the solver falls back to practical windows of width
T/4, which it halves on observed divergence.  A practical window iterates
the map with type-II Anderson mixing of depth 5 (Walker & Ni 2011): fewer
map applications than plain Picard, and convergence where the plain map
expands.  In both regimes a window stops only when one application of the
map to a plain image moves it by at most tol, so every accepted window is a
fixed point of its map to tol.

Each node pair (s_i, r) is reduced O(1) times per solve.  One walk of the
triangle of node pairs, 32 rows at a time, both validates the problem and
reduces the norms behind the contraction constants.  It evaluates and
bounds the weights once per node pair, or, when Q, S and M are lag kernels
(TwoTimeKernel.lag), once per distinct lag s_j - s_i of the grid, and
reduces that table as it stands (problem._triangle_pass).  On a window
[a, b] the nonlocal term splits at the first node c past b from which the
closed loop reads solved nodes only: the tail r >= c is folded once per
window into one n x n matrix per row, so each iterate integrates the flow
and contracts the kernel partials on [a, c] alone.  Those partials are
evaluated once per window, on each 32-row block and its columns (the lags
one broadcast, the weights the full-grid vector but on the few columns at
the diagonal), each written into an array of its own in the layout the
iterates contract.  Blocks that fold the same tail contract each profile
kernel's base against it once.  A profile kernel (TwoTimeKernel.profile:
the families and constant) has the partial dprofile(r - s_i) base, so the
window maps and the residual pass weight one scalar per node pair and
contract base once per column: Y_r = L_r' base L_r, then one matrix product
with the block's table sums the rows; other kernels (lag, from_callable)
keep their dense n x n partials.  A declared zero partial is not
evaluated, and a part that is zero on a block, of any kernel, is neither
stored nor contracted.  No K x K weight matrix is kept: the pair weights of
row i are one full-grid vector plus a band of four next to the diagonal,
and every integral to the end of a window or of the grid is a reverse sum
of interval integrals.

An iterate recomputes only what depends on the iterate: M^{-1}B' and
M^{-1}S are tabulated when the engine is built and each window keeps the
inverse of its drift-only flow, so the gain, the drift and the window map
multiply instead of solving.  The closed-loop flow is anchored at each
32-row block by forward products (_Engine.block_flows): the RK4 steps of
the window, cut into chunks that line up with the blocks, advance in one
loop of 32 steps, and a block reaches the chunks past its own through the
products of their end flows.  The blocks' contractions run one by one; the
folded tails, the inverses of the rows' flows and the conjugation take one
call each for the whole window.  A window builds once the cubic basis its
drift interpolates by, the interval weights its map integrates by, its
drift-only flow and its kernel partials, one array or table per kernel
(none for a partial that is zero on the block), and every iterate reuses
them; the condition of the closed-loop flow is checked once per accepted
window.  Each window after the first starts from the local cubic through
the solved nodes next to it.
"""
from __future__ import annotations

import math
import warnings
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._quad import (apply_cubic, cubic_rule, interval_rule, local_cubic, tail_band,
                    tail_integrals, tail_sums)
from .errors import InvalidInputError, NonconvergenceError, NotPositiveDefiniteError
from .grids import TimeGrid, node_index
from .kernels import _ROW_BLOCK, _as_batch, kernel_norms, matrix_norm, matrix_norm_many
from .problem import LQProblem, _check_horizon, _sym, _triangle_pass
from .propagators import (_Chunked, _half_steps, feedback_tables, flow_condition, half_times,
                          rk4_flow)


def _exp(x: float) -> float:
    """exp that saturates to inf instead of raising; large exponents only
    ever shrink the certified window widths toward zero."""
    return math.inf if x > 709.0 else math.exp(x)


class RiccatiSolution:
    """Symmetric matrix path P on a time grid with cubic interpolation.

    values[i] is P at grid.nodes[i], reproduced exactly at node times; other
    times use the local cubic through the four nearest nodes.  meta carries
    solver diagnostics (constants, windows, contraction factors).
    """

    def __init__(self, grid: TimeGrid, values, meta=None):
        values = np.asarray(values, dtype=float)
        if values.shape[0] != grid.nodes.size or values.ndim != 3 \
                or values.shape[1] != values.shape[2]:
            raise InvalidInputError("values must be (num_nodes, n, n)")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("solution values must be finite")
        values = values.copy()
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        self.meta = dict(meta or {})
        self._engine = None

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def eval_many(self, ts) -> np.ndarray:
        ts, scalar = _as_batch(ts)
        if not np.all(np.isfinite(ts)):
            raise InvalidInputError("evaluation times ts must be finite")
        nodes = self.grid.nodes
        outside = ts[(ts < nodes[0]) | (ts > nodes[-1])]
        if np.any(node_index(nodes, outside) < 0):
            raise InvalidInputError("evaluation time outside [0, T]")
        out = local_cubic(nodes, self.values, np.clip(ts, nodes[0], nodes[-1]))
        return out[0] if scalar else out

    def __call__(self, t):
        return self.eval_many(t)

    def to_csv(self, fh) -> None:
        """Write t plus row-major entries P_i_j (_write_csv)."""
        n = self.n
        _write_csv(fh, [f"P_{i+1}_{j+1}" for i in range(n) for j in range(n)],
                  self.grid.nodes, self.values)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "riccati_solution",
            "grid": {
                "T": float(self.grid.T),
                "num_intervals": int(self.grid.num_intervals),
                "nodes": [float(t) for t in self.grid.nodes],
            },
            "values": [[float(v) for v in mat.reshape(-1)] for mat in self.values],
            "meta": _json_safe(self.meta),
        }


def _write_csv(fh, names, nodes, *tables) -> None:
    """Write the CSV of columns t and names: per node, its time and the
    row-major entries of each table's row there, to 17 significant digits."""
    fh.write(",".join(["t", *names]) + "\n")
    rows = np.hstack([np.reshape(nodes, (-1, 1))]
                     + [np.reshape(tab, (len(nodes), -1)) for tab in tables])
    for row in rows.tolist():
        fh.write(",".join(format(val, ".17g") for val in row) + "\n")


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


@dataclass(frozen=True)
class ContractionConstants:
    """Constants certifying the fixed-point iteration on small windows.

    r bounds ||P||_C a priori; rho_bar bounds the feedback gain on the ball
    of radius 2r; beta_bar / omega_bar bound flow growth; gamma_bar is the
    Lipschitz scale of the nonlocal term; tau = min(tau1, tau2, tau3) is the
    certified window width (contraction factor <= 1/2 on windows <= tau).
    All three are norm bounds; tau1 is the Gronwall width (_constants).
    """

    r: float
    rho_bar: float
    beta_bar: float
    omega_bar: float
    gamma_bar: float
    tau1: float
    tau2: float
    tau3: float
    tau: float
    norms: dict = field(default_factory=dict, repr=False)

    def to_dict(self) -> dict:
        return {
            "r": self.r, "rho_bar": self.rho_bar, "beta_bar": self.beta_bar,
            "omega_bar": self.omega_bar, "gamma_bar": self.gamma_bar,
            "tau1": self.tau1, "tau2": self.tau2, "tau3": self.tau3, "tau": self.tau,
            "norms": {k: float(v) for k, v in self.norms.items()},
        }


def contraction_constants(p: LQProblem, g: TimeGrid) -> ContractionConstants:
    """Window-width certificate from grid-sampled coefficient norms.

    The two-time norms (those of kernel_norms) and the bound on M^{-1} come
    from one walk of the triangle of node pairs in blocks of 32 rows, so
    memory goes as O(32 K n^2) for K nodes.  solve_riccati takes them from
    the walk that validates the problem; no flow is integrated.  A grid
    that does not end at p.T is an InvalidInputError.
    """
    _check_horizon(p, g)
    return _constants(p, g, _triangle_pass(p, g, validate=False)[1])


def _constants(p: LQProblem, g: TimeGrid, pair_norms) -> ContractionConstants:
    """contraction_constants from the two-time norms of a triangle walk."""
    nodes = g.nodes
    T = g.T
    nA = kernel_norms(p.A, g)
    nB = kernel_norms(p.B, g)
    nG = kernel_norms(p.G, g)
    two = pair_norms.norms()
    minv = two["M_inv_c"]

    a1 = nA.l1_norm
    binf = nB.linf_norm
    r = math.exp(2 * a1) * (nG.c_norm + T * two["Q_c"])
    rho = minv * (4 * r * binf + two["S_c"])
    beta = a1 + T * rho * binf
    omega = a1 + 2 * T * rho * binf
    gamma = minv * (1 + binf) ** 2 * (
        nG.c1_norm + T * two["Q_c1"]
        + (1 + 2 * T * rho) * (2 * rho * two["M_c1"] + two["S_c1"])
    )

    den2 = 2 * _exp(4 * beta) * (
        rho * rho * two["M_c"] + nG.c1_norm + T * two["Q_c1"]
        + T * rho * (rho * two["M_c1"] + 2 * two["S_c1"]) + two["Q_c"]
    )
    tau2 = r / den2 if den2 > 0 else math.inf
    den3 = 4 * _exp(2 * a1) * (rho * binf + 2 * T * gamma * _exp(4 * omega))
    tau3 = 1.0 / den3 if den3 > 0 else math.inf

    # tau1, the Gronwall width: ||Phi(t, s) - I|| <= e^{|t - s| sup||A||} - 1
    # for the drift-only flow in both directions, so the widest node span no
    # longer than log1p(bound) / sup||A|| (every span when A = 0) keeps it
    # within bound of I.  Bisection over span lengths: lo passes, hi = K is
    # longer than any span
    bound = 1.0 / (2.0 * (1.0 + _exp(2 * beta)))
    reach = math.log1p(bound) / nA.c_norm if nA.c_norm > 0 else math.inf
    lo, hi = 0, nodes.size
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if (nodes[mid:] - nodes[:-mid]).max() <= reach else (lo, mid)
    tau1 = float((nodes[lo:] - nodes[:nodes.size - lo]).min()) if lo > 0 else 0.0

    tau = min(tau1, tau2, tau3)
    norms = {"A_l1": a1, "B_linf": binf, "G_c": nG.c_norm, "G_c1": nG.c1_norm, **two}
    return ContractionConstants(r, rho, beta, omega, gamma,
                                tau1, float(tau2), float(tau3), float(tau), norms)


def upsilon(p: LQProblem, P, s) -> np.ndarray:
    """Feedback gain factor M(s,s)^{-1} (B(s)' P(s) + S(s,s)) at a time s or
    at each time of a 1-d array s, from feedback_tables."""
    ts, scalar = _as_batch(s)
    if not np.all(np.isfinite(ts)):
        raise InvalidInputError("upsilon needs finite times s")
    MiBt, MiS = feedback_tables(p, ts)
    ups = MiBt @ P(ts) + MiS
    return ups[0] if scalar else ups


@dataclass
class SolveOptions:
    """Knobs for solve_riccati.

    tol: fixed-point tolerance in the grid sup norm; a window stops when one
        map application to a plain image moves it by at most tol (default
        1e-10*(1 + ||G(T)|| + T sup||Q||)).
    max_iter: per-window cap on the map applications, counting those to
        the plain images that close a mixed window (_Engine.run_window);
        error when hit.
    validate: run assumption validation before solving.
    """

    tol: float | None = None
    max_iter: int = 200
    validate: bool = True


_MIN_WINDOW_NODES = 8
_GUARANTEED_MAX_REFINE = 10


class _Diverged(Exception):
    pass


@contextmanager
def _singular_diverges(what: str):
    """A window's numerics with overflow and invalid values silent, since
    run_window rejects a non-finite iterate itself, and a LinAlgError made
    _Diverged: singular {what}."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except np.linalg.LinAlgError as exc:
        raise _Diverged(f"singular {what}: {exc}") from exc


_MIX_DEPTH = 5
_SPAN = 2 * _MIX_DEPTH  # iterates over which a window must make progress


class _Anderson:
    """Type-II Anderson mixing of depth _MIX_DEPTH (Walker & Ni 2011) for a
    window's free nodes: the next iterate is the plain image g_k less the
    combination gamma of past image differences whose residual differences
    best cancel the residual f_k = g_k - x_k in the least-squares sense.
    gamma solves the depth x depth normal equations."""

    def __init__(self, ball_cap: float):
        self.ball_cap = ball_cap
        self.xs, self.gs = [], []

    def mix(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The mixed iterate after x and its plain image g, symmetrised; g
        itself when the normal equations are singular or the mixed iterate
        is not finite or leaves the ball."""
        self.xs = self.xs[-_MIX_DEPTH:] + [x.flatten()]
        self.gs = self.gs[-_MIX_DEPTH:] + [g.flatten()]
        if len(self.xs) < 2:
            return g
        G = np.array(self.gs)
        F = G - np.array(self.xs)
        dF, dG = np.diff(F, axis=0), np.diff(G, axis=0)
        try:
            gamma = np.linalg.solve(dF @ dF.T, dF @ F[-1])
        except np.linalg.LinAlgError:
            return g
        with np.errstate(over="ignore", invalid="ignore"):
            mixed = _sym((G[-1] - gamma @ dG).reshape(g.shape))
            if np.all(np.isfinite(mixed)) \
                    and float(matrix_norm_many(mixed).max()) <= self.ball_cap:
                return mixed
        return g


class _Profiled(NamedTuple):
    """Weighted partials of a profile kernel (TwoTimeKernel.profile) on a
    triangle block: the pair (r, row k) holds table[r, k] base."""

    table: np.ndarray
    base: np.ndarray


class _Pairs(NamedTuple):
    """Weighted kernel partials of a triangle block, one part per kernel:
    each part is W times the kernel's partial (Q_t, S_t or M_t), either an
    array in the layout (tail, p, rows, q) or a _Profiled table (tail,
    rows), or None when that partial is zero at every pair of the block."""

    Q: np.ndarray | _Profiled | None
    S: np.ndarray | _Profiled | None
    M: np.ndarray | _Profiled | None


def _pair_sum(block, left, right, shared=None, key=None) -> np.ndarray:
    """sum_r left_r' block[r, :, k, :] right_r for every row k of a triangle
    block.  An array block takes one matrix product per tail node for all
    rows; a _Profiled block contracts its base once per tail node, Y_r =
    left_r' base right_r, and sums the rows' weights of Y in one product.
    shared, a dict kept over blocks that share left and right, holds each
    kernel's Y under key, so those blocks contract the base once."""
    n = right.shape[-1]
    if isinstance(block, _Profiled):
        tail, rows = block.table.shape
        Y = None if shared is None else shared.get(key)
        if Y is None:
            Y = (left.swapaxes(-1, -2) @ block.base @ right).reshape(tail, n * n)
            if shared is not None:
                shared[key] = Y
        return (block.table.T @ Y).reshape(rows, n, n)
    tail, p, rows, q = block.shape
    inner = block.reshape(tail, p * rows, q) @ right
    sums = left.reshape(tail * p, n).T @ inner.reshape(tail * p, rows * n)
    return sums.reshape(n, rows, n).transpose(1, 0, 2)


def _contract(pairs: _Pairs, X, Y, shared=None):
    """sum_r L_r' core_r L_r for every row of a triangle block, L_r = [X_r;
    Y_r] and core_r = [[Q, -S'], [-S, M]]: the S terms are one product and
    its transpose, subtracted.  A part that is None is skipped; with none
    left the sum is 0.0.  shared is _pair_sum's, for blocks that share X
    and Y."""
    out = 0.0
    for key, block, left in (("Q", pairs.Q, X), ("M", pairs.M, Y)):
        if block is not None:
            out = out + _pair_sum(block, left, left, shared, key)
    if pairs.S is not None:
        cross = _pair_sum(pairs.S, Y, X, shared, "S")
        out = out - (cross + np.swapaxes(cross, -1, -2))
    return out


class _Window(NamedTuple):
    """What every iterate of window [a, b] shares; see _Engine.f_diag.

    c is the split node and flow holds Phi(r, s_c) for r in nodes[c:],
    forward products of chunk flows (rk4_flow).  cubic is the cubic_rule of
    the closed-loop drift (_Engine.drift) at the half times of nodes a..c,
    on nodes[a:], and rule the interval_rule of nodes[a:b+1], which the
    window map integrates by.  blocks yields, per block of rows from i0,
    (i0, core, Z): core holds the weighted kernel partials of the rows
    against the columns [i0, c) as _Pairs (_Engine.triangle_block), Z the
    rows' tail past c folded into one n x n matrix each.  conj, set by
    _Engine.iterated_window, holds the drift-only flow V_j = Phi_A(s_j, s_a)
    on nodes[a:b+1], chained the same way, and its inverses.
    """

    a: int
    b: int
    c: int
    flow: np.ndarray
    cubic: tuple
    rule: tuple
    blocks: Iterable
    conj: tuple | None = None


class _Engine:
    """Caches per-grid samples and runs fixed-point window iterations.

    Construction tabulates what no iterate changes: A and B at the half
    times (nodes and interval midpoints), the feedback_tables M^{-1}B' and
    M^{-1}S there (so Ups = MiBt P + MiS is a product, not a solve), and M, Q
    and Gdot at the nodes.  The cached properties hold the tail rules as a
    vector plus a K x 4 band and full-grid tables of the fixed solution
    values.  No drift-only flow spans the grid: each window has its own.
    """

    def __init__(self, p: LQProblem, grid: TimeGrid, values=None):
        self.p = p
        self.grid = grid
        self.values = values
        nodes = grid.nodes
        self.nodes = nodes
        self.half = half = half_times(nodes)
        self.A_half = p.A.eval(half)
        self.B_half = p.B.eval(half)
        # Ups = MiBt P + MiS at every half time, so no iterate solves against M
        self.MiBt_half, self.MiS_half = feedback_tables(p, half)
        self.MiBt_nodes = self.MiBt_half[0::2]
        self.MiS_nodes = self.MiS_half[0::2]
        self.M_nodes = p.M.eval(nodes, nodes)
        self.Q_nodes = p.Q.eval(nodes, nodes)
        self.Gd_nodes = p.G.eval_dt(nodes)
        self.G_T = _sym(p.G.eval(grid.T))

    @cached_property
    def tail_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """tail_band(nodes): row i's pair weights, the rule on nodes[i:]."""
        return tail_band(self.nodes)

    def upsilon_nodes(self, values: np.ndarray, lo: int, hi: int | None = None) -> np.ndarray:
        """Ups = M^{-1}(B'P + S) at nodes[lo:hi], from the feedback tables."""
        sl = slice(lo, hi)
        return self.MiBt_nodes[sl] @ values[sl] + self.MiS_nodes[sl]

    def drift(self, values: np.ndarray, a: int, lo: int, hi: int, cubic=None) -> np.ndarray:
        """Closed-loop drift A - B Ups at the half times of nodes lo..hi, P
        interpolated by the local cubic on nodes[a:]; cubic, when given, is
        the cubic_rule of those times on those nodes."""
        h = slice(2 * lo, 2 * hi + 1)
        if cubic is None:
            cubic = cubic_rule(self.nodes[a:], self.half[h])
        Pm = apply_cubic(cubic, values[a:])
        return self.A_half[h] - self.B_half[h] @ (self.MiBt_half[h] @ Pm + self.MiS_half[h])

    def split_node(self, b: int) -> int:
        """The first node c past b from which the closed-loop drift reads
        nodes b.. only: the local cubic at the midpoint of interval j reads
        nodes min(j - 1, K - 4).., so c = b + 1 when b <= K - 4, else the
        last node."""
        K = self.nodes.size
        return b + 1 if b <= K - 4 else K - 1

    def triangle_block(self, i0: int, i1: int, c: int) -> tuple[_Pairs, _Pairs]:
        """Weighted kernel partials of the rows i0 <= i < i1 against the
        columns r >= i0, split at column c.

        Returns (core, folded), each a _Pairs: core.Q[r - i0, :, i - i0, :]
        = W[i, r] Q_t(s_i, r), core.S the same of S_t and core.M of M_t, for
        i0 <= r < c, where W[i] = simpson_weights(nodes[i:]) is band[i] on
        columns i..i+3 and v past them (tail_rule); folded holds the columns
        r >= c in the same way, at r - c.  Tail nodes lead, so one matrix
        product per tail node serves every row.  The weights are v on every
        column and, on the head of rows + 3 columns from i0 (the only ones
        that reach the band or the left of the diagonal), the band and
        zeros.  The kernels are evaluated once on the rectangle of rows and
        columns, column by column.  A column left of the diagonal is clipped
        to the pair (s_i, s_i): W[i, r] = 0 there, and no kernel sees t > s.
        A part whose partial is zero at every pair it holds is None.  Every
        part is a C-contiguous array of its own, so a window that keeps its
        cores does not keep the folded columns alive.

        A profile kernel's part (kernel.base set) is instead the _Profiled
        table W[i, r] dprofile(r - s_i) at [r - i0, i - i0] (r - c in
        folded), with its base; the lags r - s_i are one broadcast,
        max(nodes[r] - nodes[i], 0).  A declared zero partial (dprofile
        None) is not evaluated.
        """
        p, nodes, K = self.p, self.nodes, self.nodes.size
        rows, cols = i1 - i0, K - i0
        v, band = self.tail_rule
        head = min(rows + 3, cols)
        d = np.arange(head)[:, None] - np.arange(rows)  # column minus row
        w_head = np.where(d < 0, 0.0, np.where(
            d < 4, band[np.arange(i0, i1), np.clip(d, 0, 3)], v[i0:i0 + head, None]))
        lag = np.maximum(nodes[i0:, None] - nodes[i0:i1], 0.0)
        if any(k.base is None for k in (p.Q, p.S, p.M)):
            # the pairs in (column, row) order, each column clipped to the row
            r = np.maximum(nodes[i0:, None], nodes[i0:i1]).ravel()
            s = np.broadcast_to(nodes[i0:i1], (cols, rows)).ravel()
        halves = ((0, c - i0), (c - i0, cols))

        def parts(k):
            """The (core, folded) parts of kernel k: W times its partial, or
            None where that is zero at every pair."""
            if k.base is not None:
                if k.dprofile is None:
                    return None, None
                pd = k.dprofile(lag)
                wv, wh = v[i0:, None], w_head
            else:
                # the partials read through transposed views (column, :, row, :)
                pd = k.eval_dt(s, r).reshape((cols, rows) + k.dims).transpose(0, 2, 1, 3)
                wv, wh = v[i0:, None, None, None], w_head[:, None, :, None]
            out = []
            for lo, hi in halves:
                if not pd[lo:hi].any():
                    out.append(None)
                    continue
                part = np.multiply(wv[lo:hi], pd[lo:hi], out=np.empty(pd[lo:hi].shape))
                top = min(head, hi)
                if top > lo:
                    np.multiply(wh[lo:top], pd[lo:top], out=part[:top - lo])
                out.append(_Profiled(part, k.base) if k.base is not None else part)
            return out

        core, folded = zip(*(parts(k) for k in (p.Q, p.S, p.M)))
        return _Pairs(*core), _Pairs(*folded)

    def window(self, values: np.ndarray, a: int, b: int) -> _Window:
        """The _Window of rows [a, b], its blocks built one at a time, their
        pairs as triangle_block gives them.

        The flow past the split node c and Ups there read the solved nodes
        only, so they are fixed while the window iterates; Z_i =
        sum_{r >= c} W[i, r] Lt_r' core(s_i, r) Lt_r + Phi(T, s_c)' Gdot(s_i)
        Phi(T, s_c), Lt_r = [Phi(r, s_c); Ups_r Phi(r, s_c)].
        """
        K = self.nodes.size
        c = self.split_node(b)
        flow = rk4_flow(self.nodes[c:], self.drift(values, a, c, K - 1))
        ups_flow = self.upsilon_nodes(values, c) @ flow
        end = flow[-1]

        def blocks():
            shared = {}  # every block folds the same tail flow
            for i0 in range(a, b + 1, _ROW_BLOCK):
                i1 = min(i0 + _ROW_BLOCK, b + 1)
                core, folded = self.triangle_block(i0, i1, c)
                yield i0, core, _contract(folded, flow, ups_flow, shared) \
                    + end.T @ self.Gd_nodes[i0:i1] @ end

        return _Window(a, b, c, flow, cubic_rule(self.nodes[a:], self.half[2 * a:2 * c + 1]),
                       interval_rule(self.nodes[a:b + 1]), blocks())

    def iterated_window(self, values: np.ndarray, a: int, b: int) -> _Window:
        """window(values, a, b) with its blocks listed and its conj: what
        every iterate of run_window shares."""
        win = self.window(values, a, b)
        V = rk4_flow(self.nodes[a:b + 1], self.A_half[2 * a:2 * b + 1])
        return win._replace(blocks=list(win.blocks), conj=(V, np.linalg.inv(V)))

    def f_diag(self, values: np.ndarray, window: _Window, ups: np.ndarray) -> np.ndarray:
        """F(s_i; s_i, P) for the nodes i in [a, b] of window, tail from values.

        ups[j] is the gain Ups of values at node a + j, for a + j < c at
        least.  In a block of rows from i0, let U_r = Phi(r, s_i0), the
        closed-loop flow of values.  Then Phi(r, s_i) = U_r U_i^{-1} takes
        the conjugation out of the integral:

            F_i = U_i^{-T} [ sum_{i <= r < c} W[i, r] L_r' core(s_i, r) L_r
                             + U_c' Z_i U_c ] U_i^{-1},

        L_r = [U_r; Ups_r U_r], core = [[Q_t, -S_t'], [-S_t, M_t]], which
        _contract sums kernel by kernel (a part that is zero on the block
        is skipped).  The tail past the split node c (window) is folded into
        Z_i once per window, since Phi(r, s_i0) = Phi(r, s_c) U_c there; so
        an iterate runs RK4 and Ups on [a, c] only, with the drift's cubic
        basis of the window, and contracts the pairs r < c.  The flow is
        anchored per block, not at the window start, so each U_i spans fewer
        than _ROW_BLOCK intervals: inverting the flow of a whole window would
        amplify rounding by its condition number squared.  block_flows builds
        each U from forward products of chunk flows, with no solve.  The
        contractions run block by block, each row's into one array with its
        Z_i, its U_c and its U_i; then U_c' Z_i U_c is folded for every row
        at once, and one inverse of the U_i and one product conjugate the
        whole window.  The condition of the flow over [s_a, T] is not checked
        here: run_window checks it once on the accepted values, and
        q_bar_table on its own (check_condition).

        W[i] is the rule on nodes[i:] alone (triangle_block), so row K-2 is
        the trapezoid rule and row K-3 the parabola.
        """
        a, c, n = window.a, window.c, values.shape[-1]
        acc, Z, Uc, Ui = np.empty((4, window.b - a + 1, n, n))
        for (i0, core, Zb), Ub in zip(window.blocks, self.block_flows(values, window)):
            rows = slice(i0 - a, i0 - a + Zb.shape[0])
            acc[rows] = _contract(core, Ub[:-1], ups[i0 - a:c - a] @ Ub[:-1])
            Z[rows], Uc[rows], Ui[rows] = Zb, Ub[-1], Ub[:Zb.shape[0]]
        acc += Uc.swapaxes(-1, -2) @ Z @ Uc
        Ui_inv = np.linalg.inv(Ui)
        return _sym(Ui_inv.swapaxes(-1, -2) @ acc @ Ui_inv)

    def block_flows(self, values: np.ndarray, window: _Window):
        """Phi(r, s_i0) of the closed loop of values for r in nodes[i0:c+1],
        one array per row block of window [a, b], from i0 = a in steps of
        _ROW_BLOCK: the RK4 steps on [s_a, s_c] cut into chunks that line up
        with the blocks (_Chunked), each chunk's local flows times its carry
        from the chunk of i0.  Only forward products; no flow is inverted.
        The flows are yielded block by block, so a full-grid pass keeps one
        block's, not all of them."""
        a, c = window.a, window.c
        drift = self.drift(values, a, a, c, window.cubic)
        starts = range(a, window.b + 1, _ROW_BLOCK)
        flows = _Chunked.of(_half_steps(self.nodes[a:c + 1], drift), len(starts))
        for j, i0 in enumerate(starts):
            yield flows.flow(j, c - i0 + 1)

    def check_condition(self, values: np.ndarray, window: _Window) -> None:
        """flow_condition of the closed loop of values over [s_a, T], composed
        as Phi(r, s_c) U_c past the split node (warns via flow_condition).
        U = Phi(r, s_a) on nodes[a:c+1] is a forward product of chunk flows
        (rk4_flow), as the window's tail flow is; the check inverts both."""
        a, c = window.a, window.c
        U = rk4_flow(self.nodes[a:c + 1], self.drift(values, a, a, c, window.cubic))
        U_inv = np.linalg.inv(U)
        tail = window.flow[1:]
        flow_condition(np.concatenate([U, tail @ U[-1]]),
                       np.concatenate([U_inv, U_inv[-1] @ np.linalg.inv(tail)]))

    def picard_iterate(self, values: np.ndarray, window: _Window,
                       boundary: np.ndarray) -> np.ndarray:
        """One application of the map of window [a, b] (iterated_window);
        returns values on nodes[a:b+1].

        The map conjugates by the window's drift-only flow V_j = Phi_A(s_j,
        s_a) and its stored inverse (_Window.conj), so rounding grows with
        the flow's condition over the window, not over [0, s_b].  Ups,
        computed once on nodes a..max(b, c - 1), serves f_diag too.
        """
        a, b = window.a, window.b
        ups = self.upsilon_nodes(values, a, max(window.c, b + 1))
        F = self.f_diag(values, window, ups)
        ups = ups[:b + 1 - a]
        quad = np.swapaxes(ups, -1, -2) @ self.M_nodes[a:b + 1] @ ups
        R = self.Q_nodes[a:b + 1] - F - quad
        V, V_inv = window.conj
        Y = np.swapaxes(V, -1, -2) @ R @ V
        C = V[-1].T @ boundary @ V[-1] + tail_sums(window.rule, Y)
        new = _sym(np.swapaxes(V_inv, -1, -2) @ C @ V_inv)
        new[-1] = boundary
        return new

    def run_window(self, values: np.ndarray, a: int, b: int, boundary: np.ndarray,
                   tol: float, max_iter: int, ball_cap: float, mix: bool) -> dict:
        """Iterate window [a, b] to tolerance, mutating values in place.

        The window starts from the local cubic through the solved nodes
        b..b+3, extrapolated to nodes[a:b].  The first window has no such
        nodes, and an extrapolation that is not finite or leaves the a-priori
        ball (ball_cap) is dropped; those windows start from boundary.  The
        window (iterated_window) is then built once, from the start, and
        every iterate and the closing check_condition read it.

        Every iterate applies the window map once (picard_iterate), and the
        window stops when an application to a plain image, or to the start,
        moves it by at most tol; it accepts that image.  Without mix
        (certified windows) every iterate is the plain image the constants
        certify.  With mix (practical windows) the next iterate is the
        Anderson mixture of the last images (_Anderson); once an application
        moves a mixed iterate by at most tol, its plain image is the next
        iterate, and if that image moves by more than tol, mixing resumes.
        "iterations" counts every map application.

        Mixed diffs are not monotone, so progress is that of the best diff
        since the start or the last closing image that moved by more than
        tol: a window diverges (_Diverged) when its best diff has not fallen
        over the last _SPAN applications, or when its rate over them
        projects past max_iter, as it does when an image is not finite,
        leaves a flow singular or leaves the ball.  Reaching max_iter is a
        NonconvergenceError.  The contraction factor is the largest ratio
        of successive diffs of a plain window, and the ratio of the last two
        diffs of a mixed one, whose last is a plain image's.
        """
        start = boundary
        if b + 3 < self.nodes.size:
            cubic = local_cubic(self.nodes[b:b + 4], values[b:b + 4], self.nodes[a:b])
            if np.all(np.isfinite(cubic)) and float(matrix_norm_many(cubic).max()) <= ball_cap:
                start = cubic
        values[a:b] = start
        with _singular_diverges("matrix in the iterate"):
            window = self.iterated_window(values, a, b)
        mixer = _Anderson(ball_cap) if mix else None
        plain = True  # values[a:b + 1] is the start or a plain image
        diffs = []
        since = 0  # the progress rules read diffs[since:]
        for it in range(1, max_iter + 1):
            with _singular_diverges("matrix in the iterate"):
                new = self.picard_iterate(values, window, boundary)
            if not np.all(np.isfinite(new)):
                raise _Diverged("non-finite iterate")
            d = float(matrix_norm_many(new - values[a:b + 1]).max())
            diffs.append(d)
            if d <= tol:
                if plain:
                    break
                plain = True  # the mixed iterate's image is checked next
            else:
                if float(matrix_norm_many(new).max()) > ball_cap:
                    raise _Diverged("iterate left the a-priori ball")
                if plain and mixer is not None:
                    since = len(diffs) - 1  # mixing (re)starts here
                recent = diffs[since:]
                if len(recent) > _SPAN:
                    f = (min(recent[-_SPAN:]) / min(recent[:-_SPAN])) ** (1.0 / _SPAN)
                    if f >= 1.0:
                        raise _Diverged(f"no progress over the last {_SPAN} iterates")
                    if it + math.log(tol / min(recent)) / math.log(f) > max_iter:
                        raise _Diverged(
                            f"projected nonconvergence (observed factor ~{f:.3f})")
                if mixer is not None:
                    new[:-1] = mixer.mix(values[a:b], new[:-1])
                    plain = False
            values[a:b + 1] = new
        else:
            raise NonconvergenceError(
                f"window [{self.nodes[a]:.6g}, {self.nodes[b]:.6g}] did not reach"
                f" tol={tol:.3e} in {max_iter} iterations (last diff {diffs[-1]:.3e})",
                diagnostics={"window": [float(self.nodes[a]), float(self.nodes[b])],
                             "diffs": diffs})
        values[a:b + 1] = new
        with _singular_diverges("closed-loop flow"):
            self.check_condition(values, window)
        first = 1 if mixer is None else max(1, len(diffs) - 1)
        factors = [diffs[k] / diffs[k - 1]
                   for k in range(first, len(diffs)) if diffs[k - 1] > 0]
        return {
            "a": float(self.nodes[a]), "b": float(self.nodes[b]),
            "iterations": len(diffs), "final_diff": diffs[-1],
            "contraction_factor": max(factors) if factors else 0.0,
        }

    @cached_property
    def q_bar_table(self) -> np.ndarray:
        """Effective state weight Q(s,s) - F(s; s, P) at every node: f_diag
        over the window of the whole grid, its blocks streamed."""
        window = self.window(self.values, 0, self.nodes.size - 1)
        self.check_condition(self.values, window)
        F = self.f_diag(self.values, window, self.upsilon_nodes(self.values, 0))
        return _sym(self.Q_nodes - F)

    @cached_property
    def integrand(self) -> np.ndarray:
        """Right-hand-side integrand of the integral form at every node."""
        ups = self.upsilon_nodes(self.values, 0)
        quad = np.swapaxes(ups, -1, -2) @ self.M_nodes @ ups
        AtP = np.swapaxes(self.A_half[0::2], -1, -2) @ self.values
        return AtP + np.swapaxes(AtP, -1, -2) + self.q_bar_table - quad


def _engine_for(p: LQProblem, P: "RiccatiSolution") -> _Engine:
    """The engine of (p, P), kept on P; another problem object replaces it,
    so tables cached for one problem never answer for another; a P whose
    grid does not end at p.T is an InvalidInputError."""
    _check_horizon(p, P.grid)
    engine = P._engine
    if engine is None or engine.p is not p:
        engine = P._engine = _Engine(p, P.grid, P.values)
    return engine


def solve_riccati(p: LQProblem, g: TimeGrid, opts: SolveOptions | None = None
                  ) -> RiccatiSolution:
    """Solve the equilibrium Riccati integral equation on grid g.

    Windows of the certified width tau are used whenever the grid resolves
    them (>= _MIN_WINDOW_NODES nodes, refining internally up to
    _GUARANTEED_MAX_REFINE times); they iterate the plain map, and the
    contraction factor is then asserted <= 0.75 per window.  Otherwise
    practical windows of width T/4 march backward with Anderson mixing and
    halving on observed divergence (_Engine.run_window); meta["mode"] names
    the regime.  Every window stops when a map application to a plain image
    moves it by at most tol, by default 1e-10 (1 + ||G(T)|| + T sup||Q||):
    a scale of the problem's weights, not of the a-priori bound r.  Raises
    NonconvergenceError when an iteration cap or halving floor is hit, and
    InvalidInputError for a grid that does not end at p.T, a tol outside
    (0, inf), a max_iter that is not an integer >= 1 or a problem that
    fails a hard check of validate_assumptions; when M is not positive
    definite that error is a NotPositiveDefiniteError whose where is the
    check's node pair.

    Validation (opts.validate) and the two-time norms of the constants come
    from one walk of the node-pair triangle; the report and constants equal
    those of validate_assumptions and contraction_constants.
    """
    _check_horizon(p, g)
    opts = opts or SolveOptions()
    if opts.tol is not None and not 0.0 < opts.tol < math.inf:
        raise InvalidInputError("tol must be positive and finite")
    if not isinstance(opts.max_iter, (int, np.integer)) or opts.max_iter < 1:
        raise InvalidInputError("max_iter must be an integer >= 1")
    report, pair_norms = _triangle_pass(p, g, validate=opts.validate)
    if report is not None:
        if not report.hard_ok:
            bad = {c.assumption: c for c in report.checks if c.hard and not c.passed}
            message = f"problem fails structural assumptions: {list(bad)}"
            if "H2-M-positive-definite" in bad:
                raise NotPositiveDefiniteError(message,
                                               where=bad["H2-M-positive-definite"].where)
            raise InvalidInputError(message)
        if not report.monotone_ok:
            warnings.warn("advisory sign conditions failed; equilibrium certified"
                          " quantities may lose definiteness", RuntimeWarning,
                          stacklevel=2)
    cc = _constants(p, g, pair_norms)

    # the refinement that puts _MIN_WINDOW_NODES nodes in a certified window,
    # ceil(ratio); none (inf) without a positive tau
    ratio = _MIN_WINDOW_NODES * g.h / cc.tau if cc.tau > 0 else math.inf
    if ratio <= _GUARANTEED_MAX_REFINE:
        mode, width, refined_by = "guaranteed", cc.tau, max(1, math.ceil(ratio))
    else:
        mode, width, refined_by = "practical", g.T / 4.0, 1
    g_solve = g.refine(refined_by)

    engine = _Engine(p, g_solve)
    nodes = g_solve.nodes
    K = nodes.size
    values = np.broadcast_to(engine.G_T, (K,) + engine.G_T.shape).copy()
    tol = opts.tol if opts.tol is not None \
        else 1e-10 * (1.0 + matrix_norm(engine.G_T) + g.T * cc.norms["Q_c"])
    ball_cap = 4.0 * cc.r + 2.0 * matrix_norm(engine.G_T) + 1.0

    windows = []
    pos = K - 1
    halvings = 0
    w = width
    while pos > 0:
        a_idx = int(np.searchsorted(nodes, nodes[pos] - w - 1e-12 * (1 + g.T), side="left"))
        a_idx = min(a_idx, pos - 1)
        try:
            info = engine.run_window(values, a_idx, pos, values[pos].copy(),
                                     tol, opts.max_iter, ball_cap, mode != "guaranteed")
        except _Diverged as exc:
            if mode == "guaranteed":
                raise NonconvergenceError(
                    f"divergence inside a certified window: {exc}",
                    diagnostics={"window": [float(nodes[a_idx]), float(nodes[pos])],
                                 "mode": mode})
            if a_idx == pos - 1 or halvings >= 40:
                raise NonconvergenceError(
                    f"window halving exhausted at [{nodes[a_idx]:.6g}, {nodes[pos]:.6g}]:"
                    f" {exc}",
                    diagnostics={"halvings": halvings, "mode": mode})
            halvings += 1
            w = w / 2.0
            continue
        if mode == "guaranteed" and info["contraction_factor"] > 0.75:
            raise NonconvergenceError(
                f"contraction factor {info['contraction_factor']:.3f} exceeds 0.75 on a"
                " certified window", diagnostics=info)
        windows.append(info)
        pos = a_idx

    meta = {
        "mode": mode,
        "window_width": float(width),
        "final_window_width": float(w),
        "halvings": halvings,
        "tol": float(tol),
        "refined_by": refined_by,
        "constants": cc.to_dict(),
        "windows": windows,
        "iterations_total": int(sum(w_["iterations"] for w_ in windows)),
        "max_contraction_factor": max((w_["contraction_factor"] for w_ in windows),
                                      default=0.0),
    }
    return RiccatiSolution(g_solve, values, meta)


def q_bar_nodes(p: LQProblem, P: RiccatiSolution) -> np.ndarray:
    """Effective state weight Q(s,s) - F(s; s, P) at every grid node."""
    return _engine_for(p, P).q_bar_table.copy()


def _union_engine(p: LQProblem, P: RiccatiSolution, ts) -> _Engine:
    """The engine on the union of P's nodes and the times ts, P sampled at
    the inserted times by its local cubic; the horizon rule of _engine_for."""
    _check_horizon(p, P.grid)
    union = np.union1d(P.grid.nodes, ts)
    return _Engine(p, TimeGrid(union), P.eval_many(union))


def q_bar(p: LQProblem, P: RiccatiSolution, ts) -> np.ndarray:
    """Effective state weight Q(t,t) - F(t; t, P) at a time t or at each time
    of a 1-d array ts in [0, T].

    A time that is a grid node by grids.node_index reads that node's row of
    q_bar_nodes.  Every other time is inserted into the grid, P sampled there
    by its local cubic, and one engine on the union of nodes and times gives
    the rows of all of them: an inserted row integrates over t and the nodes
    past it, with the closed-loop drift interpolated on the whole union.
    """
    ts, scalar = _as_batch(ts)
    if not np.all(np.isfinite(ts)):
        raise InvalidInputError("q_bar needs finite times ts")
    nodes = P.grid.nodes
    j = node_index(nodes, ts)
    on_node = j >= 0
    if np.any(((ts < nodes[0]) | (ts > nodes[-1])) & ~on_node):
        raise InvalidInputError("q_bar needs times in [0, T]")
    out = np.empty((ts.size, p.n, p.n))
    if on_node.any():
        out[on_node] = q_bar_nodes(p, P)[j[on_node]]
    off = ts[~on_node]
    if off.size:
        engine = _union_engine(p, P, off)
        out[~on_node] = engine.q_bar_table[np.searchsorted(engine.nodes, off)]
    return out[0] if scalar else out


def _defects(engine: _Engine) -> np.ndarray:
    """Integral-equation defect at every node of the engine (row-sum norm)."""
    integrals = tail_integrals(engine.integrand, engine.nodes)
    return matrix_norm_many(engine.values - engine.G_T - integrals)


def riccati_residual_profile(p: LQProblem, P: RiccatiSolution) -> np.ndarray:
    """Integral-equation defect at every grid node (row-sum norm)."""
    return _defects(_engine_for(p, P))


def riccati_residual(p: LQProblem, P: RiccatiSolution, t: float) -> float:
    """Integral-equation defect ||P(t) - G(T) - int_t^T rhs|| at one time.

    At a grid node (grids.node_index) this is the entry of the profile.  Off
    a node, it is the entry at t of the profile on the grid with t inserted,
    the engine q_bar reads there: one nonlocal pass.  t is one finite time.
    """
    ts, scalar = _as_batch(t)
    if not scalar or not math.isfinite(ts[0]):
        raise InvalidInputError(f"riccati_residual needs one finite time t, not {t!r}")
    t = float(ts[0])
    nodes = P.grid.nodes
    i = int(node_index(nodes, t))
    if i >= 0:
        return float(riccati_residual_profile(p, P)[i])
    if not nodes[0] < t < nodes[-1]:
        raise InvalidInputError("t outside [0, T]")
    engine = _union_engine(p, P, [t])
    return float(_defects(engine)[np.searchsorted(engine.nodes, t)])
