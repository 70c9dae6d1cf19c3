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
contraction_constants.  That certified width collapses numerically whenever
B is nonzero, so by default the solver falls back to practical windows with
divergence-triggered halving and records the observed contraction factors.

Each node pair (s_i, r) is evaluated and reduced O(1) times per solve.  One
walk of the triangle of node pairs, 32 rows at a time, both validates the
problem and reduces the norms behind the contraction constants.  On a
window [a, b] the nonlocal term splits at the first node c past b from
which the closed loop reads solved nodes only: the tail r >= c is folded
once per window into one n x n matrix per row, so each iterate integrates
the flow and contracts the kernel partials on [a, c] alone.  Those partials
are evaluated once per window, on the rectangle of each 32-row block and its
columns, and written in place into the layout the iterates contract.  No
K x K weight matrix is kept: the pair weights of row i are one full-grid
vector plus a band of four next to the diagonal, and every integral to the
end of a window or of the grid is a reverse sum of interval integrals.

An iterate recomputes only what depends on the iterate: M^{-1}B' and
M^{-1}S are tabulated when the engine is built and the inverse of the
drift-only flow is kept from its condition check, so the gain, the drift
and the window map multiply instead of solving.  Each window after the
first starts from the local cubic through the solved nodes next to it.
"""
from __future__ import annotations

import csv
import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._quad import local_cubic, tail_band, tail_integrals
from .errors import InvalidInputError, NonconvergenceError
from .grids import TimeGrid, node_index
from .kernels import _ROW_BLOCK, kernel_norms, matrix_norm, matrix_norm_many
from .problem import LQProblem, _sym, _triangle_pass
from .propagators import (Propagator, feedback_tables, flow_condition, fundamental_solution,
                          half_times, rk4_flow)


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
        ts = np.asarray(ts, dtype=float)
        scalar = ts.ndim == 0
        ts = np.atleast_1d(ts)
        nodes = self.grid.nodes
        if np.any(ts < nodes[0] - 1e-12) or np.any(ts > nodes[-1] + 1e-12):
            raise InvalidInputError("evaluation time outside [0, T]")
        out = local_cubic(nodes, self.values, np.clip(ts, nodes[0], nodes[-1]))
        return out[0] if scalar else out

    def __call__(self, t):
        return self.eval_many(t)

    def to_csv(self, fh) -> None:
        """Write t plus row-major entries P_i_j with 17 significant digits."""
        n = self.n
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t"] + [f"P_{i+1}_{j+1}" for i in range(n) for j in range(n)])
        for t, mat in zip(self.grid.nodes, self.values):
            writer.writerow([format(t, ".17g")]
                            + [format(v, ".17g") for v in mat.reshape(-1)])

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
    the walk that validates the problem.
    """
    return _constants(p, g, _triangle_pass(p, g, validate=False)[1], fundamental_solution(p.A, g))


def _constants(p: LQProblem, g: TimeGrid, pair_norms, psi: Propagator) -> ContractionConstants:
    """contraction_constants from the two-time norms of a triangle walk and
    the drift-only flow psi of A on g."""
    nodes = g.nodes
    T = g.T
    nA = kernel_norms(p.A, g)
    nB = kernel_norms(p.B, g)
    nG = kernel_norms(p.G, g)
    nQ = pair_norms.Q.bundle(nodes)
    nS = pair_norms.S.bundle(nodes)
    nM = pair_norms.M.bundle(nodes)
    minv = pair_norms.minv()

    a1 = nA.l1_norm
    binf = nB.linf_norm
    r = math.exp(2 * a1) * (nG.c_norm + T * nQ.c_norm)
    rho = minv * (4 * r * binf + nS.c_norm)
    beta = a1 + T * rho * binf
    omega = a1 + 2 * T * rho * binf
    gamma = minv * (1 + binf) ** 2 * (
        nG.c1_norm + T * nQ.c1_norm + (1 + 2 * T * rho) * (2 * rho * nM.c1_norm + nS.c1_norm)
    )

    den2 = 2 * _exp(4 * beta) * (
        rho * rho * nM.c_norm + nG.c1_norm + T * nQ.c1_norm
        + T * rho * (rho * nM.c1_norm + 2 * nS.c1_norm) + nQ.c_norm
    )
    tau2 = r / den2 if den2 > 0 else math.inf
    den3 = 4 * _exp(2 * a1) * (rho * binf + 2 * T * gamma * _exp(4 * omega))
    tau3 = 1.0 / den3 if den3 > 0 else math.inf

    # tau1: widest node span over which the drift-only flow stays uniformly
    # close to the identity, in both time directions
    U = psi.values
    bound = 1.0 / (2.0 * (1.0 + _exp(2 * beta)))
    eye = np.eye(p.n)

    def span_ok(w: int) -> bool:
        if w == 0:
            return True
        fwd = np.linalg.solve(np.swapaxes(U[:-w], -1, -2), np.swapaxes(U[w:], -1, -2))
        bwd = np.linalg.solve(np.swapaxes(U[w:], -1, -2), np.swapaxes(U[:-w], -1, -2))
        worst = max(matrix_norm_many(np.swapaxes(fwd, -1, -2) - eye).max(),
                    matrix_norm_many(np.swapaxes(bwd, -1, -2) - eye).max())
        return bool(worst <= bound)

    lo, hi = 0, nodes.size - 1
    if span_ok(hi):
        lo = hi
    else:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if span_ok(mid):
                lo = mid
            else:
                hi = mid
    tau1 = float((nodes[lo:] - nodes[:nodes.size - lo]).min()) if lo > 0 else 0.0

    tau = min(tau1, tau2, tau3)
    norms = {
        "A_l1": a1, "B_linf": binf, "G_c": nG.c_norm, "G_c1": nG.c1_norm,
        "Q_c": nQ.c_norm, "Q_c1": nQ.c1_norm, "S_c": nS.c_norm, "S_c1": nS.c1_norm,
        "M_c": nM.c_norm, "M_c1": nM.c1_norm, "M_inv_c": minv,
    }
    return ContractionConstants(r, rho, beta, omega, gamma,
                                tau1, float(tau2), float(tau3), float(tau), norms)


def upsilon(p: LQProblem, P, s) -> np.ndarray:
    """Feedback gain factor M(s,s)^{-1} (B(s)' P(s) + S(s,s)) at a time s or
    at each time of a 1-d array s, from feedback_tables."""
    s = np.asarray(s, dtype=float)
    ts = np.atleast_1d(s)
    MiBt, MiS = feedback_tables(p, ts)
    ups = MiBt @ P(ts) + MiS
    return ups[0] if s.ndim == 0 else ups


@dataclass
class SolveOptions:
    """Knobs for solve_riccati.

    tol: fixed-point tolerance in the grid sup norm (default 1e-10*(1+r)).
    max_iter: per-window iteration cap, error when hit.
    window_override: window width in time units; bypasses the width policy
        (divergence halving still active).
    validate: run assumption validation before solving.
    """

    tol: float | None = None
    max_iter: int = 200
    window_override: float | None = None
    validate: bool = True


_MIN_WINDOW_NODES = 8
_GUARANTEED_MAX_REFINE = 10


class _Diverged(Exception):
    pass


def _contract(core, L) -> np.ndarray:
    """sum_r L_r' core[r, :, k, :] L_r for every row k of a triangle block:
    one matrix product per tail node serves all rows."""
    tail, q, rows, _ = core.shape
    n = L.shape[-1]
    inner = core.reshape(tail, q * rows, q) @ L
    sums = L.reshape(tail * q, n).T @ inner.reshape(tail * q, rows * n)
    return sums.reshape(n, rows, n).transpose(1, 0, 2)


def _anchored(U, U0) -> np.ndarray:
    """U_r U0^{-1} for every r, from one factorization of U0: the transposes
    U_r' stand side by side as the right-hand sides of U0' X = U_r'."""
    k, n = U.shape[0], U.shape[-1]
    X = np.linalg.solve(U0.T, U.transpose(2, 0, 1).reshape(n, k * n))
    return X.reshape(n, k, n).transpose(1, 2, 0)


class _Window(NamedTuple):
    """What every iterate of window [a, b] shares; see _Engine.f_diag.

    c is the split node, flow holds Phi(r, s_c) for r in nodes[c:] and
    inverse their inverses.  blocks yields, per block of rows from i0,
    (i0, core, Z): core holds the weighted kernel partials of the rows
    against the columns [i0, c) (_Engine.triangle_block), Z the rows' tail
    past c folded into one n x n matrix each.
    """

    c: int
    flow: np.ndarray
    inverse: np.ndarray
    blocks: Iterable


class _Engine:
    """Caches per-grid samples and runs fixed-point window iterations.

    Construction tabulates what no iterate changes: A and B at the half
    times (nodes and interval midpoints), the feedback_tables M^{-1}B' and
    M^{-1}S there (so Ups = MiBt P + MiS is a product, not a solve), and M, Q
    and Gdot at the nodes.  The cached properties hold psi, the drift-only
    flow of A that only the window map reads, the tail rules as a vector plus
    a K x 4 band, and full-grid tables of the fixed solution values.
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
        self._window_key = None
        self._window = None

    @cached_property
    def psi(self) -> Propagator:
        """The drift-only flow of A on the grid, with its inverse."""
        return fundamental_solution(self.p.A, self.grid)

    @cached_property
    def tail_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """tail_band(nodes): row i's pair weights, the rule on nodes[i:]."""
        return tail_band(self.nodes)

    def upsilon_nodes(self, values: np.ndarray, lo: int, hi: int | None = None) -> np.ndarray:
        """Ups = M^{-1}(B'P + S) at nodes[lo:hi], from the feedback tables."""
        sl = slice(lo, hi)
        return self.MiBt_nodes[sl] @ values[sl] + self.MiS_nodes[sl]

    def drift(self, values: np.ndarray, a: int, lo: int, hi: int) -> np.ndarray:
        """Closed-loop drift A - B Ups at the half times of nodes lo..hi, P
        interpolated by the local cubic on nodes[a:]."""
        h = slice(2 * lo, 2 * hi + 1)
        Pm = local_cubic(self.nodes[a:], values[a:], self.half[h])
        return self.A_half[h] - self.B_half[h] @ (self.MiBt_half[h] @ Pm + self.MiS_half[h])

    def split_node(self, b: int) -> int:
        """The first node c past b from which the closed-loop drift reads
        nodes b.. only: the local cubic at the midpoint of interval j reads
        nodes min(j - 1, K - 4).., so c = b + 1 when b <= K - 4, else the
        last node."""
        K = self.nodes.size
        return b + 1 if b <= K - 4 else K - 1

    def triangle_block(self, i0: int, i1: int, c: int):
        """Weighted kernel partials of the rows i0 <= i < i1 against the
        columns r >= i0, split at column c.

        Returns (core, folded): core[r - i0, :, i - i0, :] = W[i, r]
        [[Q_t, -S_t'], [-S_t, M_t]](s_i, r) for i0 <= r < c, where W[i] =
        simpson_weights(nodes[i:]) is band[i] on columns i..i+3 and v past
        them (tail_rule); folded holds the columns r >= c in the same way, at
        r - c.  Tail nodes lead, so one matrix product per tail node serves
        every row.  The kernels are evaluated once on the rectangle of rows
        and columns, column by column, and each weighted block is written in
        place.  A column left of the diagonal is clipped to the pair
        (s_i, s_i): W[i, r] = 0 there, and no kernel sees t > s.  core and
        folded are separate arrays, so a window that keeps its cores does not
        keep the folded columns alive.
        """
        p, nodes, K = self.p, self.nodes, self.nodes.size
        n, m = p.n, p.m
        rows, cols = i1 - i0, K - i0
        i = np.arange(i0, i1)
        s = np.broadcast_to(nodes[i], (cols, rows)).ravel()
        r = nodes[np.maximum(np.arange(i0, K)[:, None], i)].ravel()
        v, band = self.tail_rule
        d = np.arange(i0, K)[:, None] - i  # column minus row
        w = np.where(d < 0, 0.0, np.where(d < 4, band[i, np.clip(d, 0, 3)], v[i0:, None]))
        w = w[:, :, None, None]
        # weighted in pair order (column, row), then moved to (column, :, row, :)
        Qw = (w * p.Q.eval_dt(s, r).reshape(cols, rows, n, n)).transpose(0, 2, 1, 3)
        Sw = (-w * p.S.eval_dt(s, r).reshape(cols, rows, m, n)).transpose(0, 2, 1, 3)
        Mw = (w * p.M.eval_dt(s, r).reshape(cols, rows, m, m)).transpose(0, 2, 1, 3)
        parts = []
        for lo, hi in ((0, c - i0), (c - i0, cols)):
            out = np.empty((hi - lo, n + m, rows, n + m))
            out[:, :n, :, :n] = Qw[lo:hi]
            out[:, :n, :, n:] = Sw[lo:hi].transpose(0, 3, 2, 1)
            out[:, n:, :, :n] = Sw[lo:hi]
            out[:, n:, :, n:] = Mw[lo:hi]
            parts.append(out)
        return tuple(parts)

    def window(self, values: np.ndarray, a: int, b: int) -> _Window:
        """The _Window of rows [a, b], its blocks built one at a time.

        The flow past the split node c and Ups there read the solved nodes
        only, so they are fixed while the window iterates; Z_i =
        sum_{r >= c} W[i, r] Lt_r' core(s_i, r) Lt_r + Phi(T, s_c)' Gdot(s_i)
        Phi(T, s_c), Lt_r = [Phi(r, s_c); Ups_r Phi(r, s_c)].
        """
        K = self.nodes.size
        c = self.split_node(b)
        flow = rk4_flow(self.nodes[c:], self.drift(values, a, c, K - 1))
        ups = self.upsilon_nodes(values, c)
        Lt = np.concatenate([flow, ups @ flow], axis=1)
        end = flow[-1]

        def blocks():
            for i0 in range(a, b + 1, _ROW_BLOCK):
                i1 = min(i0 + _ROW_BLOCK, b + 1)
                core, folded = self.triangle_block(i0, i1, c)
                yield i0, core, _contract(folded, Lt) + end.T @ self.Gd_nodes[i0:i1] @ end

        return _Window(c, flow, np.linalg.inv(flow), blocks())

    def cached_window(self, values: np.ndarray, a: int, b: int) -> _Window:
        """window(values, a, b) with its blocks listed, kept until another
        window asks: every iterate of a window shares them."""
        if self._window_key != (a, b):
            self._window = None  # free the old window's before building
            win = self.window(values, a, b)
            self._window = win._replace(blocks=list(win.blocks))
            self._window_key = (a, b)
        return self._window

    def f_diag(self, values: np.ndarray, a: int, b: int, window: _Window,
               ups: np.ndarray) -> np.ndarray:
        """F(s_i; s_i, P) for window nodes i in [a, b], tail from values.

        window is the _Window of rows [a, b] and ups[j] the gain Ups of values
        at node a + j, for a + j < c at least.  In a block of rows from i0,
        let U_r = Phi(r, s_i0), the closed-loop flow of values.  Then
        Phi(r, s_i) = U_r U_i^{-1} takes the conjugation out of the integral:

            F_i = U_i^{-T} [ sum_{i <= r < c} W[i, r] L_r' core(s_i, r) L_r
                             + U_c' Z_i U_c ] U_i^{-1},

        L_r = [U_r; Ups_r U_r], core = [[Q_t, -S_t'], [-S_t, M_t]].  The tail
        past the split node c (window) is folded into Z_i once per window,
        since Phi(r, s_i0) = Phi(r, s_c) U_c there; so an iterate runs RK4
        and Ups on [a, c] only and contracts the pairs r < c.  The flow is
        anchored per block, not at the window start, so each U_i spans fewer
        than _ROW_BLOCK intervals: inverting the flow of a whole window would
        amplify rounding by its condition number squared.  The anchoring is
        one solve per block, and one inverse of the block's U_i conjugates
        its rows.  The condition warning of Propagator still covers the flow
        over [s_a, T], composed as Phi(r, s_c) U_c past c.

        W[i] is the rule on nodes[i:] alone (triangle_block), so row K-2 is
        the trapezoid rule and row K-3 the parabola.
        """
        c, flow, inverse, blocks = window
        U = rk4_flow(self.nodes[a:c + 1], self.drift(values, a, a, c))
        U_inv = np.linalg.inv(U)
        flow_condition(np.concatenate([U, flow[1:] @ U[-1]]),
                       np.concatenate([U_inv, U_inv[-1] @ inverse[1:]]))
        n = U.shape[-1]
        out = np.empty((b - a + 1, n, n))
        for i0, core, Z in blocks:
            j0, rows = i0 - a, Z.shape[0]
            Ub = _anchored(U[j0:], U[j0])
            L = np.concatenate([Ub[:-1], ups[j0:c - a] @ Ub[:-1]], axis=1)
            acc = _contract(core, L) + Ub[-1].T @ Z @ Ub[-1]
            Ui_inv = np.linalg.inv(Ub[:rows])
            out[j0:j0 + rows] = np.swapaxes(Ui_inv, -1, -2) @ acc @ Ui_inv
        return _sym(out)

    def picard_iterate(self, values: np.ndarray, a: int, b: int,
                       boundary: np.ndarray) -> np.ndarray:
        """One application of the window map; returns values on nodes[a:b+1].

        The map conjugates by psi and its stored inverse; Ups, computed once
        on nodes a..max(b, c - 1), serves f_diag too.
        """
        ups = self.upsilon_nodes(values, a, max(self.split_node(b), b + 1))
        F = self.f_diag(values, a, b, self.cached_window(values, a, b), ups)
        ups = ups[:b + 1 - a]
        quad = np.swapaxes(ups, -1, -2) @ self.M_nodes[a:b + 1] @ ups
        R = self.Q_nodes[a:b + 1] - F - quad
        UA = self.psi.values[a:b + 1]
        Y = np.swapaxes(UA, -1, -2) @ R @ UA
        C = UA[-1].T @ boundary @ UA[-1] + tail_integrals(Y, self.nodes[a:b + 1])
        UA_inv = self.psi.inverse[a:b + 1]
        new = _sym(np.swapaxes(UA_inv, -1, -2) @ C @ UA_inv)
        new[-1] = boundary
        return new

    def run_window(self, values: np.ndarray, a: int, b: int, boundary: np.ndarray,
                   tol: float, max_iter: int, ball_cap: float) -> dict:
        """Iterate window [a, b] to tolerance, mutating values in place.

        The window starts from the local cubic through the solved nodes
        b..b+3, extrapolated to nodes[a:b].  The first window has no such
        nodes, and an extrapolation that is not finite or leaves the a-priori
        ball (ball_cap) is dropped; those windows start from boundary.
        """
        start = boundary
        if b + 3 < self.nodes.size:
            cubic = local_cubic(self.nodes[b:b + 4], values[b:b + 4], self.nodes[a:b])
            if np.all(np.isfinite(cubic)) and float(matrix_norm_many(cubic).max()) <= ball_cap:
                start = cubic
        values[a:b] = start
        diffs = []
        for it in range(1, max_iter + 1):
            # a diverging iterate overflows or leaves a flow singular; the
            # non-finite check below, or the except, makes that _Diverged
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    new = self.picard_iterate(values, a, b, boundary)
            except np.linalg.LinAlgError as exc:
                raise _Diverged(f"singular matrix in the iterate: {exc}") from exc
            if not np.all(np.isfinite(new)):
                raise _Diverged("non-finite iterate")
            d = float(matrix_norm_many(new - values[a:b + 1]).max())
            values[a:b + 1] = new
            diffs.append(d)
            if d <= tol:
                break
            if float(matrix_norm_many(new).max()) > ball_cap:
                raise _Diverged("iterate left the a-priori ball")
            if len(diffs) >= 3 and diffs[-1] > diffs[-2] > diffs[-3] \
                    and diffs[-1] > 100 * tol:
                raise _Diverged("iterate differences growing")
            if len(diffs) >= 8:
                f = (diffs[-1] / diffs[-8]) ** (1.0 / 7.0)
                if f >= 1.0:
                    raise _Diverged("no contraction over the last iterates")
                needed = math.log(tol / diffs[-1]) / math.log(f)
                if it + needed > max_iter:
                    raise _Diverged(
                        f"projected nonconvergence (observed factor ~{f:.3f})")
        else:
            raise NonconvergenceError(
                f"window [{self.nodes[a]:.6g}, {self.nodes[b]:.6g}] did not reach"
                f" tol={tol:.3e} in {max_iter} iterations (last diff {diffs[-1]:.3e})",
                diagnostics={"window": [float(self.nodes[a]), float(self.nodes[b])],
                             "diffs": diffs})
        factors = [diffs[k] / diffs[k - 1] for k in range(1, len(diffs))
                   if diffs[k - 1] > 0]
        return {
            "a": float(self.nodes[a]), "b": float(self.nodes[b]),
            "iterations": len(diffs), "final_diff": diffs[-1],
            "contraction_factor": max(factors) if factors else 0.0,
        }

    @cached_property
    def q_bar_table(self) -> np.ndarray:
        """Effective state weight Q(s,s) - F(s; s, P) at every node."""
        last = self.nodes.size - 1
        F = self.f_diag(self.values, 0, last, self.window(self.values, 0, last),
                        self.upsilon_nodes(self.values, 0))
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
    so tables cached for one problem never answer for another."""
    engine = P._engine
    if engine is None or engine.p is not p:
        engine = P._engine = _Engine(p, P.grid, P.values)
    return engine


@dataclass(frozen=True)
class WindowIterate:
    """Result of a single fixed-point application on one window."""

    nodes: np.ndarray
    values: np.ndarray


def picard_step(p: LQProblem, P: RiccatiSolution, window, boundary) -> WindowIterate:
    """Apply the window map once.

    window is a (a, b) pair of grid-node times, boundary the matrix pinned at
    b; P supplies both the in-window iterate and the already-solved tail on
    [b, T].  Returns the mapped values on the window nodes.
    """
    a_idx = P.grid.index_of(window[0])
    b_idx = P.grid.index_of(window[1])
    if a_idx >= b_idx:
        raise InvalidInputError("window must span at least one grid interval")
    boundary = _sym(np.atleast_2d(np.asarray(boundary, dtype=float)))
    new = _engine_for(p, P).picard_iterate(P.values, a_idx, b_idx, boundary)
    return WindowIterate(P.grid.nodes[a_idx:b_idx + 1].copy(), new)


def solve_riccati(p: LQProblem, g: TimeGrid, opts: SolveOptions | None = None
                  ) -> RiccatiSolution:
    """Solve the equilibrium Riccati integral equation on grid g.

    Windows of the certified width tau are used whenever the grid resolves
    them (>= _MIN_WINDOW_NODES nodes, refining internally up to
    _GUARANTEED_MAX_REFINE times); the contraction factor is then asserted
    <= 0.75 per window.  Otherwise practical windows of width T/4 march
    backward with halving on observed divergence.  Raises
    NonconvergenceError when an iteration cap or halving floor is hit, and
    InvalidInputError for a tol outside (0, inf) or a max_iter below 1.

    Validation (opts.validate) and the two-time norms of the constants come
    from one walk of the node-pair triangle; the report and constants equal
    those of validate_assumptions and contraction_constants.
    """
    opts = opts or SolveOptions()
    if opts.tol is not None and not 0.0 < opts.tol < math.inf:
        raise InvalidInputError("tol must be positive and finite")
    if opts.max_iter < 1:
        raise InvalidInputError("max_iter must be >= 1")
    report, pair_norms = _triangle_pass(p, g, validate=opts.validate)
    if report is not None:
        if not report.hard_ok:
            bad = [c.assumption for c in report.checks if c.hard and not c.passed]
            raise InvalidInputError(f"problem fails structural assumptions: {bad}")
        if not report.monotone_ok:
            warnings.warn("advisory sign conditions failed; equilibrium certified"
                          " quantities may lose definiteness", RuntimeWarning,
                          stacklevel=2)
    psi = fundamental_solution(p.A, g)
    cc = _constants(p, g, pair_norms, psi)
    tol = opts.tol if opts.tol is not None else 1e-10 * (1.0 + cc.r)

    g_solve = g
    refined_by = 1
    if opts.window_override is not None:
        mode = "override"
        width = float(opts.window_override)
        if not 0 < width <= g.T:
            raise InvalidInputError("window_override must lie in (0, T]")
    elif cc.tau >= _MIN_WINDOW_NODES * g.h:
        mode = "guaranteed"
        width = cc.tau
    elif cc.tau > 0 and math.ceil(_MIN_WINDOW_NODES * g.h / cc.tau) \
            <= _GUARANTEED_MAX_REFINE:
        refined_by = math.ceil(_MIN_WINDOW_NODES * g.h / cc.tau)
        g_solve = g.refine(refined_by)
        mode = "guaranteed"
        width = cc.tau
    else:
        mode = "practical"
        width = g.T / 4.0

    engine = _Engine(p, g_solve)
    if g_solve is g:
        engine.psi = psi
    nodes = g_solve.nodes
    K = nodes.size
    values = np.broadcast_to(engine.G_T, (K,) + engine.G_T.shape).copy()
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
                                     tol, opts.max_iter, ball_cap)
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


def q_bar(p: LQProblem, P: RiccatiSolution, ts) -> np.ndarray:
    """Effective state weight Q(t,t) - F(t; t, P) at a time t or at each time
    of a 1-d array ts in [0, T].

    A time that is a grid node by grids.node_index reads that node's row of
    q_bar_nodes.  Every other time is inserted into the grid, P sampled there
    by its local cubic, and one engine on the union of nodes and times gives
    the rows of all of them: an inserted row integrates over t and the nodes
    past it, with the closed-loop drift interpolated on the whole union.
    """
    ts = np.asarray(ts, dtype=float)
    scalar = ts.ndim == 0
    ts = np.atleast_1d(ts)
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
        union = np.union1d(nodes, off)
        engine = _Engine(p, TimeGrid(union), P.eval_many(union))
        out[~on_node] = engine.q_bar_table[np.searchsorted(union, off)]
    return out[0] if scalar else out


def riccati_residual_profile(p: LQProblem, P: RiccatiSolution) -> np.ndarray:
    """Integral-equation defect at every grid node (row-sum norm)."""
    engine = _engine_for(p, P)
    defect = P.values - engine.G_T - tail_integrals(engine.integrand, P.grid.nodes)
    return matrix_norm_many(defect)


def riccati_residual(p: LQProblem, P: RiccatiSolution, t: float) -> float:
    """Integral-equation defect ||P(t) - G(T) - int_t^T rhs|| at one time.

    At a grid node (grids.node_index) this is the entry of the profile.  Off
    a node, t joins the nodes past it with the integrand at t from q_bar; in
    the last interval the node before t joins too, so [t, T] is integrated on
    the parabola through s_{K-2}, t and T, not on the line from t to T.
    """
    nodes = P.grid.nodes
    i = int(node_index(nodes, t))
    if i >= 0:
        return float(riccati_residual_profile(p, P)[i])
    if not nodes[0] < t < nodes[-1]:
        raise InvalidInputError("t outside [0, T]")
    idx = int(np.searchsorted(nodes, t))
    engine = _engine_for(p, P)
    Pt = P(t)
    At = p.A.eval(t)
    upst = upsilon(p, P, t)
    It = At.T @ Pt + Pt @ At + q_bar(p, P, t) - upst.T @ p.M.eval(t, t) @ upst
    lo = min(idx, nodes.size - 2)
    ts = np.concatenate([nodes[lo:idx], [t], nodes[idx:]])
    I = engine.integrand
    stack = np.concatenate([I[lo:idx], It[None], I[idx:]])
    integral = tail_integrals(stack, ts)[idx - lo]
    return float(matrix_norm(Pt - engine.G_T - integral))
