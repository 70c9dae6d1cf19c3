"""Problem data for the time-inconsistent linear-quadratic control problem.

The running cost seen from time t is
    <Q(t,s) X(s), X(s)> + 2 <S(t,s) X(s), u(s)> + <M(t,s) u(s), u(s)>
integrated over s in [t, T], plus the terminal term <G(t) X(T), X(T)>; the
first argument of each weight is the evaluation time, which is what makes
the problem time-inconsistent when the kernels genuinely depend on it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .kernels import (OneTimeMatrixFn, TwoTimeKernel, _columnwise, _row_sums, _RowWorst,
                      _triangle_rows, _walk, matrix_norm_many)


@dataclass(frozen=True)
class LQProblem:
    """Coefficients of one control problem on [0, T].

    A: state drift (n x n), B: control channel (n x m), Q: state weight
    kernel (n x n), S: cross weight kernel (m x n), M: control weight kernel
    (m x m), G: terminal weight (n x n).  All horizons must agree.
    """

    A: OneTimeMatrixFn
    B: OneTimeMatrixFn
    Q: TwoTimeKernel
    S: TwoTimeKernel
    M: TwoTimeKernel
    G: OneTimeMatrixFn

    def __post_init__(self):
        n, m = self.B.dims
        checks = [
            ("A", self.A.dims, (n, n)),
            ("Q", self.Q.dims, (n, n)),
            ("S", self.S.dims, (m, n)),
            ("M", self.M.dims, (m, m)),
            ("G", self.G.dims, (n, n)),
        ]
        for name, got, want in checks:
            if got != want:
                raise InvalidInputError(
                    f"{name} has dims {got}, expected {want} for n={n}, m={m}"
                )
        horizons = {round(c.horizon, 12) for c in (self.A, self.B, self.Q, self.S, self.M, self.G)}
        if len(horizons) != 1:
            raise InvalidInputError(f"coefficient horizons disagree: {sorted(horizons)}")

    @property
    def n(self) -> int:
        return self.B.dims[0]

    @property
    def m(self) -> int:
        return self.B.dims[1]

    @property
    def T(self) -> float:
        return self.A.horizon


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one assumption check: the worst sampled value and where."""

    assumption: str
    where: tuple
    worst: float
    passed: bool
    hard: bool
    note: str = ""

    def to_dict(self) -> dict:
        worst = float(self.worst)
        return {
            "assumption": self.assumption,
            "where": list(self.where),
            "worst": worst if math.isfinite(worst) else None,
            "passed": bool(self.passed),
            "hard": bool(self.hard),
            "note": self.note,
        }


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple
    pd_floor: float
    tol: float
    skipped_pairs: dict = field(default_factory=dict)

    @property
    def hard_ok(self) -> bool:
        """All structural assumptions (finiteness, symmetry, PD/PSD weights)."""
        return all(c.passed for c in self.checks if c.hard)

    @property
    def monotone_ok(self) -> bool:
        """All checks including the advisory sign conditions on the partials."""
        return all(c.passed for c in self.checks)

    overall = monotone_ok

    def to_dict(self) -> dict:
        return {
            "pd_floor": float(self.pd_floor),
            "tol": float(self.tol),
            "hard_ok": self.hard_ok,
            "overall": self.monotone_ok,
            "skipped_pairs": {k: int(v) for k, v in self.skipped_pairs.items()},
            "checks": [c.to_dict() for c in self.checks],
        }


def _point(points, i) -> tuple:
    return tuple(points[i].tolist())


class _Worst:
    """Running extreme of per-pair values over blocks, with its pair.

    Ends where np.argmin (lowest=True) or np.argmax over the whole stack
    would: a NaN wins, and among equal values the first pair does, so a later
    block replaces the best only when it is strictly better.
    """

    def __init__(self, lowest: bool):
        self.lowest = lowest
        self.value, self.where = None, (0.0, 0.0)

    def add(self, vals, points) -> None:
        if vals.size == 0:
            return
        i = int(np.argmin(vals) if self.lowest else np.argmax(vals))
        v = float(vals[i])
        best = self.value
        if best is None or (not math.isnan(best) and (
                math.isnan(v) or (v < best if self.lowest else v > best))):
            self.value, self.where = v, _point(points, i)


# rounding allowance of the screening bounds, relative to the row-sum norm
# (eigenvalues) or the condition bound (inverses): LAPACK's errors are a few
# n eps times these, so a pair the widened bounds rule out is ruled out by the
# computed values too
_SLACK = 1e-12


def _screened(fn, stack, lo, hi, subsets=(), also=None):
    """fn(stack), per pair, evaluated only at the pairs that the bounds
    lo <= value <= hi cannot rule out of a minimum; +inf at the others.

    A pair is ruled out of a set of pairs when its lo exceeds the least hi of
    the set: it is then neither the set's minimum nor the first of equal
    minima, so a _Worst or a min over any such set of the result ends where
    it would on fn(stack).  The sets are the whole stack and each boolean
    mask in subsets; a pair is evaluated unless every set holding it rules
    it out, and wherever `also` holds.  NaN bounds rule nothing out.
    """
    keep = ~(lo > hi.min())
    if also is not None:
        keep |= also
    for s in subsets:
        if s.any():
            keep |= s & ~(lo > hi[s].min())
    if keep.all():
        return fn(stack)
    out = np.full(lo.shape, np.inf)
    if keep.any():
        out[keep] = fn(stack[keep])
    return out


def _sym(stack):
    return 0.5 * (stack + np.swapaxes(stack, -1, -2))


def _eigvalsh_min(X):
    return _columnwise(np.minimum, np.linalg.eigvalsh(X))


def _gershgorin(X):
    """Bounds lo <= lambda_min <= hi per pair of the symmetric stack X: the
    least left end of a Gershgorin disc and the least diagonal entry, each
    widened by _SLACK (1 + ||X||).  A non-finite entry makes them NaN or
    infinite, so they rule that pair out of nothing."""
    with np.errstate(invalid="ignore", over="ignore"):
        rows = _row_sums(X)
        diag = np.diagonal(X, axis1=-2, axis2=-1)
        slack = _SLACK * (1.0 + _columnwise(np.maximum, rows))
        return (_columnwise(np.minimum, diag + np.abs(diag) - rows) - slack,
                _columnwise(np.minimum, diag) + slack)


def _min_eig(stack, subsets=()):
    """Least eigenvalue of each pair's symmetric part, from eigvalsh only at
    the pairs its Gershgorin bounds cannot rule out of the minimum of the
    stack or of a subset (_screened); +inf at the others."""
    X = _sym(stack)
    return _screened(_eigvalsh_min, X, *_gershgorin(X), subsets)


def _nonzero(stack):
    return _columnwise(np.logical_or, stack.reshape(stack.shape[0], -1) != 0)


def _reduced_min_eig(base_eigs, X, Y, W):
    """Min eigenvalues of X - Y' W^{-1} Y per pair, given base_eigs, those of
    X.  Where Y = 0 the two matrices are the same, so base_eigs is reused;
    base_eigs must then be exact on the pairs that may be the least of the
    Y = 0 pairs.  The others are screened among themselves (_min_eig)."""
    out = base_eigs.copy()
    live = _nonzero(Y)
    if live.any():
        Z = np.linalg.solve(W[live], Y[live])
        out[live] = _min_eig(X[live] - np.swapaxes(Y[live], -1, -2) @ Z)
    return out


def _inv_norm_max(M, rows, norms):
    """max ||M^{-1}|| over a stack, given its row sums and row-sum norms,
    inverting only the pairs that the bounds cannot rule out of the max.

    1/||M|| <= ||M^{-1}|| always, and ||M^{-1}|| <= 1/min_i(|m_ii| -
    sum_{j != i} |m_ij|) (Varah's bound) where that margin exceeds 1e-8 ||M||,
    else no upper bound.  Both are widened relatively by _SLACK (1 +
    ||M|| hi), which covers LAPACK's rounding at that condition number.
    The max is minus the min of -||M^{-1}||, screened by the negated bounds.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        margin = _columnwise(np.minimum, 2 * np.abs(np.diagonal(M, axis1=-2, axis2=-1)) - rows)
        hi = np.where(margin > 1e-8 * norms, 1.0 / margin, np.inf)
        rel = _SLACK * (1.0 + norms * hi)
        lo, hi = (1.0 - rel) / norms, hi * (1.0 + rel)
    return -_screened(lambda X: -matrix_norm_many(np.linalg.inv(X)), M, -hi, -lo).min()


def _asymmetry(stack):
    return matrix_norm_many(stack - np.swapaxes(stack, -1, -2))


def _nonfinite(stack):
    """Per pair of a stack: 1.0 where an entry is not finite, else 0.0, and
    the largest entry magnitude."""
    flat = stack.reshape(stack.shape[0], -1)
    return ((~_columnwise(np.logical_and, np.isfinite(flat))).astype(float),
            _columnwise(np.maximum, np.abs(flat)))


class _Nonfinite:
    """Running check that a stack is finite: the first non-finite pair, else
    the largest entry magnitude and its pair, from _nonfinite's values."""

    def __init__(self):
        self.bad, self.mag = _Worst(False), _Worst(False)

    def add(self, bad, mag, points) -> None:
        self.bad.add(bad, points)
        self.mag.add(mag, points)

    def result(self):
        """(worst, where, finite)."""
        if self.bad.value:
            return float("inf"), self.bad.where, False
        return self.mag.value, self.mag.where, True


class _PairNorms:
    """The two-time part of contraction_constants, reduced block by block:
    the NormBundle reductions of Q, S and M and the sup of ||M^{-1}||.

    A singular M is kept until minv() is read, like a non-finite value in a
    bundle, so a walk that also validates finishes its report first.
    """

    def __init__(self):
        self.Q, self.S, self.M = _RowWorst(), _RowWorst(), _RowWorst()
        self._minv, self._singular = -np.inf, None

    def scalars(self, Q, Qd, S, Sd, M, Md):
        """The row-sum norms of the six stacks per entry of a table, the
        rows of Q and M first, and the running sup of ||M^{-1}|| over it."""
        m_rows = _row_sums(M)
        m_norms = _columnwise(np.maximum, m_rows)
        if self._singular is None:
            try:
                self._minv = np.maximum(self._minv, _inv_norm_max(M, m_rows, m_norms))
            except np.linalg.LinAlgError as exc:
                self._singular = exc
        return np.stack([matrix_norm_many(Q), m_norms, matrix_norm_many(Qd),
                         matrix_norm_many(S), matrix_norm_many(Sd), matrix_norm_many(Md)])

    def add(self, ii, q, m, qd, s, sd, md) -> None:
        """Reduce one block: the norms of scalars() at its pairs."""
        self.Q.add(ii, q, qd)
        self.S.add(ii, s, sd)
        self.M.add(ii, m, md)

    def minv(self) -> float:
        if self._singular is not None:
            raise InvalidInputError("M(t, s) is singular at a node pair") from self._singular
        return float(self._minv)


class _PairChecks:
    """Running reductions of the assumption checks over triangle blocks.

    scalars() reduces a table of pairs to the per-pair values the checks
    read; add() takes one block's values at its pairs.  Where every block
    reads one table (lag kernels), what scalars() decides for the table
    holds for the whole triangle at once.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.s_bad, self.sd_bad = _Nonfinite(), _Nonfinite()
        self.m_asym, self.q_asym = _Worst(False), _Worst(False)
        self.m_eig, self.q_eig = _Worst(True), _Worst(True)
        self.qd_eig, self.md_eig = _Worst(True), _Worst(True)
        self.schur, self.combo = _Worst(True), _Worst(True)
        self.m_finite, self.m_sup, self.q_sup, self.s_finite = True, -np.inf, -np.inf, True
        self.schur_live, self.combo_live, self.skipped_live = True, False, 0

    def scalars(self, Q, Qd, S, Sd, M, Md, q_norms, m_norms):
        """The values add() takes, one row each, per entry of a table, given
        the stacks there and the row-sum norms of Q and M.

        Each eigenvalue stack is screened (_min_eig): an entry goes to
        eigvalsh only where its bounds cannot rule it out of the table's
        minimum, of the S = 0 (live S_t = 0) entries whose Q (Q_t)
        eigenvalues the Schur-type checks reuse, or of the M_t-live test.
        The Schur-type values read +inf where they are not computed: the
        report reads them only where every table has computed them.
        """
        tol = self.tol
        s_bad, s_mag = _nonfinite(S)
        sd_bad, sd_mag = _nonfinite(Sd)
        self.s_finite = self.s_finite and not (s_bad.any() or sd_bad.any())  # so far
        self.m_finite = self.m_finite and bool(np.isfinite(M).all())
        self.m_sup = np.maximum(self.m_sup, m_norms.max())
        self.q_sup = np.maximum(self.q_sup, q_norms.max())
        M_eigs = _min_eig(M)
        q_eigs = _min_eig(Q, (~_nonzero(S),))
        # M_t is live where its least eigenvalue exceeds tol: the bounds decide
        # it except where they straddle tol; an entry they rule out of the
        # minimum reads +inf and is live unless hi <= tol
        Md_sym = _sym(Md)
        lo, hi = _gershgorin(Md_sym)
        Md_eigs = _screened(_eigvalsh_min, Md_sym, lo, hi, also=(lo <= tol) & (hi > tol))
        live = (Md_eigs > tol) & (hi > tol)
        qd_eigs = _min_eig(Qd, (live & ~_nonzero(Sd),))

        # the Schur check runs only while every table so far has finite S and
        # M positive definite beyond the floor of the largest M so far: where
        # the whole-triangle gate (m_pd and s_finite) passes, every table has
        self.schur_live = self.schur_live and self.s_finite \
            and bool(M_eigs.min() > 1e-10 * float(self.m_sup))
        schur = _reduced_min_eig(q_eigs, Q, S, _sym(M)) if self.schur_live \
            else np.full(M_eigs.shape, np.inf)
        combo = np.full(M_eigs.shape, np.inf)
        if self.s_finite and live.any():
            combo[live] = _reduced_min_eig(qd_eigs[live], Qd[live], Sd[live], Md_sym[live])
        return np.stack([s_bad, s_mag, sd_bad, sd_mag, _asymmetry(M), _asymmetry(Q), M_eigs,
                         q_eigs, Md_eigs, live, qd_eigs, schur, combo])

    def add(self, pts, s_bad, s_mag, sd_bad, sd_mag, m_asym, q_asym, m_eig, q_eig, md_eig,
            live, qd_eig, schur, combo) -> None:
        """Reduce one block: the rows of scalars() at its pairs pts."""
        self.s_bad.add(s_bad, s_mag, pts)
        self.sd_bad.add(sd_bad, sd_mag, pts)
        self.m_asym.add(m_asym, pts)
        self.q_asym.add(q_asym, pts)
        self.m_eig.add(m_eig, pts)
        self.q_eig.add(q_eig, pts)
        self.md_eig.add(md_eig, pts)
        self.qd_eig.add(qd_eig, pts)
        self.schur.add(schur, pts)
        live = live.astype(bool)
        n_live = int(live.sum())
        self.skipped_live += live.size - n_live
        self.combo_live = self.combo_live or n_live > 0
        if n_live < live.size:
            combo, pts = combo[live], pts[live]
        self.combo.add(combo, pts)

    def report(self, p: LQProblem, nodes) -> ValidationReport:
        tol = self.tol
        node_pts = nodes[:, None]

        def node_check(stack, lowest):
            worst = _Worst(lowest)
            worst.add(_min_eig(stack) if lowest else _asymmetry(stack), node_pts)
            return worst.value, worst.where

        checks = []
        skipped = {}

        for name, stack in (("H1-A-finite", p.A.eval(nodes)), ("H1-B-finite", p.B.eval(nodes))):
            bad = _Nonfinite()
            bad.add(*_nonfinite(stack), node_pts)
            worst, where, ok = bad.result()
            checks.append(CheckResult(name, where, worst, ok, True))
        worst, where, s_ok = self.s_bad.result()
        checks.append(CheckResult("H4-S-finite", where, worst, s_ok, True))
        worst, where, sd_ok = self.sd_bad.result()
        checks.append(CheckResult("H4-S-partial-finite", where, worst, sd_ok, True))
        s_finite = s_ok and sd_ok

        m_norm = float(self.m_sup) if self.m_finite else 0.0
        m_scale, pd_floor = 1.0 + m_norm, 1e-10 * m_norm
        m_asym, m_eig = self.m_asym, self.m_eig
        checks.append(CheckResult("H2-M-symmetric", m_asym.where, m_asym.value,
                                  m_asym.value <= tol * m_scale, True))
        m_pd = bool(m_eig.value > pd_floor)
        checks.append(CheckResult("H2-M-positive-definite", m_eig.where, m_eig.value, m_pd,
                                  True))

        q_scale = 1.0 + float(self.q_sup)
        q_asym, q_eig = self.q_asym, self.q_eig
        checks.append(CheckResult("H3-Q-symmetric", q_asym.where, q_asym.value,
                                  q_asym.value <= tol * q_scale, True))
        checks.append(CheckResult("H3-Q-psd", q_eig.where, q_eig.value, q_eig.value >= -tol,
                                  True))
        G_vals = p.G.eval(nodes)
        g_scale = 1.0 + float(matrix_norm_many(G_vals).max())
        worst, where = node_check(G_vals, False)
        checks.append(CheckResult("H3-G-symmetric", where, worst, worst <= tol * g_scale, True))
        worst, where = node_check(G_vals, True)
        checks.append(CheckResult("H3-G-psd", where, worst, worst >= -tol, True))

        qd_eig, md_eig = self.qd_eig, self.md_eig
        checks.append(CheckResult("H5-Qt-psd", qd_eig.where, qd_eig.value,
                                  qd_eig.value >= -tol, False))
        checks.append(CheckResult("H5-Mt-psd", md_eig.where, md_eig.value,
                                  md_eig.value >= -tol, False))
        worst, where = node_check(p.G.eval_dt(nodes), True)
        checks.append(CheckResult("H5-Gdot-psd", where, worst, worst >= -tol, False))

        schur = self.schur
        if m_pd and s_finite and self.schur_live:
            checks.append(CheckResult("H5-Q-SMS-psd", schur.where, schur.value,
                                      schur.value >= -tol, False))
        else:
            checks.append(CheckResult("H5-Q-SMS-psd", (0.0, 0.0), float("nan"), True, False,
                                      note="skipped (M not PD or S not finite)"))
            skipped["H5-Q-SMS-psd"] = nodes.size * (nodes.size + 1) // 2

        skipped_live, combo = self.skipped_live, self.combo
        skipped["H5-Qt-combo-psd"] = skipped_live
        if s_finite and self.combo_live:
            note = "" if not skipped_live else f"{skipped_live} pairs skipped (M_t singular)"
            checks.append(CheckResult("H5-Qt-combo-psd", combo.where, combo.value,
                                      combo.value >= -tol, False, note))
        else:
            checks.append(CheckResult("H5-Qt-combo-psd", (0.0, 0.0), float("nan"), True, False,
                                      note="skipped (M_t singular on the whole triangle)"))

        return ValidationReport(tuple(checks), pd_floor, float(tol), skipped)


def _check_horizon(p: LQProblem, g) -> None:
    """Refuse a grid g whose last node is not the horizon p.T."""
    if abs(g.T - p.T) > 1e-12 * (1.0 + p.T):
        raise InvalidInputError(f"grid ends at {g.T!r}, not at the horizon T = {p.T!r}")


def _triangle_pass(p: LQProblem, g, tol: float = 1e-8, validate: bool = True):
    """(report, norms) from one walk of the triangle of node pairs.

    The walk (kernels._walk) goes 32 rows at a time and reads each block's
    per-pair values from a table of pairs.  When Q, S and M are lag kernels
    (TwoTimeKernel.lag) and the grid has at most 32 K distinct lags, the
    table is the grid's distinct lags: the six stacks of Q, S, M and their
    first-argument partials are evaluated, bounded and reduced to per-entry
    values once per distinct lag, and each block gathers them by its lags.  Otherwise each block is its own table, so each node pair is
    evaluated once.  The values feed two running reductions: the
    ValidationReport of validate_assumptions (report is None unless
    validate) and the two-time norms of contraction_constants (a
    _PairNorms).  Both take the row-sum norms of Q and M from one
    computation, and send a matrix to eigvalsh or inv only where bounds from
    those stacks cannot rule it out of the table's extreme (_screened).
    Either table gives the same report and norms, bit for bit.
    """
    nodes = g.nodes
    checks = _PairChecks(tol) if validate else None
    norms = _PairNorms()

    def scalars(tt, ss):
        stacks = (p.Q.eval(tt, ss), p.Q.eval_dt(tt, ss), p.S.eval(tt, ss),
                  p.S.eval_dt(tt, ss), p.M.eval(tt, ss), p.M.eval_dt(tt, ss))
        values = norms.scalars(*stacks)
        if checks is None:
            return values
        return np.concatenate([values, checks.scalars(*stacks, values[0], values[1])])

    lag_only = p.Q.lag_only and p.S.lag_only and p.M.lag_only
    for ii, jj, values in _walk(nodes, _triangle_rows(nodes.size), lag_only, scalars):
        norms.add(ii, *values[:6])
        if checks is not None:
            checks.add(np.column_stack([nodes[ii], nodes[jj]]), *values[6:])
    return (None if checks is None else checks.report(p, nodes)), norms


def validate_assumptions(p: LQProblem, g, tol: float = 1e-8) -> ValidationReport:
    """Check the standing assumptions on grid g.

    Hard checks (finite A/B/S, symmetric Q/M/G, M positive definite beyond
    the floor 1e-10*||M||_C, Q and G positive semidefinite beyond -tol) gate
    the solver; the sign conditions on the first-argument partials and the
    Schur-type combinations are advisory and only widen the certified class.
    The combined check Q_t - S_t^T M_t^{-1} S_t is evaluated only at node
    pairs where M_t is PD beyond tol; fully skipped pairs are reported, never
    failed.  Where S (S_t) is zero at a pair, the Schur-type matrix is Q
    (Q_t) itself, whose eigenvalues are reused.

    The triangle of node pairs is walked in blocks of 32 rows, each reduced
    to running worst values before the next is evaluated, so memory goes as
    O(32 K n^2) for K nodes.  A block reads its per-pair values from a
    table: the grid's distinct lags s - t when Q, S and M are lag kernels
    (TwoTimeKernel.lag) and there are at most 32 K of them (1 364 for the
    80 601 pairs of a uniform grid of 400 intervals on [0, 1]), else the
    block's own pairs.  So the weights are evaluated, bounded and decomposed
    once per distinct lag, or once per node pair.  Every worst value and
    its pair are those of the whole triangle at once: ties go to the first
    pair in row-major order.  solve_riccati takes this report and the
    two-time norms of contraction_constants from one such walk.

    Exact eigenvalues (eigvalsh) are computed only at the table entries that
    can set a reported value.  Per entry, the Gershgorin discs bound the
    least eigenvalue from below and the least diagonal entry bounds it from
    above, both widened by 1e-12 (1 + row-sum norm) for rounding.  An entry
    goes to eigvalsh unless its lower bound exceeds the least upper bound of
    its table, and of the table's S = 0 entries (live S_t = 0 entries) whose
    Q (Q_t) eigenvalues the Schur-type checks reuse; M_t also where its
    bounds straddle tol.  The inverse of M, for contraction_constants, is
    likewise formed only where 1/||M|| and Varah's bound 1/min_i(|m_ii| -
    sum_{j != i} |m_ij|) leave an entry able to reach the table's largest
    ||M^{-1}||.  The report is the same as with every pair evaluated.
    A grid that does not end at p.T is an InvalidInputError.
    """
    _check_horizon(p, g)
    return _triangle_pass(p, g, tol)[0]
