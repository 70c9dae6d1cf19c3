"""Problem data for the time-inconsistent linear-quadratic control problem.

The running cost seen from time t is
    <Q(t,s) X(s), X(s)> + 2 <S(t,s) X(s), u(s)> + <M(t,s) u(s), u(s)>
integrated over s in [t, T], plus the terminal term <G(t) X(T), X(T)>; the
first argument of each weight is the evaluation time, which is what makes
the problem time-inconsistent when the kernels genuinely depend on it.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .kernels import (OneTimeMatrixFn, TwoTimeKernel, _columnwise, _row_sums, _Table, _tables,
                      matrix_norm_many)


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

    def to_dict(self) -> dict:
        return {
            "pd_floor": float(self.pd_floor),
            "tol": float(self.tol),
            "hard_ok": self.hard_ok,
            "overall": self.monotone_ok,
            "skipped_pairs": {k: int(v) for k, v in self.skipped_pairs.items()},
            "checks": [c.to_dict() for c in self.checks],
        }


class _Worst:
    """Running extreme of per-entry values over the tables of a walk, with
    the pair where it is.

    Ends where np.argmin (lowest=True) or np.argmax over the whole triangle
    would: a NaN wins, and among equal values the first pair does.  A later
    table replaces the best only when it is strictly better, and within a
    table the first entry wins, whose first pair comes first (_tables).
    """

    def __init__(self, lowest: bool):
        self.lowest = lowest
        self.value, self.where = None, (0.0, 0.0)

    def add(self, vals, table) -> None:
        """Reduce the values at one table's entries."""
        i = int(np.argmin(vals) if self.lowest else np.argmax(vals))
        v = float(vals[i])
        best = self.value
        if best is None or (not math.isnan(best) and (
                math.isnan(v) or (v < best if self.lowest else v > best))):
            self.value, self.where = v, table.where(i)


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


def _finite(stack):
    """Per entry of a stack: the largest entry magnitude, +inf where an entry
    is not finite."""
    flat = stack.reshape(stack.shape[0], -1)
    return np.where(_columnwise(np.logical_and, np.isfinite(flat)),
                    _columnwise(np.maximum, np.abs(flat)), np.inf)


class _PairNorms:
    """The two-time part of contraction_constants, reduced table by table:
    the sups of the row-sum norms of Q, S and M and of their first-argument
    partials, and the sup of ||M^{-1}||.

    A non-finite norm or a singular M raises only when norms() reads it, so
    a walk that also validates finishes its report first.
    """

    def __init__(self):
        self.sups = np.full(6, -np.inf)  # Q, Q_t, S, S_t, M, M_t
        self._minv, self._singular = -np.inf, None

    def add(self, Q, Qd, S, Sd, M, Md) -> None:
        """Reduce one table's stacks."""
        m_rows = _row_sums(M)
        m_norms = _columnwise(np.maximum, m_rows)
        if self._singular is None:
            try:
                self._minv = np.maximum(self._minv, _inv_norm_max(M, m_rows, m_norms))
            except np.linalg.LinAlgError as exc:
                self._singular = exc
        self.sups = np.maximum(self.sups, [
            v.max() for v in (matrix_norm_many(Q), matrix_norm_many(Qd), matrix_norm_many(S),
                              matrix_norm_many(Sd), m_norms, matrix_norm_many(Md))])

    def norms(self) -> dict:
        """The C and C^1 norms of Q, S and M and the sup of ||M^{-1}||, under
        the names of ContractionConstants.norms."""
        out = {}
        for name, c, d in zip("QSM", self.sups[::2], self.sups[1::2]):
            if not (np.isfinite(c) and np.isfinite(d)):
                raise InvalidInputError("non-finite coefficient values on the grid")
            out[f"{name}_c"], out[f"{name}_c1"] = float(c), float(c + d)
        if self._singular is not None:
            raise InvalidInputError("M(t, s) is singular at a node pair") from self._singular
        out["M_inv_c"] = float(self._minv)
        return out


# the checks of validate_assumptions in report order: name -> (hard, the
# stack whose worst value is reduced, rule).  A symmetric rule passes when the
# worst asymmetry is at most tol (1 + the stack's sup norm), pd when the least
# eigenvalue of M exceeds 1e-10 sup ||M||, psd when the least eigenvalue is at
# least -tol, and finite when no entry is NaN or infinite.
_CHECKS = {
    "H1-A-finite": (True, "A", "finite"),
    "H1-B-finite": (True, "B", "finite"),
    "H4-S-finite": (True, "S", "finite"),
    "H4-S-partial-finite": (True, "S_t", "finite"),
    "H2-M-symmetric": (True, "M", "symmetric"),
    "H2-M-positive-definite": (True, "M", "pd"),
    "H3-Q-symmetric": (True, "Q", "symmetric"),
    "H3-Q-psd": (True, "Q", "psd"),
    "H3-G-symmetric": (True, "G", "symmetric"),
    "H3-G-psd": (True, "G", "psd"),
    "H5-Qt-psd": (False, "Q_t", "psd"),
    "H5-Mt-psd": (False, "M_t", "psd"),
    "H5-Gdot-psd": (False, "G_t", "psd"),
    "H5-Q-SMS-psd": (False, "Q - S'M^{-1}S", "psd"),
    "H5-Qt-combo-psd": (False, "Q_t - S_t'M_t^{-1}S_t", "psd"),
}


class _PairChecks:
    """Running reductions of the checks (_CHECKS) over the tables of a
    triangle walk, one add() per table; report() adds the one-time checks.
    Where the walk has one table (lag kernels), what add() decides for it
    holds for the whole triangle at once."""

    def __init__(self, tol: float):
        self.tol = tol
        self.worst = {name: _Worst(rule in ("pd", "psd"))
                      for name, (_, _, rule) in _CHECKS.items()}
        self.m_finite, self.s_finite = True, True
        self.schur_live, self.combo_live, self.skipped_live = True, False, 0

    def add(self, table, Q, Qd, S, Sd, M, Md, sups) -> None:
        """Reduce one table, given the stacks at its entries and the sups of
        _PairNorms over the tables so far, this one included.

        Each eigenvalue stack is screened (_min_eig): an entry goes to
        eigvalsh only where its bounds cannot rule it out of the table's
        minimum, of the S = 0 (live S_t = 0) entries whose Q (Q_t)
        eigenvalues the Schur-type checks reuse, or of the M_t-live test.
        The Schur-type values read +inf where they are not computed: the
        report reads them only where every table has computed them.
        """
        tol = self.tol
        s_fin, sd_fin = _finite(S), _finite(Sd)
        self.s_finite = self.s_finite and bool(s_fin.max() < np.inf and sd_fin.max() < np.inf)
        self.m_finite = self.m_finite and bool(np.isfinite(M).all())
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
            and bool(M_eigs.min() > 1e-10 * float(sups[4]))
        schur = _reduced_min_eig(q_eigs, Q, S, _sym(M)) if self.schur_live \
            else np.full(M_eigs.shape, np.inf)
        if self.s_finite and live.any():
            # +inf off the live entries: a live entry is computed, so the
            # least value and its first entry are those of the live entries
            combo = np.full(M_eigs.shape, np.inf)
            combo[live] = _reduced_min_eig(qd_eigs[live], Qd[live], Sd[live], Md_sym[live])
            self.worst["H5-Qt-combo-psd"].add(combo, table)
        for name, vals in (("H4-S-finite", s_fin), ("H4-S-partial-finite", sd_fin),
                           ("H2-M-symmetric", _asymmetry(M)), ("H2-M-positive-definite", M_eigs),
                           ("H3-Q-symmetric", _asymmetry(Q)), ("H3-Q-psd", q_eigs),
                           ("H5-Qt-psd", qd_eigs), ("H5-Mt-psd", Md_eigs),
                           ("H5-Q-SMS-psd", schur)):
            self.worst[name].add(vals, table)
        self.skipped_live += int((~live).sum() if table.count is None
                                 else table.count[~live].sum())
        self.combo_live = self.combo_live or bool(live.any())

    def report(self, p: LQProblem, nodes, sups) -> ValidationReport:
        """The report, given the sups of _PairNorms over the whole walk."""
        tol, worst = self.tol, self.worst
        G = p.G.eval(nodes)
        at_nodes = _Table(nodes, None, (nodes,))
        for name, vals in (("H1-A-finite", _finite(p.A.eval(nodes))),
                           ("H1-B-finite", _finite(p.B.eval(nodes))),
                           ("H3-G-symmetric", _asymmetry(G)), ("H3-G-psd", _min_eig(G)),
                           ("H5-Gdot-psd", _min_eig(p.G.eval_dt(nodes)))):
            worst[name].add(vals, at_nodes)

        m_norm = float(sups[4]) if self.m_finite else 0.0
        pd_floor = 1e-10 * m_norm
        sup = {"M": m_norm, "Q": float(sups[0]), "G": float(matrix_norm_many(G).max())}
        rules = {"finite": lambda v, stack: v < math.inf,
                 "symmetric": lambda v, stack: v <= tol * (1.0 + sup[stack]),
                 "pd": lambda v, stack: v > pd_floor,
                 "psd": lambda v, stack: v >= -tol}
        s_finite = worst["H4-S-finite"].value < math.inf \
            and worst["H4-S-partial-finite"].value < math.inf
        m_pd = bool(worst["H2-M-positive-definite"].value > pd_floor)
        skipped_live = self.skipped_live
        # the gated checks: name -> (open, note when open, note when not)
        gates = {
            "H5-Q-SMS-psd": (m_pd and s_finite and self.schur_live, "",
                             "skipped (M not PD or S not finite)"),
            "H5-Qt-combo-psd": (s_finite and self.combo_live,
                                f"{skipped_live} pairs skipped (M_t singular)" if skipped_live
                                else "", "skipped (M_t singular on the whole triangle)"),
        }
        checks = []
        for name, (hard, stack, rule) in _CHECKS.items():
            is_open, note, closed_note = gates.get(name, (True, "", ""))
            w = worst[name]
            checks.append(CheckResult(name, w.where, w.value, rules[rule](w.value, stack), hard,
                                      note) if is_open else
                          CheckResult(name, (0.0, 0.0), float("nan"), True, hard, closed_note))
        skipped = {} if gates["H5-Q-SMS-psd"][0] else {
            "H5-Q-SMS-psd": nodes.size * (nodes.size + 1) // 2}
        skipped["H5-Qt-combo-psd"] = skipped_live
        return ValidationReport(tuple(checks), pd_floor, float(tol), skipped)


def _vector(x, size: int, what: str) -> np.ndarray:
    """x as a float vector of size finite entries; any other length, shape
    or entry is an InvalidInputError that names what."""
    try:
        v = np.asarray(x, dtype=float).reshape(size)
    except (TypeError, ValueError):
        v = None
    if v is None or not np.all(np.isfinite(v)):
        raise InvalidInputError(f"expected a finite {what} of length {size}")
    return v


def _check_horizon(p: LQProblem, g) -> None:
    """Refuse a grid g whose last node is not the horizon p.T."""
    if abs(g.T - p.T) > 1e-12 * (1.0 + p.T):
        raise InvalidInputError(f"grid ends at {g.T!r}, not at the horizon T = {p.T!r}")


def _weight_tables(p: LQProblem, nodes):
    """The tables (kernels._tables) of a walk of the triangle of node pairs
    that evaluates the weights Q, S and M of p: the grid's distinct lags
    when all three are lag kernels (TwoTimeKernel.lag), else blocks of 32
    rows."""
    return _tables(nodes, p.Q.lag_only and p.S.lag_only and p.M.lag_only)


def _triangle_pass(p: LQProblem, g, tol: float = 1e-8, validate: bool = True):
    """(report, norms) from one walk of the triangle of node pairs.

    The walk (_weight_tables) evaluates Q, S, M and their first-argument
    partials on one table of entries at a time, and reduces each table once.
    When Q, S and M are lag kernels (TwoTimeKernel.lag) and the grid has at
    most 32 K distinct lags, the one table is the grid's distinct lags, each
    standing for its pairs: the first of them sets where a worst value is
    and their count what a skipped check counts, so no node pair is touched
    after the table is built.  Otherwise each block of 32 rows is its own
    table, so each node pair is evaluated once.  The reductions are the
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
    for table in _weight_tables(p, nodes):
        stacks = [f(table.t, table.s) for k in (p.Q, p.S, p.M) for f in (k.eval, k.eval_dt)]
        norms.add(*stacks)
        if checks is not None:
            checks.add(table, *stacks, norms.sups)
    return (None if checks is None else checks.report(p, nodes, norms.sups)), norms


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

    The triangle of node pairs is walked one table at a time, each reduced
    to running worst values before the next is evaluated, so memory goes as
    O(32 K n^2) for K nodes.  When Q, S and M are lag kernels
    (TwoTimeKernel.lag) and there are at most 32 K distinct lags s - t (1 364
    for the 80 601 pairs of a uniform grid of 400 intervals on [0, 1]), the
    one table is those lags, each standing for its pairs; else each block of
    32 rows is its own table.  So the weights are evaluated, bounded and
    decomposed once per distinct lag, or once per node pair.  Every worst
    value and its pair are those of the whole triangle at once: ties go to
    the first pair in row-major order.  solve_riccati takes this report and
    the two-time norms of contraction_constants from one such walk.

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
    A grid that does not end at p.T, or a tol that is not a finite number
    >= 0, is an InvalidInputError.
    """
    _check_horizon(p, g)
    if not isinstance(tol, numbers.Real) or not 0.0 <= tol < math.inf:
        raise InvalidInputError(f"tol must be a finite number >= 0, not {tol!r}")
    return _triangle_pass(p, g, tol)[0]
