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
from .kernels import OneTimeMatrixFn, TwoTimeKernel, _triangle_rows, matrix_norm_many


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


def _min_eig(stack):
    return np.linalg.eigvalsh(0.5 * (stack + np.swapaxes(stack, -1, -2))).min(axis=-1)


def _asymmetry(stack):
    return matrix_norm_many(stack - np.swapaxes(stack, -1, -2))


class _Nonfinite:
    """Running check that a stack is finite: the first non-finite pair, else
    the largest entry magnitude and its pair."""

    def __init__(self):
        self.bad, self.mag = _Worst(False), _Worst(False)

    def add(self, stack, points) -> None:
        flat = stack.reshape(stack.shape[0], -1)
        self.bad.add((~np.isfinite(flat).all(axis=1)).astype(float), points)
        self.mag.add(np.abs(flat).max(axis=1), points)

    def result(self):
        """(worst, where, finite)."""
        if self.bad.value:
            return float("inf"), self.bad.where, False
        return self.mag.value, self.mag.where, True


def validate_assumptions(p: LQProblem, g, tol: float = 1e-8) -> ValidationReport:
    """Check the standing assumptions on grid g.

    Hard checks (finite A/B/S, symmetric Q/M/G, M positive definite beyond
    the floor 1e-10*||M||_C, Q and G positive semidefinite beyond -tol) gate
    the solver; the sign conditions on the first-argument partials and the
    Schur-type combinations are advisory and only widen the certified class.
    The combined check Q_t - S_t^T M_t^{-1} S_t is evaluated only at node
    pairs where M_t is PD beyond tol; fully skipped pairs are reported, never
    failed.

    The triangle of node pairs is walked in blocks of 32 rows, each reduced
    to running worst values before the next is evaluated, so memory goes as
    O(32 K n^2) for K nodes.  Every worst value and its pair are those of the
    whole triangle at once: ties go to the first pair in row-major order.
    """
    nodes = g.nodes
    node_pts = nodes[:, None]

    def node_check(stack, lowest):
        worst = _Worst(lowest)
        worst.add(_min_eig(stack) if lowest else _asymmetry(stack), node_pts)
        return worst.value, worst.where

    A_vals = p.A.eval(nodes)
    B_vals = p.B.eval(nodes)
    G_vals = p.G.eval(nodes)
    Gd_vals = p.G.eval_dt(nodes)

    s_bad, sd_bad = _Nonfinite(), _Nonfinite()
    m_asym, q_asym = _Worst(False), _Worst(False)
    m_eig, q_eig, qd_eig, md_eig = _Worst(True), _Worst(True), _Worst(True), _Worst(True)
    schur, combo = _Worst(True), _Worst(True)
    m_finite, m_sup, q_sup = True, -np.inf, -np.inf
    schur_live, combo_live, skipped_live = True, False, 0
    for ii, jj in _triangle_rows(nodes.size):
        tt, ss = nodes[ii], nodes[jj]
        pts = np.column_stack([tt, ss])
        Q_vals = p.Q.eval(tt, ss)
        Qd_vals = p.Q.eval_dt(tt, ss)
        S_vals = p.S.eval(tt, ss)
        Sd_vals = p.S.eval_dt(tt, ss)
        M_vals = p.M.eval(tt, ss)
        Md_vals = p.M.eval_dt(tt, ss)

        s_bad.add(S_vals, pts)
        sd_bad.add(Sd_vals, pts)
        s_finite = s_bad.bad.value == 0.0 and sd_bad.bad.value == 0.0  # so far
        m_finite = m_finite and bool(np.isfinite(M_vals).all())
        m_sup = np.maximum(m_sup, matrix_norm_many(M_vals).max())
        q_sup = np.maximum(q_sup, matrix_norm_many(Q_vals).max())
        m_asym.add(_asymmetry(M_vals), pts)
        q_asym.add(_asymmetry(Q_vals), pts)
        M_sym = 0.5 * (M_vals + np.swapaxes(M_vals, -1, -2))
        M_eigs = np.linalg.eigvalsh(M_sym).min(axis=-1)
        m_eig.add(M_eigs, pts)
        q_eig.add(_min_eig(Q_vals), pts)
        qd_eig.add(_min_eig(Qd_vals), pts)
        Md_sym = 0.5 * (Md_vals + np.swapaxes(Md_vals, -1, -2))
        Md_eigs = np.linalg.eigvalsh(Md_sym).min(axis=-1)
        md_eig.add(Md_eigs, pts)

        # the Schur check runs only while every block so far has finite S and
        # M positive definite beyond the floor of the largest M so far: where
        # the whole-triangle gate (m_pd and s_finite) passes, every block has
        schur_live = schur_live and s_finite and bool(M_eigs.min() > 1e-10 * float(m_sup))
        if schur_live:
            Y = np.linalg.solve(M_sym, S_vals)
            schur.add(_min_eig(Q_vals - np.swapaxes(S_vals, -1, -2) @ Y), pts)
        live = Md_eigs > tol
        skipped_live += int((~live).sum())
        combo_live = combo_live or bool(live.any())
        if s_finite and live.any():
            Yd = np.linalg.solve(Md_sym[live], Sd_vals[live])
            combo.add(_min_eig(Qd_vals[live] - np.swapaxes(Sd_vals[live], -1, -2) @ Yd),
                      pts[live])

    checks = []
    skipped = {}

    for name, stack in (("H1-A-finite", A_vals), ("H1-B-finite", B_vals)):
        bad = _Nonfinite()
        bad.add(stack, node_pts)
        worst, where, ok = bad.result()
        checks.append(CheckResult(name, where, worst, ok, True))
    worst, where, s_ok = s_bad.result()
    checks.append(CheckResult("H4-S-finite", where, worst, s_ok, True))
    worst, where, sd_ok = sd_bad.result()
    checks.append(CheckResult("H4-S-partial-finite", where, worst, sd_ok, True))
    s_finite = s_ok and sd_ok

    m_norm = float(m_sup) if m_finite else 0.0
    m_scale, pd_floor = 1.0 + m_norm, 1e-10 * m_norm
    worst = m_asym.value
    checks.append(CheckResult("H2-M-symmetric", m_asym.where, worst, worst <= tol * m_scale,
                              True))
    m_pd = bool(m_eig.value > pd_floor)
    checks.append(CheckResult("H2-M-positive-definite", m_eig.where, m_eig.value, m_pd, True))

    q_scale = 1.0 + float(q_sup)
    worst = q_asym.value
    checks.append(CheckResult("H3-Q-symmetric", q_asym.where, worst, worst <= tol * q_scale,
                              True))
    checks.append(CheckResult("H3-Q-psd", q_eig.where, q_eig.value, q_eig.value >= -tol, True))
    g_scale = 1.0 + float(matrix_norm_many(G_vals).max())
    worst, where = node_check(G_vals, False)
    checks.append(CheckResult("H3-G-symmetric", where, worst, worst <= tol * g_scale, True))
    worst, where = node_check(G_vals, True)
    checks.append(CheckResult("H3-G-psd", where, worst, worst >= -tol, True))

    checks.append(CheckResult("H5-Qt-psd", qd_eig.where, qd_eig.value, qd_eig.value >= -tol,
                              False))
    checks.append(CheckResult("H5-Mt-psd", md_eig.where, md_eig.value, md_eig.value >= -tol,
                              False))
    worst, where = node_check(Gd_vals, True)
    checks.append(CheckResult("H5-Gdot-psd", where, worst, worst >= -tol, False))

    if m_pd and s_finite and schur_live:
        checks.append(CheckResult("H5-Q-SMS-psd", schur.where, schur.value,
                                  schur.value >= -tol, False))
    else:
        checks.append(CheckResult("H5-Q-SMS-psd", (0.0, 0.0), float("nan"), True, False,
                                  note="skipped (M not PD or S not finite)"))
        skipped["H5-Q-SMS-psd"] = nodes.size * (nodes.size + 1) // 2

    skipped["H5-Qt-combo-psd"] = skipped_live
    if s_finite and combo_live:
        note = "" if not skipped_live else f"{skipped_live} pairs skipped (M_t singular)"
        checks.append(CheckResult("H5-Qt-combo-psd", combo.where, combo.value,
                                  combo.value >= -tol, False, note))
    else:
        checks.append(CheckResult("H5-Qt-combo-psd", (0.0, 0.0), float("nan"), True, False,
                                  note="skipped (M_t singular on the whole triangle)"))

    return ValidationReport(tuple(checks), pd_floor, float(tol), skipped)
