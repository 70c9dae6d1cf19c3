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
from .kernels import OneTimeMatrixFn, TwoTimeKernel, matrix_norm_many


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


def _worst_min_eig(stack, points):
    sym = 0.5 * (stack + np.swapaxes(stack, -1, -2))
    eigs = np.linalg.eigvalsh(sym).min(axis=-1)
    i = int(np.argmin(eigs))
    return float(eigs[i]), _point(points, i)


def _worst_asymmetry(stack, points):
    gap = matrix_norm_many(stack - np.swapaxes(stack, -1, -2))
    i = int(np.argmax(gap))
    return float(gap[i]), _point(points, i)


def _worst_nonfinite(stack, points):
    mag = np.abs(stack).reshape(stack.shape[0], -1).max(axis=1)
    bad = ~np.isfinite(stack).reshape(stack.shape[0], -1).all(axis=1)
    if bad.any():
        return float("inf"), _point(points, int(np.argmax(bad))), False
    i = int(np.argmax(mag))
    return float(mag[i]), _point(points, i), True


def validate_assumptions(p: LQProblem, g, tol: float = 1e-8) -> ValidationReport:
    """Check the standing assumptions on grid g.

    Hard checks (finite A/B/S, symmetric Q/M/G, M positive definite beyond
    the floor 1e-10*||M||_C, Q and G positive semidefinite beyond -tol) gate
    the solver; the sign conditions on the first-argument partials and the
    Schur-type combinations are advisory and only widen the certified class.
    The combined check Q_t - S_t^T M_t^{-1} S_t is evaluated only at node
    pairs where M_t is PD beyond tol; fully skipped pairs are reported, never
    failed.
    """
    nodes = g.nodes
    ii, jj = np.triu_indices(nodes.size)
    tt, ss = nodes[ii], nodes[jj]
    tri_pts, node_pts = np.column_stack([tt, ss]), nodes[:, None]

    A_vals = p.A.eval(nodes)
    B_vals = p.B.eval(nodes)
    G_vals = p.G.eval(nodes)
    Gd_vals = p.G.eval_dt(nodes)
    Q_vals = p.Q.eval(tt, ss)
    Qd_vals = p.Q.eval_dt(tt, ss)
    S_vals = p.S.eval(tt, ss)
    Sd_vals = p.S.eval_dt(tt, ss)
    M_vals = p.M.eval(tt, ss)
    Md_vals = p.M.eval_dt(tt, ss)

    checks = []
    skipped = {}

    worst, where, ok = _worst_nonfinite(A_vals, node_pts)
    checks.append(CheckResult("H1-A-finite", where, worst, ok, True))
    worst, where, ok = _worst_nonfinite(B_vals, node_pts)
    checks.append(CheckResult("H1-B-finite", where, worst, ok, True))
    worst, where, ok = _worst_nonfinite(S_vals, tri_pts)
    s_finite = ok
    checks.append(CheckResult("H4-S-finite", where, worst, ok, True))
    worst, where, ok = _worst_nonfinite(Sd_vals, tri_pts)
    s_finite = s_finite and ok
    checks.append(CheckResult("H4-S-partial-finite", where, worst, ok, True))

    m_norm = float(matrix_norm_many(M_vals).max()) if np.isfinite(M_vals).all() else 0.0
    m_scale, pd_floor = 1.0 + m_norm, 1e-10 * m_norm

    worst, where = _worst_asymmetry(M_vals, tri_pts)
    checks.append(CheckResult("H2-M-symmetric", where, worst, worst <= tol * m_scale, True))
    M_sym = 0.5 * (M_vals + np.swapaxes(M_vals, -1, -2))
    M_eigs = np.linalg.eigvalsh(M_sym).min(axis=-1)
    i = int(np.argmin(M_eigs))
    m_pd = bool(M_eigs[i] > pd_floor)
    checks.append(CheckResult("H2-M-positive-definite", _point(tri_pts, i), float(M_eigs[i]),
                              m_pd, True))

    q_scale = 1.0 + float(matrix_norm_many(Q_vals).max())
    worst, where = _worst_asymmetry(Q_vals, tri_pts)
    checks.append(CheckResult("H3-Q-symmetric", where, worst, worst <= tol * q_scale, True))
    worst, where = _worst_min_eig(Q_vals, tri_pts)
    checks.append(CheckResult("H3-Q-psd", where, worst, worst >= -tol, True))
    g_scale = 1.0 + float(matrix_norm_many(G_vals).max())
    worst, where = _worst_asymmetry(G_vals, node_pts)
    checks.append(CheckResult("H3-G-symmetric", where, worst, worst <= tol * g_scale, True))
    worst, where = _worst_min_eig(G_vals, node_pts)
    checks.append(CheckResult("H3-G-psd", where, worst, worst >= -tol, True))

    worst, where = _worst_min_eig(Qd_vals, tri_pts)
    checks.append(CheckResult("H5-Qt-psd", where, worst, worst >= -tol, False))
    Md_sym = 0.5 * (Md_vals + np.swapaxes(Md_vals, -1, -2))
    Md_eigs = np.linalg.eigvalsh(Md_sym).min(axis=-1)
    i = int(np.argmin(Md_eigs))
    worst = float(Md_eigs[i])
    checks.append(CheckResult("H5-Mt-psd", _point(tri_pts, i), worst, worst >= -tol, False))
    worst, where = _worst_min_eig(Gd_vals, node_pts)
    checks.append(CheckResult("H5-Gdot-psd", where, worst, worst >= -tol, False))

    if m_pd and s_finite:
        Y = np.linalg.solve(M_sym, S_vals)
        schur = Q_vals - np.swapaxes(S_vals, -1, -2) @ Y
        worst, where = _worst_min_eig(schur, tri_pts)
        checks.append(CheckResult("H5-Q-SMS-psd", where, worst, worst >= -tol, False))
    else:
        checks.append(CheckResult("H5-Q-SMS-psd", (0.0, 0.0), float("nan"), True, False,
                                  note="skipped (M not PD or S not finite)"))
        skipped["H5-Q-SMS-psd"] = len(tri_pts)

    live = Md_eigs > tol
    skipped["H5-Qt-combo-psd"] = int((~live).sum())
    if s_finite and live.any():
        Yd = np.linalg.solve(Md_sym[live], Sd_vals[live])
        combo = Qd_vals[live] - np.swapaxes(Sd_vals[live], -1, -2) @ Yd
        worst, where = _worst_min_eig(combo, tri_pts[live])
        note = "" if live.all() else f"{int((~live).sum())} pairs skipped (M_t singular)"
        checks.append(CheckResult("H5-Qt-combo-psd", where, worst, worst >= -tol, False, note))
    else:
        checks.append(CheckResult("H5-Qt-combo-psd", (0.0, 0.0), float("nan"), True, False,
                                  note="skipped (M_t singular on the whole triangle)"))

    return ValidationReport(tuple(checks), pd_floor, float(tol), skipped)
