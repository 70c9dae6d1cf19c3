"""The row-block triangle walker against whole-triangle reductions.

validate_assumptions, kernel_norms and the M^{-1} bound of
contraction_constants walk the node-pair triangle 32 rows at a time.  The
copies below reduce the whole triangle at once, as these functions did
before; every report, norm and constant must match them bit for bit,
including where a check's worst pair is and how ties between pairs break.
The walk sends a pair's matrix to eigvalsh or inv only where bounds cannot
rule it out of a block's extreme; the last tests count those calls and
check the screening helper against whole stacks.
"""
import math
import sys
import tracemalloc
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilq import (
    InvalidInputError,
    LQProblem,
    NonconvergenceError,
    NormBundle,
    OneTimeMatrixFn,
    TimeGrid,
    TwoTimeKernel,
    constant_problem,
    contraction_constants,
    hyperbolic_kernel,
    hyperbolic_problem,
    hyperbolic_terminal,
    kernel_norms,
    validate_assumptions,
)
from tilq import kernels, problem, riccati
from tilq._quad import integrate
from tilq.kernels import _ROW_BLOCK, _row_sums, matrix_norm_many
from tilq.problem import CheckResult, ValidationReport
from conftest import n3_problem


# --- whole-triangle copies ---------------------------------------------------

def _point(points, i):
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


def whole_validate(p, g, tol=1e-8):
    nodes = g.nodes
    ii, jj = np.triu_indices(nodes.size)
    tt, ss = nodes[ii], nodes[jj]
    tri_pts, node_pts = np.column_stack([tt, ss]), nodes[:, None]
    A_vals, B_vals = p.A.eval(nodes), p.B.eval(nodes)
    G_vals, Gd_vals = p.G.eval(nodes), p.G.eval_dt(nodes)
    Q_vals, Qd_vals = p.Q.eval(tt, ss), p.Q.eval_dt(tt, ss)
    S_vals, Sd_vals = p.S.eval(tt, ss), p.S.eval_dt(tt, ss)
    M_vals, Md_vals = p.M.eval(tt, ss), p.M.eval_dt(tt, ss)
    checks, skipped = [], {}
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


def whole_kernel_norms(k, g):
    nodes = g.nodes
    if isinstance(k, TwoTimeKernel):
        ii, jj = np.triu_indices(nodes.size)
        args = (nodes[ii], nodes[jj])
    else:
        ii, args = np.arange(nodes.size), (nodes,)
    vals = matrix_norm_many(k.eval(*args))
    dvals = matrix_norm_many(k.eval_dt(*args))
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(dvals))):
        raise InvalidInputError("non-finite coefficient values on the grid")
    c = float(vals.max())
    row_worst = np.maximum.reduceat(vals, np.searchsorted(ii, np.arange(nodes.size)))
    return NormBundle(c, c + float(dvals.max()), float(integrate(row_worst, nodes)), c)


# --- problems ----------------------------------------------------------------

def _kernel(fn, dfn, dims, symmetric=False):
    return TwoTimeKernel.from_callable(fn, dims, 1.0, dfn, symmetry_required=symmetric,
                                       vectorized=True)


def _scalar(f):
    """A vectorized 1 x 1 closure from an elementwise function of (t, s)."""
    return lambda t, s: f(np.asarray(t, dtype=float), np.asarray(s, dtype=float))[..., None, None]


def _clean():
    rng = np.random.default_rng(3)
    return hyperbolic_problem(np.eye(2), np.eye(2), np.eye(2), A=0.3 * rng.standard_normal((2, 2)),
                              B=rng.standard_normal((2, 2)), k=1.0, theta=1.0, T=1.0)


def _indefinite_q():
    return constant_problem(A=0.0, B=1.0, Q=-1.0, S=0.0, M=1.0, G=0.0, T=1.0)


def _sign_condition():
    # a weight growing in the lag flips the sign of its first-argument
    # partial, most of all near t = 0.45, past the first block of rows; M
    # falls in t, so ||M^{-1}|| is largest on the last row
    base = constant_problem(A=0.0, B=1.0, Q=1.0, S=0.0, M=1.0, G=1.0, T=1.0)
    Q = _kernel(_scalar(lambda t, s: np.exp(s - t) * (2.0 + np.sin(7 * t))),
                _scalar(lambda t, s: np.exp(s - t) * (7 * np.cos(7 * t) - 2.0 - np.sin(7 * t))),
                (1, 1), symmetric=True)
    M = _kernel(_scalar(lambda t, s: 1.0 / (1.0 + t + 0 * s)),
                _scalar(lambda t, s: -1.0 / (1.0 + t + 0 * s) ** 2), (1, 1), symmetric=True)
    return LQProblem(A=base.A, B=base.B, Q=Q, S=base.S, M=M, G=base.G)


def _nonfinite_s():
    # S is NaN on the late rows (eval_dt derivative-free), Q on a band of
    # them, so NaN pairs meet the running minima and maxima past block 0
    base = _clean()
    S = TwoTimeKernel.from_callable(
        lambda t, s: np.where(t > 0.55, np.nan, s - t)[..., None, None] * np.ones((2, 2)),
        (2, 2), 1.0, vectorized=True)
    band = _scalar(lambda t, s: np.where((0.7 < t) & (t < 0.9), np.nan, 1.0))
    Q = _kernel(lambda t, s: band(t, s) * base.Q.eval(t, s),
                lambda t, s: band(t, s) * base.Q.eval_dt(t, s), (2, 2), symmetric=True)
    return LQProblem(A=base.A, B=base.B, Q=Q, S=S, M=base.M, G=base.G)


def _singular_mt():
    # M_t = max(0, t - 0.5) (s - t): singular up to t = 0.5, PD beyond but
    # on the diagonal
    T = 1.0
    M = _kernel(_scalar(lambda t, s: 1.0 + 0.5 * np.maximum(0.0, t - 0.5) ** 2 * (s - t)),
                _scalar(lambda t, s: np.maximum(0.0, t - 0.5) * (s - t)
                        - 0.5 * np.maximum(0.0, t - 0.5) ** 2), (1, 1), symmetric=True)
    return LQProblem(A=OneTimeMatrixFn.constant(0.0, T), B=OneTimeMatrixFn.constant(1.0, T),
                     Q=hyperbolic_kernel(np.eye(1), 1.0, 1.0, T),
                     S=TwoTimeKernel.constant(np.zeros((1, 1)), T), M=M,
                     G=hyperbolic_terminal(np.eye(1), 1.0, 1.0, T))


def _singular_mt_lag():
    # lag kernels: M_t = max(0, 0.5 - (s - t)) is PD below the lag 0.5 and
    # singular beyond, and S_t = -0.1, so the walk's one table skips the
    # lags from 0.5 on, and the skipped count adds up the pairs of each
    T = 1.0

    def lag(fn, dfn, symmetric=False):
        return TwoTimeKernel.lag(lambda l: fn(l)[:, None, None], (1, 1), T,
                                 lambda l: dfn(l)[:, None, None], symmetry_required=symmetric,
                                 vectorized=True)

    M = lag(lambda l: 1.0 + 0.5 * np.maximum(0.0, 0.5 - l) ** 2,
            lambda l: np.maximum(0.0, 0.5 - l), symmetric=True)
    S = lag(lambda l: 0.1 * (1.0 + l), lambda l: np.full(l.shape, -0.1))
    return LQProblem(A=OneTimeMatrixFn.constant(0.0, T), B=OneTimeMatrixFn.constant(1.0, T),
                     Q=hyperbolic_kernel(np.eye(1), 1.0, 1.0, T), S=S, M=M,
                     G=hyperbolic_terminal(np.eye(1), 1.0, 1.0, T))


def _all_ties():
    # constant kernels: every pair ties, so every worst pair is the first one
    return constant_problem(A=np.array([[0.1, 0.2], [0.0, -0.1]]), B=np.eye(2),
                            Q=np.array([[2.0, 0.5], [0.5, 1.0]]), S=np.ones((2, 2)),
                            M=np.array([[3.0, 1.0], [1.0, 2.0]]), G=np.eye(2), T=1.0)


def _mixed_s():
    # S = max(0, t - 0.5) C and S_t = [t > 0.5] C: zero on the early rows and
    # not on the late ones, inside one block of rows, so the Schur-type
    # checks reuse the eigenvalues of Q and Q_t on some pairs and solve on
    # the others
    base = _clean()
    C = np.array([[1.4, 0.7], [0.0, 1.4]])
    S = _kernel(lambda t, s: (np.maximum(0.0, t - 0.5) + 0 * s)[..., None, None] * C,
                lambda t, s: ((t > 0.5) + 0.0 * s)[..., None, None] * C, (2, 2))
    return LQProblem(A=base.A, B=base.B, Q=base.Q, S=S, M=base.M, G=base.G)


def _dense(b_scale=0.3):
    # hyperbolic kernels on random SPD bases with large off-diagonal entries:
    # no row of Q, Q_t, M, M_t or Q - S'M^{-1}S is diagonally dominant at any
    # pair, so the screening bounds rule no pair out
    rng = np.random.default_rng(5)

    def spd(n):
        X = rng.standard_normal((n, n)) + 1.5
        return X @ X.T + 0.2 * np.eye(n)

    Q0, M0, G0 = spd(3), spd(2), spd(3)
    S0 = 0.2 * rng.standard_normal((2, 3))
    return hyperbolic_problem(Q0, M0, G0, A=0.3 * rng.standard_normal((3, 3)),
                              B=b_scale * rng.standard_normal((3, 2)), S0=S0, k=1.0, theta=1.0,
                              T=1.0)


def _near_tie():
    # weights that spread by less than the 1e-12 rounding allowance of the
    # screening bounds where each block has its extreme: the least Q and Q_t
    # on the diagonal pairs, the least M and the largest ||M^{-1}|| in the
    # last column; M_t = (1e-8 +- 3e-12) I straddles tol = 1e-8, and an S of
    # 1e-20 on the late rows makes the Schur-type values tie with those of Q
    T = 1.0
    C = np.array([[1.0, 2.0], [0.5, 1.0]])

    def times(f, base):
        return lambda t, s: f(np.asarray(t, dtype=float), np.asarray(s, dtype=float))[
            ..., None, None] * base

    Q = _kernel(times(lambda t, s: 1.0 + 0.5 * (s - t) + 1e-13 * np.sin(47 * t + 5 * s),
                      np.diag([1.0, 3.0])),
                times(lambda t, s: 0.2 + (s - t) + 1e-13 * np.cos(31 * t - 3 * s),
                      np.diag([2.0, 1.0])), (2, 2), symmetric=True)
    M = _kernel(times(lambda t, s: 2.0 - 0.5 * s + 1e-13 * np.cos(29 * t), np.eye(2)),
                times(lambda t, s: 1e-8 + 3e-12 * np.sin(53 * t + 17 * s), np.eye(2)), (2, 2),
                symmetric=True)
    S = _kernel(times(lambda t, s: 1e-20 * (t > 0.5) + 0.0 * s, C),
                times(lambda t, s: 0.0 * (t + s), C), (2, 2))
    return LQProblem(A=OneTimeMatrixFn.constant(np.array([[0.1, 0.2], [0.0, -0.1]]), T),
                     B=OneTimeMatrixFn.constant(np.eye(2), T), Q=Q, S=S, M=M,
                     G=hyperbolic_terminal(np.eye(2), 1.0, 1.0, T))


PROBLEMS = {"clean": _clean, "indefinite-q": _indefinite_q, "sign-condition": _sign_condition,
            "nonfinite-s": _nonfinite_s, "singular-mt": _singular_mt,
            "singular-mt-lag": _singular_mt_lag, "all-ties": _all_ties,
            "mixed-s": _mixed_s, "dense": _dense, "near-tie": _near_tie}
# K nodes: one row, one block, both sides of the first and second block edges
SIZES = (1, 2, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 1, 401)


def _grid(K):
    if K == 1:  # no TimeGrid has one node; both functions only read nodes
        return SimpleNamespace(nodes=np.array([0.0]), T=0.0)
    return TimeGrid.uniform(1.0, K - 1)


def _one_block(K):
    yield np.triu_indices(K)


def _norms_or_error(k, g, norms):
    try:
        return norms(k, g)
    except InvalidInputError as exc:
        return str(exc)


@pytest.mark.parametrize("K", SIZES)
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_walker_matches_whole_triangle(monkeypatch, name, K):
    p, g = PROBLEMS[name](), _grid(K)
    validate = validate_assumptions
    if K == 1:
        # the one-node grid ends at 0, not at T: validate_assumptions refuses
        # it, and its walk (problem._triangle_pass) is checked on its own
        with pytest.raises(InvalidInputError, match="horizon"):
            validate_assumptions(p, g)
        validate = lambda p, g: problem._triangle_pass(p, g)[0]
    assert validate(p, g).to_dict() == whole_validate(p, g).to_dict()
    for k in (p.A, p.B, p.G, p.Q, p.S, p.M):
        assert _norms_or_error(k, g, kernel_norms) == _norms_or_error(k, g, whole_kernel_norms)
    if K == 1:
        return
    try:
        got = contraction_constants(p, g).to_dict()
    except InvalidInputError as exc:
        got = str(exc)
    monkeypatch.setattr(riccati, "kernel_norms", whole_kernel_norms)
    monkeypatch.setattr(kernels, "_triangle_rows", _one_block)
    try:
        want = contraction_constants(p, g).to_dict()
    except InvalidInputError as exc:
        want = str(exc)
    assert got == want


def test_problems_reach_every_branch():
    # the problems above fail, skip and tie where they are meant to
    K = 401
    g = _grid(K)
    rep = {name: {c.assumption: c for c in validate_assumptions(make(), g).checks}
           for name, make in PROBLEMS.items()}
    assert all(c.passed for c in rep["clean"].values())
    assert not rep["indefinite-q"]["H3-Q-psd"].passed
    assert not rep["sign-condition"]["H5-Qt-psd"].passed
    assert rep["nonfinite-s"]["H4-S-finite"].worst == math.inf
    assert rep["nonfinite-s"]["H5-Q-SMS-psd"].note.startswith("skipped")
    assert "pairs skipped" in rep["singular-mt"]["H5-Qt-combo-psd"].note
    # singular-mt-lag: a lag kernel problem, so one table; its skipped pairs
    # are those whose lag is 0.5 or more, less the few where M_t exceeds tol
    lag_p = PROBLEMS["singular-mt-lag"]()
    assert lag_p.Q.lag_only and lag_p.S.lag_only and lag_p.M.lag_only
    ii, jj = np.triu_indices(K)
    skipped = validate_assumptions(lag_p, g).skipped_pairs["H5-Qt-combo-psd"]
    assert skipped == int((0.5 - (g.nodes[jj] - g.nodes[ii]) <= 1e-8).sum()) > K
    note = rep["singular-mt-lag"]["H5-Qt-combo-psd"].note
    assert note == f"{skipped} pairs skipped (M_t singular)"
    # worst pairs past the first block of 32 rows
    late = (rep["sign-condition"]["H5-Qt-psd"], rep["nonfinite-s"]["H4-S-finite"],
            rep["nonfinite-s"]["H3-Q-psd"], rep["singular-mt"]["H5-Qt-combo-psd"])
    assert all(c.where[0] * (K - 1) >= _ROW_BLOCK for c in late)
    assert {c.where for c in rep["all-ties"].values()} <= {(0.0, 0.0), (0.0,)}
    # mixed-s: the worst Schur-type pairs come from the solves where S and S_t
    # are nonzero, the other pairs reuse the eigenvalues of Q and Q_t
    mixed = rep["mixed-s"]
    assert mixed["H5-Q-SMS-psd"].where[0] > 0.5 and mixed["H5-Qt-combo-psd"].where[0] > 0.5
    assert mixed["H5-Q-SMS-psd"].worst < mixed["H3-Q-psd"].worst
    assert mixed["H5-Qt-combo-psd"].worst < mixed["H5-Qt-psd"].worst
    # near-tie: the least Q and Q_t are set by the 1e-13 wiggle on the
    # diagonal pairs past the first block, and M_t is live on part of the triangle
    tie = rep["near-tie"]
    for name in ("H3-Q-psd", "H5-Qt-psd", "H5-Q-SMS-psd", "H5-Qt-combo-psd"):
        t, s = tie[name].where
        assert t == s and t * (K - 1) >= _ROW_BLOCK
    assert "pairs skipped" in tie["H5-Qt-combo-psd"].note and tie["H5-Qt-combo-psd"].passed


def _peak_mib(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def _count_lapack(monkeypatch):
    """Counter of the matrices that tilq.problem passes to eigvalsh and inv."""
    counts = Counter()
    for name in ("eigvalsh", "inv"):
        def counted(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == "tilq.problem":
                counts[_name] += int(np.prod(np.shape(a)[:-2]))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_screening_sends_few_pairs_to_lapack(monkeypatch):
    # n3 at N=400: the bounds rule out all but a few pairs of each block, so
    # at most 1 % of the pair matrices of M, Q, Q_t and M_t reach eigvalsh
    # and of M reach inv (S = 0, so no Schur-type matrix is formed)
    p, g = n3_problem(), TimeGrid.uniform(1.0, 400)
    counts = _count_lapack(monkeypatch)
    riccati.solve_riccati(p, g)
    pairs = g.nodes.size * (g.nodes.size + 1) // 2
    assert 0 < counts["eigvalsh"] <= 0.01 * 4 * pairs
    assert 0 < counts["inv"] <= 0.01 * pairs


def _pair_kernel(k):
    """k's values behind from_callable, so the walk reads them pair by pair."""
    return TwoTimeKernel.from_callable(k.eval, k.dims, k.horizon, k.eval_dt,
                                       symmetry_required=k.symmetry_required, vectorized=True)


def test_dense_problem_is_not_screened(monkeypatch):
    # dense: every matrix the walk evaluates goes to eigvalsh (M, Q, Q_t,
    # M_t and the Schur-type matrix) and to inv, as without the bounds.
    # Its kernels depend on the lag alone, so the walk evaluates one matrix
    # per distinct lag; behind from_callable, one per node pair
    lag, g = _dense(), _grid(2 * _ROW_BLOCK + 1)
    pair = LQProblem(A=lag.A, B=lag.B, Q=_pair_kernel(lag.Q), S=_pair_kernel(lag.S),
                     M=_pair_kernel(lag.M), G=lag.G)
    K = g.nodes.size
    ii, jj = np.triu_indices(K)
    counts = _count_lapack(monkeypatch)
    for p, matrices in ((pair, K * (K + 1) // 2), (lag, np.unique(g.nodes[jj] - g.nodes[ii]).size)):
        counts.clear()
        validate_assumptions(p, g)
        assert counts["eigvalsh"] >= 5 * matrices and counts["inv"] == matrices


def test_singular_iterate_is_a_diverged_window():
    # with B unscaled, an iterate of the first quarter-horizon window drives
    # the closed-loop flow so far that LAPACK finds it singular; that iterate
    # diverged, so practical mode halves the window instead of letting
    # LinAlgError escape
    p = _dense(b_scale=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # failed sign conditions
        try:
            sol = riccati.solve_riccati(p, TimeGrid.uniform(1.0, 400))
        except NonconvergenceError:
            return
    assert float(riccati.riccati_residual_profile(p, sol).max()) <= 1e-6


# --- the screening helper ------------------------------------------------------

_FEW = [0.0, 0.1, -0.1, 1e-13, 0.5]  # few off-diagonal values, so pairs tie
# kinds of pair matrices, repeated by weight: a NaN or a singular matrix
# anywhere in a stack hides the rest from the comparison
_KINDS = ["dominant"] * 4 + ["copy", "scaled"] * 2 + ["arbitrary", "singular", "near-singular",
                                                       "nan"]


@st.composite
def _pair_stacks(draw):
    """(stack, mask): 1 to 12 n x n matrices, n <= 4, and a subset of them.

    Diagonally dominant matrices (which the bounds can rule out) with exact
    and sub-1e-12 ties, arbitrary ones, exactly and nearly singular ones,
    diagonally scaled ones and ones with a NaN entry."""
    n = draw(st.integers(1, 4))
    mats = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(_KINDS))
        X = np.diag(draw(st.lists(st.sampled_from([0.25, 1.0, 1.0 + 1e-13, 2.0, 8.0, -1.0]),
                                  min_size=n, max_size=n)))
        X = X + np.array(draw(st.lists(st.sampled_from(_FEW), min_size=n * n,
                                       max_size=n * n))).reshape(n, n) * (1 - np.eye(n))
        if kind == "copy" and mats:
            X = mats[draw(st.integers(0, len(mats) - 1))].copy()
        elif kind == "arbitrary":
            X = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n * n,
                                       max_size=n * n))).reshape(n, n)
        elif kind in ("singular", "near-singular"):
            X[-1] = X[0] + (1e-14 if kind == "near-singular" else 0.0)
        elif kind == "scaled":
            D = np.diag(10.0 ** np.array(draw(st.lists(st.integers(-3, 3), min_size=n,
                                                       max_size=n))))
            X = D @ X @ D
        elif kind == "nan":
            X[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = np.nan
        mats.append(X)
    mask = np.array(draw(st.lists(st.booleans(), min_size=len(mats), max_size=len(mats))))
    return np.array(mats), mask


def _or_error(fn):
    try:
        return fn()
    except np.linalg.LinAlgError as exc:  # eigvalsh of NaN, inv of singular
        return str(exc)


def _least(vals, subset):
    i = int(np.argmin(vals[subset]))
    return i, repr(vals[subset][i])


# LAPACK rounds past the bounds themselves: the least eigenvalue of the
# first matrix lies 2 ulp above its least diagonal entry, past the second's;
# ||inv|| of the first lies 2 ulp above Varah's bound, past 1/||M|| of the
# second.  Only the widened bounds keep the first pair in play.
@example((np.array([[[1.5, 1e-9], [1e-9, 2.6]], [[np.nextafter(1.5, 2.0), 0.0], [0.0, 3.0]]]),
          np.ones(2, dtype=bool)))
@example((np.array([[[0.1, 0.01], [0.01, 0.1]], [[0.09, 0.0], [0.0, 0.09]]]),
          np.ones(2, dtype=bool)))
@settings(max_examples=300, deadline=None)
@given(_pair_stacks())
def test_screening_matches_whole_stack(case):
    stack, mask = case
    subsets = [s for s in (np.ones(mask.size, dtype=bool), mask) if s.any()]
    exact = _or_error(
        lambda: np.linalg.eigvalsh(0.5 * (stack + np.swapaxes(stack, -1, -2))).min(axis=-1))
    screened = _or_error(lambda: problem._min_eig(stack, (mask,)))
    if isinstance(exact, str):
        assert screened == exact
    else:
        assert [_least(screened, s) for s in subsets] == [_least(exact, s) for s in subsets]
    want = _or_error(lambda: repr(matrix_norm_many(np.linalg.inv(stack)).max()))
    got = _or_error(lambda: repr(problem._inv_norm_max(stack, _row_sums(stack),
                                                       matrix_norm_many(stack))))
    assert got == want


def test_memory_grows_as_block_times_nodes():
    # whole-triangle stacks peaked at 243 and 64 MiB here
    p, g = n3_problem(), TimeGrid.uniform(1.0, 800)
    assert _peak_mib(validate_assumptions, p, g) <= 32.0
    assert _peak_mib(contraction_constants, p, g) <= 16.0


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_validated_solve_walks_the_triangle_once(monkeypatch, name):
    # validation, the norms of Q, S and M and the M^{-1} bound share one walk:
    # M is evaluated once per off-diagonal node pair
    base, g = PROBLEMS[name](), _grid(2 * _ROW_BLOCK + 1)
    pairs = []

    def M_fn(t, s):
        pairs.extend(zip(np.atleast_1d(t).tolist(), np.atleast_1d(s).tolist()))
        return base.M.eval(t, s)

    M = TwoTimeKernel.from_callable(M_fn, base.M.dims, 1.0, dfn=base.M.eval_dt,
                                    symmetry_required=True, vectorized=True)
    p = LQProblem(A=base.A, B=base.B, Q=base.Q, S=base.S, M=M, G=base.G)
    walks = []
    rows = kernels._triangle_rows

    def counted(K):
        walks.append(K)
        return rows(K)

    monkeypatch.setattr(kernels, "_triangle_rows", counted)
    pairs.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # failed sign conditions
        try:
            sol = riccati.solve_riccati(p, g)
        except InvalidInputError:
            sol = None
    K = g.nodes.size
    assert walks == [K]
    off_diagonal = Counter((t, s) for t, s in pairs if t < s)
    assert len(off_diagonal) == K * (K - 1) // 2 and set(off_diagonal.values()) == {1}
    if sol is None:  # the hard checks fail
        assert not validate_assumptions(p, g).hard_ok
    else:
        assert sol.meta["constants"] == contraction_constants(p, g).to_dict()
