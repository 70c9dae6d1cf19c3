"""Matrix-valued coefficient functions, two-time kernels, and their norms.

One-time functions t -> R^{n x m} live on [0, T]; two-time kernels (t, s) map
the closed triangle {0 <= t <= s <= T} (evaluation outside the triangle is
permitted whenever the underlying closure extends, which the discount
families do).  All norms are grid approximations built from the row-sum
matrix norm sampled at grid nodes.

_tables is the one walk of the triangle of node pairs that reductions read:
validation and the contraction norms (problem._triangle_pass), kernel_norms
and the time-consistency test of oracle.classical_riccati.  It hands out
the grid's distinct lags as one table, or blocks of 32 rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._quad import integrate
from .errors import InvalidInputError


def matrix_norm(m) -> float:
    """Row-sum norm max_i sum_j |m_ij|; vectors are treated as columns.

    Raises on non-finite entries.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    elif m.ndim == 1:
        m = m[:, None]
    elif m.ndim != 2:
        raise InvalidInputError("matrix_norm expects a scalar, vector, or matrix")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix_norm: non-finite entries")
    if m.size == 0:
        return 0.0
    return float(np.abs(m).sum(axis=1).max())


def _columnwise(ufunc, a: np.ndarray) -> np.ndarray:
    """ufunc.reduce(a, axis=-1), one column at a time.

    numpy reduces a short last axis row by row, about ten times slower on
    stacks of small matrices.  The order does not matter to minimum, maximum
    and logical_and; numpy adds fewer than 8 terms in this same order.
    """
    if a.shape[-1] == 0:
        return ufunc.reduce(a, axis=-1)
    out = a[..., 0]
    for j in range(1, a.shape[-1]):
        out = ufunc(out, a[..., j])
    return out


def _row_sums(stack: np.ndarray) -> np.ndarray:
    """Sums of |entries| along each row of a (..., n, m) stack: (..., n)."""
    a = np.abs(np.asarray(stack, dtype=float))
    return _columnwise(np.add, a) if a.shape[-1] < 8 else a.sum(axis=-1)


def matrix_norm_many(stack: np.ndarray) -> np.ndarray:
    """Row-sum norms of a (..., n, m) stack, vectorized."""
    return _columnwise(np.maximum, _row_sums(stack))


def _as_batch(t) -> tuple[np.ndarray, bool]:
    try:
        t = np.asarray(t, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"time arguments must be numbers, not {t!r}") from exc
    if t.ndim == 0:
        return t.reshape(1), True
    if t.ndim == 1:
        return t, False
    raise InvalidInputError("time arguments must be scalars or 1-d arrays")


def _batch(t, s):
    """(t, s, scalar) as 1-d arrays, s broadcast against t unless it is None."""
    ts, scalar = _as_batch(t)
    if s is None:
        return ts, None, scalar
    ss, s_scalar = _as_batch(s)
    ts, ss = np.broadcast_arrays(ts, ss)
    return ts, ss, scalar and s_scalar


# rows per triangle block: a block pairs at most _ROW_BLOCK rows with their
# tails, so no stage forms a stack over all K(K+1)/2 node pairs
_ROW_BLOCK = 32


def _triangle_rows(K: int):
    """Row-major pair indices (ii, jj), ii <= jj < K, _ROW_BLOCK rows at a
    time: np.triu_indices(K) cut at row boundaries."""
    for i0 in range(0, K, _ROW_BLOCK):
        rows = np.arange(i0, min(i0 + _ROW_BLOCK, K))
        lens = K - rows
        ii = np.repeat(rows, lens)
        jj = np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens - rows, lens)
        yield ii, jj


def _unique(x: np.ndarray) -> np.ndarray:
    """np.unique(x) of a 1-d array, without the numpy.ma import that
    np.unique does on first use."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


class _Table(NamedTuple):
    """Entries of the triangle of node pairs, as a walk evaluates them: the
    closures' arguments (t, s), the times of the first pair in row-major
    order that each entry stands for (at), and the number of pairs it
    stands for (count; one each when None)."""

    t: np.ndarray
    s: np.ndarray
    at: tuple
    count: np.ndarray | None = None

    def where(self, i) -> tuple:
        return tuple(float(a[i]) for a in self.at)


def _distinct(lags, ii, jj, count=None):
    """(lags, ii, jj, count) of the distinct values of lags, sorted, for
    entries at the node pairs (ii, jj) that stand for count pairs each (one
    when None).  A stable sort keeps equal lags in entry order, so the pair
    of the first entry wins."""
    order = np.argsort(lags, kind="stable")
    lags = lags[order]
    starts = np.flatnonzero(np.concatenate(([True], lags[1:] != lags[:-1])))
    first = order[starts]
    n = (np.diff(starts, append=lags.size) if count is None
         else np.add.reduceat(count[order], starts))
    return lags[starts], ii[first], jj[first], n


def _lag_table(nodes) -> _Table | None:
    """The table of the distinct float lags nodes[j] - nodes[i] of the
    triangle's node pairs, sorted, at the pairs (0, lag), whose s - t is
    that lag exactly; None when there are more than _ROW_BLOCK * K of them,
    the pairs a block of rows holds at most, so the table never outgrows a
    block.

    Built one block of rows at a time, each block's lags made distinct
    before they are merged with the others', earlier blocks first.
    """
    budget = _ROW_BLOCK * nodes.size
    parts, held = [], 0
    for ii, jj in _triangle_rows(nodes.size):
        parts.append(_distinct(nodes[jj] - nodes[ii], ii, jj))
        held += parts[-1][0].size
        if held > budget:
            parts = [_distinct(*map(np.concatenate, zip(*parts)))]
            held = parts[0][0].size
            if held > budget:
                return None
    lags, ii, jj, count = _distinct(*map(np.concatenate, zip(*parts)))
    return _Table(np.zeros_like(lags), lags, (nodes[ii], nodes[jj]), count)


def _tables(nodes, lag_only):
    """The tables of a walk of the triangle of node pairs: with lag_only
    (every kernel walked depends on the lag alone) and a grid of at most
    _ROW_BLOCK * K distinct lags, the lag table (_lag_table) in the
    row-major order of its first pairs, so a reduction that keeps the first
    of equal values keeps the first pair of the triangle; else each block
    of _triangle_rows as its own table."""
    lag = _lag_table(nodes) if lag_only else None
    if lag is None:
        for ii, jj in _triangle_rows(nodes.size):
            t, s = nodes[ii], nodes[jj]
            yield _Table(t, s, (t, s))
        return
    order = np.lexsort(lag.at[::-1])
    yield _Table(lag.t[order], lag.s[order], tuple(a[order] for a in lag.at), lag.count[order])


# stencil classes of _Coefficient._difference, by the kind code it returns
_STENCILS = ("central", "forward", "forward-extended", "backward", "first-order")


class _Coefficient:
    """What one-time functions (time argument t, s=None) and two-time kernels
    (t, s) share: bookkeeping, batched evaluation, the first-argument
    derivative.  provenance is "analytic" when dfn was supplied, else
    "finite-difference" (see _difference)."""

    def __init__(self, fn, dims, horizon, dfn, vectorized):
        self.dims = (int(dims[0]), int(dims[1]))
        self.horizon = float(horizon)
        if self.horizon <= 0:
            raise InvalidInputError("horizon must be positive")
        self._fn = fn
        self._dfn = dfn
        self._vectorized = bool(vectorized)
        self.provenance = "finite-difference" if dfn is None else "analytic"

    def _call(self, fn, t, s=None):
        ts, ss, scalar = _batch(t, s)
        out = self._apply(fn, *self._args(ts, ss))
        return out[0] if scalar else out

    def _args(self, ts, ss):
        """The closures' arguments at the times ts (and ss)."""
        return (ts,) if ss is None else (ts, ss)

    def _apply(self, fn, *args):
        """fn at the 1-d argument arrays args, as one (size, *dims) stack."""
        if self._vectorized:
            out = np.asarray(fn(*args), dtype=float)
        else:
            out = np.stack([np.atleast_2d(np.asarray(fn(*map(float, a)), dtype=float))
                            for a in zip(*args)])
        size = args[0].size
        shape = (size,) + self.dims
        if out.shape != shape:
            if out.size != size * self.dims[0] * self.dims[1]:
                raise InvalidInputError(
                    f"{type(self).__name__} closure returns shape {out.shape} for"
                    f" {size} time(s), declared dims {self.dims}")
            out = out.reshape(shape)
        return out

    def eval(self, t, s=None):
        return self._call(self._fn, t, s)

    __call__ = eval

    def eval_dt(self, t, s=None):
        """Derivative in the (first) time argument."""
        if self._dfn is not None:
            return self._call(self._dfn, t, s)
        ts, ss, scalar = _batch(t, s)
        out = self._difference(ts, ss, max(1e-6, 1e-6 * self.horizon))[0]
        return out[0] if scalar else out

    def _difference(self, t, s, h):
        """Second-order differences in t over the admissible range [0, u],
        u = s for kernels (which need 0 <= t <= s <= horizon) and the
        horizon for one-time functions; returns (values, kinds), kinds
        indexing _STENCILS.

        Central at t -/+ h when both stay in [0, u]; else forward at t, t+h,
        t+2h when those do, or when u < 2h leaves no room for any stencil, so
        the closure must extend past u (forward-extended); else backward; else
        the first-order difference across [max(0, t-h), min(u, t+h)].  The
        closure is called once per offset of each formula, whatever the batch.
        """
        if s is None:
            u = np.full(t.shape, self.horizon)
        elif not np.all((0.0 <= t) & (t <= s) & (s <= self.horizon)):
            raise InvalidInputError("first-argument differences need 0 <= t <= s <= horizon")
        else:
            u = s
        kinds = np.select([(t - h >= 0.0) & (t + h <= u), t + 2 * h <= u, u < 2 * h,
                           t - 2 * h >= 0.0], [0, 1, 2, 3], 4)

        def f(times, sel):
            return self._apply(self._fn, times) if s is None else self._apply(
                self._fn, times, s[sel])

        out = np.empty(t.shape + self.dims)
        two_point = (kinds == 0) | (kinds == 4)  # central and first-order
        if two_point.any():
            tt = t[two_point]
            lo, hi = np.maximum(0.0, tt - h), np.minimum(u[two_point], tt + h)
            den = np.where(kinds[two_point] == 0, 2 * h, hi - lo)
            out[two_point] = (f(hi, two_point) - f(lo, two_point)) / den[:, None, None]
        one_sided = ~two_point  # forward (extended or not) with step d = h, backward d = -h
        if one_sided.any():
            tt = t[one_sided]
            d = np.where(kinds[one_sided] == 3, -h, h)
            out[one_sided] = (-3.0 * f(tt, one_sided) + 4.0 * f(tt + d, one_sided)
                              - f(tt + 2 * d, one_sided)) / (2 * d)[:, None, None]
        return out, kinds


class OneTimeMatrixFn(_Coefficient):
    """Matrix-valued function of one time argument with a time derivative.

    Attributes
    ----------
    dims : (rows, cols)
    horizon : float
    provenance : str
        "analytic" if eval_dt was supplied, "finite-difference" if it is the
        built-in second-order difference (step max(1e-6, 1e-6*horizon),
        central inside [0, horizon], one-sided at its ends).
    """

    def __init__(self, fn, dims, horizon, dfn=None, *, vectorized=False):
        super().__init__(fn, dims, horizon, dfn, vectorized)
        self.eval(0.0)  # the closure's shape is checked in _call

    # also bound here, in the class's own namespace, where perfbench/tracer.py
    # looks the public methods up
    eval, eval_dt = _Coefficient.eval, _Coefficient.eval_dt

    @classmethod
    def constant(cls, value, horizon) -> "OneTimeMatrixFn":
        value = np.atleast_2d(np.asarray(value, dtype=float))
        zero = np.zeros_like(value)

        def fn(t):
            t = np.asarray(t, dtype=float)
            return np.broadcast_to(value, t.shape + value.shape).copy()

        def dfn(t):
            t = np.asarray(t, dtype=float)
            return np.broadcast_to(zero, t.shape + value.shape).copy()

        return cls(fn, value.shape, horizon, dfn, vectorized=True)

    @classmethod
    def polynomial(cls, coefficients, horizon) -> "OneTimeMatrixFn":
        """sum_d coefficients[d] * t**d with matrix coefficients."""
        coeffs = np.asarray(coefficients, dtype=float)
        if coeffs.ndim == 2:
            coeffs = coeffs[None]
        if coeffs.ndim != 3:
            raise InvalidInputError("polynomial coefficients must be a list of matrices")
        powers = np.arange(coeffs.shape[0])

        def fn(t):
            t = np.asarray(t, dtype=float)
            basis = t[..., None] ** powers  # (..., D)
            return np.einsum("...d,dij->...ij", basis, coeffs)

        dcoeffs = coeffs[1:] * powers[1:, None, None]

        def dfn(t):
            t = np.asarray(t, dtype=float)
            if dcoeffs.shape[0] == 0:
                return np.zeros(t.shape + coeffs.shape[1:])
            basis = t[..., None] ** np.arange(dcoeffs.shape[0])
            return np.einsum("...d,dij->...ij", basis, dcoeffs)

        return cls(fn, coeffs.shape[1:], horizon, dfn, vectorized=True)

    @classmethod
    def from_callable(cls, fn, dims, horizon, dfn=None, *, vectorized=False):
        return cls(fn, dims, horizon, dfn, vectorized=vectorized)


class TwoTimeKernel(_Coefficient):
    """Matrix-valued kernel of two times with a first-argument partial.

    eval(t, s) and eval_dt(t, s) are guaranteed on the closed triangle
    {0 <= t <= s <= horizon}; off-triangle evaluation is delegated to the
    closure.  symmetry_required marks kernels (weights Q, M) whose values
    must be symmetric; the check itself runs in problem validation.
    lag_only is true for the kernels of TwoTimeKernel.lag, which depend on
    (t, s) only through the lag s - t.  base is set on the kernels of
    TwoTimeKernel.profile and constant, profile(s - t) base: their partial is
    dprofile(s - t) base, and dprofile is None when it is zero.  Other
    kernels have base None.
    """

    lag_only = False
    base = None

    def __init__(self, fn, dims, horizon, dfn=None, *, symmetry_required=False,
                 vectorized=False):
        super().__init__(fn, dims, horizon, dfn, vectorized)
        self.symmetry_required = bool(symmetry_required)
        probe = self.eval(0.0, self.horizon)
        if self.symmetry_required:
            drift = float(np.abs(probe - probe.T).max())
            if drift > 1e-12 * (1.0 + float(np.abs(probe).max())):
                raise InvalidInputError(
                    f"kernel declared symmetric but probe asymmetry is {drift:.3e}"
                )

    eval, eval_dt = _Coefficient.eval, _Coefficient.eval_dt

    @classmethod
    def lag(cls, fn, dims, horizon, dfn=None, *, symmetry_required=False,
            vectorized=False) -> "TwoTimeKernel":
        """Kernel k(t, s) = fn(s - t): fn, and dfn if given, take the lag.

        eval(t, s) computes the lag s - t and passes it in, so pairs with
        equal float lags get equal values.  eval_dt is dfn(s - t) when dfn
        is given (the first-argument partial, so minus the lag derivative
        of fn), else the second-order difference of fn in the lag over
        [0, horizon], negated.  A closure that is not vectorized is called
        once per distinct lag of a batch.
        """
        return _LagKernel(fn, dims, horizon, dfn, symmetry_required=symmetry_required,
                          vectorized=vectorized)

    @classmethod
    def profile(cls, profile, dprofile, base, horizon, *,
                symmetry_required=False) -> "TwoTimeKernel":
        """Kernel k(t, s) = profile(s - t) base, a scalar profile of the lag
        times a constant matrix, with first-argument partial dprofile(s - t)
        base (so dprofile is minus the lag derivative of profile).

        A lag kernel (TwoTimeKernel.lag) whose closures take a 1-d array of
        lags and return the profile there; declaring the structure lets the
        solver's window maps weight one scalar per node pair and contract
        base once per column instead of an n x n partial per pair.
        """
        return _ProfileKernel(profile, dprofile, base, horizon,
                              symmetry_required=symmetry_required)

    @classmethod
    def constant(cls, value, horizon, *, symmetry_required=False) -> "TwoTimeKernel":
        """Kernel k(t, s) = value: the profile 1 with a declared zero partial."""
        return _ProfileKernel(np.ones_like, None, value, horizon,
                              symmetry_required=symmetry_required)

    @classmethod
    def from_callable(cls, fn, dims, horizon, dfn=None, *, symmetry_required=False,
                      vectorized=False):
        return cls(fn, dims, horizon, dfn, symmetry_required=symmetry_required,
                   vectorized=vectorized)


class _LagKernel(TwoTimeKernel):
    """The kernels of TwoTimeKernel.lag: the closures take the lag s - t."""

    lag_only = True

    def _args(self, ts, ss):
        return (ss - ts,)

    def _apply(self, fn, lag):
        if self._vectorized:
            return super()._apply(fn, lag)
        distinct, inverse = np.unique(lag, return_inverse=True)
        return super()._apply(fn, distinct)[inverse]

    def _difference(self, t, s, h):
        """Minus the one-time difference of the profile at the lags s - t,
        the lag running over [0, horizon]; kinds name the lag's stencils."""
        if not np.all((0.0 <= t) & (t <= s) & (s <= self.horizon)):
            raise InvalidInputError("first-argument differences need 0 <= t <= s <= horizon")
        out, kinds = super()._difference(s - t, None, h)
        return -out, kinds


class _ProfileKernel(_LagKernel):
    """The kernels of TwoTimeKernel.profile: the closures weight base by the
    profile at the lag; dprofile None declares a zero partial."""

    def __init__(self, profile, dprofile, base, horizon, *, symmetry_required):
        base = np.atleast_2d(np.asarray(base, dtype=float))
        self.base, self.dprofile = base, dprofile

        def fn(lag):
            return profile(lag)[..., None, None] * base

        def dfn(lag):
            if dprofile is None:
                return np.zeros(lag.shape + base.shape)
            return dprofile(lag)[..., None, None] * base

        super().__init__(fn, base.shape, horizon, dfn, symmetry_required=symmetry_required,
                         vectorized=True)


def finite_difference_dt(k: TwoTimeKernel, t: float, s: float, h: float,
                         *, return_info: bool = False):
    """First-argument partial of a kernel by finite differences.

    The stencil of eval_dt without dfn, at one pair and with step h.  Uses a
    central stencil when t +/- h stays inside the triangle {0 <= t <= s},
    otherwise a second-order one-sided stencil.  When the admissible t-range
    [0, s] is shorter than 2h (s = 0 at the corner included) no stencil fits
    inside it, so the second-order forward stencil at t, t + h, t + 2h
    reaches past s; the kernel's closure must extend off the triangle there,
    as the discount families do.  In the rare remaining case a first-order
    difference is the only option.  A lag kernel (TwoTimeKernel.lag) is
    differenced in the lag instead, over [0, horizon], and the stencil is
    named in the lag.  With return_info=True a (matrix, stencil) pair comes
    back, stencil in {"central", "forward", "backward", "forward-extended",
    "first-order"}.
    """
    if not h > 0:
        raise InvalidInputError("step h must be positive")
    val, kinds = k._difference(np.array([float(t)]), np.array([float(s)]), h)
    return (val[0], _STENCILS[kinds[0]]) if return_info else val[0]


@dataclass(frozen=True)
class NormBundle:
    """Grid-approximated norms of a coefficient: sup (C), C + sup of the
    derivative (C^1), integral of the row-sum aggregate (L^1), and ess-sup
    (L^inf, equal to C on a grid)."""

    c_norm: float
    c1_norm: float
    l1_norm: float
    linf_norm: float

    def __post_init__(self):
        vals = (self.c_norm, self.c1_norm, self.l1_norm, self.linf_norm)
        if not all(np.isfinite(v) and v >= 0 for v in vals):
            raise InvalidInputError("norms must be finite and non-negative")
        if self.c1_norm < self.c_norm:
            raise InvalidInputError("c1_norm cannot be smaller than c_norm")


def kernel_norms(k, g) -> NormBundle:
    """NormBundle of a OneTimeMatrixFn or TwoTimeKernel sampled on grid g.

    Two-time kernels are sampled on all triangle node pairs, walked one table
    of _ROW_BLOCK = 32 rows at a time (_tables), so memory goes as
    O(32 K n^2) for K nodes; their L^1 field integrates, in the first
    argument, the worst row-sum over the remaining second arguments (so a
    constant kernel gets T times its matrix norm).  solve_riccati takes the
    C and C^1 norms of Q, S and M from the walk that validates them.
    """
    if not isinstance(k, _Coefficient):
        raise InvalidInputError("kernel_norms expects a OneTimeMatrixFn or TwoTimeKernel")
    nodes = g.nodes

    def norms(*args):
        """The row-sum norms of the values at args, the sup of the derivative's."""
        vals, dvals = matrix_norm_many(k.eval(*args)), matrix_norm_many(k.eval_dt(*args))
        if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(dvals))):
            raise InvalidInputError("non-finite coefficient values on the grid")
        return vals, float(dvals.max())

    if not isinstance(k, TwoTimeKernel):
        row_worst, d_sup = norms(nodes)
    else:
        rows, d_sup = [], 0.0
        for table in _tables(nodes, lag_only=False):
            vals, d = norms(table.t, table.s)
            d_sup = max(d_sup, d)
            starts = np.flatnonzero(np.concatenate(([True], table.t[1:] != table.t[:-1])))
            rows.append(np.maximum.reduceat(vals, starts))
        row_worst = np.concatenate(rows)
    c = float(row_worst.max())
    return NormBundle(c, c + d_sup, float(integrate(row_worst, nodes)), c)
