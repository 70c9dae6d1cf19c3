"""Matrix-valued coefficient functions, two-time kernels, and their norms.

One-time functions t -> R^{n x m} live on [0, T]; two-time kernels (t, s) map
the closed triangle {0 <= t <= s <= T} (evaluation outside the triangle is
permitted whenever the underlying closure extends, which the discount
families do).  All norms are grid approximations built from the row-sum
matrix norm sampled at grid nodes.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def matrix_norm_many(stack: np.ndarray) -> np.ndarray:
    """Row-sum norms of a (..., n, m) stack, vectorized."""
    stack = np.asarray(stack, dtype=float)
    return np.abs(stack).sum(axis=-1).max(axis=-1)


def _as_batch(t) -> tuple[np.ndarray, bool]:
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        return t.reshape(1), True
    if t.ndim == 1:
        return t, False
    raise InvalidInputError("time arguments must be scalars or 1-d arrays")


class OneTimeMatrixFn:
    """Matrix-valued function of one time argument with a time derivative.

    Attributes
    ----------
    dims : (rows, cols)
    horizon : float
    provenance : str
        "analytic" if eval_dt was supplied, "finite-difference" if it is the
        built-in central-difference fallback (step max(1e-6, 1e-6*horizon),
        one-sided at the ends of [0, horizon]).
    """

    def __init__(self, fn, dims, horizon, dfn=None, *, vectorized=False):
        self.dims = (int(dims[0]), int(dims[1]))
        self.horizon = float(horizon)
        if self.horizon <= 0:
            raise InvalidInputError("horizon must be positive")
        self._fn = fn
        self._vectorized = bool(vectorized)
        if dfn is None:
            self.provenance = "finite-difference"
            self._dfn = None
        else:
            self.provenance = "analytic"
            self._dfn = dfn
        probe = self.eval(0.0)
        if probe.shape != self.dims:
            raise InvalidInputError(
                f"function returns shape {probe.shape}, declared dims {self.dims}"
            )

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

    def _call(self, fn, t):
        ts, scalar = _as_batch(t)
        if self._vectorized:
            out = np.asarray(fn(ts), dtype=float)
        else:
            out = np.stack([np.atleast_2d(np.asarray(fn(float(ti)), dtype=float)) for ti in ts])
        if out.shape[-2:] != self.dims:
            out = out.reshape(ts.shape + self.dims)
        return out[0] if scalar else out

    def eval(self, t):
        return self._call(self._fn, t)

    __call__ = eval

    def eval_dt(self, t):
        if self._dfn is not None:
            return self._call(self._dfn, t)
        h = max(1e-6, 1e-6 * self.horizon)
        ts, scalar = _as_batch(t)
        out = np.empty(ts.shape + self.dims)
        interior = (ts - h >= 0.0) & (ts + h <= self.horizon)
        if np.any(interior):
            ti = ts[interior]
            out[interior] = (self._call(self._fn, ti + h)
                             - self._call(self._fn, ti - h)) / (2 * h)
        lo = ~interior & (ts - h < 0.0)
        if np.any(lo):
            ti = ts[lo]
            out[lo] = (-3.0 * self._call(self._fn, ti) + 4.0 * self._call(self._fn, ti + h)
                       - self._call(self._fn, ti + 2 * h)) / (2 * h)
        hi = ~interior & ~lo
        if np.any(hi):
            ti = ts[hi]
            out[hi] = (3.0 * self._call(self._fn, ti) - 4.0 * self._call(self._fn, ti - h)
                       + self._call(self._fn, ti - 2 * h)) / (2 * h)
        return out[0] if scalar else out


class TwoTimeKernel:
    """Matrix-valued kernel of two times with a first-argument partial.

    eval(t, s) and eval_dt(t, s) are guaranteed on the closed triangle
    {0 <= t <= s <= horizon}; off-triangle evaluation is delegated to the
    closure.  symmetry_required marks kernels (weights Q, M) whose values
    must be symmetric; the check itself runs in problem validation.
    """

    def __init__(self, fn, dims, horizon, dfn=None, *, symmetry_required=False,
                 vectorized=False):
        self.dims = (int(dims[0]), int(dims[1]))
        self.horizon = float(horizon)
        if self.horizon <= 0:
            raise InvalidInputError("horizon must be positive")
        self.symmetry_required = bool(symmetry_required)
        self._fn = fn
        self._vectorized = bool(vectorized)
        if dfn is None:
            self.provenance = "finite-difference"
            self._dfn = None
        else:
            self.provenance = "analytic"
            self._dfn = dfn
        probe = self.eval(0.0, self.horizon)
        if probe.shape != self.dims:
            raise InvalidInputError(
                f"kernel returns shape {probe.shape}, declared dims {self.dims}"
            )
        if self.symmetry_required:
            drift = float(np.abs(probe - probe.T).max())
            if drift > 1e-12 * (1.0 + float(np.abs(probe).max())):
                raise InvalidInputError(
                    f"kernel declared symmetric but probe asymmetry is {drift:.3e}"
                )

    @classmethod
    def constant(cls, value, horizon, *, symmetry_required=False) -> "TwoTimeKernel":
        value = np.atleast_2d(np.asarray(value, dtype=float))
        zero = np.zeros_like(value)

        def fn(t, s):
            shape = np.broadcast_shapes(np.shape(t), np.shape(s))
            return np.broadcast_to(value, shape + value.shape).copy()

        def dfn(t, s):
            shape = np.broadcast_shapes(np.shape(t), np.shape(s))
            return np.broadcast_to(zero, shape + value.shape).copy()

        return cls(fn, value.shape, horizon, dfn,
                   symmetry_required=symmetry_required, vectorized=True)

    @classmethod
    def from_callable(cls, fn, dims, horizon, dfn=None, *, symmetry_required=False,
                      vectorized=False):
        return cls(fn, dims, horizon, dfn, symmetry_required=symmetry_required,
                   vectorized=vectorized)

    def _call(self, fn, t, s):
        ts, t_scalar = _as_batch(t)
        ss, s_scalar = _as_batch(s)
        ts, ss = np.broadcast_arrays(ts, ss)
        if self._vectorized:
            out = np.asarray(fn(ts, ss), dtype=float)
        else:
            out = np.stack([
                np.atleast_2d(np.asarray(fn(float(ti), float(si)), dtype=float))
                for ti, si in zip(ts, ss)
            ])
        if out.shape[-2:] != self.dims:
            out = out.reshape(ts.shape + self.dims)
        return out[0] if (t_scalar and s_scalar) else out

    def eval(self, t, s):
        return self._call(self._fn, t, s)

    __call__ = eval

    def eval_dt(self, t, s):
        """Partial derivative in the first argument."""
        if self._dfn is not None:
            return self._call(self._dfn, t, s)
        h = max(1e-6, 1e-6 * self.horizon)
        ts, t_scalar = _as_batch(t)
        ss, s_scalar = _as_batch(s)
        ts, ss = np.broadcast_arrays(ts, ss)
        out = np.stack([
            finite_difference_dt(self, float(ti), float(si), h) for ti, si in zip(ts, ss)
        ])
        return out[0] if (t_scalar and s_scalar) else out


def finite_difference_dt(k: TwoTimeKernel, t: float, s: float, h: float,
                         *, return_info: bool = False):
    """First-argument partial of a kernel by finite differences.

    Uses a central stencil when t +/- h stays inside the triangle
    {0 <= t <= s}, otherwise a second-order one-sided stencil.  When the
    admissible t-range [0, s] is shorter than 2h (s = 0 at the corner
    included) no stencil fits inside it, so the second-order forward stencil
    at t, t + h, t + 2h reaches past s; the kernel's closure must extend off
    the triangle there, as the discount families do.  In the rare remaining
    case a first-order difference is the only option.  With
    return_info=True a (matrix, stencil) pair comes back, stencil in
    {"central", "forward", "backward", "forward-extended", "first-order"}.
    """
    if not (0.0 <= t <= s <= k.horizon):
        raise InvalidInputError("finite_difference_dt needs 0 <= t <= s <= horizon")
    if not h > 0:
        raise InvalidInputError("step h must be positive")
    f = k.eval
    if t - h >= 0.0 and t + h <= s:
        val = (f(t + h, s) - f(t - h, s)) / (2 * h)
        info = "central"
    elif t + 2 * h <= s or s < 2 * h:
        val = (-3.0 * f(t, s) + 4.0 * f(t + h, s) - f(t + 2 * h, s)) / (2 * h)
        info = "forward" if t + 2 * h <= s else "forward-extended"
    elif t - 2 * h >= 0.0:
        val = (3.0 * f(t, s) - 4.0 * f(t - h, s) + f(t - 2 * h, s)) / (2 * h)
        info = "backward"
    else:
        lo, hi = max(0.0, t - h), min(s, t + h)
        val = (f(hi, s) - f(lo, s)) / (hi - lo)
        info = "first-order"
    return (val, info) if return_info else val


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

    Two-time kernels are sampled on all triangle node pairs; their L^1 field
    integrates, in the first argument, the worst row-sum over the remaining
    second arguments (so a constant kernel gets T times its matrix norm).
    """
    nodes = g.nodes
    if isinstance(k, OneTimeMatrixFn):
        vals = matrix_norm_many(k.eval(nodes))
        dvals = matrix_norm_many(k.eval_dt(nodes))
        if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(dvals))):
            raise InvalidInputError("non-finite coefficient values on the grid")
        c = float(vals.max())
        return NormBundle(c, c + float(dvals.max()), float(integrate(vals, nodes)), c)
    if isinstance(k, TwoTimeKernel):
        K = nodes.size
        ii, jj = np.triu_indices(K)
        vals = matrix_norm_many(k.eval(nodes[ii], nodes[jj]))
        dvals = matrix_norm_many(k.eval_dt(nodes[ii], nodes[jj]))
        if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(dvals))):
            raise InvalidInputError("non-finite kernel values on the triangle")
        c = float(vals.max())
        rows = np.zeros((K, K))
        rows[ii, jj] = vals
        row_worst = rows.max(axis=1)
        return NormBundle(c, c + float(dvals.max()),
                          float(integrate(row_worst, nodes)), c)
    raise InvalidInputError("kernel_norms expects a OneTimeMatrixFn or TwoTimeKernel")
