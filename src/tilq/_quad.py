"""The local cubic on sampled nodes: interpolation and quadrature weights.

One rule serves every time integral in the package: interval [x_j, x_j+1]
is integrated exactly over the polynomial through the min(4, K) nodes
around it, shifted inward at the ends, which is the interpolant of
local_cubic.  2- and 3-node inputs take the line and the parabola; longer
ones are exact for cubics, uniform or not.  Every weight vector or slice
matrix is a sum of these interval weights.
"""
from __future__ import annotations

import numpy as np

_ARANGE = np.arange(4)
_ENDS_AND_MID = np.array([0.0, 0.5, 1.0])
_SIMPSON = np.array([1.0, 4.0, 1.0]) / 6.0


def _stencil(K: int, j: np.ndarray) -> np.ndarray:
    """Indices of the min(4, K) nodes around each interval j, shifted inward
    at the ends."""
    m = min(4, K)
    return np.minimum(np.maximum(j - 1, 0), K - m)[:, None] + _ARANGE[:m]


def _lagrange(xs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Basis values w[..., k] = prod_{l != k} (t - xs_l) / (xs_k - xs_l)."""
    m = xs.shape[-1]
    twice = np.concatenate([xs, xs], axis=-1)  # twice[..., k + s] is node k + s mod m
    d = t[..., None] - twice
    num, den = np.ones(d.shape[:-1] + (m,)), np.ones(xs.shape)
    for s in range(1, m):
        num *= d[..., s:s + m]
        den *= xs - twice[..., s:s + m]
    return num / den


def local_cubic(nodes: np.ndarray, values: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Interpolate values (first axis along nodes) at times ts.

    Node times reproduce values exactly: there the basis is exactly 1 and 0.
    """
    i = np.searchsorted(nodes, ts, side="right") - 1
    idx = _stencil(nodes.size, i)
    return np.einsum("qj,qj...->q...", _lagrange(nodes[idx], ts), values[idx])


def _interval_weights(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """w[j] @ f(x[idx[j]]) = integral over [x_j, x_{j+1}] of the polynomial
    through the nodes idx[j], for j < len(idx): Simpson's rule on the
    interval, exact for that polynomial."""
    n = idx.shape[0]
    h = (x[1:n + 1] - x[:n])[:, None]
    local = (x[idx] - x[:n, None]) / h  # the interval is [0, 1] here
    return _SIMPSON @ _lagrange(local[:, None, :], _ENDS_AND_MID) * h


def simpson_weights(x: np.ndarray) -> np.ndarray:
    """Weights w with w @ f(x) ~= integral of f over [x[0], x[-1]] by the
    local cubic rule; x must be strictly increasing, not necessarily uniform.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("x must be one-dimensional")
    idx = _stencil(x.size, np.arange(x.size - 1))
    w = np.bincount(idx.ravel(), _interval_weights(x, idx).ravel(), x.size)
    return w.astype(float, copy=False)  # a 1-node input has no weights to add


def integrate(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Integrate sampled values (first axis runs along x) over [x[0], x[-1]]."""
    w = simpson_weights(x)
    return np.tensordot(w, np.asarray(values, dtype=float), axes=(0, 0))


def left_slice_weights(x: np.ndarray) -> np.ndarray:
    """Matrix W with W[i] @ f(x) ~= integral of f over [x[i], x[-1]].

    Row i sums the interval weights of x from interval i on, each with the
    stencil simpson_weights(x) gives it, so the rows next to the right end
    reach up to two nodes left of i.  The last row is zero.
    """
    x = np.asarray(x, dtype=float)
    K = x.size
    j = np.arange(K - 1)
    idx = _stencil(K, j)
    W = np.zeros((K, K))
    W[j[:, None], idx] = _interval_weights(x, idx)
    np.cumsum(W[::-1], axis=0, out=W[::-1])
    return W


def tail_slice_weights(x: np.ndarray, left: np.ndarray | None = None) -> np.ndarray:
    """Matrix W with W[i, i:] = simpson_weights(x[i:]), zero left of node i.

    For integrands that exist only on [x[i], x[-1]].  A row of four or more
    nodes is row i of left_slice_weights with interval i moved to the
    one-sided stencil i..i+3; the last two are the parabola and the line.
    left, if given, is left_slice_weights(x), which is then copied instead
    of built.
    """
    x = np.asarray(x, dtype=float)
    K = x.size
    W = left_slice_weights(x) if left is None else left.copy()
    j = np.arange(max(K - 3, 0))
    shared, one_sided = _stencil(K, j), j[:, None] + _ARANGE
    W[j[:, None], shared] -= _interval_weights(x, shared)
    W[j[:, None], one_sided] += _interval_weights(x, one_sided)
    for i in range(max(K - 3, 0), K - 1):
        W[i, :i] = 0.0
        W[i, i:] = simpson_weights(x[i:])
    return W
