"""Local polynomials on sampled nodes: interpolation, integrals, derivatives.

One rule serves every time integral in the package: interval [x_j, x_j+1]
is integrated exactly over the polynomial through the min(4, K) nodes
around it, shifted inward at the ends, which is the interpolant of
local_cubic.  2- and 3-node inputs take the line and the parabola; longer
ones are exact for cubics, uniform or not.  Every weight is a sum of these
interval weights, and none is kept in a K x K matrix: the integrals from
every node to the end are reverse sums of interval integrals, and the rules
on the tails x[i:] are one vector plus a K x 4 band.  Derivatives at the
nodes take the same kind of stencil, min(5, K) nodes around each node.
"""
from __future__ import annotations

import numpy as np

_ARANGE = np.arange(4)
_ENDS_AND_MID = np.array([0.0, 0.5, 1.0])
_SIMPSON = np.array([1.0, 4.0, 1.0]) / 6.0


def _stencil(K: int, j: np.ndarray, width: int = 4) -> np.ndarray:
    """Indices of the min(width, K) nodes around each interval (width 4) or
    node (width 5) j, shifted inward at the ends."""
    m = min(width, K)
    return np.minimum(np.maximum(j - (width - 1) // 2, 0), K - m)[:, None] + np.arange(m)


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


def derivative(x: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Derivative of sampled values (first axis runs along x) at every node:
    that of the polynomial through the min(5, K) nodes around the node,
    shifted inward at the ends, in barycentric form.  x must be strictly
    increasing, not necessarily uniform."""
    x = np.asarray(x, dtype=float)
    K = x.size
    idx = _stencil(K, np.arange(K), 5)
    rows, here = np.arange(K), np.arange(K) - idx[:, 0]  # node i's place in its stencil
    gaps = x[idx][:, :, None] - x[idx][:, None, :] + np.eye(idx.shape[1])  # x_k - x_l, 1 at k = l
    bary = 1.0 / gaps.prod(axis=2)
    weights = bary / bary[rows, here][:, None] / gaps[rows, here]
    weights[rows, here] -= weights.sum(axis=1)  # 1 there becomes minus the others' sum
    return np.einsum("ik,ik...->i...", weights, np.asarray(values, dtype=float)[idx])


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


def tail_integrals(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Integrals of sampled values (first axis runs along x) over [x[i], x[-1]]
    for every i: the interval integrals of the rule of simpson_weights(x),
    summed from the right end.  The last entry is zero."""
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    out = np.zeros(values.shape)
    if x.size > 1:
        idx = _stencil(x.size, np.arange(x.size - 1))
        pieces = np.einsum("jk,jk...->j...", _interval_weights(x, idx), values[idx])
        np.cumsum(pieces[::-1], axis=0, out=out[-2::-1])
    return out


def tail_band(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(v, band): simpson_weights(x[i:]) is band[i, :min(4, K - i)] joined
    with v[i + 4:], where v = simpson_weights(x), for every i < K.

    A tail of four or more nodes integrates interval i on the one-sided
    stencil i..i+3 and every later interval on the stencil of v, so only its
    first four weights differ from v.  They are summed interval by interval,
    as simpson_weights sums, so the two agree bit for bit.
    """
    x = np.asarray(x, dtype=float)
    K = x.size
    v = simpson_weights(x)
    rows = np.arange(max(K - 3, 0))  # the tails of four or more nodes
    wide = np.zeros((K, 8))  # interval i + d, d <= 5, spans columns i..i+7
    wide[rows[:, None], _ARANGE] = _interval_weights(x, rows[:, None] + _ARANGE)
    idx = _stencil(K, np.arange(K - 1))
    weights = _interval_weights(x, idx)
    for d in range(1, 6):  # no interval past i + 5 reaches columns i..i+3
        i = rows[:max(K - 1 - d, 0)]
        wide[i[:, None], idx[i + d] - i[:, None]] += weights[i + d]
    band = wide[:, :4].copy()
    for i in range(max(K - 3, 0), K - 1):  # the parabola and the line
        band[i, :K - i] = simpson_weights(x[i:])
    return v, band
