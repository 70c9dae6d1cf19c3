"""Composite Simpson quadrature weights on sampled nodes.

All time integrals in the package go through these weights: composite Simpson
on interval pairs, a 3/8 block absorbing the leftover when the interval count
is odd, a plain trapezoid for a single interval.  Weight vectors (rather than
a one-shot integrator) let the solver evaluate many left-endpoint slices of
the same sampled integrand as one matrix product.
"""
from __future__ import annotations

import numpy as np


def simpson_weights(x: np.ndarray) -> np.ndarray:
    """Quadrature weights w with w @ f(x) ~= integral of f over [x[0], x[-1]].

    Exact for cubics on interval pairs (and on the 3/8 block); the single
    leftover interval of a 2-node input uses the trapezoid rule.  x must be
    strictly increasing but need not be uniform.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("x must be one-dimensional")
    m = x.size - 1
    w = np.zeros(x.size)
    if m <= 0:
        return w
    if m == 1:
        w[0] = w[1] = 0.5 * (x[1] - x[0])
        return w
    start = m % 2
    if start:
        # 3/8-style block over the first three intervals via two overlapping
        # quadratics: integrate [x0,x1] from the quadratic on (x0,x1,x2), then
        # the pair (x1,x2,x3) with the standard pair weights.
        h0 = x[1] - x[0]
        h1 = x[2] - x[1]
        w[0] += h0 * h1 * (2 * h0 + 3 * h1) / (6 * h1 * (h0 + h1))
        w[1] += h0 * (h0 * h0 + 4 * h0 * h1 + 3 * h1 * h1) / (6 * h1 * (h0 + h1))
        w[2] += -h0 * h0 * h0 / (6 * h1 * (h0 + h1))
    # j, j + 1 and j + 2 each hold distinct indices, so += adds every pair
    h = np.diff(x[start:])
    h0, h1 = h[0::2], h[1::2]
    s = h0 + h1
    j = np.arange(start, m, 2)
    w[j] += s * (2 * h0 - h1) / (6 * h0)
    w[j + 1] += s * s * s / (6 * h0 * h1)
    w[j + 2] += s * (2 * h1 - h0) / (6 * h1)
    return w


def integrate(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Integrate sampled values (first axis runs along x) over [x[0], x[-1]]."""
    w = simpson_weights(x)
    return np.tensordot(w, np.asarray(values, dtype=float), axes=(0, 0))


def left_slice_weights(x: np.ndarray) -> np.ndarray:
    """Matrix W with W[i] @ f(x) ~= integral of f over [x[i], x[-1]].

    Row i holds the composite Simpson weights of the slice starting at node i;
    the last row is zero.  The single-interval slice next to the right
    endpoint borrows the preceding node so every row stays third-order exact
    (no trapezoid rows as long as x has at least three nodes).  Used for
    backward cumulative integrals.

    Built without a loop over rows: in every slice simpson_weights places its
    interval pairs flush with the right end, so each row is the one vector R
    of right-aligned pair weights, except at its first node or, when the
    slice has an odd interval count, its first three nodes (the 3/8 block).
    Every entry sums the same one or two terms as simpson_weights(x[i:]), so
    the rows are bit-identical to it.
    """
    x = np.asarray(x, dtype=float)
    K = x.size
    if K < 3:
        W = np.zeros((K, K))
        if K == 2:
            W[0] = 0.5 * (x[1] - x[0])
        return W
    h = np.diff(x)
    h0, h1 = h[:-1], h[1:]  # the pair or block starting at node j
    s = h0 + h1
    a = s * (2 * h0 - h1) / (6 * h0)
    b = s * s * s / (6 * h0 * h1)
    c = s * (2 * h1 - h0) / (6 * h1)
    R = np.zeros(K)
    j = np.arange((K - 1) % 2, K - 2, 2)
    R[j] = a[j]
    R[j + 1] = b[j]
    R[j + 2] += c[j]
    W = np.triu(np.broadcast_to(R, (K, K)))
    rows = np.arange(K - 2)
    # an even slice starts with a pair, which has no left neighbour
    even = rows[(K - 1 - rows) % 2 == 0]
    W[even, even] = a[even]
    # an odd slice starts with the 3/8 block, overlapping its first pair
    odd = rows[(K - 1 - rows) % 2 == 1]
    g0, g1 = h0[odd], h1[odd]
    W[odd, odd] = g0 * g1 * (2 * g0 + 3 * g1) / (6 * g1 * (g0 + g1))
    W[odd, odd + 1] = g0 * (g0 * g0 + 4 * g0 * g1 + 3 * g1 * g1) / (6 * g1 * (g0 + g1)) \
        + a[odd + 1]
    W[odd, odd + 2] = -g0 * g0 * g0 / (6 * g1 * (g0 + g1)) + b[odd + 1]
    W[K - 2:] = 0.0
    # quadratic through (x[i-1], x[i], x[i+1]) integrated over the last interval
    i = K - 2
    g0 = x[i] - x[i - 1]
    g1 = x[i + 1] - x[i]
    W[i, i - 1] = -g1 * g1 * g1 / (6 * g0 * (g0 + g1))
    W[i, i] = g1 * (g1 * g1 + 4 * g1 * g0 + 3 * g0 * g0) / (6 * g0 * (g0 + g1))
    W[i, i + 1] = g1 * g0 * (2 * g1 + 3 * g0) / (6 * g0 * (g0 + g1))
    return W
