"""Fundamental solutions of linear time-varying systems dU/dt = C(t) U, and
the feedback tables whose gain drives the closed loop.

rk4_steps is the one RK4 step primitive: every flow in the package is a
product of its step matrices, formed by flow_prefix (rk4_flow) or, with a
flow anchored at every row block, by _Chunked.  A single flow past 32 steps
is cut into chunks of 32: one loop of 32 steps advances every chunk's local
flows, a loop over the chunk ends carries them, and one product joins the
two.  Shorter flows, and stacked flows that advance together, take one
loop over the steps.

The propagator stores U at the grid nodes (classical fourth-order one-step
Runge-Kutta per interval, U(nodes[0]) = I) and their inverses, which the
condition check needs; callers conjugate by the flow at the nodes
themselves.  It has no dense output between nodes and no transitions: the
transition between nodes k and j is values[k] @ inverse[j], and a time off
the nodes needs a grid that has it as a node.

feedback_tables is the one place that inverts M(s,s): every gain
Ups = M(s,s)^{-1}(B(s)'P(s) + S(s,s)) in the package, and so every
closed-loop drift A - B Ups, is MiBt P + MiS from its two tables.
"""
from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError
from .grids import TimeGrid
from .kernels import _ROW_BLOCK, OneTimeMatrixFn, matrix_norm_many

_COND_WARN = 1e12


def half_times(nodes: np.ndarray) -> np.ndarray:
    """Nodes and interval midpoints interleaved: [node0, mid0, node1, ...]."""
    out = np.empty(2 * nodes.size - 1)
    out[0::2] = nodes
    out[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
    return out


def rk4_steps(hs: np.ndarray, C0: np.ndarray, Cm: np.ndarray, C1: np.ndarray
              ) -> np.ndarray:
    """Classical RK4 step matrices of x' = C(t) x, all steps at once.

    Step i has length hs[i] and C sampled at its start, midpoint and end
    (C0[i], Cm[i], C1[i], each of shape (n, n)).  Returns E of shape
    (len(hs), n, n): x(start + hs[i]) = E[i] x(start).
    """
    hs = hs[:, None, None]
    eye = np.eye(C0.shape[-1])
    K1 = C0
    K2 = Cm @ (eye + 0.5 * hs * K1)
    K3 = Cm @ (eye + 0.5 * hs * K2)
    K4 = C1 @ (eye + hs * K3)
    return eye + (hs / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)


def _prefix(E: np.ndarray) -> np.ndarray:
    """Prefix products U[0] = I, U[i+1] = E[i] U[i], one step at a time."""
    U = np.empty((E.shape[0] + 1,) + E.shape[1:])
    U[0] = np.eye(E.shape[-1])
    for e, u, nxt in zip(E, U[:-1], U[1:]):
        np.matmul(e, u, out=nxt)
    return U


class _Chunked(NamedTuple):
    """Flows of a run of step matrices E (k, n, n) cut into chunks of
    B = _ROW_BLOCK steps, the last padded with identity steps.

    local[m, j] is the product of the m steps of chunk j from its start
    (E[jB + m - 1] ... E[jB], I at m = 0), shape (B + 1, chunks, n, n); one
    loop of B passes advances every chunk.  carry[d, j] is the product of
    the chunk ends local[-1] of chunks j .. j + d - 1 for the first anchors
    chunks j, shape (chunks + 1, anchors, n, n); past the last chunk it stays
    at the flow to the last node.  Every entry is a forward product."""

    local: np.ndarray
    carry: np.ndarray

    @classmethod
    def of(cls, E: np.ndarray, anchors: int) -> "_Chunked":
        k, n = E.shape[0], E.shape[-1]
        chunks = -(-k // _ROW_BLOCK)
        steps = np.empty((chunks * _ROW_BLOCK, n, n))
        steps[:k] = E
        steps[k:] = np.eye(n)
        local = _prefix(steps.reshape(chunks, _ROW_BLOCK, n, n).swapaxes(0, 1))
        d = np.arange(chunks)[:, None] + np.arange(anchors)
        ends = np.where((d < chunks)[..., None, None],
                        local[-1][np.minimum(d, chunks - 1)], np.eye(n))
        return cls(local, _prefix(ends))

    def flow(self, j: int, count: int) -> np.ndarray:
        """Phi(r, s) for the count nodes r from the start s of chunk j: each
        chunk's local flows times its carry from chunk j, in one product."""
        chunks, n = self.local.shape[1], self.local.shape[-1]
        out = np.empty(((chunks - j) * _ROW_BLOCK + 1, n, n))
        np.matmul(self.local[:-1, j:].swapaxes(0, 1), self.carry[:chunks - j, j, None],
                  out=out[:-1].reshape(chunks - j, _ROW_BLOCK, n, n))
        out[-1] = self.carry[chunks - j, j]
        return out[:count]


def flow_prefix(E: np.ndarray) -> np.ndarray:
    """Prefix products U[0] = I, U[i+1] = E[i] U[i] of step matrices.

    E has shape (K-1, ..., n, n): axes between the step axis and the matrix
    axes stack independent flows, which one loop over the steps advances
    together.  A single flow (E of shape (K-1, n, n)) past _ROW_BLOCK steps
    is chunked instead (_Chunked): U[jB + m] = local[m, j] carry[j], from a
    loop of B steps, a loop over the chunk ends and one product.  Stacked
    flows keep the step loop, whose every product already spans the flows.
    Returns U of shape (K, ..., n, n).
    """
    if E.ndim == 3 and E.shape[0] > _ROW_BLOCK:
        return _Chunked.of(E, 1).flow(0, E.shape[0] + 1)
    return _prefix(E)


def _half_steps(nodes: np.ndarray, C: np.ndarray) -> np.ndarray:
    """rk4_steps of x' = C(t) x on nodes, C sampled at half_times(nodes)."""
    return rk4_steps(np.diff(nodes), C[0:-1:2], C[1::2], C[2::2])


def rk4_flow(nodes: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Classical RK4 fundamental matrices of x' = C(t) x.

    C is sampled at half_times(nodes), shape (2K-1, n, n).  Returns U of
    shape (K, n, n) with U[0] = I and x(nodes[k]) = U[k] x(nodes[0]): the
    flow_prefix of its steps.
    """
    return flow_prefix(_half_steps(nodes, C))


def flow_condition(values, inverses, *, stacklevel: int = 2) -> float:
    """Largest ||U|| ||U^{-1}|| (row-sum norms) over a stack of flow values
    and their inverses; warns when it exceeds 1e12.  stacklevel is that of
    warnings.warn, counted from the caller of this function."""
    cond = float((matrix_norm_many(values) * matrix_norm_many(inverses)).max())
    if cond > _COND_WARN:
        warnings.warn(
            f"propagator condition number {cond:.3e} exceeds {_COND_WARN:.0e};"
            " transitions over long spans may lose accuracy",
            RuntimeWarning, stacklevel=stacklevel + 1,
        )
    return cond


class Propagator:
    """Fundamental solution on a node array; see fundamental_solution.

    values[k] is U at nodes[k] and inverse[k] its inverse; a U that is
    singular to working precision is an InvalidInputError.
    """

    def __init__(self, nodes, values):
        self.nodes = np.asarray(nodes, dtype=float)
        self.values = values
        self.dim = values.shape[-1]
        try:
            self.inverse = np.linalg.inv(values)
        except np.linalg.LinAlgError as exc:
            raise InvalidInputError(f"the flow cannot be inverted on this grid: {exc}") from exc
        self.condition = flow_condition(values, self.inverse, stacklevel=3)


def fundamental_solution(coefficient: OneTimeMatrixFn, grid: TimeGrid) -> Propagator:
    """Propagator of dU/dt = C(t) U, U(0) = I, on the nodes of grid; C is
    sampled at their half_times.  Any other type of coefficient or grid is
    an InvalidInputError."""
    if not isinstance(coefficient, OneTimeMatrixFn) or not isinstance(grid, TimeGrid):
        raise InvalidInputError("fundamental_solution takes a OneTimeMatrixFn and a TimeGrid")
    return Propagator(grid.nodes, rk4_flow(grid.nodes, coefficient.eval(half_times(grid.nodes))))


def feedback_tables(p, ts) -> tuple[np.ndarray, np.ndarray]:
    """M(s,s)^{-1} B(s)' and M(s,s)^{-1} S(s,s) at every time s of the 1-d
    array ts, shapes (k, m, n) each: the gain of a kernel P at those times
    is Ups = MiBt P + MiS, a product, not a solve.

    Raises InvalidInputError when M(s,s) is singular at one of the times.
    """
    ts = np.asarray(ts, dtype=float)
    M = p.M.eval(ts, ts)
    try:
        M_inv = np.linalg.inv(M)
    except np.linalg.LinAlgError as exc:
        where = float(ts[np.argmin(np.abs(np.linalg.det(M)))])
        raise InvalidInputError(f"M(s, s) is singular at s = {where:.6g}") from exc
    return M_inv @ np.swapaxes(p.B.eval(ts), -1, -2), M_inv @ p.S.eval(ts, ts)

