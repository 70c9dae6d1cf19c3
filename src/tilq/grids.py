"""Time grids on [0, T], and the rule that says which node a time is."""
from __future__ import annotations

import numpy as np

from .errors import InvalidInputError


def node_index(nodes: np.ndarray, ts) -> np.ndarray:
    """For each time in ts, the index of the node within 1e-9 (1 + T) of it,
    T = nodes[-1], else -1: such a time is that node.  Needs two nodes."""
    ts = np.asarray(ts, dtype=float)
    j = np.clip(np.searchsorted(nodes, ts), 1, nodes.size - 1)
    j = j - (np.abs(nodes[j - 1] - ts) < np.abs(nodes[j] - ts))
    return np.where(np.abs(nodes[j] - ts) <= 1e-9 * (1.0 + nodes[-1]), j, -1)


class TimeGrid:
    """Strictly increasing nodes spanning [0, T].

    Parameters
    ----------
    nodes : array_like
        Strictly increasing, first node 0, last node T > 0.

    Attributes
    ----------
    nodes : ndarray, read-only
    T : float
        Horizon, nodes[-1].
    num_intervals : int
    """

    def __init__(self, nodes):
        nodes = np.array(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise InvalidInputError("grid needs at least two one-dimensional nodes")
        if not np.all(np.isfinite(nodes)):
            raise InvalidInputError("grid nodes must be finite")
        if nodes[0] != 0.0:
            raise InvalidInputError("first grid node must be 0")
        if np.any(np.diff(nodes) <= 0):
            raise InvalidInputError("grid nodes must be strictly increasing")
        nodes.setflags(write=False)
        self.nodes = nodes
        self.T = float(nodes[-1])
        self.num_intervals = nodes.size - 1

    @classmethod
    def uniform(cls, T: float, num_intervals: int) -> "TimeGrid":
        if not (num_intervals >= 1 and float(T) > 0):
            raise InvalidInputError("uniform grid needs T > 0 and num_intervals >= 1")
        return cls(np.linspace(0.0, float(T), num_intervals + 1))

    @property
    def h(self) -> float:
        """Largest interval width."""
        return float(np.diff(self.nodes).max())

    def refine(self, factor: int) -> "TimeGrid":
        """Insert factor-1 equally spaced nodes into every interval."""
        if factor < 1:
            raise InvalidInputError("refinement factor must be >= 1")
        if factor == 1:
            return self
        pieces = [
            np.linspace(self.nodes[i], self.nodes[i + 1], factor, endpoint=False)
            for i in range(self.num_intervals)
        ]
        return TimeGrid(np.concatenate(pieces + [[self.T]]))

    def index_of(self, t: float) -> int:
        """Index of the node t is (see node_index), else raise."""
        i = int(node_index(self.nodes, t))
        if i < 0:
            raise InvalidInputError(f"t={t!r} is not a grid node")
        return i

    def __len__(self) -> int:
        return self.nodes.size

    def __repr__(self) -> str:
        return f"TimeGrid(T={self.T!r}, num_intervals={self.num_intervals})"
