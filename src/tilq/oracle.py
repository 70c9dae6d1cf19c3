"""Independent reference computations for tests and the compare CLI mode.

classical_riccati integrates the standard backward matrix Riccati equation,
which is a valid reference exactly when all evaluation-time dependence is
absent (constant-in-first-argument kernels, constant terminal weight).  It
reads the weights' partials at every node pair of the grid, or every
distinct lag, on the walk that validation reads (problem._weight_tables),
and answers with a RiccatiSolution.
brute_force_cost evaluates the cost functional with a deliberately different
scheme — order-2 state integration and trapezoid quadrature on a finer grid
— so agreement with the order-4 path is evidence rather than tautology.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, TimeConsistencyError
from .grids import TimeGrid
from .kernels import matrix_norm_many
from .problem import LQProblem, _check_horizon, _vector, _weight_tables
from .propagators import half_times
from .riccati import RiccatiSolution
from .equilibrium import _as_control


def classical_riccati(p: LQProblem, g: TimeGrid) -> RiccatiSolution:
    """Backward order-4 integration of the standard Riccati equation, as a
    RiccatiSolution on g with meta {"reference": "classical"}.

    Valid only for time-consistent data: the first-argument partials of Q,
    S and M must vanish at every node pair of g (at every distinct lag of g
    when all three are lag kernels), and the derivative of G at every node.
    A row-sum norm that is not <= 1e-12, NaN included, raises
    TimeConsistencyError: the classical equation is then simply the wrong
    reference.  A non-finite integration, or a grid that does not end at
    p.T, raises InvalidInputError.
    """
    _check_horizon(p, g)
    nodes = g.nodes
    defect = matrix_norm_many(p.G.eval_dt(nodes)).max()
    for table in _weight_tables(p, nodes):
        # np.max, not max: a NaN partial must stay NaN
        defect = np.max([defect] + [matrix_norm_many(k.eval_dt(table.t, table.s)).max()
                                    for k in (p.Q, p.S, p.M)])
    if not defect <= 1e-12:
        raise TimeConsistencyError(
            f"kernels depend on evaluation time (max partial {defect:.3e}); "
            "the classical equation is not a valid reference here")
    K = nodes.size
    half = half_times(nodes)
    Ah = p.A.eval(half)
    Bh = p.B.eval(half)
    Mh = p.M.eval(half, half)
    Sh = p.S.eval(half, half)
    Qh = p.Q.eval(half, half)

    def rhs(j: int, P: np.ndarray) -> np.ndarray:
        A, B, M, S, Q = Ah[j], Bh[j], Mh[j], Sh[j], Qh[j]
        gain = np.linalg.solve(M, B.T @ P + S)
        return -(A.T @ P) - P @ A - Q + (P @ B + S.T) @ gain

    values = np.empty((K, p.n, p.n))
    values[-1] = 0.5 * (p.G.eval(g.T) + p.G.eval(g.T).T)
    for i in range(K - 1, 0, -1):
        h = nodes[i] - nodes[i - 1]
        P = values[i]
        k1 = rhs(2 * i, P)
        k2 = rhs(2 * i - 1, P - 0.5 * h * k1)
        k3 = rhs(2 * i - 1, P - 0.5 * h * k2)
        k4 = rhs(2 * i - 2, P - h * k3)
        P0 = P - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        values[i - 1] = 0.5 * (P0 + P0.T)
    return RiccatiSolution(g, values, {"reference": "classical"})


def brute_force_cost(p: LQProblem, t: float, x, u, refinement: int = 8) -> float:
    """Direct cost evaluation on a refinement-times-finer uniform grid.

    u is any control cost takes, read the same way: the affine control
    u(s, x) = gain(s) x + shift(s) of a policy (gain), a constant vector or
    a time function u(s) (shift).  The state follows an explicit order-2
    scheme (Heun) on x' = (A + B gain) x + B shift and the running cost uses
    the trapezoid rule; both choices differ on purpose from the order-4
    path so the two evaluations are independent witnesses.  The fine grid
    has 64 * refinement intervals on [t, T]; refinement is an integer >= 4.
    """
    if not isinstance(refinement, (int, np.integer)) or refinement < 4:
        raise InvalidInputError(f"refinement must be an integer >= 4, not {refinement!r}")
    t = float(t)
    T = p.T
    if not 0.0 <= t <= T + 1e-12 * (1 + T):
        raise InvalidInputError("cost needs t in [0, T]")
    x = _vector(x, p.n, "state x")
    if T - t <= 1e-12 * (1 + T):
        return float(x @ p.G.eval(t) @ x)
    ts = np.linspace(t, T, 64 * refinement + 1)
    D, K = _as_control(u, p.m).tables(p, ts)
    Z = np.empty((ts.size, D.shape[-1]))
    Z[0] = np.concatenate([x, np.ones(D.shape[-1] - p.n)])
    for i in range(ts.size - 1):
        h = ts[i + 1] - ts[i]
        f0 = D[i] @ Z[i]
        Z[i + 1] = Z[i] + 0.5 * h * (f0 + D[i + 1] @ (Z[i] + h * f0))
    X, U = Z[:, :p.n], np.einsum("kij,kj->ki", K, Z)
    vals = (np.einsum("ki,kij,kj->k", X, p.Q.eval(t, ts), X)
            + 2.0 * np.einsum("ki,kij,kj->k", U, p.S.eval(t, ts), X)
            + np.einsum("ki,kij,kj->k", U, p.M.eval(t, ts), U))
    # the trapezoid rule on the uniform fine grid
    running = (T - t) / (ts.size - 1) * float(vals.sum() - 0.5 * (vals[0] + vals[-1]))
    return running + float(X[-1] @ p.G.eval(t) @ X[-1])
