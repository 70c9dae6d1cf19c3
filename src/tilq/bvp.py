"""Forward-backward boundary value system induced by a solved kernel.

The pair (X, phi) with X the closed-loop state and phi(s) = P(s) X(s) must
satisfy a coupled first-order system: the forward state equation and a
backward adjoint equation whose effective weight is the corrected state
weight evaluated along the trajectory.  This module builds candidate pairs
from a Riccati solution and measures how well they satisfy that system —
the residuals are an independent consistency check on P, not a second
solver.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._quad import integrate
from .errors import GridTooCoarseError, InvalidInputError
from .problem import LQProblem
from .equilibrium import build_policy, simulate
from .riccati import RiccatiSolution, q_bar


@dataclass(frozen=True)
class BvpSolution:
    """Candidate (X, phi) pair on nodes covering [t0, T]."""

    nodes: np.ndarray
    X: np.ndarray
    phi: np.ndarray
    t0: float
    x0: np.ndarray

    def to_csv(self, fh) -> None:
        n = self.X.shape[1]
        cols = (["t"] + [f"X_{i + 1}" for i in range(n)]
                + [f"phi_{i + 1}" for i in range(n)])
        fh.write(",".join(cols) + "\n")
        for k in range(self.nodes.size):
            row = [self.nodes[k], *self.X[k], *self.phi[k]]
            fh.write(",".join(format(float(val), ".17g") for val in row) + "\n")


def from_riccati(p: LQProblem, P: RiccatiSolution, t0: float, x0) -> BvpSolution:
    """Build (X, phi) from P: X the closed-loop state, phi(s) = P(s)X(s).

    The terminal coupling phi(T) = G(T) X(T) holds by construction because
    P(T) equals the terminal weight.
    """
    t0 = float(t0)
    if not 0.0 <= t0 < p.T:
        raise InvalidInputError("from_riccati needs t0 in [0, T)")
    traj = simulate(build_policy(p, P), t0, x0)
    phi = np.einsum("kij,kj->ki", P.eval_many(traj.nodes), traj.states)
    return BvpSolution(traj.nodes, traj.states, phi, t0, traj.x0)


def q_hat_quadratic(p: LQProblem, P: RiccatiSolution, sol: BvpSolution,
                    s: float) -> float:
    """Quadratic form of the corrected weight along (X, phi) at time s.

    <Q(s,s)X(s), X(s)> minus the terminal-weight drift term and the two
    integrals of first-argument kernel partials accumulated along the pair
    over [s, T].  s must be one of the solution nodes.
    """
    s = float(s)
    nodes = sol.nodes
    i = int(np.searchsorted(nodes, s))
    i = min(i, nodes.size - 1)
    if abs(nodes[i] - s) > 1e-9 * (1 + p.T):
        if i > 0 and abs(nodes[i - 1] - s) <= 1e-9 * (1 + p.T):
            i -= 1
        else:
            raise InvalidInputError("s must be a node of the solution")
    ts = nodes[i:]
    Xs = sol.X[i:]
    phis = sol.phi[i:]
    x_here, x_T = Xs[0], Xs[-1]
    out = float(x_here @ p.Q.eval(s, s) @ x_here)
    out -= float(x_T @ p.G.eval_dt(s) @ x_T)
    Qd = p.Q.eval_dt(s, ts)
    out -= float(integrate(np.einsum("ki,kij,kj->k", Xs, Qd, Xs), ts))
    Bv = p.B.eval(ts)
    rhs = np.einsum("kji,kj->ki", Bv, phis) \
        + np.einsum("kij,kj->ki", p.S.eval(ts, ts), Xs)
    w = np.linalg.solve(p.M.eval(ts, ts), rhs[..., None])[..., 0]
    Md = p.M.eval_dt(s, ts)
    Sd = p.S.eval_dt(s, ts)
    lead = np.einsum("kij,kj->ki", Md, w) - 2.0 * np.einsum("kij,kj->ki", Sd, Xs)
    out -= float(integrate(np.einsum("ki,ki->k", lead, w), ts))
    return out


def _derivative_matrix_apply(f: np.ndarray, h: float) -> np.ndarray:
    """Order-4 derivative of samples f (K, n) on a uniform grid."""
    K = f.shape[0]
    d = np.empty_like(f)
    d[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    d[0] = (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2] + 16.0 * f[3] - 3.0 * f[4]) / (12.0 * h)
    d[1] = (-3.0 * f[0] - 10.0 * f[1] + 18.0 * f[2] - 6.0 * f[3] + f[4]) / (12.0 * h)
    d[K - 2] = (3.0 * f[-1] + 10.0 * f[-2] - 18.0 * f[-3] + 6.0 * f[-4] - f[-5]) / (12.0 * h)
    d[K - 1] = (25.0 * f[-1] - 48.0 * f[-2] + 36.0 * f[-3] - 16.0 * f[-4] + 3.0 * f[-5]) / (12.0 * h)
    return d


def bvp_residual(p: LQProblem, P: RiccatiSolution, sol: BvpSolution
                 ) -> tuple[float, float]:
    """Max interior defect of the forward and backward equations.

    Derivatives come from order-4 finite differences on the (uniform) node
    set; the backward weight uses the corrected state weight q_bar, valid
    along pairs constructed from a Riccati solution.  Returns (res_X,
    res_phi) in the max norm over interior nodes.
    """
    ts = sol.nodes
    if ts.size < 5:
        raise GridTooCoarseError("bvp_residual needs at least 5 nodes")
    hs = np.diff(ts)
    h = float(np.median(hs))
    X, phi = sol.X, sol.phi
    if np.abs(hs - h).max() > 1e-9 * (1 + p.T):
        if ts.size >= 6 and np.abs(hs[1:] - np.median(hs[1:])).max() <= 1e-9 * (1 + p.T):
            ts, X, phi = ts[1:], X[1:], phi[1:]
            h = float(np.median(np.diff(ts)))
        else:
            raise InvalidInputError("bvp_residual needs uniform node spacing")
    dX = _derivative_matrix_apply(X, h)
    dphi = _derivative_matrix_apply(phi, h)
    An = p.A.eval(ts)
    Bn = p.B.eval(ts)
    Mn = p.M.eval(ts, ts)
    Sn = p.S.eval(ts, ts)
    MinvS = np.linalg.solve(Mn, Sn)
    MinvBt = np.linalg.solve(Mn, np.swapaxes(Bn, -1, -2))
    C = An - Bn @ MinvS
    rhs_X = np.einsum("kij,kj->ki", C, X) \
        - np.einsum("kij,kj->ki", Bn @ MinvBt, phi)
    Qb = q_bar(p, P, ts)
    W = Qb - np.swapaxes(Sn, -1, -2) @ MinvS
    rhs_phi = -np.einsum("kji,kj->ki", C, phi) - np.einsum("kij,kj->ki", W, X)
    res_X = float(np.abs(dX - rhs_X)[1:-1].max()) if ts.size > 2 else 0.0
    res_phi = float(np.abs(dphi - rhs_phi)[1:-1].max()) if ts.size > 2 else 0.0
    return res_X, res_phi
