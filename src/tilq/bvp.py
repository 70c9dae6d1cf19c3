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

from ._quad import derivative, integrate
from .errors import GridTooCoarseError, InvalidInputError
from .problem import LQProblem
from .equilibrium import build_policy, simulate
from .grids import node_index
from .propagators import feedback_tables
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
    P(T) equals the terminal weight.  The pair starts where simulate starts
    the path, which refuses a t0 outside [0, T).
    """
    traj = simulate(build_policy(p, P), t0, x0)
    phi = np.einsum("kij,kj->ki", P.eval_many(traj.nodes), traj.states)
    return BvpSolution(traj.nodes, traj.states, phi, traj.t0, traj.x0)


def q_hat_quadratic(p: LQProblem, P: RiccatiSolution, sol: BvpSolution,
                    s: float) -> float:
    """Quadratic form of the corrected weight along (X, phi) at time s.

    <Q(s,s)X(s), X(s)> minus the terminal-weight drift term and the two
    integrals of first-argument kernel partials accumulated along the pair
    over [s, T].  s must be one of the solution nodes.
    """
    s = float(s)
    i = int(node_index(sol.nodes, s))
    if i < 0:
        raise InvalidInputError("s must be a node of the solution")
    ts = sol.nodes[i:]
    Xs = sol.X[i:]
    phis = sol.phi[i:]
    x_here, x_T = Xs[0], Xs[-1]
    out = float(x_here @ p.Q.eval(s, s) @ x_here)
    out -= float(x_T @ p.G.eval_dt(s) @ x_T)
    Qd = p.Q.eval_dt(s, ts)
    out -= float(integrate(np.einsum("ki,kij,kj->k", Xs, Qd, Xs), ts))
    MiBt, MiS = feedback_tables(p, ts)
    w = np.einsum("kij,kj->ki", MiBt, phis) + np.einsum("kij,kj->ki", MiS, Xs)
    Md = p.M.eval_dt(s, ts)
    Sd = p.S.eval_dt(s, ts)
    lead = np.einsum("kij,kj->ki", Md, w) - 2.0 * np.einsum("kij,kj->ki", Sd, Xs)
    out -= float(integrate(np.einsum("ki,ki->k", lead, w), ts))
    return out


def bvp_residual(p: LQProblem, P: RiccatiSolution, sol: BvpSolution
                 ) -> tuple[float, float]:
    """Max interior defect of the forward and backward equations.

    Derivatives come from _quad.derivative, the fourth-order polynomial
    stencil on the node set, uniform or not; the backward weight uses the
    corrected state weight q_bar, valid along pairs constructed from a
    Riccati solution.  Returns (res_X, res_phi) in the max norm over
    interior nodes.
    """
    ts = sol.nodes
    if ts.size < 5:
        raise GridTooCoarseError("bvp_residual needs at least 5 nodes")
    X, phi = sol.X, sol.phi
    dX, dphi = np.moveaxis(derivative(ts, np.stack([X, phi], axis=1)), 1, 0)
    Bn = p.B.eval(ts)
    MiBt, MiS = feedback_tables(p, ts)
    C = p.A.eval(ts) - Bn @ MiS
    rhs_X = np.einsum("kij,kj->ki", C, X) - np.einsum("kij,kj->ki", Bn @ MiBt, phi)
    W = q_bar(p, P, ts) - np.swapaxes(p.S.eval(ts, ts), -1, -2) @ MiS
    rhs_phi = -np.einsum("kji,kj->ki", C, phi) - np.einsum("kij,kj->ki", W, X)
    res_X = float(np.abs(dX - rhs_X)[1:-1].max())
    res_phi = float(np.abs(dphi - rhs_phi)[1:-1].max())
    return res_X, res_phi
