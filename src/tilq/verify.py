"""One-call verification: solve, then check every leg of the equivalence.

A solved kernel is accepted when (1) the integral-equation defect is small
at every node, (2) the forward-backward pair built from it satisfies the
boundary value system, (3) the cost of the induced policy reproduces the
quadratic value <P(t)x, x>, and (4) the deviation certificate passes.  Each
leg carries its own tolerance; the report records worst cases so failures
are diagnosable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bvp import bvp_residual, from_riccati
from .equilibrium import (PerturbationReport, SampleSpec, build_policy,
                          equilibrium_certificate, value_identity_gap)
from .grids import TimeGrid
from .problem import LQProblem, _check_horizon
from .riccati import (RiccatiSolution, SolveOptions, riccati_residual_profile,
                      solve_riccati)

RICCATI_TOL = 1e-6
BVP_TOL = 5e-6
VALUE_TOL = 1e-6


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the full equivalence check for one solved problem."""

    riccati: dict
    bvp: list
    value: list
    certificate: PerturbationReport
    passed: bool
    solution: RiccatiSolution

    def to_json_dict(self) -> dict:
        return {
            "kind": "verification_report",
            "pass": bool(self.passed),
            "riccati": self.riccati,
            "bvp": self.bvp,
            "value": self.value,
            "certificate": self.certificate.to_json_dict(),
        }


def default_state_samples(p: LQProblem, g: TimeGrid, count: int = 5):
    """Deterministic (t0, x0) pairs: spread-out node times, fixed-seed states."""
    nodes = g.nodes
    K = nodes.size
    rng = np.random.default_rng(20260815)
    fracs = np.linspace(0.0, 0.6, count)
    out = []
    for f in fracs:
        t0 = float(nodes[int(round(f * (K - 1)))])
        x0 = rng.standard_normal(p.n)
        x0 /= max(1.0, np.abs(x0).max())
        out.append((t0, x0))
    return out


def run_verification(p: LQProblem, g: TimeGrid,
                     opts: SolveOptions | None = None,
                     sample_spec: SampleSpec | None = None,
                     solution: RiccatiSolution | None = None
                     ) -> VerificationReport:
    """Solve (unless a solution is supplied) and check all equivalence legs
    at the states of default_state_samples.  A grid g or solution.grid that
    does not end at p.T is an InvalidInputError."""
    _check_horizon(p, g)
    if solution is not None:
        _check_horizon(p, solution.grid)
    sol = solution if solution is not None else solve_riccati(p, g, opts)
    profile = riccati_residual_profile(p, sol)
    r_max = float(profile.max())
    riccati_leg = {"max_residual": r_max, "tol": RICCATI_TOL,
                   "pass": bool(r_max <= RICCATI_TOL)}
    pol = build_policy(p, sol)
    bvp_leg = []
    value_leg = []
    for t0, x0 in default_state_samples(p, sol.grid):
        pair = from_riccati(p, sol, t0, x0)
        res_X, res_phi = bvp_residual(p, sol, pair)
        tol = BVP_TOL * (1.0 + float(np.abs(x0).max()))
        bvp_leg.append({
            "t0": float(t0), "x0": [float(c) for c in x0],
            "res_X": res_X, "res_phi": res_phi, "tol": tol,
            "pass": bool(max(res_X, res_phi) <= tol),
        })
        quad = float(x0 @ sol(float(t0)) @ x0)
        gap = value_identity_gap(p, pol, t0, x0)
        vtol = VALUE_TOL * (1.0 + abs(quad))
        value_leg.append({
            "t0": float(t0), "x0": [float(c) for c in x0],
            "gap": gap, "quadratic": quad, "tol": vtol,
            "pass": bool(gap <= vtol),
        })
    cert = equilibrium_certificate(p, pol, sample_spec)
    passed = (riccati_leg["pass"] and all(e["pass"] for e in bvp_leg)
              and all(e["pass"] for e in value_leg) and cert.passed)
    return VerificationReport(riccati_leg, bvp_leg, value_leg, cert,
                              bool(passed), sol)
