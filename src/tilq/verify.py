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


_STATE_SEED = 20260815
# The first 40 draws of np.random.default_rng(_STATE_SEED).standard_normal,
# written with repr so that they round-trip bit for bit.
_STATE_DRAWS = (
    0.25192859815738317, 0.5470564325817086, 0.06940101551660265,
    -0.18322976220469084, -0.1657153301845341, -1.4244484668168733,
    -0.6840649919517736, -2.4124487853532783, 0.1746371454732344,
    0.8895583540809934, 1.0558162766139239, 0.9147623078262546,
    0.24857622105759294, 0.29449360110040446, -0.6760615573619203,
    -0.21401015445379862, 0.8933365856128114, 0.48989998808539004,
    0.8217140067235236, -0.29627547654503256, -0.8289143432382152,
    1.58211431417086, -0.6906326258305919, -1.7235561338465337,
    -0.5260753188347947, -0.4024647299668905, 0.26061113141125786,
    1.3280049723711325, 1.3934235774626333, 0.6281258711452166,
    2.130033937908504, 0.5720992448533802, -0.0021744407215428217,
    -0.2703583263900618, 0.7475556280505848, 0.20543452343638596,
    1.6888492516456381, 0.33332357889609016, -0.6333271880981226,
    -1.590086054633578,
)


def default_state_samples(p: LQProblem, g: TimeGrid, count: int = 5):
    """Deterministic (t0, x0) pairs: spread-out node times, fixed-seed states.

    Sample k takes the draws k*n ... (k+1)*n - 1 of
    np.random.default_rng(_STATE_SEED).standard_normal, scaled down to a
    largest entry of 1 when it exceeds 1: the states of one standard_normal(n)
    call per sample.  The first 40 draws are kept in _STATE_DRAWS, so up to
    count*n = 40 (n <= 8 at the default five samples) no generator is built
    and numpy.random is never imported; that import costs a cold CLI verify
    about 5.8 ms and 5 MiB.  Those states also stay put should numpy change
    its normal stream, which its policy (NEP 19) does not freeze.  Larger
    requests draw from the generator.
    """
    nodes = g.nodes
    K = nodes.size
    fracs = np.linspace(0.0, 0.6, count)
    size = count * p.n
    draws = (np.array(_STATE_DRAWS[:size]) if size <= len(_STATE_DRAWS)
             else np.random.default_rng(_STATE_SEED).standard_normal(size))
    out = []
    for f, x in zip(fracs, draws.reshape(count, p.n)):
        t0 = float(nodes[int(round(f * (K - 1)))])
        out.append((t0, x / max(1.0, np.abs(x).max())))
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
