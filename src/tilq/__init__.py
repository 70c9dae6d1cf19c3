"""tilq: linear-quadratic control with evaluation-time-dependent weights.

Solve the equilibrium Riccati integral equation by windowed fixed-point
iteration, build the induced linear feedback policy, and verify it four
independent ways: integral-equation residuals, the forward-backward
boundary value system, the value identity, and first-order deviation
certificates on the cost functional itself.
"""
from .bvp import BvpSolution, bvp_residual, from_riccati, q_hat_quadratic
from .equilibrium import (EquilibriumPolicy, PerturbationReport,
                          PerturbationSample, SampleSpec, Trajectory,
                          build_policy, cost, equilibrium_certificate,
                          perturbation_limit_closed_form,
                          perturbation_limit_finite_eps, simulate,
                          value_identity_gap)
from .errors import (GridTooCoarseError, InvalidInputError,
                     NonconvergenceError, NotPositiveDefiniteError, TilqError,
                     TimeConsistencyError)
from .families import (constant_problem, exponential_kernel,
                       exponential_terminal, hyperbolic_kernel,
                       hyperbolic_problem, hyperbolic_terminal)
from .grids import TimeGrid
from .kernels import (NormBundle, OneTimeMatrixFn, TwoTimeKernel,
                      kernel_norms, matrix_norm)
from .oracle import brute_force_cost, classical_riccati
from .problem import CheckResult, LQProblem, ValidationReport, validate_assumptions
from .propagators import Propagator, fundamental_solution
from .riccati import (ContractionConstants, RiccatiSolution, SolveOptions,
                      contraction_constants, q_bar, riccati_residual,
                      riccati_residual_profile, solve_riccati, upsilon)
from .verify import VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "BvpSolution", "bvp_residual", "from_riccati", "q_hat_quadratic",
    "EquilibriumPolicy", "PerturbationReport", "PerturbationSample",
    "SampleSpec", "Trajectory", "build_policy", "cost",
    "equilibrium_certificate", "perturbation_limit_closed_form",
    "perturbation_limit_finite_eps", "simulate", "value_identity_gap",
    "GridTooCoarseError", "InvalidInputError", "NonconvergenceError",
    "NotPositiveDefiniteError", "TilqError", "TimeConsistencyError",
    "constant_problem", "exponential_kernel", "exponential_terminal",
    "hyperbolic_kernel", "hyperbolic_problem", "hyperbolic_terminal",
    "TimeGrid",
    "NormBundle", "OneTimeMatrixFn", "TwoTimeKernel", "kernel_norms",
    "matrix_norm",
    "brute_force_cost", "classical_riccati",
    "CheckResult", "LQProblem", "ValidationReport", "validate_assumptions",
    "Propagator", "fundamental_solution",
    "ContractionConstants", "RiccatiSolution", "SolveOptions",
    "contraction_constants", "q_bar",
    "riccati_residual", "riccati_residual_profile", "solve_riccati", "upsilon",
    "VerificationReport", "run_verification",
    "__version__",
]
