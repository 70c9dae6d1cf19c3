"""Ready-made coefficient families.

Discount-type kernels scale a fixed base matrix by a profile of the lag
s - t; their first-argument partials are generated analytically.  The
exponential profile is e^{-rho*(s-t)}, the generalized-hyperbolic profile is
(1 + k*(s-t))^{-theta}.  Terminal weights use the same profiles in T - t so
their time derivative is nonnegative for PSD bases.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .kernels import OneTimeMatrixFn, TwoTimeKernel
from .problem import LQProblem


def _base_matrix(base) -> np.ndarray:
    base = np.atleast_2d(np.asarray(base, dtype=float))
    if not np.all(np.isfinite(base)):
        raise InvalidInputError("base matrix must be finite")
    return base


def _profile_terminal(base, horizon, profile, dprofile):
    """G(t) = profile(T - t) * base, with dG/dt = dprofile(T - t) * base."""
    base = _base_matrix(base)
    T = float(horizon)

    def at_lag(fn):
        return lambda t: fn(T - np.asarray(t, dtype=float))[..., None, None] * base

    return OneTimeMatrixFn(at_lag(profile), base.shape, horizon, at_lag(dprofile),
                           vectorized=True)


def _exponential_profile(rho):
    """e^{-rho*lag} and its derivative in t, rho*e^{-rho*lag}, for lag = s - t."""
    rho = float(rho)
    if rho < 0:
        raise InvalidInputError("rho must be >= 0")
    return (lambda lag: np.exp(-rho * lag)), (lambda lag: rho * np.exp(-rho * lag))


def _hyperbolic_profile(k, theta):
    """(1 + k*lag)^{-theta} and its derivative in t, k*theta*(1 + k*lag)^{-theta-1}."""
    k = float(k)
    theta = float(theta)
    if k < 0 or theta <= 0:
        raise InvalidInputError("hyperbolic profile needs k >= 0 and theta > 0")

    def profile(lag):
        u = 1.0 + k * lag
        if np.any(u <= 0):
            raise InvalidInputError("hyperbolic profile undefined: 1 + k*(s-t) <= 0")
        return u ** (-theta)

    def dprofile(lag):
        u = 1.0 + k * lag
        if np.any(u <= 0):
            raise InvalidInputError("hyperbolic profile undefined: 1 + k*(s-t) <= 0")
        return k * theta * u ** (-theta - 1.0)

    return profile, dprofile


def exponential_kernel(base, rho, horizon, *, symmetry_required=True) -> TwoTimeKernel:
    """k(t, s) = e^{-rho*(s-t)} * base."""
    return TwoTimeKernel.profile(*_exponential_profile(rho), _base_matrix(base), horizon,
                                 symmetry_required=symmetry_required)


def hyperbolic_kernel(base, k, theta, horizon, *, symmetry_required=True) -> TwoTimeKernel:
    """k(t, s) = (1 + k*(s-t))^{-theta} * base."""
    return TwoTimeKernel.profile(*_hyperbolic_profile(k, theta), _base_matrix(base), horizon,
                                 symmetry_required=symmetry_required)


def exponential_terminal(base, rho, horizon) -> OneTimeMatrixFn:
    """G(t) = e^{-rho*(T-t)} * base, with dG/dt = rho*G >= 0 for PSD base."""
    return _profile_terminal(base, horizon, *_exponential_profile(rho))


def hyperbolic_terminal(base, k, theta, horizon) -> OneTimeMatrixFn:
    """G(t) = (1 + k*(T-t))^{-theta} * base, increasing toward T for PSD base."""
    return _profile_terminal(base, horizon, *_hyperbolic_profile(k, theta))


def constant_problem(A, B, Q, S, M, G, T) -> LQProblem:
    """Problem with constant coefficient matrices (time-consistent)."""
    A = _base_matrix(A)
    B = _base_matrix(B)
    n, m = A.shape[0], B.shape[1]
    return LQProblem(
        A=OneTimeMatrixFn.constant(A, T),
        B=OneTimeMatrixFn.constant(B, T),
        Q=TwoTimeKernel.constant(Q, T, symmetry_required=True),
        S=TwoTimeKernel.constant(np.zeros((m, n)) if S is None else S, T),
        M=TwoTimeKernel.constant(M, T, symmetry_required=True),
        G=OneTimeMatrixFn.constant(G, T),
    )


def hyperbolic_problem(Q0, M0, G0, *, A=None, B=None, k=1.0, theta=1.0, T=1.0,
                       S0=None) -> LQProblem:
    """Problem whose weights discount hyperbolically in the lag s - t.

    Q(t,s) = (1+k(s-t))^{-theta} Q0, M likewise with base M0,
    G(t) = (1+k(T-t))^{-theta} G0; A, B constant (defaults 0 and identity);
    S constant S0 (default 0, which keeps the sign assumptions easy).
    """
    Q0 = _base_matrix(Q0)
    M0 = _base_matrix(M0)
    G0 = _base_matrix(G0)
    n = Q0.shape[0]
    m = M0.shape[0]
    A = np.zeros((n, n)) if A is None else _base_matrix(A)
    B = np.eye(n, m) if B is None else _base_matrix(B)
    S0 = np.zeros((m, n)) if S0 is None else _base_matrix(S0)
    return LQProblem(
        A=OneTimeMatrixFn.constant(A, T),
        B=OneTimeMatrixFn.constant(B, T),
        Q=hyperbolic_kernel(Q0, k, theta, T),
        S=TwoTimeKernel.constant(S0, T),
        M=hyperbolic_kernel(M0, k, theta, T),
        G=hyperbolic_terminal(G0, k, theta, T),
    )
