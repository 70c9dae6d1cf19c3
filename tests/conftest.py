import json
from pathlib import Path

import numpy as np
import pytest

from tilq import SolveOptions, TimeGrid, constant_problem, hyperbolic_problem, solve_riccati


@pytest.fixture(scope="session")
def tanh_problem():
    # scalar A=0, B=1, Q=M=1, S=0, G=0: P(t) = tanh(T - t)
    return constant_problem(A=0.0, B=1.0, Q=1.0, S=0.0, M=1.0, G=0.0, T=1.0)


@pytest.fixture(scope="session")
def decoupled_problem():
    # A = B = S = 0: P(t) = G0 + (T - t) Q0
    return constant_problem(A=0.0, B=0.0, Q=2.0, S=0.0, M=1.0, G=0.5, T=1.0)


@pytest.fixture(scope="session")
def hyperbolic_scalar():
    # scalar hyperbolic discounting, k = theta = 1, with control feedback
    return hyperbolic_problem(1.0, 1.0, 1.0, B=1.0, k=1.0, theta=1.0, T=1.0)


@pytest.fixture(scope="session")
def hyperbolic_decoupled():
    # B = 0 keeps the gain zero but the nonlocal term F active;
    # P(t) = log(2 - t) + 1/(2 - t) in closed form
    return hyperbolic_problem(1.0, 1.0, 1.0, B=0.0, k=1.0, theta=1.0, T=1.0)


@pytest.fixture(scope="session")
def grid200():
    return TimeGrid.uniform(1.0, 200)


@pytest.fixture(scope="session")
def tanh_solution(tanh_problem, grid200):
    return solve_riccati(tanh_problem, grid200)


@pytest.fixture(scope="session")
def hyperbolic_solution(hyperbolic_scalar, grid200):
    return solve_riccati(hyperbolic_scalar, grid200)


def _n3_drift():
    """A = 0.3 randn (3 x 3) and B = randn (3 x 2), drawn from seed 0."""
    rng = np.random.default_rng(0)
    return 0.3 * rng.standard_normal((3, 3)), rng.standard_normal((3, 2))


def n3_problem():
    """The benchmark's n3 instance: hyperbolic Q, M and G with identity
    bases, k = theta = 1 and T = 1, and the drift of _n3_drift."""
    A, B = _n3_drift()
    return hyperbolic_problem(np.eye(3), np.eye(2), np.eye(3), A=A, B=B,
                              k=1.0, theta=1.0, T=1.0)


def write_n3_config(path):
    """n3_problem at N=400 written to path as a CLI config; returns path."""
    A, B = _n3_drift()

    def hyperbolic(n):
        return {"kind": "hyperbolic", "base": np.eye(n).tolist(), "k": 1.0, "theta": 1.0}

    problem = {"n": 3, "m": 2, "T": 1.0,
               "A": {"kind": "constant", "base": A.tolist()},
               "B": {"kind": "constant", "base": B.tolist()},
               "Q": hyperbolic(3), "M": hyperbolic(2), "G": hyperbolic(3),
               "S": {"kind": "constant", "base": np.zeros((2, 3)).tolist()}}
    Path(path).write_text(json.dumps({"schema_version": 1, "problem": problem,
                                      "grid": {"N": 400}}))
    return path


def random_tc_instance(rng, n, m):
    """Random time-consistent instance: constant kernels, PD M, PSD Q and G."""
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, m))
    Wq = rng.standard_normal((n, n))
    Q = Wq @ Wq.T / n
    Wg = rng.standard_normal((n, n))
    G = Wg @ Wg.T / n
    Wm = rng.standard_normal((m, m))
    M = Wm @ Wm.T / m + np.eye(m)
    return constant_problem(A=A, B=B, Q=Q, S=np.zeros((m, n)), M=M, G=G, T=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


@pytest.fixture(scope="session")
def fast_opts():
    return SolveOptions(tol=1e-11)
