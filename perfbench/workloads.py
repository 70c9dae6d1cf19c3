"""Inputs from a seed, and the references that outputs are checked against.

Workloads:
  solve-n3   solve_riccati(p, g) on the hyperbolic n=3, m=2 instance, N=400.
  verify-n3  run_verification(p, g, solution=sol) on the same instance.
  cli-cold   a fresh `python -m tilq.cli --mode verify` process on the
             scalar hyperbolic config, N=200.

The seed jitters the entries of a fixed instance by about 0.1 % (seed 0 is
the instance itself), so every seed is a new input of the same difficulty.
"""
from __future__ import annotations

import json
import os
import sys

import numpy as np

import tilq
from tilq import RiccatiSolution, SolveOptions, TimeGrid, hyperbolic_problem

JITTER = 1e-3
N_GRID = 400
CLI_N_GRID = 200
# An output is accurate when both hold; the measured values are ~1e-7 or less.
P_ERR_BOUND = 1e-6
RESIDUAL_BOUND = 1e-6

# The contents of the demo config hyperbolic_verify.json.
CLI_CONFIG = {
    "schema_version": 1,
    "mode": "verify",
    "problem": {
        "n": 1, "m": 1, "T": 1.0,
        "A": {"kind": "constant", "base": [[0.0]]},
        "B": {"kind": "constant", "base": [[1.0]]},
        "Q": {"kind": "hyperbolic", "base": [[1.0]], "k": 1.0, "theta": 1.0},
        "S": {"kind": "constant", "base": [[0.0]]},
        "M": {"kind": "hyperbolic", "base": [[1.0]], "k": 1.0, "theta": 1.0},
        "G": {"kind": "hyperbolic", "base": [[1.0]], "k": 1.0, "theta": 1.0},
    },
    "grid": {"N": CLI_N_GRID},
}


def _jitter(seed: int, shape) -> np.ndarray:
    if seed == 0:
        return np.zeros(shape)
    return JITTER * np.random.default_rng(seed).standard_normal(shape)


def n3_instance(seed: int):
    """Hyperbolic n=3, m=2, k=theta=1, T=1 with A=0.3 randn, B=randn (rng 0),
    each entry jittered by the seed."""
    rng = np.random.default_rng(0)
    A = 0.3 * rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 2))
    d = _jitter(seed, 15)
    A = A + 0.3 * d[:9].reshape(3, 3)
    B = B + d[9:].reshape(3, 2)
    return hyperbolic_problem(np.eye(3), np.eye(2), np.eye(3), A=A, B=B,
                              k=1.0, theta=1.0, T=1.0)


def cli_config(seed: int) -> dict:
    """The demo config with A, B and the discount rate k jittered by the seed."""
    d = _jitter(seed, 3)
    cfg = json.loads(json.dumps(CLI_CONFIG))
    prob = cfg["problem"]
    prob["A"]["base"] = [[float(d[0])]]
    prob["B"]["base"] = [[1.0 + float(d[1])]]
    for name in ("Q", "M", "G"):
        prob[name]["k"] = 1.0 + float(d[2])
    return cfg


def build(workload: str, seed: int, solution: RiccatiSolution | None = None):
    """Freshly built inputs of one operation.

    verify-n3 solves its instance unless given a solution, whose values are
    then copied into a new RiccatiSolution on the new grid. Building new
    objects for every operation keeps any cache that the program attaches to
    a problem, kernel or solution from carrying over to the next operation.
    """
    if workload == "cli-cold":
        from tilq.cli import parse_config
        return {"config": parse_config(json.dumps(cli_config(seed)))}
    p = n3_instance(seed)
    g = TimeGrid.uniform(1.0, N_GRID)
    inputs = {"problem": p, "grid": g}
    if workload == "verify-n3":
        inputs["solution"] = (tilq.solve_riccati(p, g) if solution is None
                              else RiccatiSolution(g, solution.values, solution.meta))
    return inputs


def coarse_reference(workload: str, seed: int) -> np.ndarray:
    """P of the workload's instance on the grid of half the intervals."""
    if workload == "cli-cold":
        p, N = build(workload, seed)["config"].problem, CLI_N_GRID
    else:
        p, N = n3_instance(seed), N_GRID
    return tilq.solve_riccati(p, TimeGrid.uniform(1.0, N // 2),
                              SolveOptions(validate=False)).values


def p_err(values: np.ndarray, coarse: np.ndarray) -> float:
    """Richardson estimate of the error of P, for a method of order h^4:
    max over the shared nodes of the row-sum norm of (P - P_coarse) / 15.
    values holds P on every node of the grid, coarse on every second one."""
    return float(np.abs(values[::2] - coarse).sum(axis=-1).max()) / 15.0


def cli_p_err(report: dict, coarse: np.ndarray) -> float:
    """p_err at the value-leg samples of a scalar verification report: there
    quadratic = x0 P(t0) x0, and every t0 is an even node of the grid."""
    err = 0.0
    for leg in report["value"]:
        x0 = leg["x0"][0]
        i = int(round(leg["t0"] * CLI_N_GRID))
        if i % 2:
            raise ValueError(f"value-leg sample t0={leg['t0']} is not an even node")
        err = max(err, abs(leg["quadratic"] / (x0 * x0) - coarse[i // 2, 0, 0]))
    return err / 15.0


def cli_command(config_path: str, out_dir: str, spans_path: str | None = None):
    """The CLI verify child; with spans_path, run under the tracer."""
    args = ["--config", config_path, "--mode", "verify", "--out", out_dir, "--quiet"]
    if spans_path is None:
        return [sys.executable, "-m", "tilq.cli", *args]
    here = os.path.dirname(os.path.abspath(__file__))
    return [sys.executable, os.path.join(here, "traced_cli.py"), spans_path, *args]
