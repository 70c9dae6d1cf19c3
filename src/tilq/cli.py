"""Command-line entry point: config ingestion, mode dispatch, result emission.

Configs are JSON documents (schema_version 1) declaring the problem from a
closed vocabulary of coefficient families — constant matrices,
polynomial-in-t matrices, and the discount families
exp(-rho (s - t)) K0 and (1 + k (s - t))^(-theta) K0 — so first-argument
derivatives stay analytic and configs stay auditable.

Modes: validate | solve | verify | simulate | compare-oracle.
Exit codes: 0 success, 2 validation failure, 3 nonconvergence,
4 verification failure, 1 unexpected error.

All emitted bytes are deterministic for a fixed config: JSON is written
with sorted keys, CSV numbers with 17 significant digits, and nothing
depends on wall-clock time or unseeded randomness.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import families
from .equilibrium import SampleSpec, build_policy, simulate
from .errors import (GridTooCoarseError, InvalidInputError, NonconvergenceError, TilqError,
                     TimeConsistencyError)
from .grids import TimeGrid
from .kernels import OneTimeMatrixFn, TwoTimeKernel, matrix_norm_many
from .oracle import classical_riccati
from .problem import LQProblem, validate_assumptions
from .riccati import (RiccatiSolution, SolveOptions, _json_safe, _write_csv,
                      solve_riccati)
from .verify import run_verification

MODES = ("validate", "solve", "verify", "simulate", "compare-oracle")


class ConfigError(TilqError, ValueError):
    """Config document failed schema validation; carries (path, message) list."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"{p}: {m}" for p, m in self.errors))


@dataclass
class RunConfig:
    """Validated run plan: the problem plus grid, mode, and output options."""

    problem: LQProblem
    grid: TimeGrid
    mode: str
    tol: float | None
    max_iter: int
    sim_t0: float
    sim_x0: np.ndarray | None
    certificate: SampleSpec
    out_dir: str | None
    corrupt_solution: bool


def _finite(val) -> bool:
    """val is a JSON number, not a bool, inside the float range."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)


# A parser takes (value, path, errors) and returns the parsed value, or None
# with its issues recorded.
def _number(*, minimum=None, above=None, integer=False, nullable=False):
    """Parser of a finite number, an int when integer, >= minimum and > above;
    null reads as None when nullable."""
    def parse(val, path, errors):
        if val is None and nullable:
            return None
        issue = ("must be a finite number" if not _finite(val)
                 else "must be an integer" if integer and int(val) != val
                 else f"must be >= {minimum:g}" if minimum is not None and val < minimum
                 else f"must be > {above:g}" if above is not None and val <= above
                 else None)
        if issue:
            errors.append((path, issue))
            return None
        return int(val) if integer else float(val)
    return parse


def _flag(val, path, errors):
    if isinstance(val, bool):
        return val
    errors.append((path, "must be true or false"))
    return None


def _vector(*, nullable=False):
    """Parser of a list of finite numbers, read as a tuple of floats."""
    def parse(val, path, errors):
        if val is None and nullable:
            return None
        if not isinstance(val, list):
            errors.append((path, "must be a list of numbers"))
            return None
        bad = [i for i, c in enumerate(val) if not _finite(c)]
        errors.extend((f"{path}[{i}]", "must be a finite number") for i in bad)
        return None if bad else tuple(float(c) for c in val)
    return parse


def _text(val, path, errors):
    """Parser of a string or null (read as None)."""
    if val is None or isinstance(val, str):
        return val
    errors.append((path, "must be a string or null"))
    return None


_REQUIRED = object()  # the default of an entry that must be given

# section -> key -> (default, parser); every section is optional
_SECTIONS = {
    "grid": {"N": (400, _number(minimum=16, integer=True))},
    "solver": {"tol": (None, _number(above=0.0, nullable=True)),
               "max_iter": (200, _number(minimum=1, integer=True))},
    "simulate": {"t0": (0.0, _number(minimum=0.0)), "x0": (None, _vector())},
    "certificate": {"times": (None, _vector(nullable=True)),
                    "eps_list": (None, _vector(nullable=True))},
    "output": {"dir": (None, _text)},
    "debug": {"corrupt_solution": (False, _flag)},
}
_PROBLEM = {"n": (_REQUIRED, _number(minimum=1, integer=True)),
            "m": (_REQUIRED, _number(minimum=1, integer=True)),
            "T": (1.0, _number(above=0.0))}
# each coefficient family's matrix entry and numbers besides "kind"
_FAMILIES = {"constant": ("base", {}), "polynomial": ("coefficients", {}),
             "exponential": ("base", {"rho": (_REQUIRED, _number(minimum=0.0))}),
             "hyperbolic": ("base", {"k": (_REQUIRED, _number(minimum=0.0)),
                                     "theta": (_REQUIRED, _number(above=0.0))})}


def _entries(obj, path, spec, errors, *, also=()) -> dict:
    """key -> obj[key] read by the key's parser, or its default, for each key
    of spec; an obj that is neither an object nor null (read as {}), a key
    outside spec and also, and a missing required key are issues."""
    if not isinstance(obj, dict):
        if obj is not None:
            errors.append((path, "must be an object"))
        obj = {}
    errors.extend((f"{path}.{key}", "unknown key") for key in obj
                  if key not in spec and key not in also)
    out = {}
    for key, (default, parse) in spec.items():
        if key in obj:
            out[key] = parse(obj[key], f"{path}.{key}", errors)
        elif default is _REQUIRED:
            errors.append((f"{path}.{key}", "missing"))
            out[key] = None
        else:
            out[key] = default
    return out


def _matrix(entry, path, shape, errors, *, symmetric=False):
    try:
        arr = np.asarray(entry, dtype=float)
    except (TypeError, ValueError, OverflowError):
        errors.append((path, "must be a numeric matrix"))
        return None
    if arr.shape != shape:
        errors.append((path, f"must have shape {shape[0]}x{shape[1]}"))
        return None
    if not np.all(np.isfinite(arr)):
        errors.append((path, "entries must be finite"))
        return None
    if symmetric and np.abs(arr - arr.T).max() > 1e-12 * (1.0 + np.abs(arr).max()):
        errors.append((path, "must be symmetric"))
        return None
    return arr


# factories by kind, each called as factory(matrix, *numbers, T)
_ONE_TIME = {"constant": OneTimeMatrixFn.constant, "polynomial": OneTimeMatrixFn.polynomial}
_TERMINAL = {**_ONE_TIME, "exponential": families.exponential_terminal,
             "hyperbolic": families.hyperbolic_terminal}


def _kernels(symmetric: bool) -> dict:
    return {kind: partial(fn, symmetry_required=symmetric) for kind, fn in (
        ("constant", TwoTimeKernel.constant), ("exponential", families.exponential_kernel),
        ("hyperbolic", families.hyperbolic_kernel))}


# problem coefficient -> (shape as its two dimensions, factories by kind,
# symmetric); A and S are zero when absent, the others must be given
_COEFFICIENTS = {"A": ("nn", _ONE_TIME, False), "B": ("nm", _ONE_TIME, False),
                 "Q": ("nn", _kernels(True), True), "S": ("mn", _kernels(False), False),
                 "M": ("mm", _kernels(True), True), "G": ("nn", _TERMINAL, True)}


def _family(entry, path, shape, T, errors, factories, *, symmetric=False):
    """The coefficient that entry declares from one of the families in
    factories, or None with its issues recorded.  Each kind accepts its own
    keys only."""
    if not isinstance(entry, dict):
        errors.append((path, "must be an object with a 'kind'"))
        return None
    kind = entry.get("kind")
    if kind not in factories:
        errors.append((f"{path}.kind", f"must be one of {', '.join(factories)}"))
        return None
    key, spec = _FAMILIES[kind]
    params = list(_entries(entry, path, spec, errors, also=("kind", key)).values())
    if kind == "polynomial":
        coeffs = entry.get("coefficients")
        if not isinstance(coeffs, list) or not coeffs:
            errors.append((f"{path}.coefficients", "must be a non-empty list"))
            return None
        mats = [_matrix(c, f"{path}.coefficients[{d}]", shape, errors, symmetric=symmetric)
                for d, c in enumerate(coeffs)]
        return None if any(mat is None for mat in mats) else factories[kind](mats, T)
    base = _matrix(entry.get("base"), f"{path}.base", shape, errors, symmetric=symmetric)
    if base is None or None in params:
        return None
    return factories[kind](base, *params, T)


def _problem(prob, errors):
    """(problem, n, T) from the problem section; problem is None, and n or T
    too when unreadable, with the issues recorded."""
    nums = _entries(prob, "problem", _PROBLEM, errors, also=_COEFFICIENTS)
    n, m, T = nums["n"], nums["m"], nums["T"]
    if not (n and m and T):
        return None, n, T
    dims = {"n": n, "m": m}
    coeffs = {}
    for name, (axes, factories, symmetric) in _COEFFICIENTS.items():
        shape = (dims[axes[0]], dims[axes[1]])
        if name in prob:
            coeffs[name] = _family(prob[name], f"problem.{name}", shape, T, errors,
                                   factories, symmetric=symmetric)
        elif name in ("A", "S"):
            coeffs[name] = factories["constant"](np.zeros(shape), T)
        else:
            errors.append((f"problem.{name}", "missing"))
    if errors or any(c is None for c in coeffs.values()):
        return None, n, T
    return LQProblem(**coeffs), n, T


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document into a RunConfig.

    Raises ConfigError carrying every schema violation as a (path, message)
    pair, so a bad config reports all its problems in one pass.
    """
    errors: list = []
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError([("$", f"not valid JSON: {e}")]) from e
    if not isinstance(doc, dict):
        raise ConfigError([("$", "top level must be an object")])
    errors.extend((key, "unknown key") for key in doc
                  if key not in {"schema_version", "mode", "problem", *_SECTIONS})
    if doc.get("schema_version") != 1:
        errors.append(("schema_version", "must be 1"))
    mode = doc.get("mode", "solve")
    if mode not in MODES:
        errors.append(("mode", f"must be one of {', '.join(MODES)}"))
    problem = n = T = None
    if isinstance(doc.get("problem"), dict):
        problem, n, T = _problem(doc["problem"], errors)
    else:
        errors.append(("problem", "missing or not an object"))
    cfg = {name: _entries(doc.get(name), name, spec, errors)
           for name, spec in _SECTIONS.items()}

    # the rules that read more than one entry
    solver, sim, cert = cfg["solver"], cfg["simulate"], cfg["certificate"]
    if sim["x0"] is not None and n and len(sim["x0"]) != n:
        errors.append(("simulate.x0", f"must be a finite vector of length {n}"))
    if mode == "simulate":
        sim_doc = doc.get("simulate")
        if not (isinstance(sim_doc, dict) and "x0" in sim_doc):
            errors.append(("simulate.x0", "required for simulate mode"))
        if T is not None and sim["t0"] is not None and sim["t0"] >= T:
            errors.append(("simulate.t0", "must lie in [0, T)"))
    for key, ok, rule in (("times", lambda t: T is None or 0.0 <= t < T, "must lie in [0, T)"),
                          ("eps_list", lambda e: e > 0.0, "must be positive")):
        errors.extend((f"certificate.{key}[{i}]", rule)
                      for i, c in enumerate(cert[key] or ()) if not ok(c))
        if cert[key] == ():
            errors.append((f"certificate.{key}", "must not be empty"))

    if errors:
        raise ConfigError(errors)
    return RunConfig(problem=problem, grid=TimeGrid.uniform(T, cfg["grid"]["N"]), mode=mode,
                     tol=solver["tol"], max_iter=solver["max_iter"], sim_t0=sim["t0"],
                     sim_x0=None if sim["x0"] is None else np.array(sim["x0"]),
                     certificate=SampleSpec(**cert), out_dir=cfg["output"]["dir"],
                     corrupt_solution=cfg["debug"]["corrupt_solution"])


def _json_bytes(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


class _Emitter:
    def __init__(self, out_dir, quiet, stdout):
        self.out_dir = out_dir
        self.quiet = quiet
        self.stdout = stdout
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)

    def say(self, line: str) -> None:
        if not self.quiet:
            self.stdout.write(line + "\n")

    def emit_json(self, name: str, obj) -> None:
        text = _json_bytes(obj)
        if self.out_dir:
            with open(os.path.join(self.out_dir, name), "w") as fh:
                fh.write(text)
        elif not self.quiet:
            self.stdout.write(text)

    def emit_csv(self, name: str, writer) -> None:
        if self.out_dir:
            with open(os.path.join(self.out_dir, name), "w") as fh:
                writer(fh)


def _corrupt(sol: RiccatiSolution) -> RiccatiSolution:
    """Debug hook: add a smooth symmetric bump (amplitude 0.2, centered at
    T/2, width T/8) so downstream verification must fail."""
    g = sol.grid
    bump = 0.2 * np.exp(-(((g.nodes - 0.5 * g.T) / (g.T / 8.0)) ** 2))
    values = sol.values + bump[:, None, None] * np.eye(sol.n)
    meta = dict(sol.meta)
    meta["corrupted"] = True
    return RiccatiSolution(g, values, meta)


def run(cfg: RunConfig, *, quiet: bool = False, stdout=None) -> int:
    """Execute a validated RunConfig; returns the process exit code."""
    out = _Emitter(cfg.out_dir, quiet, stdout or sys.stdout)
    p, g = cfg.problem, cfg.grid
    opts = SolveOptions(tol=cfg.tol, max_iter=cfg.max_iter)

    if cfg.mode == "validate":
        report = validate_assumptions(p, g)
        out.emit_json("validation.json", report.to_dict())
        out.say(f"validation: hard={'pass' if report.hard_ok else 'fail'} "
                f"advisory={'pass' if report.monotone_ok else 'fail'}")
        return 0 if report.hard_ok else 2

    sol = solve_riccati(p, g, opts)

    if cfg.mode == "solve":
        pol = build_policy(p, sol)
        out.emit_json("solution.json", sol.to_json_dict())
        out.emit_csv("solution.csv", sol.to_csv)
        out.emit_csv("gain.csv", lambda fh: _write_csv(
            fh, [f"gain_{i + 1}_{j + 1}" for i in range(p.m) for j in range(p.n)],
            sol.grid.nodes, pol.gain_many(sol.grid.nodes)))
        out.emit_json("meta.json", _json_safe(sol.meta))
        out.say(f"solve: ok windows={len(sol.meta.get('windows', []))} "
                f"iterations={sol.meta.get('iterations_total')} "
                f"mode={sol.meta.get('mode')}")
        return 0

    if cfg.mode == "verify":
        if cfg.corrupt_solution:
            sol = _corrupt(sol)
        rep = run_verification(p, g, opts, sample_spec=cfg.certificate,
                               solution=sol)
        out.emit_json("verification.json", rep.to_json_dict())
        out.say(f"verify: {'pass' if rep.passed else 'fail'} "
                f"riccati={rep.riccati['max_residual']:.3e} "
                f"certificate={'pass' if rep.certificate.passed else 'fail'}")
        return 0 if rep.passed else 4

    if cfg.mode == "simulate":
        pol = build_policy(p, sol)
        traj = simulate(pol, cfg.sim_t0, cfg.sim_x0)
        out.emit_csv("trajectory.csv", traj.to_csv)
        out.emit_json("trajectory.json", {
            "kind": "trajectory",
            "t0": float(traj.t0),
            "x0": [float(c) for c in traj.x0],
            "nodes": [float(t) for t in traj.nodes],
            "states": [[float(v) for v in row] for row in traj.states],
            "controls": [[float(v) for v in row] for row in traj.controls],
        })
        out.say(f"simulate: ok nodes={traj.nodes.size} "
                f"|X(T)|={float(np.abs(traj.states[-1]).max()):.6g}")
        return 0

    if cfg.mode == "compare-oracle":
        ref = classical_riccati(p, sol.grid)
        dev = float(np.abs(sol.values - ref.values).max())
        tol = 1e-6 * (1.0 + float(matrix_norm_many(ref.values).max()))
        ok = dev <= tol
        out.emit_json("compare.json", {
            "kind": "oracle_comparison",
            "max_deviation": dev, "tol": tol, "pass": bool(ok),
        })
        out.say(f"compare-oracle: {'pass' if ok else 'fail'} "
                f"max_deviation={dev:.3e} tol={tol:.3e}")
        return 0 if ok else 4

    raise InvalidInputError(f"unknown mode {cfg.mode!r}")


def _parse_args(argv):
    ap = argparse.ArgumentParser(
        prog="tilq",
        description="Linear-quadratic control with time-varying discounting: "
                    "solve the equilibrium Riccati equation and verify the "
                    "resulting policy.")
    ap.add_argument("--config", required=True, help="path to a JSON config")
    ap.add_argument("--mode", choices=MODES, help="override the config mode")
    ap.add_argument("--out", help="output directory for CSV/JSON artifacts")
    ap.add_argument("--grid", type=int, help="override grid.N")
    ap.add_argument("--tol", type=float, help="override solver.tol")
    ap.add_argument("--quiet", action="store_true", help="suppress stdout")
    return ap.parse_args(argv)


def _error_payload(kind: str, exc: Exception, **extra) -> dict:
    payload = {"error": {"type": kind, "message": str(exc)}}
    payload["error"].update(extra)
    return payload


def _with_overrides(text: str, args) -> str:
    """The config text with the command-line overrides merged into its
    document, for parse_config to validate with the rest; overrides that
    have no object to go into are dropped, and parse_config reports why."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return text
    if isinstance(doc, dict):
        for val, section, key in ((args.mode, None, "mode"), (args.out, "output", "dir"),
                                  (args.grid, "grid", "N"), (args.tol, "solver", "tol")):
            target = doc if section is None else doc.setdefault(section, {})
            if val is not None and isinstance(target, dict):
                target[key] = val
    return json.dumps(doc)


def main(argv=None) -> int:
    args = _parse_args(argv)
    stdout = sys.stdout
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as e:
        stdout.write(_json_bytes(_error_payload("config-io", e)))
        return 2
    try:
        cfg = parse_config(_with_overrides(text, args))
        return run(cfg, quiet=args.quiet, stdout=stdout)
    except ConfigError as e:
        stdout.write(_json_bytes({"error": {
            "type": "config",
            "message": "config failed validation",
            "issues": [{"path": p_, "message": m_} for p_, m_ in e.errors],
        }}))
        return 2
    except NonconvergenceError as e:
        stdout.write(_json_bytes(_error_payload(
            "nonconvergence", e, diagnostics=_json_safe(e.diagnostics))))
        return 3
    except (TimeConsistencyError, GridTooCoarseError, InvalidInputError) as e:
        stdout.write(_json_bytes(_error_payload("invalid-input", e)))
        return 2
    except TilqError as e:
        stdout.write(_json_bytes(_error_payload("runtime", e)))
        return 2
    except Exception as e:  # noqa: BLE001 - last-resort diagnostics
        stdout.write(_json_bytes(_error_payload("unexpected", e)))
        return 1


if __name__ == "__main__":
    sys.exit(main())
