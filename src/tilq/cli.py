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
from .kernels import OneTimeMatrixFn, TwoTimeKernel
from .oracle import classical_riccati
from .problem import LQProblem, validate_assumptions
from .riccati import RiccatiSolution, SolveOptions, _json_safe, solve_riccati
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
    window_override: float | None
    sim_t0: float
    sim_x0: np.ndarray | None
    certificate: SampleSpec | None
    compare_tol: float | None
    out_dir: str | None
    formats: tuple
    corrupt_solution: bool


def _check_keys(obj, allowed, path, errors) -> None:
    for key in obj:
        if key not in allowed:
            errors.append((f"{path}.{key}" if path else key, "unknown key"))


def _finite(val) -> bool:
    """val is a JSON number, not a bool, inside the float range."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)


def _number(obj, key, path, errors, *, default=None, required=False,
            minimum=None, integer=False, allow_none=False):
    if key not in obj:
        if required:
            errors.append((f"{path}.{key}", "missing"))
        return default
    val = obj[key]
    if val is None and allow_none:
        return None
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        errors.append((f"{path}.{key}", "must be a number"))
        return default
    if not _finite(val):
        errors.append((f"{path}.{key}", "must be finite"))
        return default
    if integer and int(val) != val:
        errors.append((f"{path}.{key}", "must be an integer"))
        return default
    if minimum is not None and val < minimum:
        errors.append((f"{path}.{key}", f"must be >= {minimum}"))
        return default
    return int(val) if integer else float(val)


def _flag(obj, key, path, errors, default: bool) -> bool:
    val = obj.get(key, default)
    if not isinstance(val, bool):
        errors.append((f"{path}.{key}", "must be true or false"))
        return default
    return val


def _vector(entry, path, errors):
    """entry as a tuple of finite floats, or None with its issues recorded."""
    if not isinstance(entry, list):
        errors.append((path, "must be a list of numbers"))
        return None
    bad = [i for i, c in enumerate(entry) if not _finite(c)]
    errors.extend((f"{path}[{i}]", "must be a finite number") for i in bad)
    return None if bad else tuple(float(c) for c in entry)


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


# the entries each coefficient family reads besides "kind": its matrix (or
# matrices), then its numbers
_FAMILY_KEYS = {"constant": ("base",), "polynomial": ("coefficients",),
                "exponential": ("base", "rho"), "hyperbolic": ("base", "k", "theta")}
# factories by kind, each called as factory(base, *parameters, T)
_ONE_TIME = {"constant": OneTimeMatrixFn.constant, "polynomial": OneTimeMatrixFn.polynomial}
_TERMINAL = {**_ONE_TIME, "exponential": families.exponential_terminal,
             "hyperbolic": families.hyperbolic_terminal}


def _kernels(symmetric: bool) -> dict:
    return {kind: partial(fn, symmetry_required=symmetric) for kind, fn in (
        ("constant", TwoTimeKernel.constant), ("exponential", families.exponential_kernel),
        ("hyperbolic", families.hyperbolic_kernel))}


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
    _check_keys(entry, {"kind", *_FAMILY_KEYS[kind]}, path, errors)
    if kind == "polynomial":
        coeffs = entry.get("coefficients")
        if not isinstance(coeffs, list) or not coeffs:
            errors.append((f"{path}.coefficients", "must be a non-empty list"))
            return None
        mats = []
        for d, c in enumerate(coeffs):
            mat = _matrix(c, f"{path}.coefficients[{d}]", shape, errors,
                          symmetric=symmetric)
            if mat is None:
                return None
            mats.append(mat)
        return factories[kind](mats, T)
    base = _matrix(entry.get("base"), f"{path}.base", shape, errors,
                   symmetric=symmetric)
    params = [_number(entry, key, path, errors, required=True)
              for key in _FAMILY_KEYS[kind][1:]]
    if base is None or None in params:
        return None
    if kind == "hyperbolic" and 1.0 + params[0] * T <= 0.0:
        errors.append((f"{path}.k", "needs 1 + k*T > 0"))
        return None
    return factories[kind](base, *params, T)


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
    _check_keys(doc, {"schema_version", "mode", "problem", "grid", "solver",
                      "simulate", "certificate", "compare", "output", "debug"},
                "", errors)
    if doc.get("schema_version") != 1:
        errors.append(("schema_version", "must be 1"))
    mode = doc.get("mode", "solve")
    if mode not in MODES:
        errors.append(("mode", f"must be one of {', '.join(MODES)}"))

    prob = doc.get("problem")
    problem = None
    n = m = None
    T = None
    if not isinstance(prob, dict):
        errors.append(("problem", "missing or not an object"))
    else:
        _check_keys(prob, {"n", "m", "T", "A", "B", "Q", "S", "M", "G"},
                    "problem", errors)
        n = _number(prob, "n", "problem", errors, required=True, minimum=1,
                    integer=True)
        m = _number(prob, "m", "problem", errors, required=True, minimum=1,
                    integer=True)
        T = _number(prob, "T", "problem", errors, default=1.0, minimum=0.0)
        if T is not None and T <= 0.0:
            errors.append(("problem.T", "must be positive"))
        if n and m and T:
            zeros_nn = {"kind": "constant", "base": np.zeros((n, n)).tolist()}
            zeros_mn = {"kind": "constant", "base": np.zeros((m, n)).tolist()}
            A = _family(prob.get("A", zeros_nn), "problem.A", (n, n), T, errors, _ONE_TIME)
            if "B" not in prob:
                errors.append(("problem.B", "missing"))
                B = None
            else:
                B = _family(prob["B"], "problem.B", (n, m), T, errors, _ONE_TIME)
            for name in ("Q", "M", "G"):
                if name not in prob:
                    errors.append((f"problem.{name}", "missing"))
            Q = _family(prob.get("Q", zeros_nn), "problem.Q", (n, n), T, errors,
                        _kernels(True), symmetric=True)
            S = _family(prob.get("S", zeros_mn), "problem.S", (m, n), T, errors,
                        _kernels(False))
            M = _family(prob.get("M", {"kind": "constant", "base": np.eye(m).tolist()}),
                        "problem.M", (m, m), T, errors, _kernels(True), symmetric=True)
            G = _family(prob.get("G", zeros_nn), "problem.G", (n, n), T, errors,
                        _TERMINAL, symmetric=True)
            if not errors and all(c is not None for c in (A, B, Q, S, M, G)):
                problem = LQProblem(A=A, B=B, Q=Q, S=S, M=M, G=G)

    grid_doc = doc.get("grid", {})
    N, refinement = 400, 1
    if not isinstance(grid_doc, dict):
        errors.append(("grid", "must be an object"))
    else:
        _check_keys(grid_doc, {"N", "refinement"}, "grid", errors)
        N = _number(grid_doc, "N", "grid", errors, default=400, minimum=16,
                    integer=True) or 400
        refinement = _number(grid_doc, "refinement", "grid", errors, default=1,
                             minimum=1, integer=True) or 1

    solver_doc = doc.get("solver", {})
    tol, max_iter, window_override = None, 200, None
    if not isinstance(solver_doc, dict):
        errors.append(("solver", "must be an object"))
    else:
        _check_keys(solver_doc, {"tol", "max_iter", "window_override"},
                    "solver", errors)
        tol = _number(solver_doc, "tol", "solver", errors, allow_none=True)
        if tol is not None and tol <= 0.0:
            errors.append(("solver.tol", "must be positive"))
        max_iter = _number(solver_doc, "max_iter", "solver", errors,
                           default=200, minimum=1, integer=True) or 200
        window_override = _number(solver_doc, "window_override", "solver",
                                  errors, allow_none=True)
        if window_override is not None and not (
                window_override > 0.0 and (not T or window_override <= T)):
            errors.append(("solver.window_override", "must lie in (0, T]"))

    sim_doc = doc.get("simulate", {})
    sim_t0, sim_x0, x0_missing = 0.0, None, False
    if not isinstance(sim_doc, dict):
        errors.append(("simulate", "must be an object"))
    else:
        x0_missing = "x0" not in sim_doc
        _check_keys(sim_doc, {"t0", "x0"}, "simulate", errors)
        sim_t0 = _number(sim_doc, "t0", "simulate", errors, default=0.0,
                         minimum=0.0) or 0.0
        if "x0" in sim_doc and n:
            x0 = _vector(sim_doc["x0"], "simulate.x0", errors)
            if x0 is not None and len(x0) != n:
                errors.append(("simulate.x0", f"must be a finite vector of length {n}"))
            elif x0 is not None:
                sim_x0 = np.array(x0)
    if mode == "simulate":
        if x0_missing:
            errors.append(("simulate.x0", "required for simulate mode"))
        if T is not None and not 0.0 <= sim_t0 < T:
            errors.append(("simulate.t0", "must lie in [0, T)"))

    cert_doc = doc.get("certificate")
    certificate = None
    if cert_doc is not None:
        if not isinstance(cert_doc, dict):
            errors.append(("certificate", "must be an object"))
        else:
            _check_keys(cert_doc, {"times", "axis_scale", "probe_scale",
                                   "eps_list", "finite_eps"}, "certificate",
                        errors)
            kwargs = {}
            for key, ok, rule in (
                    ("times", lambda t: T is None or 0.0 <= t < T, "must lie in [0, T)"),
                    ("eps_list", lambda e: e > 0.0, "must be positive")):
                if cert_doc.get(key) is not None:
                    val = _vector(cert_doc[key], f"certificate.{key}", errors)
                    bad = [i for i, c in enumerate(val or ()) if not ok(c)]
                    errors.extend((f"certificate.{key}[{i}]", rule) for i in bad)
                    if val is not None and not bad:
                        kwargs[key] = val
            for key in ("axis_scale", "probe_scale"):
                val = _number(cert_doc, key, "certificate", errors,
                              allow_none=True, minimum=0.0)
                if val is not None:
                    kwargs[key] = val
            kwargs["finite_eps"] = _flag(cert_doc, "finite_eps", "certificate", errors,
                                         SampleSpec.finite_eps)
            certificate = SampleSpec(**kwargs)

    cmp_doc = doc.get("compare", {})
    compare_tol = None
    if not isinstance(cmp_doc, dict):
        errors.append(("compare", "must be an object"))
    else:
        _check_keys(cmp_doc, {"tol"}, "compare", errors)
        compare_tol = _number(cmp_doc, "tol", "compare", errors,
                              allow_none=True, minimum=0.0)

    out_doc = doc.get("output", {})
    out_dir, formats = None, ("csv", "json")
    if not isinstance(out_doc, dict):
        errors.append(("output", "must be an object"))
    else:
        _check_keys(out_doc, {"dir", "formats"}, "output", errors)
        if out_doc.get("dir") is not None:
            out_dir = str(out_doc["dir"])
        if "formats" in out_doc:
            fmts = out_doc["formats"]
            if not isinstance(fmts, list) or not all(
                    f in ("csv", "json") for f in fmts):
                errors.append(("output.formats", "must be a list drawn from csv, json"))
            else:
                formats = tuple(fmts)

    dbg = doc.get("debug", {})
    corrupt = False
    if not isinstance(dbg, dict):
        errors.append(("debug", "must be an object"))
    else:
        _check_keys(dbg, {"corrupt_solution"}, "debug", errors)
        corrupt = _flag(dbg, "corrupt_solution", "debug", errors, False)

    if errors:
        raise ConfigError(errors)
    grid = TimeGrid.uniform(T, int(N))
    if refinement > 1:
        grid = grid.refine(int(refinement))
    return RunConfig(problem=problem, grid=grid, mode=mode, tol=tol,
                     max_iter=int(max_iter), window_override=window_override,
                     sim_t0=sim_t0, sim_x0=sim_x0, certificate=certificate,
                     compare_tol=compare_tol, out_dir=out_dir, formats=formats,
                     corrupt_solution=corrupt)


def _json_bytes(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


class _Emitter:
    def __init__(self, out_dir, formats, quiet, stdout):
        self.out_dir = out_dir
        self.formats = formats
        self.quiet = quiet
        self.stdout = stdout
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)

    def say(self, line: str) -> None:
        if not self.quiet:
            self.stdout.write(line + "\n")

    def emit_json(self, name: str, obj) -> None:
        text = _json_bytes(obj)
        if self.out_dir and "json" in self.formats:
            with open(os.path.join(self.out_dir, name), "w") as fh:
                fh.write(text)
        elif not self.out_dir and not self.quiet:
            self.stdout.write(text)

    def emit_csv(self, name: str, writer) -> None:
        if self.out_dir and "csv" in self.formats:
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


def _gain_csv(pol, grid):
    def write(fh):
        m, n = pol.problem.m, pol.problem.n
        cols = ["t"] + [f"gain_{i + 1}_{j + 1}" for i in range(m) for j in range(n)]
        fh.write(",".join(cols) + "\n")
        gains = pol.gain_many(grid.nodes)
        for t, gmat in zip(grid.nodes, gains):
            row = [format(float(t), ".17g")]
            row += [format(float(v), ".17g") for v in gmat.reshape(-1)]
            fh.write(",".join(row) + "\n")
    return write


def run(cfg: RunConfig, *, quiet: bool = False, stdout=None) -> int:
    """Execute a validated RunConfig; returns the process exit code."""
    out = _Emitter(cfg.out_dir, cfg.formats, quiet, stdout or sys.stdout)
    p, g = cfg.problem, cfg.grid
    opts = SolveOptions(tol=cfg.tol, max_iter=cfg.max_iter,
                        window_override=cfg.window_override)

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
        out.emit_csv("gain.csv", _gain_csv(pol, g))
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
        ref = classical_riccati(p, g)
        dev = float(np.abs(sol.values - ref.values).max())
        r = float(sol.meta.get("constants", {}).get("r", 0.0))
        tol = cfg.compare_tol if cfg.compare_tol is not None else 1e-6 * (1.0 + r)
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
