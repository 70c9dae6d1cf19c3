"""Benchmark of tilq: solve, verify and a cold CLI verify, from a seed.

    python3 perfbench/run.py --workload solve-n3 --seed 0 --seconds 20 --trace 0

Run from a checkout of the repository; the program is imported from its
src/ directory. One client drives a closed loop: the next operation starts
when the previous one has ended and been timed, for --seconds seconds (at
least one operation). Every operation's output is checked: its accuracy
against the same instance solved on a coarser grid, its verdict against
that accuracy.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
from spans recorded around the public functions of each tilq module
(see tracer.py). The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}; the lines before it record the
configuration and the metrics under their workload-specific names.
See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("solve-n3", "verify-n3", "cli-cold")
OP_NAME = {"solve-n3": "solve_s", "verify-n3": "verify_s", "cli-cold": "cli_verify_s"}
# Set-up samples per run, this process's own included; verify-n3's set-up
# holds a solve and costs ~5x the others'.
SETUP_SAMPLES = {"solve-n3": 5, "verify-n3": 2, "cli-cold": 5}
CHILD_TIMEOUT = 150.0

END_TO_END = {"op_s": "s", "setup_s": "s", "p_err": "norm",
              "residual_max": "norm", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "import.tilq_s": "s", "import.scipy_s": "s",
    "cli.parse_config_s": "s", "cli.main.self_s": "s",
    "problem.validate_assumptions_s": "s",
    "kernels.eval.calls": "count", "kernels.eval_dt.calls": "count",
    "kernels.eval_s": "s",
    "riccati.contraction_constants_s": "s",
    "riccati.solve_riccati.self_s": "s", "riccati.picard_iterations": "count",
    "riccati.windows": "count", "riccati.halvings": "count",
    "riccati.s_per_iteration": "s",
    "riccati.nonlocal_passes": "count", "riccati.q_bar_nodes_s": "s",
    "riccati.riccati_residual_profile_s": "s",
    "propagators.fundamental_solution.calls": "count",
    "propagators.fundamental_solution_s": "s",
    "quad.simpson_weights.calls": "count", "quad.simpson_weights_s": "s",
    "equilibrium.build_policy_s": "s", "equilibrium.value_identity_gap_s": "s",
    "equilibrium.equilibrium_certificate_s": "s",
    "equilibrium.equilibrium_certificate.self_s": "s",
    "equilibrium.cost.calls": "count", "equilibrium.cost_s": "s",
    "equilibrium.cost.unique_ratio": "ratio",
    "equilibrium.cost.threads": "count",
    "bvp.from_riccati_s": "s", "bvp.bvp_residual_s": "s",
    "verify.run_verification.self_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(cmd, stdout_path, timeout=CHILD_TIMEOUT):
    """Run cmd to its end; returns (exit code, wall seconds, peak RSS MiB).

    Standard output goes to stdout_path, standard error to stdout_path.err.
    """
    with open(stdout_path, "wb") as out, open(f"{stdout_path}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=out, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(Path(f"{stdout_path}.err").read_text(errors="replace")[-2000:])
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def checked_child(cmd, stdout_path) -> str:
    code, _, _ = run_child(cmd, stdout_path)
    if code != 0:
        raise RuntimeError(f"{' '.join(map(str, cmd))} exited with {code}")
    return Path(stdout_path).read_text()


def git_commit():
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def config_record(tilq, threads_env) -> dict:
    import numpy as np
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "tilq").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    worker_count = getattr(tilq.equilibrium, "_worker_count", None)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 **{k: os.environ.get(k) for k in (
                     "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}},
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "TILQ_THREADS": "unset" if threads_env is None
        else f"unset by the benchmark (was {threads_env!r})",
        "certificate_workers": worker_count(10 ** 6) if worker_count else None,
    }


def import_times(work: Path) -> dict:
    """import.tilq_s and import.scipy_s from `python -X importtime`."""
    out = work / "importtime"
    checked_child([sys.executable, "-X", "importtime", "-c", "import tilq"], out)
    tilq_us = scipy_us = 0
    for line in Path(f"{out}.err").read_text().splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        if not self_us.strip().isdigit():
            continue
        if name == "tilq":
            tilq_us = int(cum_us)
        elif name == "scipy" or name.startswith("scipy."):
            scipy_us += int(self_us)
    return {"import.tilq_s": tilq_us / 1e6, "import.scipy_s": scipy_us / 1e6}


class Op(NamedTuple):
    """One timed operation: its output's fingerprint (None when it failed
    to produce one), the check outcome, the child's peak RSS (cli-cold) and
    the spans recorded while it ran (traced operations)."""

    seconds: float
    fingerprint: object
    outcome: dict
    rss_mb: float | None = None
    spans: dict | None = None


class Bench:
    """One run of one workload: set-up, the closed loop and the checks."""

    def __init__(self, args, work: Path, tilq, workloads):
        self.wl = args.workload
        self.seed = args.seed
        self.work = work
        self.tilq = tilq
        self.W = workloads
        self.coarse = None
        self.checked = {}       # output fingerprint -> check outcome
        self.failures = {}      # failure kind -> count
        self.silent_wrong = []  # descriptions of unsignalled wrong answers
        self.n_ops = 0

    # -- set-up ------------------------------------------------------------
    def setup(self, inputs):
        self.inputs = inputs
        self.coarse = self.W.coarse_reference(self.wl, self.seed)
        if self.wl == "verify-n3":
            sol = inputs["solution"]
            err = self.W.p_err(sol.values, self.coarse)
            if err > self.W.P_ERR_BOUND:
                self.silent_wrong.append(f"set-up solve returned P with p_err {err:.3e}")
        if self.wl == "cli-cold":
            self.config_path = self.work / "config.json"
            self.config_path.write_text(json.dumps(self.W.cli_config(self.seed)))

    def setup_samples(self):
        """Set-up time in fresh processes (the first sample is this one's)."""
        out = []
        for i in range(SETUP_SAMPLES[self.wl] - 1):
            text = checked_child([sys.executable, str(HERE / "probe.py"),
                                  self.wl, str(self.seed)], self.work / f"setup{i}.out")
            out.append(json.loads(text.strip().splitlines()[-1])["setup_s"])
        return out

    # -- one operation ---------------------------------------------------------
    def op(self, tracer=None):
        """Run one operation, under tracer if given, and check its output."""
        self.n_ops += 1
        if self.wl == "cli-cold":
            return self._op_cli(tracer)
        W, tilq = self.W, self.tilq
        inputs = W.build(self.wl, self.seed, solution=self.inputs.get("solution"))
        p, g = inputs["problem"], inputs["grid"]
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            if self.wl == "solve-n3":
                out = tilq.solve_riccati(p, g)
            else:
                out = tilq.run_verification(p, g, solution=inputs["solution"])
        except Exception as exc:  # an operation that raises counts as failed
            out = exc
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        snap = tracer.snapshot() if tracer is not None else None
        if isinstance(out, Exception):
            return Op(seconds, None, self._fail(f"raised {type(out).__name__}"), spans=snap)
        if self.wl == "solve-n3":
            key = out.values.tobytes()
            if key not in self.checked:
                residual = float(tilq.riccati_residual_profile(p, out).max())
                self.checked[key] = self._judge(W.p_err(out.values, self.coarse), residual, None)
        else:
            key = json.dumps(out.to_json_dict(), sort_keys=True)
            if key not in self.checked:
                self.checked[key] = self._judge(W.p_err(out.solution.values, self.coarse),
                                                out.riccati["max_residual"], out.passed)
        return Op(seconds, key, self._count(self.checked[key]), spans=snap)

    def _op_cli(self, tracer):
        out_dir = self.work / f"out{self.n_ops}"
        spans = self.work / f"spans{self.n_ops}.json" if tracer is not None else None
        cmd = self.W.cli_command(str(self.config_path), str(out_dir),
                                 None if spans is None else str(spans))
        code, seconds, rss = run_child(cmd, self.work / f"cli{self.n_ops}.out")
        snap = json.loads(spans.read_text()) if spans is not None and spans.is_file() else None
        report_path = out_dir / "verification.json"
        if code not in (0, 4) or not report_path.is_file():
            return Op(seconds, None, self._fail(f"exit code {code}"), rss, snap)
        key = report_path.read_text()
        if key not in self.checked:
            report = json.loads(key)
            err = self.W.cli_p_err(report, self.coarse)
            verdict = bool(report["pass"]) and code == 0
            self.checked[key] = self._judge(err, report["riccati"]["max_residual"], verdict)
        return Op(seconds, key, self._count(self.checked[key]), rss, snap)

    def _judge(self, err, residual, verdict):
        """Outcome of one output. verdict is the program's pass/fail, None
        for a bare solve. A wrong answer that the program does not signal
        (inaccurate P returned, or passed) makes the run incorrect."""
        accurate = err <= self.W.P_ERR_BOUND and residual <= self.W.RESIDUAL_BOUND
        if accurate:
            kind = None if verdict in (None, True) else "false_reject"
        elif verdict is False:
            kind = "true_reject"
        else:
            kind = "inaccurate_P"
            self.silent_wrong.append(f"{'returned' if verdict is None else 'passed'} "
                                     f"P with p_err {err:.3e}, residual {residual:.3e}")
        return {"p_err": err, "residual_max": residual, "kind": kind}

    def _fail(self, kind):
        return self._count({"p_err": None, "residual_max": None, "kind": kind})

    def _count(self, outcome):
        if outcome["kind"] is not None:
            self.failures[outcome["kind"]] = self.failures.get(outcome["kind"], 0) + 1
        return outcome

    def loop(self, seconds, tracer_factory=None):
        results = []
        start = time.perf_counter()
        while not results or time.perf_counter() - start < seconds:
            results.append(self.op(tracer_factory() if tracer_factory else None))
        return results


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def timing(values):
    p25, p75 = quartiles(values)
    return {"value": statistics.median(values), "unit": "s", "samples": len(values),
            "p25": p25, "p75": p75}


def worst(outcomes, field):
    vals = [o[field] for o in outcomes if o[field] is not None]
    return max(vals) if vals else None


def end_to_end(bench, setup_times, results):
    times = [r.seconds for r in results]
    outcomes = [r.outcome for r in results]
    if bench.wl == "cli-cold":
        rss = statistics.median(r.rss_mb for r in results)
    else:
        import resource
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "op_s": statistics.median(times),
        "setup_s": statistics.median(setup_times),
        "p_err": worst(outcomes, "p_err"),
        "residual_max": worst(outcomes, "residual_max"),
        "peak_rss_mb": rss,
    }
    report = {
        "workload": bench.wl, "seed": bench.seed,
        OP_NAME[bench.wl]: timing(times),
        "setup_s": timing(setup_times),
        "p_err": {"value": metrics["p_err"], "unit": "norm"},
        "residual_max": {"value": metrics["residual_max"], "unit": "norm"},
        "fail_share": {"value": sum(bench.failures.values()) / len(results),
                       "unit": "1", "failed": sum(bench.failures.values()),
                       "attempted": len(results), "kinds": bench.failures},
        "peak_rss_mb": {"value": rss, "unit": "MiB"},
    }
    return metrics, report


def per_layer(bench, untraced, traced, tracer_mod):
    layers = [tracer_mod.layer_metrics(r.spans) for r in traced]
    metrics = {}
    problems = []
    for name in layers[0]:
        vals = [m[name] for m in layers]
        if PER_LAYER[name] == "count":
            if len(set(vals)) != 1:
                problems.append(f"counter {name} differs across traced runs: {vals}")
            metrics[name] = vals[0]
        else:
            metrics[name] = statistics.median(vals)
    prints = {r.fingerprint for r in untraced + traced}
    if len(prints) != 1:
        problems.append("outputs differ between traced and untraced operations")
    metrics.update(import_times(bench.work))
    traced_s = [r.seconds for r in traced]
    untraced_s = [r.seconds for r in untraced]
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    report = {"workload": bench.wl, "seed": bench.seed,
              "untraced_" + OP_NAME[bench.wl]: timing(untraced_s),
              "traced_" + OP_NAME[bench.wl]: timing(traced_s),
              "trace_self_check": problems or "ok",
              "fail_share": {"failed": sum(bench.failures.values()),
                             "attempted": len(untraced) + len(traced),
                             "kinds": bench.failures}}
    return metrics, report, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tilq" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tilq package under {SRC}; run from a tilq checkout")
    threads_env = os.environ.pop("TILQ_THREADS", None)
    sys.path.insert(0, str(SRC))

    # First set-up sample: this process imports tilq and builds the inputs.
    start = time.perf_counter()
    import workloads
    inputs = workloads.build(args.workload, args.seed)
    setup_times = [time.perf_counter() - start]
    import tilq
    if Path(tilq.__file__).resolve().parent != SRC / "tilq":
        sys.exit(f"perfbench: imported tilq from {tilq.__file__}, not from {SRC}")

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args, work, tilq, workloads)
        lines = [{"config": config_record(tilq, threads_env)}]
        if args.trace == 0:
            setup_times += bench.setup_samples()
            bench.setup(inputs)
            results = bench.loop(args.seconds)
            metrics, report = end_to_end(bench, setup_times, results)
            units, attempted, problems = END_TO_END, len(results), []
        else:
            import tracer
            bench.setup(inputs)
            untraced = bench.loop(args.seconds / 2)
            traced = bench.loop(args.seconds / 2, tracer.Tracer)
            if len(traced) < 2:
                traced += bench.loop(0, tracer.Tracer)
            metrics, report, problems = per_layer(bench, untraced, traced, tracer)
            units, attempted = PER_LAYER, len(untraced) + len(traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work.parent.rmdir()
    if bench.silent_wrong:
        report["silent_wrong_answers"] = bench.silent_wrong
    lines.append({"report": report})
    for line in lines:
        print(json.dumps(line))
    result = {
        "correct": not bench.silent_wrong and not problems,
        "attempted": attempted,
        "failed": sum(bench.failures.values()),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
