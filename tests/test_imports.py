import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import write_n3_config

ROOT = Path(__file__).resolve().parents[1]
DEMO_VERIFY = ROOT / "demos" / "configs" / "hyperbolic_verify.json"


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency; the runtime must not pull it in
    code = ("import sys, tilq; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def _imported(args):
    """The modules that a python process with these arguments imports, read
    from its -X importtime log, and the process's exit code."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True)
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:") and line.count("|") == 2}
    names.discard("package")  # the log's header line
    return names, proc.returncode


@pytest.mark.parametrize("config", ["demo", "n3"])
def test_cli_verify_loads_no_scipy_and_no_random_stack(config, tmp_path):
    # the verification states of n <= 8 are kept draws, so a verify builds no
    # generator; numpy.random would also pull in secrets, hmac and libcrypto
    path = DEMO_VERIFY if config == "demo" else write_n3_config(tmp_path / "n3.json")
    baseline, code = _imported(["-c", "import numpy"])
    assert code == 0
    names, code = _imported(["-m", "tilq.cli", "--config", str(path), "--mode", "verify",
                             "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0
    assert json.loads((tmp_path / "out" / "verification.json").read_text())["pass"]
    assert "tilq.verify" in names
    # a numpy that imports numpy.random on its own is no fault of tilq's
    loaded = {m for m in names - baseline
              if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "random"]}
    assert loaded == set()


def _load_tracer():
    """perfbench/tracer.py as a module, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_binds_every_traced_name():
    # the benchmark's traced runs wrap each name of tracer.TARGETS; a name
    # that the package no longer has, or a cost without its breakpoints
    # parameter, breaks them at install or at the first traced call
    import tilq

    tracer_mod = _load_tracer()

    def binding(modname, name):
        owner = sys.modules[modname]
        cls_name, _, attr = name.rpartition(".")
        return (vars(getattr(owner, cls_name)) if cls_name else vars(owner))[attr]

    for modname in tracer_mod.TARGETS:
        __import__(modname)
    targets = [(m, n) for m, names in tracer_mod.TARGETS.items() for n in names]
    originals = [binding(m, n) for m, n in targets]
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert all(hasattr(binding(m, n), "__wrapped__") for m, n in targets)
        p = tilq.constant_problem(A=0.0, B=1.0, Q=1.0, S=0.0, M=1.0, G=0.0, T=1.0)
        g = tilq.TimeGrid.uniform(1.0, 32)
        pol = tilq.build_policy(p, tilq.solve_riccati(p, g))
        tilq.cost(p, 0.0, [1.0], pol, g, breakpoints=[0.5])
        tilq.fundamental_solution(p.A, g)
    finally:
        tracer.uninstall()
    assert [binding(m, n) for m, n in targets] == originals
    metrics = tracer_mod.layer_metrics(tracer.snapshot())
    assert metrics["equilibrium.cost.calls"] == 1
    assert metrics["propagators.fundamental_solution.calls"] == 1
    assert metrics["riccati.windows"] >= 1
