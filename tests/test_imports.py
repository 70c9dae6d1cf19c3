import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

DEMO_VERIFY = Path(__file__).resolve().parents[1] / "demos" / "configs" / "hyperbolic_verify.json"


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


def _n3_config(path):
    """The hyperbolic n=3, m=2 instance of the benchmark (A = 0.3 randn,
    B = randn from seed 0, k = theta = 1) at N=400, written as a config."""
    rng = np.random.default_rng(0)
    A = 0.3 * rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 2))

    def hyperbolic(n):
        return {"kind": "hyperbolic", "base": np.eye(n).tolist(), "k": 1.0, "theta": 1.0}

    cfg = {"schema_version": 1, "mode": "verify", "grid": {"N": 400},
           "problem": {"n": 3, "m": 2, "T": 1.0,
                       "A": {"kind": "constant", "base": A.tolist()},
                       "B": {"kind": "constant", "base": B.tolist()},
                       "Q": hyperbolic(3), "M": hyperbolic(2), "G": hyperbolic(3),
                       "S": {"kind": "constant", "base": np.zeros((2, 3)).tolist()}}}
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("config", ["demo", "n3"])
def test_cli_verify_loads_no_scipy_and_no_random_stack(config, tmp_path):
    # the verification states of n <= 8 are kept draws, so a verify builds no
    # generator; numpy.random would also pull in secrets, hmac and libcrypto
    path = DEMO_VERIFY if config == "demo" else _n3_config(tmp_path / "n3.json")
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
