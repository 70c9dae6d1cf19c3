import copy
import json
import subprocess
import sys

import pytest

from tilq.cli import ConfigError, main, parse_config

BASE = {
    "schema_version": 1,
    "mode": "solve",
    "problem": {
        "n": 1, "m": 1, "T": 1.0,
        "A": {"kind": "constant", "base": [[0.0]]},
        "B": {"kind": "constant", "base": [[1.0]]},
        "Q": {"kind": "constant", "base": [[1.0]]},
        "S": {"kind": "constant", "base": [[0.0]]},
        "M": {"kind": "constant", "base": [[1.0]]},
        "G": {"kind": "constant", "base": [[0.0]]},
    },
    "grid": {"N": 64},
}


def make_config(**updates):
    cfg = copy.deepcopy(BASE)
    for key, value in updates.items():
        cfg[key] = value
    return cfg


def run_cli(config_path, *extra):
    return subprocess.run(
        [sys.executable, "-m", "tilq.cli", "--config", str(config_path), *extra],
        capture_output=True, text=True)


def write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_parse_valid():
    cfg = parse_config(json.dumps(BASE))
    assert cfg.mode == "solve"
    assert cfg.problem.n == 1
    assert cfg.grid.num_intervals == 64


def test_parse_rejects_wrong_schema_version():
    bad = make_config(schema_version=2)
    with pytest.raises(ConfigError):
        parse_config(json.dumps(bad))


def test_parse_rejects_unknown_keys():
    bad = make_config(extra_section={"x": 1})
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(bad))
    assert any("extra_section" in path for path, _ in exc.value.errors)


def test_parse_rejects_asymmetric_m():
    bad = make_config()
    bad["problem"]["M"] = {"kind": "constant", "base": [[1.0]], "rho": 1.0}
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(bad))
    assert any("problem.M" in path for path, _ in exc.value.errors)


def test_parse_collects_all_errors():
    bad = make_config(schema_version=3)
    del bad["problem"]["B"]
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(bad))
    assert len(exc.value.errors) >= 2


@pytest.mark.parametrize("section, key, value, path", [
    ("simulate", "x0", ["a"], "simulate.x0[0]"),
    ("simulate", "x0", [[1.0], 2.0], "simulate.x0[0]"),
    ("certificate", "times", 0.5, "certificate.times"),
    ("certificate", "times", ["a"], "certificate.times[0]"),
    ("certificate", "eps_list", ["x"], "certificate.eps_list[0]"),
    ("simulate", "x0", [10**400], "simulate.x0[0]"),
    ("grid", "N", float("inf"), "grid.N"),
    ("problem", "B", {"kind": "constant", "base": [[10**400]]}, "problem.B.base"),
])
def test_malformed_values_are_config_issues(tmp_path, capsys, section, key, value, path):
    # exit 2 with the offending entry named, next to the other issues
    bad = make_config(schema_version=3)
    bad.setdefault(section, {})[key] = value
    assert main(["--config", str(write(tmp_path, bad))]) == 2
    issues = json.loads(capsys.readouterr().out)["error"]["issues"]
    assert {"schema_version", path} <= {i["path"] for i in issues}


@pytest.mark.parametrize("updates, path", [
    ({"certificate": {"finite_eps": "no"}}, "certificate.finite_eps"),
    ({"certificate": {"finite_eps": 0}}, "certificate.finite_eps"),
    ({"debug": {"corrupt_solution": "yes"}}, "debug.corrupt_solution"),
    ({"certificate": {"times": [0.2, 1.0]}}, "certificate.times[1]"),
    ({"certificate": {"times": [-0.1, 0.5]}}, "certificate.times[0]"),
    ({"certificate": {"eps_list": [0.1, 0.0]}}, "certificate.eps_list[1]"),
    ({"certificate": {"eps_list": [-0.05]}}, "certificate.eps_list[0]"),
    ({"mode": "simulate", "simulate": {"x0": ["a"]}}, "simulate.x0[0]"),
    ({"solver": {"tol": 0}}, "solver.tol"),
    ({"solver": {"tol": -1e-8}}, "solver.tol"),
])
def test_bad_config_values_are_one_issue_each(updates, path):
    # refused when parsed, before any solve, as exactly one path-tagged issue
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(make_config(**updates)))
    assert [p for p, _ in exc.value.errors] == [path]


@pytest.mark.parametrize("name, entry, paths", [
    ("G", {"kind": "exponential", "base": [[1.0]], "rho": 1.0, "k": 1.0, "theta": 1.0},
     ["problem.G.k", "problem.G.theta"]),
    ("G", {"kind": "hyperbolic", "base": [[1.0]], "k": 1.0, "theta": 1.0, "rho": 0.5},
     ["problem.G.rho"]),
    ("G", {"kind": "constant", "base": [[1.0]], "coefficients": [[[1.0]]]},
     ["problem.G.coefficients"]),
    ("A", {"kind": "polynomial", "coefficients": [[[0.0]]], "base": [[0.0]]},
     ["problem.A.base"]),
    ("Q", {"kind": "exponential", "base": [[1.0]], "rho": 1.0, "k": 1.0}, ["problem.Q.k"]),
])
def test_family_keys_are_per_kind(name, entry, paths):
    # one-time and two-time coefficients alike accept their own family's keys only
    bad = make_config()
    bad["problem"][name] = entry
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(bad))
    assert exc.value.errors == [(path, "unknown key") for path in paths]
    for key in paths:
        del entry[key.rsplit(".", 1)[1]]
    parse_config(json.dumps(bad))


def test_parse_hyperbolic_pole_guard():
    bad = make_config()
    bad["problem"]["Q"] = {"kind": "hyperbolic", "base": [[1.0]], "k": -2.0,
                           "theta": 1.0}
    with pytest.raises(ConfigError):
        parse_config(json.dumps(bad))


def test_exit_zero_and_outputs(tmp_path):
    path = write(tmp_path, make_config())
    out_dir = tmp_path / "out"
    r = run_cli(path, "--out", str(out_dir), "--quiet")
    assert r.returncode == 0, r.stdout + r.stderr
    assert (out_dir / "solution.json").exists()
    assert (out_dir / "solution.csv").exists()
    assert (out_dir / "gain.csv").exists()
    assert (out_dir / "meta.json").exists()
    doc = json.loads((out_dir / "solution.json").read_text())
    assert doc["schema_version"] == 1


def test_exit_two_invalid_m(tmp_path):
    bad = make_config()
    bad["problem"]["M"] = {"kind": "constant",
                           "base": [[1.0, 2.0], [0.0, 1.0]]}
    bad["problem"]["n"] = 2
    bad["problem"]["m"] = 2
    for key in ("A", "Q", "G"):
        bad["problem"][key] = {"kind": "constant", "base": [[0.0, 0.0], [0.0, 0.0]]}
    bad["problem"]["B"] = {"kind": "constant", "base": [[1.0, 0.0], [0.0, 1.0]]}
    bad["problem"]["S"] = {"kind": "constant", "base": [[0.0, 0.0], [0.0, 0.0]]}
    path = write(tmp_path, bad)
    r = run_cli(path)
    assert r.returncode == 2
    payload = json.loads(r.stdout)
    assert payload["error"]["type"] == "config"


def test_exit_three_nonconvergence(tmp_path):
    cfg = make_config(solver={"max_iter": 1})
    path = write(tmp_path, cfg)
    r = run_cli(path, "--quiet")
    assert r.returncode == 3
    payload = json.loads(r.stdout)
    assert payload["error"]["type"] == "nonconvergence"
    assert "diagnostics" in payload["error"]


def test_exit_four_corrupted_verify(tmp_path):
    cfg = make_config(mode="verify", debug={"corrupt_solution": True})
    cfg["grid"]["N"] = 128
    path = write(tmp_path, cfg)
    out_dir = tmp_path / "out"
    r = run_cli(path, "--out", str(out_dir), "--quiet")
    assert r.returncode == 4
    doc = json.loads((out_dir / "verification.json").read_text())
    assert doc["pass"] is False


def test_byte_identical_reruns(tmp_path):
    cfg = make_config()
    path = write(tmp_path, cfg)
    outs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        r = run_cli(path, "--out", str(out_dir), "--quiet")
        assert r.returncode == 0
        outs.append({f.name: f.read_bytes()
                     for f in sorted(out_dir.iterdir())})
    assert outs[0].keys() == outs[1].keys()
    for name in outs[0]:
        assert outs[0][name] == outs[1][name], f"{name} differs between runs"


def test_mode_override_flag(tmp_path):
    path = write(tmp_path, make_config())
    out_dir = tmp_path / "out"
    r = run_cli(path, "--mode", "validate", "--out", str(out_dir), "--quiet")
    assert r.returncode == 0
    doc = json.loads((out_dir / "validation.json").read_text())
    assert doc["hard_ok"] is True


def test_simulate_mode(tmp_path):
    cfg = make_config(mode="simulate", simulate={"t0": 0.0, "x0": [1.0]})
    path = write(tmp_path, cfg)
    out_dir = tmp_path / "out"
    r = run_cli(path, "--out", str(out_dir), "--quiet")
    assert r.returncode == 0
    lines = (out_dir / "trajectory.csv").read_text().strip().split("\n")
    assert lines[0] == "t,x_1,u_1"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[1]) - 1.0) < 1e-12


def test_compare_oracle_mode(tmp_path):
    cfg = make_config(mode="compare-oracle")
    cfg["grid"]["N"] = 200
    path = write(tmp_path, cfg)
    out_dir = tmp_path / "out"
    r = run_cli(path, "--out", str(out_dir), "--quiet")
    assert r.returncode == 0
    doc = json.loads((out_dir / "compare.json").read_text())
    assert doc["max_deviation"] <= doc["tol"]


def test_missing_config_file(tmp_path):
    r = run_cli(tmp_path / "nope.json")
    assert r.returncode == 2


def test_grid_override_keeps_the_refinement(tmp_path):
    # --grid sets grid.N; the config's refinement still applies to it
    cfg = make_config()
    cfg["grid"] = {"N": 64, "refinement": 2}
    out_dir = tmp_path / "out"
    assert main(["--config", str(write(tmp_path, cfg)), "--grid", "40",
                 "--out", str(out_dir), "--quiet"]) == 0
    doc = json.loads((out_dir / "solution.json").read_text())
    assert doc["grid"]["num_intervals"] == 80


@pytest.mark.parametrize("flag, value, path", [
    ("--grid", "0", "grid.N"),
    ("--grid", "15", "grid.N"),
    ("--tol", "-1", "solver.tol"),
    ("--tol", "0", "solver.tol"),
    ("--tol", "nan", "solver.tol"),
])
def test_bad_overrides_are_config_issues(tmp_path, capsys, flag, value, path):
    # an override is validated with the document, as if the config said it
    assert main(["--config", str(write(tmp_path, make_config())), flag, value]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "config"
    assert [i["path"] for i in error["issues"]] == [path]


def test_mode_override_is_validated_as_that_mode(tmp_path):
    # a simulate config without x0 validates: the simulate rules are those
    # of the config's own mode, which --mode replaces
    cfg = make_config(mode="simulate")
    out_dir = tmp_path / "out"
    assert main(["--config", str(write(tmp_path, cfg)), "--mode", "validate",
                 "--out", str(out_dir), "--quiet"]) == 0
    assert json.loads((out_dir / "validation.json").read_text())["hard_ok"] is True
    assert main(["--config", str(write(tmp_path, cfg)), "--quiet"]) == 2

