import copy
import json
import pathlib
import re
import subprocess
import sys

import pytest

from tilq import cli
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
    ({"certificate": {"times": []}}, "certificate.times"),
    ({"certificate": {"eps_list": []}}, "certificate.eps_list"),
    ({"output": {"dir": 5}}, "output.dir"),
    ({"output": {"dir": {"a": 1}}}, "output.dir"),
])
def test_bad_config_values_are_one_issue_each(updates, path):
    # refused when parsed, before any solve, as exactly one path-tagged issue
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(make_config(**updates)))
    assert [p for p, _ in exc.value.errors] == [path]


@pytest.mark.parametrize("out_dir", [5, {"a": 1}])
def test_output_dir_that_is_not_a_string_creates_nothing(tmp_path, monkeypatch, capsys, out_dir):
    # a number or an object is not read as a directory name, so nothing is
    # written under the working directory
    cfg = write(tmp_path, make_config(output={"dir": out_dir}))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["--config", str(cfg)]) == 2
    issues = json.loads(capsys.readouterr().out)["error"]["issues"]
    assert [i["path"] for i in issues] == ["output.dir"]
    assert list(work.iterdir()) == []


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


def _weak_feedback(tmp_path, mode):
    # B = 0.01 at N = 32: guaranteed mode refines the grid 3 times to solve
    cfg = make_config(mode=mode, grid={"N": 32})
    cfg["problem"]["B"]["base"] = [[0.01]]
    out_dir = tmp_path / mode
    assert main(["--config", str(write(tmp_path, cfg)), "--out", str(out_dir),
                 "--quiet"]) == 0
    return out_dir


def test_compare_oracle_on_a_refined_solve(tmp_path):
    doc = json.loads((_weak_feedback(tmp_path, "compare-oracle") / "compare.json").read_text())
    assert doc["max_deviation"] <= doc["tol"]


def test_gain_and_solution_share_the_refined_grid(tmp_path):
    out_dir = _weak_feedback(tmp_path, "solve")
    assert json.loads((out_dir / "meta.json").read_text())["refined_by"] == 3
    rows = [len((out_dir / name).read_text().splitlines())
            for name in ("solution.csv", "gain.csv")]
    assert rows == [3 * 32 + 2] * 2


def test_compare_tolerance_reads_the_reference_not_the_a_priori_bound(tmp_path):
    # on T = 20, 1e-6 (1 + r) with r ~ 1e10 read 1.02e4, so compare-oracle
    # passed any P within 1e4 of the reference; the tolerance now scales
    # with the largest reference node, 1e-6 (1 + 1.618)
    cfg = make_config(mode="compare-oracle", grid={"N": 1000})
    cfg["problem"].update(T=20.0, A={"kind": "constant", "base": [[0.5]]},
                          G={"kind": "constant", "base": [[1.0]]})
    out_dir = tmp_path / "out"
    assert main(["--config", str(write(tmp_path, cfg)), "--tol", "1e-10",
                 "--out", str(out_dir), "--quiet"]) == 0
    doc = json.loads((out_dir / "compare.json").read_text())
    assert doc["max_deviation"] <= doc["tol"] < 1e-5


@pytest.mark.parametrize("section, key, value", [
    ("grid", "refinement", 2),
    ("output", "formats", ["csv"]),
    ("compare", "tol", 1e-3),
    ("certificate", "axis_scale", 1.0),
    ("certificate", "probe_scale", 0.1),
    ("certificate", "finite_eps", False),
    ("solver", "window_override", 0.5),
])
def test_options_without_a_caller_are_unknown_keys(section, key, value):
    # each is a constant now, or its one behaviour went (the solver's widths
    # are its own, and the certificate always takes the eps quotients); the
    # compare section went with its one key
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(make_config(**{section: {key: value}})))
    path = section if section == "compare" else f"{section}.{key}"
    assert exc.value.errors == [(path, "unknown key")]


@pytest.mark.parametrize("window", [0, -0.25, 1.5])
def test_window_override_outside_the_horizon_is_a_config_issue(tmp_path, capsys, window):
    # the key is unknown now, so any value is refused with the document, as
    # the one issue, before any solve
    cfg = make_config(solver={"window_override": window})
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(cfg))
    assert exc.value.errors == [("solver.window_override", "unknown key")]
    assert main(["--config", str(write(tmp_path, cfg)), "--quiet"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "config"
    assert [i["path"] for i in error["issues"]] == ["solver.window_override"]


def test_every_documented_key_parses():
    # the README's example config with its list of every section key at its
    # default: the same keys as the parser's table, the same defaults, and
    # the whole document parses
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    part = readme.split("## Command line")[1].split("\n## ")[0]
    example, sections = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", part, re.S)]
    assert {name: set(keys) for name, keys in sections.items()} == \
        {name: set(spec) for name, spec in cli._SECTIONS.items()}
    for name, keys in sections.items():
        for key, value in keys.items():
            assert (name, key) == ("simulate", "x0") or value == cli._SECTIONS[name][key][0]
    cfg = parse_config(json.dumps({**example, **sections, "mode": "simulate"}))
    assert cfg.grid.num_intervals == 400 and cfg.sim_x0.tolist() == [1.0]


def test_missing_config_file(tmp_path):
    r = run_cli(tmp_path / "nope.json")
    assert r.returncode == 2


def test_grid_override_sets_the_intervals(tmp_path):
    # --grid replaces the config's grid.N
    out_dir = tmp_path / "out"
    assert main(["--config", str(write(tmp_path, make_config())), "--grid", "40",
                 "--out", str(out_dir), "--quiet"]) == 0
    doc = json.loads((out_dir / "solution.json").read_text())
    assert doc["grid"]["num_intervals"] == 40


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


def test_cold_verify_does_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on first use, 10-14 ms of a cold CLI run;
    # the package sorts and masks instead (kernels._unique)
    code = ("import sys; from tilq.cli import main; "
            "code = main(['--config', 'demos/configs/hyperbolic_verify.json', '--mode', "
            f"'verify', '--out', {str(tmp_path / 'out')!r}, '--quiet']); "
            "print(code, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=pathlib.Path(__file__).resolve().parents[1])
    assert out.stdout.strip() == "0 False"


def test_coarse_grid_verify_takes_eps_that_span_four_nodes(tmp_path):
    # the default eps plan took eps = 0.05 at the late sample times, 3 nodes
    # of a 64-interval grid, and exited 2 with "eps=0.05 spans only 3 grid
    # nodes"; each default eps is now at least the width to the 4th node
    config = pathlib.Path(__file__).resolve().parents[1] / "demos/configs/hyperbolic_verify.json"
    for N in (32, 50, 64):
        out_dir = tmp_path / str(N)
        assert main(["--config", str(config), "--mode", "verify", "--grid", str(N),
                     "--out", str(out_dir), "--quiet"]) == 0
        assert json.loads((out_dir / "verification.json").read_text())["pass"] is True
