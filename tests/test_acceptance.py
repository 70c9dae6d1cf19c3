"""Acceptance checks, one per numbered criterion; each prints a PASS/FAIL line."""
import json
import subprocess
import sys
import time

import numpy as np
from scipy.linalg import expm

import tilq
from tilq import (
    TimeGrid,
    build_policy,
    brute_force_cost,
    bvp_residual,
    classical_riccati,
    constant_problem,
    contraction_constants,
    cost,
    equilibrium_certificate,
    from_riccati,
    fundamental_solution,
    hyperbolic_problem,
    riccati_residual_profile,
    solve_riccati,
    value_identity_gap,
)
from tilq.equilibrium import SampleSpec
from tilq.kernels import matrix_norm_many
from tilq.riccati import RiccatiSolution, q_bar_nodes
from tilq.verify import default_state_samples
from conftest import random_tc_instance

TANH1 = 0.7615941559557649  # tanh(1)

_SOLVED = {}


def _report(capsys, name, passed, detail=""):
    line = f"[{'PASS' if passed else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    with capsys.disabled():
        sys.stdout.write("\n" + line + "\n")
        sys.stdout.flush()
    assert passed, line


def _hyperbolic_instance(k, theta, n):
    key = (k, theta, n)
    if key not in _SOLVED:
        base = np.eye(n)
        p = hyperbolic_problem(base, base, base, B=np.eye(n), k=k, theta=theta,
                               T=1.0)
        t0 = time.perf_counter()
        sol = solve_riccati(p, TimeGrid.uniform(1.0, 400))
        _SOLVED[key] = (p, sol, time.perf_counter() - t0)
    return _SOLVED[key]


def test_criterion_1_time_consistent_reduction(capsys):
    rng = np.random.default_rng(11)
    dims = [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]
    worst = 0.0
    slowest = 0.0
    for n, m in dims:
        p = random_tc_instance(rng, n, m)
        t0 = time.perf_counter()
        sol = solve_riccati(p, TimeGrid.uniform(1.0, 400))
        elapsed = time.perf_counter() - t0
        ref = classical_riccati(p, sol.grid)
        dev = float(matrix_norm_many(sol.values - ref.values).max())
        r = sol.meta["constants"]["r"]
        assert dev <= 1e-6 * (1.0 + r), (n, m, dev, r)
        assert elapsed <= 10.0, (n, m, elapsed)
        worst = max(worst, dev / (1e-6 * (1.0 + r)))
        slowest = max(slowest, elapsed)
    tanh_sol = solve_riccati(
        constant_problem(A=0.0, B=1.0, Q=1.0, S=0.0, M=1.0, G=0.0, T=1.0),
        TimeGrid.uniform(1.0, 400))
    tanh_err = abs(float(tanh_sol(0.0)[0, 0]) - TANH1)
    _report(capsys, "criterion 1 (time-consistent reduction)",
            worst <= 1.0 and tanh_err <= 1e-6 and slowest <= 10.0,
            f"worst dev {worst:.2e} of budget, tanh err {tanh_err:.2e}, "
            f"slowest {slowest:.2f}s")


def test_criterion_2_decoupled_analytic(capsys):
    p = constant_problem(A=0.0, B=0.0, Q=2.0, S=0.0, M=1.0, G=0.5, T=1.0)
    t0 = time.perf_counter()
    sol = solve_riccati(p, TimeGrid.uniform(1.0, 400))
    elapsed = time.perf_counter() - t0
    exact = 0.5 + (1.0 - sol.grid.nodes) * 2.0
    err = float(np.abs(sol.values[:, 0, 0] - exact).max())
    _report(capsys, "criterion 2 (decoupled analytic case)",
            err <= 1e-9 and elapsed <= 1.0,
            f"max err {err:.2e}, {elapsed:.2f}s")


def test_criterion_3_equivalence_residuals(capsys):
    worst_ric = worst_bvp = worst_val = 0.0
    slowest = 0.0
    for k in (0.5, 1.0, 2.0):
        for theta in (1.0, 2.0):
            for n in (1, 2):
                p, sol, solve_time = _hyperbolic_instance(k, theta, n)
                t0 = time.perf_counter()
                res = float(riccati_residual_profile(p, sol).max())
                assert res <= 1e-6, (k, theta, n, res)
                worst_ric = max(worst_ric, res)
                for t_s, x_s in default_state_samples(p, sol.grid, 5):
                    b = from_riccati(p, sol, t_s, x_s)
                    res_X, res_phi = bvp_residual(p, sol, b)
                    tol_b = 5e-6 * (1.0 + float(np.abs(x_s).max()))
                    assert max(res_X, res_phi) <= tol_b, (k, theta, n, t_s)
                    worst_bvp = max(worst_bvp, max(res_X, res_phi) / tol_b)
                    pol = build_policy(p, sol)
                    gap = value_identity_gap(p, pol, t_s, x_s)
                    quad = abs(float(x_s @ sol(t_s) @ x_s))
                    tol_v = 1e-6 * (1.0 + quad)
                    assert gap <= tol_v, (k, theta, n, t_s, gap)
                    worst_val = max(worst_val, gap / tol_v)
                elapsed = solve_time + time.perf_counter() - t0
                assert elapsed <= 60.0, (k, theta, n, elapsed)
                slowest = max(slowest, elapsed)
    _report(capsys, "criterion 3 (equivalence-theorem residuals)", True,
            f"riccati {worst_ric:.2e}, bvp {worst_bvp:.2e} of budget, "
            f"value {worst_val:.2e} of budget, slowest {slowest:.1f}s")


def test_criterion_4_equilibrium_certificate(capsys):
    p, sol, _ = _hyperbolic_instance(1.0, 1.0, 1)
    pol = build_policy(p, sol)
    rep = equilibrium_certificate(p, pol)
    assert rep.passed
    assert rep.worst_closed_form >= -1e-10
    agree_ok = True
    for s in rep.samples:
        if s.extrapolated is None:
            continue
        assert s.extrapolated >= -1e-4, (s.t, s.extrapolated)
        tol = max(1e-4, 0.05 * s.closed_form)
        if abs(s.extrapolated - s.closed_form) > tol:
            agree_ok = False
    assert agree_ok
    # a deliberately corrupted solution must be flagged
    bump = 0.2 * np.exp(-(((sol.grid.nodes - 0.5) / 0.125) ** 2))
    bad = RiccatiSolution(sol.grid, sol.values + bump[:, None, None], {})
    bad_rep = equilibrium_certificate(
        p, build_policy(p, bad),
        SampleSpec(times=tuple(np.linspace(0.3, 0.7, 5))))
    _report(capsys, "criterion 4 (equilibrium certificate)",
            rep.passed and agree_ok and not bad_rep.passed,
            f"worst closed form {rep.worst_closed_form:.1e}, worst "
            f"extrapolated {rep.worst_extrapolated:.1e}, corrupted flagged "
            f"{not bad_rep.passed}")


def test_criterion_5_structural_invariants(capsys):
    worst_sym = worst_eig = worst_bound = 0.0
    for k in (0.5, 1.0, 2.0):
        for theta in (1.0, 2.0):
            for n in (1, 2):
                p, sol, _ = _hyperbolic_instance(k, theta, n)
                vals = sol.values
                pc = float(matrix_norm_many(vals).max())
                drift = float(np.abs(vals - np.swapaxes(vals, -1, -2)).max())
                assert drift <= 1e-12 * (1.0 + pc), (k, theta, n, drift)
                mineig = float(np.linalg.eigvalsh(vals).min())
                assert mineig >= -1e-8 * (1.0 + pc), (k, theta, n, mineig)
                r = sol.meta["constants"]["r"]
                assert pc <= r * (1.0 + 1e-6), (k, theta, n, pc, r)
                worst_sym = max(worst_sym, drift / (1e-12 * (1.0 + pc)))
                worst_eig = max(worst_eig, -mineig / (1e-8 * (1.0 + pc)))
                worst_bound = max(worst_bound, pc / r)
    _report(capsys, "criterion 5 (structural invariants)", True,
            f"sym drift {worst_sym:.2e} of budget, neg eig {worst_eig:.2e} of "
            f"budget, ||P||/r {worst_bound:.3f}")


def test_criterion_6_contraction_behavior(capsys):
    # hand-derived constants reproduced exactly
    p_hand = constant_problem(A=0.0, B=0.0, Q=1.0, S=0.0, M=1.0, G=1.0, T=1.0)
    cc = contraction_constants(p_hand, TimeGrid.uniform(1.0, 64))
    hand_ok = (cc.r == 2.0 and cc.tau2 == 1.0 / 3.0
               and cc.tau3 == 1.0 / 16.0 and cc.tau == 1.0 / 16.0)
    assert hand_ok, cc

    # guaranteed-mode instances iterate on certified windows (width <= tau);
    # the weak-feedback instance measures a genuine nonzero factor
    certified = [
        hyperbolic_problem(1.0, 1.0, 1.0, B=0.0, k=1.0, theta=1.0, T=1.0),
        constant_problem(A=0.0, B=0.0, Q=2.0, S=0.0, M=1.0, G=0.5, T=1.0),
        constant_problem(A=0.0, B=0.05, Q=1.0, S=0.0, M=1.0, G=1.0, T=1.0),
    ]
    worst_fac = 0.0
    measured = 0
    for p in certified:
        sol = solve_riccati(p, TimeGrid.uniform(1.0, 512))
        assert sol.meta["mode"] == "guaranteed"
        tau = sol.meta["constants"]["tau"]
        for w in sol.meta["windows"]:
            assert w["b"] - w["a"] <= tau + 1e-12
            assert w["contraction_factor"] <= 0.75, w
            worst_fac = max(worst_fac, w["contraction_factor"])
            measured += w["contraction_factor"] > 0.0
    assert measured > 0  # at least one window with an observed iterate ratio

    # every certified-width window of every solved acceptance instance
    for p, sol, _ in _SOLVED.values():
        tau = sol.meta["constants"]["tau"]
        for w in sol.meta["windows"]:
            if w["b"] - w["a"] <= tau + 1e-12:
                assert w["contraction_factor"] <= 0.75, w
                worst_fac = max(worst_fac, w["contraction_factor"])
    _report(capsys, "criterion 6 (contraction behavior)", True,
            f"hand constants exact, worst certified-window factor {worst_fac:.2e}")


def test_criterion_7_f_lipschitz_bound(capsys):
    rng = np.random.default_rng(77)
    worst_frac = 0.0
    for n in (1, 2):
        base = np.eye(n)
        p = hyperbolic_problem(base, base, base, B=0.2 * base, k=1.0,
                               theta=1.0, T=1.0)
        g = TimeGrid.uniform(1.0, 100)
        cc = contraction_constants(p, g)
        bound = 4.0 * g.T * cc.gamma_bar * np.exp(4.0 * cc.omega_bar)
        K = g.nodes.size
        for _ in range(20):
            pair = []
            for _ in range(2):
                W = rng.standard_normal((n, n))
                sym = 0.5 * (W + W.T)
                norm = float(np.abs(sym).sum(axis=1).max())
                sym *= min(1.0, 0.9 * 2.0 * cc.r / max(norm, 1e-12))
                vals = np.broadcast_to(sym, (K, n, n)).copy()
                pair.append(RiccatiSolution(g, vals, {}))
            dF = q_bar_nodes(p, pair[0]) - q_bar_nodes(p, pair[1])
            num = float(matrix_norm_many(dF).max())
            den = float(matrix_norm_many(pair[0].values - pair[1].values).max())
            ratio = num / den
            assert ratio <= bound, (n, ratio, bound)
            worst_frac = max(worst_frac, ratio / bound)
    _report(capsys, "criterion 7 (nonlocal-term Lipschitz bound)", True,
            f"largest measured/theoretical ratio {worst_frac:.2e}")


def test_criterion_8_convergence_orders(capsys):
    # equilibrium Riccati residual drops by >= 3x under grid halving
    p = hyperbolic_problem(1.0, 1.0, 1.0, B=1.0, k=1.0, theta=1.0, T=1.0)
    res = {}
    for N in (100, 200):
        sol = solve_riccati(p, TimeGrid.uniform(1.0, N))
        res[N] = float(riccati_residual_profile(p, sol).max())
    ric_ratio = res[100] / res[200]
    assert ric_ratio >= 3.0, res

    # propagator error vs matrix exponential drops by >= 8x
    A = np.array([[0.0, 1.0], [-4.0, -0.4]])
    ref = expm(A)
    from tilq import OneTimeMatrixFn

    f = OneTimeMatrixFn.constant(A, 1.0)
    errs = [np.abs(fundamental_solution(f, TimeGrid.uniform(1.0, N)).values[-1]
                   - ref).max() for N in (64, 128)]
    prop_ratio = errs[0] / errs[1]
    assert prop_ratio >= 8.0, errs

    # the two independent cost evaluations converge at order >= 2
    p_tc = constant_problem(A=0.0, B=1.0, Q=1.0, S=0.0, M=1.0, G=0.0, T=1.0)
    x, v = np.array([1.0]), np.array([0.5])
    J_ref = cost(p_tc, 0.0, x, v)
    cerrs = [abs(brute_force_cost(p_tc, 0.0, x, v, refinement=r) - J_ref)
             for r in (4, 8, 16)]
    orders = [np.log2(cerrs[i] / cerrs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9, cerrs
    _report(capsys, "criterion 8 (convergence orders)", True,
            f"riccati x{ric_ratio:.1f}, propagator x{prop_ratio:.1f}, "
            f"cost order {min(orders):.2f}")


def test_criterion_9_cli_contract(tmp_path, capsys):
    base = {
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
        "grid": {"N": 128},
    }

    def run(cfg, *extra):
        path = tmp_path / f"cfg{abs(hash(json.dumps(cfg, sort_keys=True) + str(extra)))}.json"
        path.write_text(json.dumps(cfg))
        return subprocess.run(
            [sys.executable, "-m", "tilq.cli", "--config", str(path), *extra],
            capture_output=True, text=True)

    import copy

    codes = {}
    # exit 0: valid solve
    r = run(base, "--out", str(tmp_path / "ok"), "--quiet")
    codes[0] = r.returncode

    # exit 2: invalid (asymmetric) M
    bad = copy.deepcopy(base)
    bad["problem"].update({
        "n": 2, "m": 2,
        "A": {"kind": "constant", "base": [[0.0, 0.0], [0.0, 0.0]]},
        "B": {"kind": "constant", "base": [[1.0, 0.0], [0.0, 1.0]]},
        "Q": {"kind": "constant", "base": [[1.0, 0.0], [0.0, 1.0]]},
        "S": {"kind": "constant", "base": [[0.0, 0.0], [0.0, 0.0]]},
        "M": {"kind": "constant", "base": [[1.0, 2.0], [0.0, 1.0]]},
        "G": {"kind": "constant", "base": [[0.0, 0.0], [0.0, 0.0]]},
    })
    codes[2] = run(bad).returncode

    # exit 3: nonconvergent (iteration cap 1)
    stuck = copy.deepcopy(base)
    stuck["solver"] = {"max_iter": 1}
    codes[3] = run(stuck, "--quiet").returncode

    # exit 4: verification fails on a corrupted solution
    corrupt = copy.deepcopy(base)
    corrupt["mode"] = "verify"
    corrupt["debug"] = {"corrupt_solution": True}
    codes[4] = run(corrupt, "--out", str(tmp_path / "bad"), "--quiet").returncode

    codes_ok = codes == {0: 0, 2: 2, 3: 3, 4: 4}
    assert codes_ok, codes

    # bit-identical outputs across two runs of the same config
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        r = run(base, "--out", str(out), "--quiet")
        assert r.returncode == 0
        blobs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    identical = blobs[0] == blobs[1] and len(blobs[0]) >= 4
    _report(capsys, "criterion 9 (CLI contract)", codes_ok and identical,
            f"exit codes {sorted(codes.values())}, outputs bit-identical "
            f"{identical}")
