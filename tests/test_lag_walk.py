"""Lag kernels (TwoTimeKernel.lag) and the triangle walk on distinct lags.

When Q, S and M depend on (t, s) only through s - t, problem._triangle_pass
evaluates and bounds them once per distinct float lag of the grid and each
block of rows reads its pairs' values from that table.  The same closures
behind TwoTimeKernel.from_callable are walked pair by pair; reports and
constants must match those bit for bit.  The window maps and the residual
pass contract a profile kernel (TwoTimeKernel.profile) as one scalar table
per block, so P and the residual profile match the pair problem's dense
pairs to rounding.
"""
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from tilq import (
    InvalidInputError,
    LQProblem,
    TimeGrid,
    TwoTimeKernel,
    contraction_constants,
    exponential_kernel,
    exponential_terminal,
    kernel_norms,
    riccati_residual_profile,
    solve_riccati,
    validate_assumptions,
)
from tilq.kernels import _ROW_BLOCK, _lag_table, finite_difference_dt
from tilq.riccati import RiccatiSolution, _contract, _Engine, _Profiled, q_bar_nodes
from conftest import n3_problem


def _s_lag():
    # exponential Q and M with a constant nonzero S, so the Schur-type
    # check solves on every entry (and passes)
    n3 = n3_problem()
    return LQProblem(A=n3.A, B=n3.B, Q=exponential_kernel(np.eye(3), 0.7, 1.0),
                     S=TwoTimeKernel.constant(0.1 * np.arange(6.0).reshape(2, 3) - 0.2, 1.0),
                     M=exponential_kernel(np.array([[1.0, 0.2], [0.2, 0.8]]), 0.7, 1.0),
                     G=exponential_terminal(np.eye(3), 0.7, 1.0))


def _s_exp():
    # exponential Q, M and S, S nonzero: every window map has a cross term
    s_lag = _s_lag()
    return LQProblem(A=s_lag.A, B=s_lag.B, Q=s_lag.Q,
                     S=exponential_kernel(0.1 * np.arange(6.0).reshape(2, 3) - 0.2, 0.4, 1.0,
                                          symmetry_required=False),
                     M=s_lag.M, G=s_lag.G)


def _profile(base, calls=None, name=""):
    """A plain, non-vectorized hyperbolic profile and its t-partial in the lag."""
    def fn(lag):
        if calls is not None:
            calls[name] += 1
        return base / (1.0 + lag)

    def dfn(lag):
        if calls is not None:
            calls[name + "_t"] += 1
        return base / (1.0 + lag) ** 2

    return fn, dfn


def _plain(calls=None):
    """n3 with Q and M declared by plain non-vectorized lag callables."""
    n3 = n3_problem()
    Qf, Qd = _profile(np.eye(3), calls, "Q")
    Mf, Md = _profile(np.eye(2), calls, "M")
    return LQProblem(A=n3.A, B=n3.B,
                     Q=TwoTimeKernel.lag(Qf, (3, 3), 1.0, Qd, symmetry_required=True),
                     S=n3.S, M=TwoTimeKernel.lag(Mf, (2, 2), 1.0, Md, symmetry_required=True),
                     G=n3.G)


def _pair_kernel(k):
    """k's values behind from_callable: a pair kernel, walked pair by pair."""
    return TwoTimeKernel.from_callable(k.eval, k.dims, k.horizon, k.eval_dt,
                                       symmetry_required=k.symmetry_required, vectorized=True)


def _pairwise(p):
    return LQProblem(A=p.A, B=p.B, Q=_pair_kernel(p.Q), S=_pair_kernel(p.S),
                     M=_pair_kernel(p.M), G=p.G)


def _plain_pairwise():
    # the same closures as _plain, given the lag s - t by from_callable
    n3 = n3_problem()

    def pair(base, dims):
        fn, dfn = _profile(base)
        return TwoTimeKernel.from_callable(lambda t, s: fn(s - t), dims, 1.0,
                                           lambda t, s: dfn(s - t), symmetry_required=True)

    return LQProblem(A=n3.A, B=n3.B, Q=pair(np.eye(3), (3, 3)), S=n3.S,
                     M=pair(np.eye(2), (2, 2)), G=n3.G)


def _jittered(N, seed=3):
    """TimeGrid.uniform(1, N) with its interior nodes moved by 0.3 h U(-1, 1)."""
    nodes = np.linspace(0.0, 1.0, N + 1)
    nodes[1:-1] += 0.3 / N * np.random.default_rng(seed).uniform(-1.0, 1.0, N - 1)
    return TimeGrid(nodes)


CASES = {"n3": (n3_problem, lambda: _pairwise(n3_problem())),
         "s-lag": (_s_lag, lambda: _pairwise(_s_lag())),
         "s-exp": (_s_exp, lambda: _pairwise(_s_exp())),
         "plain": (_plain, _plain_pairwise)}


@pytest.mark.parametrize("name, N", [("n3", 64), ("n3", 400), ("s-lag", 64), ("s-lag", 400),
                                     ("plain", 64), ("plain", 200)])
def test_lag_walk_matches_the_pair_walk(name, N):
    lag, pair = (make() for make in CASES[name])
    g = TimeGrid.uniform(1.0, N)
    assert lag.Q.lag_only and lag.S.lag_only and lag.M.lag_only
    assert not pair.Q.lag_only and _lag_table(g.nodes) is not None
    assert validate_assumptions(lag, g).to_dict() == validate_assumptions(pair, g).to_dict()
    assert contraction_constants(lag, g).to_dict() == contraction_constants(pair, g).to_dict()
    for a, b in ((lag.Q, pair.Q), (lag.S, pair.S), (lag.M, pair.M)):
        assert kernel_norms(a, g) == kernel_norms(b, g)


@pytest.mark.parametrize("name", sorted(CASES))
def test_lag_solve_matches_the_pair_solve(name):
    # the plain lag closures take the dense pairs in the window maps, as the
    # pair closures do: the same P and meta bit for bit.  The families'
    # profile kernels are contracted as scalar tables, which sums in another
    # order: P agrees to rounding and the march is the same
    lag, pair = (make() for make in CASES[name])
    g = TimeGrid.uniform(1.0, 200)
    got, want = solve_riccati(lag, g), solve_riccati(pair, g)
    # the residual pass contracts as the window maps do: on the same P the
    # plain closures give the pair closures' profile and q_bar bit for bit,
    # the families' tables the dense pairs' to rounding (s-exp with the
    # cross term of a nonzero S_t)
    residual = riccati_residual_profile(lag, got), riccati_residual_profile(pair, got)
    qbar = q_bar_nodes(lag, got), q_bar_nodes(pair, got)
    if name == "plain":
        np.testing.assert_array_equal(got.values, want.values)
        assert got.meta == want.meta
        np.testing.assert_array_equal(*residual)
        np.testing.assert_array_equal(*qbar)
        return
    assert np.abs(got.values - want.values).max() <= 1e-14
    for key in ("mode", "halvings"):
        assert got.meta[key] == want.meta[key]
    assert [w["iterations"] for w in got.meta["windows"]] \
        == [w["iterations"] for w in want.meta["windows"]]
    assert np.abs(residual[0] - residual[1]).max() <= 1e-15
    assert np.abs(qbar[0] - qbar[1]).max() <= 1e-14


@pytest.mark.parametrize("name", ["n3", "s-exp"])
@pytest.mark.parametrize("N", [64, 400])
@pytest.mark.parametrize("grid", ["uniform", "jittered"])
def test_profile_contraction_matches_the_dense_one(name, N, grid):
    # every block, core and folded, of every window map of the n3 solve and
    # of the window of the whole grid (the residual pass), whose last block
    # at N = 64 holds no column before its split node: the profile tables
    # contract as the pair twin's dense pairs do, S's cross term included
    p = n3_problem() if name == "n3" else _s_exp()
    g = TimeGrid.uniform(1.0, N) if grid == "uniform" else _jittered(N)
    engine, twin, K = _Engine(p, g), _Engine(_pairwise(p), g), g.nodes.size
    windows = [(g.index_of(w["a"]), g.index_of(w["b"]))
               for w in solve_riccati(n3_problem(), g).meta["windows"]] + [(0, K - 1)]
    rng = np.random.default_rng(1)
    X, Y = rng.standard_normal((K, 3, 3)), rng.standard_normal((K, 2, 3))
    empty = 0
    for a, b in windows:
        c = engine.split_node(b)
        for i0 in range(a, b + 1, _ROW_BLOCK):
            i1 = min(i0 + _ROW_BLOCK, b + 1)
            for lo, hi, dense, tables in zip((i0, c), (c, K), twin.triangle_block(i0, i1, c),
                                             engine.triangle_block(i0, i1, c)):
                cols = hi - lo
                # a half without columns stores no part, dense or table
                assert (dense.Q is None) == (dense.M is None) == (cols == 0)
                assert all(part is None or part.ndim == 4 and part.shape[0] == cols
                           for part in dense)
                assert all(part is None or isinstance(part, _Profiled) and
                           part.table.shape == (cols, i1 - i0) for part in tables)
                assert (tables.S is None) == (name == "n3" or cols == 0)
                L = slice(lo, lo + cols)
                want, got = _contract(dense, X[L], Y[L]), _contract(tables, X[L], Y[L])
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
                empty += cols == 0
    assert empty == (N % _ROW_BLOCK == 0)


def test_profile_kernels_take_the_tables_and_lag_kernels_the_dense_pairs(monkeypatch):
    # a kernel's declaration alone picks its contraction.  The families'
    # profile kernels are scalar tables in the window maps and in the
    # residual pass, which evaluates none of their matrix partials.
    # TwoTimeKernel.lag and from_callable kernels declare no profile, so
    # both take their dense pairs
    built = []  # (columns, part) of every part of every half built
    real = _Engine.triangle_block

    def spy(self, i0, i1, c):
        halves = real(self, i0, i1, c)
        for cols, half in zip((c - i0, self.nodes.size - c), halves):
            built.extend((cols, part) for part in half)
        return halves

    monkeypatch.setattr(_Engine, "triangle_block", spy)
    g = TimeGrid.uniform(1.0, 64)
    p = n3_problem()
    calls = Counter()
    for name in "QSM":
        k = getattr(p, name)

        def counted(t, s, k=k, name=name):
            calls[name] += 1
            return type(k).eval_dt(k, t, s)

        monkeypatch.setattr(k, "eval_dt", counted)
    sol = solve_riccati(p, g)
    assert built and all(part is None or isinstance(part, _Profiled) for _, part in built)
    built.clear()
    calls.clear()
    riccati_residual_profile(p, sol)
    assert built and all(part is None or isinstance(part, _Profiled) for _, part in built)
    assert any(isinstance(part, _Profiled) for _, part in built) and not calls
    for make in (_plain, _plain_pairwise):
        q = make()
        for run in (lambda: solve_riccati(q, g), lambda: riccati_residual_profile(q, sol)):
            built.clear()
            run()
            # Q and M dense on every half with columns; n3's S is the
            # constant zero, so it is None
            assert built and all(isinstance(part, np.ndarray) and part.ndim == 4 if cols
                                 else part is None for cols, part in built[0::3] + built[2::3])
            assert all(part is None for _, part in built[1::3])


def test_residual_pass_on_tables_flags_a_moved_node():
    # s-exp, S nonzero: a P moved by 1e-6 at one interior node reads a
    # residual above 1e-7 there, through the tables as through the dense
    # pairs of the pair twin
    p, twin = _s_exp(), _pairwise(_s_exp())
    sol = solve_riccati(p, TimeGrid.uniform(1.0, 200))
    values = sol.values.copy()
    values[77] += 1e-6 * np.eye(3)
    bad = RiccatiSolution(sol.grid, values)
    assert riccati_residual_profile(p, sol).max() < 1e-7
    for q in (p, twin):
        assert riccati_residual_profile(q, bad)[77] > 1e-7


def test_lag_closure_is_called_per_distinct_lag():
    # a validated solve at N=200: the walk calls each value closure once
    # per distinct lag (and once more for the diagonal), each partial once
    # per distinct lag and then per distinct lag of each window's blocks;
    # the pair walk alone calls each closure once per node pair
    calls = Counter()
    g = TimeGrid.uniform(1.0, 200)
    p = _plain(calls)
    calls.clear()
    solve_riccati(p, g)
    lags = _lag_table(g.nodes).s.size
    K = g.nodes.size
    assert lags == 655 and K * (K + 1) // 2 == 20301
    assert calls["Q"] <= lags + 2 and calls["M"] <= lags + 2
    assert calls["Q_t"] <= 5 * lags and calls["M_t"] <= 5 * lags


def test_jittered_grid_takes_the_pair_table():
    # moving the interior nodes makes almost every pair's lag its own, far
    # past the 32 K entries a block holds, so each block is its own table
    g = _jittered(400)
    assert _lag_table(g.nodes) is None
    lag, pair = n3_problem(), _pairwise(n3_problem())
    assert validate_assumptions(lag, g).to_dict() == validate_assumptions(pair, g).to_dict()
    assert contraction_constants(lag, g).to_dict() == contraction_constants(pair, g).to_dict()
    assert kernel_norms(lag.Q, g) == kernel_norms(pair.Q, g)


def test_lag_walk_holds_no_array_over_the_pairs():
    # N=3200: the lags of the 5 124 801 node pairs alone would take 39 MiB
    # as float64; the walk holds the 11 358 distinct lags with their first
    # pairs, counts and values, and while it builds that table one block's
    # rows at a time (10.4 MiB here; 65 MiB pair by pair)
    p, g = n3_problem(), TimeGrid.uniform(1.0, 3200)
    tracemalloc.start()
    try:
        validate_assumptions(p, g)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak <= 12.0


def test_lag_table_holds_each_distinct_lag_once():
    # each distinct lag once, sorted, with the first of its pairs in
    # row-major order and the number of its pairs
    for g in (TimeGrid.uniform(1.0, 400), TimeGrid.uniform(3.0, 2 * _ROW_BLOCK + 1),
              _jittered(40)):
        K = g.nodes.size
        ii, jj = np.triu_indices(K)
        want, first, count = np.unique(g.nodes[jj] - g.nodes[ii], return_index=True,
                                       return_counts=True)
        table = _lag_table(g.nodes)
        if want.size > _ROW_BLOCK * K:
            assert table is None
            continue
        np.testing.assert_array_equal(table.s, want)
        np.testing.assert_array_equal(table.at, (g.nodes[ii[first]], g.nodes[jj[first]]))
        np.testing.assert_array_equal(table.count, count)
    # the count of a uniform grid of 400 intervals on [0, 1]
    assert _lag_table(TimeGrid.uniform(1.0, 400).nodes).s.size == 1364


def test_lag_kernel_evaluates_the_lag():
    fn, dfn = _profile(np.array([[1.0, 0.5], [0.5, 2.0]]))
    k = TwoTimeKernel.lag(fn, (2, 2), 1.0, dfn, symmetry_required=True)
    t, s = np.array([0.0, 0.25, 0.5]), np.array([0.5, 0.75, 1.0])
    np.testing.assert_array_equal(k.eval(t, s), np.stack([fn(x) for x in s - t]))
    np.testing.assert_array_equal(k.eval_dt(0.2, 0.7), dfn(0.7 - 0.2))
    assert k.provenance == "analytic" and k.lag_only and isinstance(k, TwoTimeKernel)
    assert not TwoTimeKernel.from_callable(lambda t, s: fn(s - t), (2, 2), 1.0).lag_only
    assert TwoTimeKernel.constant(np.eye(2), 1.0).lag_only


def test_non_vectorized_lag_closure_runs_once_per_distinct_lag():
    calls = Counter()
    k = TwoTimeKernel.lag(_profile(np.eye(1), calls, "k")[0], (1, 1), 1.0)
    calls.clear()
    nodes = np.linspace(0.0, 1.0, 11)
    ii, jj = np.triu_indices(nodes.size)
    lags = nodes[jj] - nodes[ii]
    got = k.eval(nodes[ii], nodes[jj])
    assert calls["k"] == np.unique(lags).size < lags.size
    np.testing.assert_array_equal(got[:, 0, 0], 1.0 / (1.0 + lags))


def test_profile_kernel_declares_its_structure():
    # profile(s - t) base and its partial, through the families' closures;
    # constant declares a zero partial; lag and pair kernels declare none
    base = np.array([[1.0, 0.2], [0.2, 0.8]])

    def profile(lag):
        return np.exp(-0.7 * lag)

    def dprofile(lag):
        return 0.7 * np.exp(-0.7 * lag)

    k = TwoTimeKernel.profile(profile, dprofile, base, 1.0, symmetry_required=True)
    t, s = np.array([0.0, 0.25, 0.5]), np.array([0.5, 0.75, 1.0])
    np.testing.assert_array_equal(k.eval(t, s), profile(s - t)[:, None, None] * base)
    np.testing.assert_array_equal(k.eval_dt(t, s), dprofile(s - t)[:, None, None] * base)
    family = exponential_kernel(base, 0.7, 1.0)
    np.testing.assert_array_equal(family.eval(t, s), k.eval(t, s))
    np.testing.assert_array_equal(family.eval_dt(t, s), k.eval_dt(t, s))
    assert k.lag_only and k.provenance == "analytic" and k.dprofile is dprofile
    np.testing.assert_array_equal(k.base, base)
    with pytest.raises(InvalidInputError, match="symmetric"):
        TwoTimeKernel.profile(profile, dprofile, np.triu(base), 1.0, symmetry_required=True)
    c = TwoTimeKernel.constant(-base, 1.0)
    assert c.dprofile is None and c.lag_only
    np.testing.assert_array_equal(c.eval(t, s), np.broadcast_to(-base, (3, 2, 2)))
    np.testing.assert_array_equal(c.eval_dt(t, s), np.zeros((3, 2, 2)))
    fn, dfn = _profile(base)
    assert TwoTimeKernel.lag(fn, (2, 2), 1.0, dfn).base is None
    assert TwoTimeKernel.from_callable(lambda t, s: fn(s - t), (2, 2), 1.0).base is None


@pytest.mark.parametrize("vectorized", [False, True])
def test_lag_difference_depends_on_the_lag_alone(vectorized):
    # without dfn the t-partial is minus the lag difference of the profile,
    # so two pairs with the same float lag get the same partial, at the
    # corner t = s = 0 and at t = 0, s = T included
    base = np.array([[1.0, 0.3], [0.3, 2.0]])
    if vectorized:
        k = TwoTimeKernel.lag(lambda lag: np.exp(-0.5 * lag)[:, None, None] * base, (2, 2),
                              1.0, vectorized=True)
    else:
        k = TwoTimeKernel.lag(lambda lag: np.exp(-0.5 * lag) * base, (2, 2), 1.0)
    assert k.provenance == "finite-difference"
    nodes = np.linspace(0.0, 1.0, 9)
    ii, jj = np.triu_indices(nodes.size)
    t, s = nodes[ii], nodes[jj]
    got = k.eval_dt(t, s)
    want = 0.5 * np.exp(-0.5 * (s - t))[:, None, None] * base
    np.testing.assert_allclose(got, want, atol=1e-8)
    lags = s - t
    for lag in np.unique(lags):
        same = got[lags == lag]
        assert np.all(same == same[0])
    val, stencil = finite_difference_dt(k, 0.0, 0.0, 1e-6, return_info=True)
    np.testing.assert_array_equal(val, k.eval_dt(0.0, 0.0))
    assert stencil == "forward"  # forward in the lag, so backward in t
    assert finite_difference_dt(k, 0.0, 1.0, 1e-6, return_info=True)[1] == "backward"
    assert finite_difference_dt(k, 0.3, 0.6, 1e-6, return_info=True)[1] == "central"
    with pytest.raises(InvalidInputError):  # off the triangle, as for pair kernels
        k.eval_dt(0.6, 0.3)


@pytest.mark.parametrize("g", [TimeGrid.uniform(1.0, 400),
                               TimeGrid.uniform(1.0, 2 * _ROW_BLOCK + 1), _jittered(40)],
                         ids=["uniform-400", "uniform-65", "jittered-40"])
def test_lag_kernel_norms_match_the_pair_norms_off_monotone(g):
    # kernel_norms reduces every two-time kernel, lag or not, on the 32-row
    # blocks of the triangle walk, each row's worst taken over its own
    # pairs; a lag profile that rises and falls, whose worst is at no fixed
    # lag of a row, reads the same norms as its pair kernel
    profiles = {"bump": (lambda l: np.exp(-50.0 * (l - 0.37) ** 2),
                         lambda l: 100.0 * (l - 0.37) * np.exp(-50.0 * (l - 0.37) ** 2)),
                "wave": (lambda l: 2.0 + np.sin(37.0 * l), lambda l: -37.0 * np.cos(37.0 * l))}
    for fn, dfn in profiles.values():
        k = TwoTimeKernel.lag(lambda l: fn(l)[:, None, None], (1, 1), 1.0,
                              lambda l: dfn(l)[:, None, None], vectorized=True)
        assert kernel_norms(k, g) == kernel_norms(_pair_kernel(k), g)


def test_lag_kernel_norms_on_the_table():
    # a constant lag kernel's L^1 norm stays T times its matrix norm
    g = TimeGrid.uniform(2.0, 100)
    k = TwoTimeKernel.constant(np.array([[1.0, -2.0], [0.0, 1.0]]), 2.0)
    nb = kernel_norms(k, g)
    assert nb.c_norm == 3.0 and nb.c1_norm == 3.0
    np.testing.assert_allclose(nb.l1_norm, 6.0, rtol=1e-12)
