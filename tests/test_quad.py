import numpy as np
from numpy.polynomial import polynomial as npoly

from tilq._quad import integrate, left_slice_weights, simpson_weights, tail_slice_weights


def _random_grid(rng, K, spread=(0.01, 1.0)):
    return np.cumsum(rng.uniform(*spread, K)) * rng.uniform(0.1, 10.0) - rng.uniform()


def test_exact_on_cubics_even_pairs():
    x = np.linspace(0.0, 2.0, 9)
    for k in range(4):
        got = simpson_weights(x) @ x**k
        np.testing.assert_allclose(got, 2.0 ** (k + 1) / (k + 1), rtol=1e-13)


def test_exact_on_cubics_odd_count():
    x = np.linspace(0.0, 1.0, 8)
    for k in range(4):
        got = simpson_weights(x) @ x**k
        np.testing.assert_allclose(got, 1.0 / (k + 1), rtol=1e-12)


def test_two_nodes_trapezoid():
    w = simpson_weights(np.array([0.0, 0.5]))
    np.testing.assert_allclose(w, [0.25, 0.25])


def test_fourth_order_convergence():
    def err(n):
        x = np.linspace(0.0, np.pi, n + 1)
        return abs(integrate(np.sin(x), x) - 2.0)

    e1, e2 = err(32), err(64)
    assert e1 / e2 > 12.0  # ~16 for fourth order


def test_integrate_matrix_values():
    x = np.linspace(0.0, 1.0, 33)
    vals = np.stack([np.array([[t, 1.0], [0.0, t**2]]) for t in x])
    got = integrate(vals, x)
    np.testing.assert_allclose(got, [[0.5, 1.0], [0.0, 1.0 / 3.0]], atol=1e-12)


def test_tail_slice_rows_match_direct_weights():
    rng = np.random.default_rng(7)
    for x in [np.linspace(0.0, 1.0, 21)] + [_random_grid(rng, K) for K in range(7)]:
        W = tail_slice_weights(x)
        for i in range(x.size):
            np.testing.assert_allclose(W[i, i:], simpson_weights(x[i:]),
                                       rtol=1e-13, atol=1e-15 * np.ptp(x))
            assert np.all(W[i, :i] == 0.0)


def test_left_slice_last_interval_quadratic():
    # the one-interval slice must stay exact for quadratics via the lookback node
    x = np.linspace(0.0, 1.0, 11)
    W = left_slice_weights(x)
    i = x.size - 2
    for k in range(3):
        exact = (x[-1] ** (k + 1) - x[i] ** (k + 1)) / (k + 1)
        np.testing.assert_allclose(W[i] @ x**k, exact, atol=1e-14)


def _left_slice_by_intervals(x):
    # row i sums, over the intervals j >= i, the exact integrals on
    # [x_j, x_j+1] of the Lagrange basis of the min(4, K) nodes around j
    K = x.size
    m = min(4, K)
    W = np.zeros((K, K))
    for j in range(K - 1):
        idx = np.arange(m) + min(max(j - 1, 0), K - m)
        u = x - x[j]  # the interval is [0, u[j + 1]]
        for k in idx:
            others = u[idx[idx != k]]
            basis = npoly.polyfromroots(others) / np.prod(u[k] - others)
            W[:j + 1, k] += npoly.polyval(u[j + 1], npoly.polyint(basis))
    return W


def test_left_slice_rows_sum_interval_weights():
    rng = np.random.default_rng(11)
    for K in list(range(7)) + list(rng.integers(7, 60, 40)):
        x = _random_grid(rng, K, spread=(0.2, 1.0))
        W = left_slice_weights(x)
        ref = _left_slice_by_intervals(x)
        h = np.diff(x).min() if K > 1 else 1.0
        np.testing.assert_allclose(W, ref, rtol=0.0, atol=1e-13 * h, err_msg=str(K))
        if K:
            np.testing.assert_allclose(W[0], simpson_weights(x), rtol=0.0, atol=1e-13 * h)
            assert np.all(W[-1] == 0.0)


def test_exact_on_cubics_every_slice():
    # every left-slice row, and every tail row of four or more nodes, on
    # uniform and random nonuniform grids
    rng = np.random.default_rng(5)
    grids = [np.linspace(-1.0, 2.0, K) for K in (4, 5, 6, 7, 12)]
    grids += [_random_grid(rng, K) for K in range(4, 91)]
    for x in grids:
        L, T = left_slice_weights(x), tail_slice_weights(x)[:x.size - 3]
        xc = x - x.mean()
        for k in range(4):
            exact = (xc[-1] ** (k + 1) - xc ** (k + 1)) / (k + 1)
            tol = 1e-13 * (1.0 + np.abs(xc).max()) ** (k + 1)
            np.testing.assert_allclose(L @ xc**k, exact, rtol=0.0, atol=tol)
            np.testing.assert_allclose(T @ xc**k, exact[:x.size - 3], rtol=0.0, atol=tol)


def test_short_inputs_lines_and_parabolas():
    # two nodes integrate lines exactly, three nodes parabolas
    rng = np.random.default_rng(3)
    for _ in range(20):
        for K in (2, 3):
            x = _random_grid(rng, K)
            for k in range(K):
                exact = (x[-1] ** (k + 1) - x[0] ** (k + 1)) / (k + 1)
                np.testing.assert_allclose(simpson_weights(x) @ x**k, exact,
                                           rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(simpson_weights(np.array([0.0, 1.0, 2.0])),
                               [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0], rtol=1e-15)
