import numpy as np
from numpy.polynomial import polynomial as npoly

from tilq._quad import derivative, integrate, simpson_weights, tail_band, tail_integrals


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


def _tail_rows(x):
    """Row i of the tail rule, W[i, i:], from the band and the vector."""
    v, band = tail_band(x)
    return [np.concatenate([band[i, :min(4, x.size - i)], v[i + 4:]]) for i in range(x.size)]


def test_tail_slice_rows_match_direct_weights():
    # the band plus the vector is simpson_weights(x[i:]) bit for bit
    rng = np.random.default_rng(7)
    grids = [np.linspace(0.0, 1.0, K) for K in (1, 2, 3, 4, 5, 21, 101)]
    grids += [_random_grid(rng, K) for K in list(range(61)) + [200, 401]]
    for x in grids:
        v, band = tail_band(x)
        assert band.shape == (x.size, 4)
        np.testing.assert_array_equal(v, simpson_weights(x))
        for i, row in enumerate(_tail_rows(x)):
            np.testing.assert_array_equal(row, simpson_weights(x[i:]), err_msg=f"{x.size} {i}")
            assert np.all(band[i, x.size - i:] == 0.0)


def test_left_slice_last_interval_quadratic():
    # the one-interval tail integral must stay exact for quadratics via the
    # lookback node
    x = np.linspace(0.0, 1.0, 11)
    i = x.size - 2
    for k in range(3):
        exact = (x[-1] ** (k + 1) - x[i] ** (k + 1)) / (k + 1)
        np.testing.assert_allclose(tail_integrals(x**k, x)[i], exact, atol=1e-14)


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
    # tail_integrals sums the interval integrals of the full-grid rule
    rng = np.random.default_rng(11)
    for K in list(range(61)) + list(rng.integers(7, 60, 20)):
        x = _random_grid(rng, K, spread=(0.2, 1.0))
        f = rng.standard_normal((K, 2, 3))
        got = tail_integrals(f, x)
        assert got.shape == f.shape
        ref = np.tensordot(_left_slice_by_intervals(x), f, axes=(1, 0))
        h = np.diff(x).min() if K > 1 else 1.0
        scale = 1e-13 * h * (1.0 + np.abs(f).sum(axis=0))
        assert np.all(np.abs(got - ref) <= scale), K
        if K:
            assert np.all(np.abs(got[0] - integrate(f, x)) <= scale)
            assert np.all(got[-1] == 0.0)


def test_exact_on_cubics_every_slice():
    # every tail integral, and every tail row of four or more nodes, on
    # uniform and random nonuniform grids
    rng = np.random.default_rng(5)
    grids = [np.linspace(-1.0, 2.0, K) for K in (4, 5, 6, 7, 12)]
    grids += [_random_grid(rng, K) for K in range(4, 91)]
    for x in grids:
        rows = _tail_rows(x)[:x.size - 3]
        xc = x - x.mean()
        for k in range(4):
            exact = (xc[-1] ** (k + 1) - xc ** (k + 1)) / (k + 1)
            tol = 1e-13 * (1.0 + np.abs(xc).max()) ** (k + 1)
            np.testing.assert_allclose(tail_integrals(xc**k, x), exact, rtol=0.0, atol=tol)
            by_rows = [row @ xc[i:] ** k for i, row in enumerate(rows)]
            np.testing.assert_allclose(by_rows, exact[:x.size - 3], rtol=0.0, atol=tol)


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


def _uniform_five_point(f, h):
    """The fixed uniform-grid formulas: centred 5-point stencil inside, the
    one-sided ones on the two nodes at each end."""
    d = np.empty_like(f)
    d[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    d[0] = (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2] + 16.0 * f[3] - 3.0 * f[4]) / (12.0 * h)
    d[1] = (-3.0 * f[0] - 10.0 * f[1] + 18.0 * f[2] - 6.0 * f[3] + f[4]) / (12.0 * h)
    d[-2] = (3.0 * f[-1] + 10.0 * f[-2] - 18.0 * f[-3] + 6.0 * f[-4] - f[-5]) / (12.0 * h)
    d[-1] = (25.0 * f[-1] - 48.0 * f[-2] + 36.0 * f[-3] - 16.0 * f[-4] + 3.0 * f[-5]) / (12.0 * h)
    return d


def test_derivative_exact_on_quartics():
    rng = np.random.default_rng(11)
    c = rng.standard_normal(5)
    grids = [np.linspace(-1.0, 2.0, 9), np.linspace(0.0, 1.0, 5),
             _random_grid(rng, 12), _random_grid(rng, 40, spread=(0.001, 1.0))]
    for x in grids:
        f = npoly.polyval(x, c)
        want = npoly.polyval(x, npoly.polyder(c))
        got = derivative(x, f)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())


def test_derivative_matches_uniform_five_point_formulas():
    x = np.linspace(0.0, 1.0, 401)
    f = np.stack([np.sin(3.0 * x), np.exp(x), np.cos(7.0 * x) * x], axis=1)
    got = derivative(x, f)
    want = _uniform_five_point(f, x[1] - x[0])
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_derivative_keeps_trailing_axes():
    rng = np.random.default_rng(2)
    x = _random_grid(rng, 30)
    f = rng.standard_normal((30, 2, 3))
    got = derivative(x, f)
    assert got.shape == f.shape
    np.testing.assert_allclose(got[:, 1, 2], derivative(x, f[:, 1, 2]), rtol=1e-14)


def test_derivative_fourth_order_on_sin():
    errs = []
    for N in (20, 40, 80, 160):
        x = np.linspace(0.0, 2.0, N + 1)
        errs.append(np.abs(derivative(x, np.sin(x)) - np.cos(x)).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 3.7), orders


def test_derivative_fourth_order_on_jittered_nodes():
    rng = np.random.default_rng(3)
    errs = []
    for N in (40, 80, 160, 320):
        x = np.linspace(0.0, 1.0, N + 1)
        x[1:-1] += 0.3 / N * rng.uniform(-1.0, 1.0, N - 1)
        errs.append(np.abs(derivative(x, np.exp(2.0 * x)) - 2.0 * np.exp(2.0 * x)).max())
    # each draw of the jitter moves one halving's ratio, so take the slope
    # over all three halvings
    order = np.log2(errs[0] / errs[-1]) / 3.0
    assert order > 3.7, errs
