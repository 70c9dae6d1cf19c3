import numpy as np

from tilq._quad import integrate, left_slice_weights, simpson_weights


def test_exact_on_cubics_even_pairs():
    x = np.linspace(0.0, 2.0, 9)
    for k in range(4):
        got = simpson_weights(x) @ x**k
        np.testing.assert_allclose(got, 2.0 ** (k + 1) / (k + 1), rtol=1e-13)


def test_exact_on_quadratics_odd_count():
    # odd interval count goes through the leading three-interval block
    x = np.linspace(0.0, 1.0, 8)
    for k in range(3):
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


def test_left_slice_rows_match_direct_weights():
    rng = np.random.default_rng(7)
    x = np.linspace(0.0, 1.0, 21)
    f = rng.standard_normal(x.size)
    W = left_slice_weights(x)
    for i in range(0, x.size - 2):
        np.testing.assert_allclose(W[i] @ f, simpson_weights(x[i:]) @ f[i:], atol=1e-14)
    assert np.all(W[-1] == 0.0)


def test_left_slice_last_interval_quadratic():
    # the one-interval slice must stay exact for quadratics via the lookback node
    x = np.linspace(0.0, 1.0, 11)
    W = left_slice_weights(x)
    i = x.size - 2
    for k in range(3):
        exact = (x[-1] ** (k + 1) - x[i] ** (k + 1)) / (k + 1)
        np.testing.assert_allclose(W[i] @ x**k, exact, atol=1e-14)


def _left_slice_weights_by_rows(x):
    # the row-by-row construction the vectorized left_slice_weights replaces
    W = np.zeros((x.size, x.size))
    for i in range(x.size - 1):
        W[i, i:] = simpson_weights(x[i:])
    i = x.size - 2
    if i >= 1:
        g0 = x[i] - x[i - 1]
        g1 = x[i + 1] - x[i]
        W[i, i - 1:] = 0.0
        W[i, i - 1] = -g1 * g1 * g1 / (6 * g0 * (g0 + g1))
        W[i, i] = g1 * (g1 * g1 + 4 * g1 * g0 + 3 * g0 * g0) / (6 * g0 * (g0 + g1))
        W[i, i + 1] = g1 * g0 * (2 * g1 + 3 * g0) / (6 * g0 * (g0 + g1))
    return W


def test_left_slice_weights_bit_identical_to_rows():
    rng = np.random.default_rng(11)
    sizes = list(range(7)) + list(rng.integers(7, 90, 200))
    for K in sizes:
        x = np.cumsum(rng.uniform(0.01, 1.0, K)) * rng.uniform(0.1, 10.0) - rng.uniform()
        assert np.array_equal(left_slice_weights(x), _left_slice_weights_by_rows(x)), K
