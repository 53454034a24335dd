import numpy as np
import pytest

from subdiff.exact import DATA, DecayReader, InitialDatum, eval_grid, make_series
from subdiff.mesh import StructuredMesh

from oracles import TRIANGLE, decay_reference


def _full_coefficients(datum, K):
    """The datum's K x K coefficients (u0, phi_mn) from its closed-form rule."""
    modes = np.arange(1, K + 1, dtype=float)
    return datum.coefficient_rule(*np.meshgrid(modes, modes, indexing="ij"))


def _block_as_full(sol, K):
    """The series' block coefficients scattered into a K x K array, zero elsewhere."""
    C = np.zeros((K, K))
    C[np.ix_(sol.m.astype(int) - 1, sol.n.astype(int) - 1)] = 0.5 * sol.C2
    return C


def test_example1_leading_coefficient():
    sol = make_series(DATA["example1"], 0.75, K=4)
    assert sol.m[0] == sol.n[0] == 1.0
    assert 0.5 * sol.C2[0, 0] == pytest.approx(32.0 / np.pi ** 6, rel=1e-14)


def test_example3_leading_coefficient():
    sol = make_series(DATA["example3"], 0.75, K=4)
    assert sol.m[0] == sol.n[0] == 1.0
    assert 0.5 * sol.C2[0, 0] == pytest.approx(8.0 / np.pi ** 2, rel=1e-14)
    assert 0.5 * sol.C2[0, 0] == pytest.approx(0.8105695, rel=1e-6)


@pytest.mark.parametrize("datum", ["example1", "example2", "example3"])
def test_even_modes_vanish(datum):
    # the block holds the modes whose row or column has a nonzero: the odd ones
    sol = make_series(DATA[datum], 0.5, K=8)
    assert np.array_equal(sol.m, [1.0, 3.0, 5.0, 7.0])
    assert np.array_equal(sol.n, [1.0, 3.0, 5.0, 7.0])
    C = _full_coefficients(DATA[datum], 8)
    assert np.all(C[1::2, :] == 0.0)
    assert np.all(C[:, 1::2] == 0.0)


def test_eigenvalues():
    # a datum with every coefficient nonzero: the block is the full 3 x 3
    full = InitialDatum("full", lambda x, y: np.zeros_like(x * y), lambda m, n: 1.0 / (m * n))
    sol = make_series(full, 0.5, K=3)
    lam = sol.lam[sol.index]
    assert lam[0, 0] == pytest.approx(2 * np.pi ** 2, rel=1e-15)
    assert lam[2, 1] == pytest.approx(13 * np.pi ** 2, rel=1e-15)
    assert np.all(np.diff(lam, axis=0) > 0)
    assert np.all(np.diff(lam, axis=1) > 0)
    # (m, n) and (n, m) share one distinct eigenvalue
    assert np.all(np.diff(sol.lam) > 0) and sol.lam.size == 6
    assert np.array_equal(sol.index, sol.index.T)
    assert not any(a.flags.writeable for a in (sol.m, sol.n, sol.C2, sol.lam, sol.index))


def test_example2_coefficients_match_quadrature():
    """Sign and magnitude against direct quadrature of the stated datum,
    with panels aligned to the gradient kinks."""
    datum = DATA["example2"]
    xg, wg = np.polynomial.legendre.leggauss(48)
    x = np.concatenate([0.25 * (xg + 1.0), 0.5 + 0.25 * (xg + 1.0)])
    w = np.concatenate([0.25 * wg, 0.25 * wg])
    X, Y = np.meshgrid(x, x, indexing="ij")
    U = datum.evaluate(X, Y)
    W = np.outer(w, w)
    C = _block_as_full(make_series(datum, 0.75, K=8), 8)
    for m in range(1, 9):
        for n in range(1, 9):
            phi = 2.0 * np.sin(m * np.pi * X) * np.sin(n * np.pi * Y)
            ref = float(np.sum(U * phi * W))
            assert C[m - 1, n - 1] == pytest.approx(ref, abs=1e-13)


def test_custom_datum_quadrature_matches_closed_form():
    # tensor Gauss-Legendre sine quadrature of the example1 datum
    ex1 = DATA["example1"]
    K = 10
    xg, wg = np.polynomial.legendre.leggauss(4 * K)
    x, w = 0.5 * (xg + 1.0), 0.5 * wg
    X, Y = np.meshgrid(x, x, indexing="ij")
    Sw = w[:, None] * np.sin(np.pi * np.outer(x, np.arange(1, K + 1)))
    C_quad = 2.0 * Sw.T @ ex1.evaluate(X, Y) @ Sw
    sol_closed = make_series(ex1, 0.75, K=K)
    assert np.max(np.abs(_block_as_full(sol_closed, K) - C_quad)) <= 1e-12


def test_example1_initial_values_on_lattice():
    sol = make_series(DATA["example1"], 0.75, K=60)
    lat = StructuredMesh(128)
    vals = eval_grid(sol, 0.0, lat.xs, lat.xs)
    X, Y = np.meshgrid(lat.xs, lat.xs, indexing="ij")
    # measured truncation tail of the 60x60 expansion (odd-mode zeta sums)
    assert np.abs(vals - X * Y * (1 - X) * (1 - Y)).max() <= 2.6e-6


def test_example2_initial_values_in_lattice_mean_square():
    # pointwise (sup) agreement at t=0 is not required for the kinked datum;
    # the truncated series converges in the mean
    sol = make_series(DATA["example2"], 0.75, K=60)
    lat = StructuredMesh(128)
    vals = eval_grid(sol, 0.0, lat.xs, lat.xs)
    X, Y = np.meshgrid(lat.xs, lat.xs, indexing="ij")
    diff = vals - DATA["example2"].evaluate(X, Y)
    assert np.sqrt(np.mean(diff ** 2)) <= 1e-3


def test_alpha_one_matches_heat_kernel_series():
    sol = make_series(DATA["example1"], 1.0, K=12)
    C = _full_coefficients(DATA["example1"], 12)
    t = 0.01
    xs = np.linspace(0.05, 0.95, 7)
    vals = eval_grid(sol, t, xs, xs)
    ref = np.zeros((7, 7))
    for m in range(1, 13):
        for n in range(1, 13):
            ref += (2.0 * C[m - 1, n - 1] * np.exp(-(m ** 2 + n ** 2) * np.pi ** 2 * t)
                    * np.outer(np.sin(m * np.pi * xs), np.sin(n * np.pi * xs)))
    assert np.abs(vals - ref).max() <= 1e-12


@pytest.mark.parametrize("datum", ["example1", "example3"])
def test_solution_symmetries(datum):
    sol = make_series(DATA[datum], 0.75, K=40)
    xs = np.linspace(1 / 16, 15 / 16, 15)
    for t in (0.01, 0.2):
        vals = eval_grid(sol, t, xs, xs)
        assert np.abs(vals - vals.T).max() <= 1e-13          # x <-> y
        assert np.abs(vals - vals[::-1, :]).max() <= 1e-13   # x <-> 1 - x


def _full_decay(sol, K, t):
    """The K x K decay at time t: the reference table's row on the active
    block, zero elsewhere."""
    E = np.zeros((K, K))
    rows, cols = sol.m.astype(int) - 1, sol.n.astype(int) - 1
    E[np.ix_(rows, cols)] = decay_reference(sol, [t])[0][sol.index]
    return E


def test_separable_matches_naive_sum():
    sol = make_series(DATA["example1"], 0.6, K=10)
    C = _full_coefficients(DATA["example1"], 10)
    xs = np.linspace(0.1, 0.9, 9)
    t = 0.05
    vals = eval_grid(sol, t, xs, xs)
    E = _full_decay(sol, 10, t)
    naive = np.zeros((9, 9))
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            acc = 0.0
            for m in range(1, 11):
                for n in range(1, 11):
                    acc += (2.0 * C[m - 1, n - 1] * E[m - 1, n - 1]
                            * np.sin(m * np.pi * x) * np.sin(n * np.pi * y))
            naive[i, j] = acc
    assert np.abs(vals - naive).max() <= 1e-12


def test_first_mode_amplitude_decreases_in_time():
    sol = make_series(DATA["example1"], 0.75, K=4)
    ts = np.linspace(0.0, 0.5, 21)
    assert sol.m[0] == sol.n[0] == 1.0
    amps = decay_reference(sol, ts)[:, sol.index[0, 0]]
    assert np.all(np.diff(amps) < 0.0)


def test_truncation_tail_small_for_example1():
    s60 = make_series(DATA["example1"], 0.75, K=60)
    s120 = make_series(DATA["example1"], 0.75, K=120)
    lat = StructuredMesh(64)
    for t in (0.0, 0.01):
        v60 = eval_grid(s60, t, lat.xs, lat.xs)
        v120 = eval_grid(s120, t, lat.xs, lat.xs)
        assert np.abs(v60 - v120).max() <= 2e-6


def test_negative_time_rejected():
    sol = make_series(DATA["example1"], 0.75, K=4)
    with pytest.raises(ValueError):
        eval_grid(sol, -0.1, np.array([0.5]), np.array([0.5]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_time_rejected_by_name(bad):
    sol = make_series(DATA["example1"], 0.75, K=8)
    match = f"time must be finite and >= 0, got {bad!r}"
    with pytest.raises(ValueError, match=match):
        eval_grid(sol, bad, np.array([0.5]), np.array([0.5]))
    with pytest.raises(ValueError, match=match):
        DecayReader(sol, [0.0, 0.1, bad])


def test_series_solutions_compare_by_identity():
    a = make_series(DATA["example1"], 0.75, K=8)
    b = make_series(DATA["example1"], 0.75, K=8)
    assert (a == a) is True and (a == b) is False and (a != b) is True
    assert len({a, b, a}) == 2


def test_mode_cutoff_validation():
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError, match="mode cutoff K must be an integer"):
            make_series(DATA["example1"], 0.75, K=bad)


def _triple_product_bound(S, B, block_inner):
    """Elementwise bound on |got - full| for two double evaluations of S B S^T.

    A product of matrices with inner dimensions k1 and k2, in any summation
    order, is within gamma(k1 + k2) |S| |B| |S|^T of the exact product, with
    gamma(k) = k u / (1 - k u) and u = 2^-53 (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., sec. 3.5). The block product has inner
    dimensions r and c, the full one K and K; both approximate the same
    exact product, so their distance is at most the sum of the two bounds.
    The nonnegative product |S| |B| |S|^T is itself rounded low by at most a
    factor 1 - gamma(2K).
    """
    def gamma(k):
        return k * 2.0 ** -53 / (1.0 - k * 2.0 ** -53)

    K2 = 2 * B.shape[0]
    absprod = np.abs(S) @ np.abs(B) @ np.abs(S).T
    return (gamma(block_inner) + gamma(K2)) * absprod / (1.0 - gamma(K2))


@pytest.mark.parametrize("datum", ["example1", "example2", "example3", "triangle"])
def test_active_block_product_matches_full_product(datum):
    K = 60
    sol = make_series(TRIANGLE if datum == "triangle" else DATA[datum], 0.75, K=K)
    C = _full_coefficients(TRIANGLE if datum == "triangle" else DATA[datum], K)
    rows, cols = sol.m.astype(int) - 1, sol.n.astype(int) - 1
    assert np.array_equal(sol.C2, 2.0 * C[np.ix_(rows, cols)])
    assert np.count_nonzero(sol.C2) == np.count_nonzero(C)
    if datum == "triangle":
        assert rows.size < K and cols.size < K and not np.array_equal(rows, cols)
        assert not sol.C2.all()
    lat = StructuredMesh(128)
    S = np.sin(np.pi * np.outer(lat.xs, np.arange(1, K + 1)))
    for t in (0.0, 1e-4, 0.5):
        E = _full_decay(sol, K, t)
        B = 2.0 * C * E  # equal, bit for bit, to the block's C2 * E and zero off it
        full = S @ B @ S.T
        got = eval_grid(sol, t, lat.xs, lat.xs)
        assert np.all(np.abs(got - full) <= _triple_product_bound(S, B, rows.size + cols.size)), \
            (datum, t)


def test_zero_datum_grid_is_zero():
    sol = make_series(DATA["zero"], 0.75, K=8)
    assert all(part.size == 0 for part in (sol.m, sol.n, sol.C2, sol.lam, sol.index))
    lat = StructuredMesh(16)
    vals = eval_grid(sol, 0.3, lat.xs, lat.xs)
    assert vals.shape == (15, 15)
    assert np.array_equal(vals, np.zeros((15, 15)))
