import numpy as np
import pytest

from subdiff.exact import DATA, decay_rows, eval_grid, make_series
from subdiff.metrics import fine_lattice


def test_example1_leading_coefficient():
    sol = make_series(DATA["example1"], 0.75, K=4)
    assert sol.C[0, 0] == pytest.approx(32.0 / np.pi ** 6, rel=1e-14)


def test_example3_leading_coefficient():
    sol = make_series(DATA["example3"], 0.75, K=4)
    assert sol.C[0, 0] == pytest.approx(8.0 / np.pi ** 2, rel=1e-14)
    assert sol.C[0, 0] == pytest.approx(0.8105695, rel=1e-6)


@pytest.mark.parametrize("datum", ["example1", "example2", "example3"])
def test_even_modes_vanish(datum):
    sol = make_series(DATA[datum], 0.5, K=8)
    assert np.all(sol.C[1::2, :] == 0.0)
    assert np.all(sol.C[:, 1::2] == 0.0)


def test_eigenvalues():
    sol = make_series(DATA["example1"], 0.5, K=3)
    assert sol.lam[0, 0] == pytest.approx(2 * np.pi ** 2, rel=1e-15)
    assert sol.lam[2, 1] == pytest.approx(13 * np.pi ** 2, rel=1e-15)
    assert np.all(np.diff(sol.lam, axis=0) > 0)
    assert np.all(np.diff(sol.lam, axis=1) > 0)


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
    sol = make_series(datum, 0.75, K=8)
    for m in range(1, 9):
        for n in range(1, 9):
            phi = 2.0 * np.sin(m * np.pi * X) * np.sin(n * np.pi * Y)
            ref = float(np.sum(U * phi * W))
            assert sol.C[m - 1, n - 1] == pytest.approx(ref, abs=1e-13)


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
    assert np.max(np.abs(sol_closed.C - C_quad)) <= 1e-12


def test_example1_initial_values_on_lattice():
    sol = make_series(DATA["example1"], 0.75, K=60)
    lat = fine_lattice(128)
    vals = eval_grid(sol, 0.0, lat.xs, lat.xs)
    X, Y = np.meshgrid(lat.xs, lat.xs, indexing="ij")
    # measured truncation tail of the 60x60 expansion (odd-mode zeta sums)
    assert np.abs(vals - X * Y * (1 - X) * (1 - Y)).max() <= 2.6e-6


def test_example2_initial_values_in_lattice_mean_square():
    # pointwise (sup) agreement at t=0 is not required for the kinked datum;
    # the truncated series converges in the mean
    sol = make_series(DATA["example2"], 0.75, K=60)
    lat = fine_lattice(128)
    vals = eval_grid(sol, 0.0, lat.xs, lat.xs)
    X, Y = np.meshgrid(lat.xs, lat.xs, indexing="ij")
    diff = vals - DATA["example2"].evaluate(X, Y)
    assert np.sqrt(np.mean(diff ** 2)) <= 1e-3


def test_alpha_one_matches_heat_kernel_series():
    sol = make_series(DATA["example1"], 1.0, K=12)
    t = 0.01
    xs = np.linspace(0.05, 0.95, 7)
    vals = eval_grid(sol, t, xs, xs)
    ref = np.zeros((7, 7))
    for m in range(1, 13):
        for n in range(1, 13):
            ref += (2.0 * sol.C[m - 1, n - 1] * np.exp(-sol.lam[m - 1, n - 1] * t)
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


def test_separable_matches_naive_sum():
    sol = make_series(DATA["example1"], 0.6, K=10)
    xs = np.linspace(0.1, 0.9, 9)
    t = 0.05
    vals = eval_grid(sol, t, xs, xs)
    E = np.zeros_like(sol.C)
    E[sol.active_mask] = decay_rows(sol, [t])[0]
    naive = np.zeros((9, 9))
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            acc = 0.0
            for m in range(1, 11):
                for n in range(1, 11):
                    acc += (2.0 * sol.C[m - 1, n - 1] * E[m - 1, n - 1]
                            * np.sin(m * np.pi * x) * np.sin(n * np.pi * y))
            naive[i, j] = acc
    assert np.abs(vals - naive).max() <= 1e-12


def test_first_mode_amplitude_decreases_in_time():
    sol = make_series(DATA["example1"], 0.75, K=4)
    ts = np.linspace(0.0, 0.5, 21)
    amps = decay_rows(sol, ts)[:, 0]  # the first active mode is (1, 1)
    assert np.all(np.diff(amps) < 0.0)


def test_truncation_tail_small_for_example1():
    s60 = make_series(DATA["example1"], 0.75, K=60)
    s120 = make_series(DATA["example1"], 0.75, K=120)
    lat = fine_lattice(64)
    for t in (0.0, 0.01):
        v60 = eval_grid(s60, t, lat.xs, lat.xs)
        v120 = eval_grid(s120, t, lat.xs, lat.xs)
        assert np.abs(v60 - v120).max() <= 2e-6


def test_negative_time_rejected():
    sol = make_series(DATA["example1"], 0.75, K=4)
    with pytest.raises(ValueError):
        eval_grid(sol, -0.1, np.array([0.5]), np.array([0.5]))


def test_mode_cutoff_validation():
    with pytest.raises(ValueError):
        make_series(DATA["example1"], 0.75, K=0)
