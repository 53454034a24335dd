import math

import numpy as np
import pytest

from subdiff.stepping import HISTORY_BLOCK, FracWeights, GradedTimeMesh, soe_kernel

from oracles import frac_integral_nodes


def test_uniform_mesh_nodes():
    tm = GradedTimeMesh(np.int64(4), 1.0, 1.0)
    assert type(tm.N) is int and tm.N == 4
    assert np.allclose(tm.t, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)
    assert np.max(np.abs(tm.tau - 0.25)) <= 1e-15


def test_graded_mesh_nodes():
    tm = GradedTimeMesh(2, 2.0, 1.0)
    assert np.allclose(tm.t, [0.0, 0.25, 1.0], atol=1e-16)
    tm = GradedTimeMesh(1000, 1.6, 0.5)
    assert tm.t[0] == 0.0 and tm.t[-1] == 0.5
    assert tm.t[1] == pytest.approx(0.5 * 1000.0 ** -1.6, rel=1e-14)
    assert tm.t[1] == pytest.approx(7.924e-06, rel=1e-3)
    assert np.all(np.diff(tm.t) > 0.0)


@pytest.mark.parametrize("bad", [dict(N=0, gamma_exp=1.0, T=1.0),
                                 dict(N=10, gamma_exp=0.9, T=1.0),
                                 dict(N=10, gamma_exp=1.0, T=0.0),
                                 dict(N=2.5, gamma_exp=1.0, T=0.5),
                                 dict(N=2.7, gamma_exp=1.0, T=0.5),
                                 dict(N=True, gamma_exp=1.0, T=0.5),
                                 dict(N=10, gamma_exp=math.nan, T=0.5),
                                 dict(N=10, gamma_exp=math.inf, T=0.5),
                                 dict(N=10, gamma_exp=1.6, T=math.inf)])
def test_time_mesh_validation(bad):
    with pytest.raises(ValueError) as info:
        GradedTimeMesh(bad["N"], bad["gamma_exp"], bad["T"])
    # a non-finite gamma or T is named, not blamed on the step sizes
    for value in (bad["gamma_exp"], bad["T"]):
        if not math.isfinite(value):
            assert repr(value) in str(info.value) and "steps" not in str(info.value)


def test_weights_alpha_validation():
    tm = GradedTimeMesh(4, 1.0, 1.0)
    for alpha in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            FracWeights(tm, alpha)


def test_weights_limit_alpha_to_one():
    # as alpha -> 1 every weight approaches the step length
    tm = GradedTimeMesh(16, 1.0, 1.0)
    w = FracWeights(tm, 1.0 - 1e-12)
    for n in (1, 7, 16):
        assert np.max(np.abs(w.row(n) - tm.tau[:n])) <= 1e-10


@pytest.mark.parametrize("gamma_exp", [1.0, 1.6, 2.0])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75, 0.95])
def test_weight_rows_positive_and_telescoping(gamma_exp, alpha):
    tm = GradedTimeMesh(300, gamma_exp, 0.5)
    w = FracWeights(tm, alpha)
    g1a = math.gamma(1.0 + alpha)
    for n in (1, 2, 13, 150, 300):
        row = w.row(n)
        assert np.all(row > 0.0)
        ref = tm.t[n] ** alpha / g1a
        assert row.sum() == pytest.approx(ref, rel=1e-13)
        assert row[-1] == pytest.approx(tm.tau[n - 1] ** alpha / g1a, rel=1e-14)


def test_increment_rows_telescope():
    tm = GradedTimeMesh(200, 1.6, 0.5)
    alpha = 0.75
    w = FracWeights(tm, alpha)
    g1a = math.gamma(1.0 + alpha)
    for n in (1, 2, 57, 200):
        c = w.increment_rows(n, n + 1)[0]
        ref = (tm.t[n] ** alpha - tm.t[n - 1] ** alpha) / g1a
        assert c.sum() == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.3, 0.75, 1.0 - 1e-12])
def test_increment_rows_window_is_a_slice(alpha):
    # each entry takes the full row's elementwise formula, so the window's bits match
    w = FracWeights(GradedTimeMesh(200, 1.6, 0.5), alpha)
    for n0, n1, j0 in ((1, 33, 0), (2, 10, 1), (33, 65, 1), (65, 97, 32), (97, 113, 64),
                       (190, 201, 189), (200, 201, 150)):
        full = w.increment_rows(n0, n1)
        window = w.increment_rows(n0, n1, j0)
        assert window.shape == (n1 - n0, n1 - 1 - j0)
        assert np.array_equal(window, full[:, j0:]), (n0, n1, j0)
        assert np.array_equal(w.row(n1 - 1, j0), w.row(n1 - 1)[j0:])


@pytest.mark.parametrize("alpha", [1e-3, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0 - 1e-12])
def test_soe_far_weights_match_rows(alpha):
    """The far weights of the sum of exponentials,
    sum_q (w_q / s_q) exp(-s_q (t_n - t_j)) (1 - exp(-s_q tau_j)), are b_nj
    to a few ulp for every column the stepper sums that way: t_(n-1) - t_j
    is then at least delta = t_2B - t_B."""
    B = HISTORY_BLOCK
    for N, gamma_exp in ((65, 1.0), (400, 5.0), (1000, 1.6), (1300, 1.6), (1300, 2.5),
                         (5200, 1.6)):
        tm = GradedTimeMesh(N, gamma_exp, 0.5)
        s, wq = soe_kernel(alpha, tm.T, tm.t[2 * B] - tm.t[B])
        assert np.all(s > 0.0) and np.all(wq > 0.0)
        rows = FracWeights(tm, alpha)
        for n in (2 * B + 1, N):
            j = np.arange(1, n - B)
            far = ((wq / s)[:, None] * np.exp(-s[:, None] * (tm.t[n] - tm.t[j]))
                   * -np.expm1(-s[:, None] * tm.tau[j - 1])).sum(axis=0)
            b = rows.row(n)[j - 1]
            assert np.max(np.abs(far - b) / b) <= 4e-15, (N, gamma_exp, n)


@pytest.mark.parametrize("alpha", [1e-3, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0 - 1e-6,
                                   1.0 - 1e-12])
def test_soe_kernel_matches_kernel(alpha):
    """sum_q w_q exp(-s_q t) is t^(alpha-1) / Gamma(alpha) to a few ulp on
    [delta, T] for the stepper's delta = t_2B - t_B, with at most 80 positive
    nodes and weights, and the nodes with s T < 2^-60 merged into one. The
    rule's upper end keeps a unit of margin in x, so it holds down to
    delta / e too."""
    B = HISTORY_BLOCK
    for N, gamma_exp in ((65, 1.0), (400, 5.0), (1000, 1.6), (1300, 1.6), (1300, 2.5),
                         (5200, 1.6)):
        for T in (1e-6, 0.5, 1e6):
            tm = GradedTimeMesh(N, gamma_exp, T)
            delta = tm.t[2 * B] - tm.t[B]
            s, wq = soe_kernel(alpha, T, delta)
            assert s.size <= 80 and np.all(s > 0.0) and np.all(wq > 0.0)
            assert np.count_nonzero(s * T < 2.0 ** -60) <= 1
            for lo, hi, size in ((delta, T, 2000), (delta / math.e, delta, 200)):
                t = np.geomspace(lo, hi, size)
                kernel = t ** (alpha - 1.0) / math.gamma(alpha)
                got = np.exp(-s[:, None] * t).T @ wq
                assert np.max(np.abs(got - kernel) / kernel) <= 2e-15, (N, gamma_exp, T, lo)


def test_constant_history_integral():
    # I^alpha of 1 is t^alpha / Gamma(1 + alpha); at t = 1, alpha = 1/2
    # that is 2/sqrt(pi)
    tm = GradedTimeMesh(64, 1.0, 1.0)
    w = FracWeights(tm, 0.5)
    vals = frac_integral_nodes(w, np.ones(64))
    assert vals[-1] == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-13)
    assert vals[-1] == pytest.approx(1.1283791671, rel=1e-9)


@pytest.mark.parametrize("alpha", [0.4, 0.75])
def test_power_rule_convergence(alpha):
    """I^a s^0.3 converges to Gamma(1.3)/Gamma(1.3+a) t^(0.3+a) at order >= 1."""
    mu = 1.3
    errs = []
    for N in (250, 500, 1000, 2000):
        tm = GradedTimeMesh(N, 2.0, 1.0)
        mid = 0.5 * (tm.t[:-1] + tm.t[1:])
        approx = frac_integral_nodes(FracWeights(tm, alpha), mid ** (mu - 1.0))
        exact = math.gamma(mu) / math.gamma(mu + alpha) * tm.t[1:] ** (mu - 1.0 + alpha)
        errs.append(np.abs(approx - exact).max())
    rates = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(rates) >= 1.0


def test_quadrature_positivity_random_histories():
    """Discrete analogue of the positivity of I^alpha as a quadratic form."""
    rng = np.random.default_rng(123)
    for gamma_exp, alpha in ((1.0, 0.5), (1.6, 0.75)):
        tm = GradedTimeMesh(150, gamma_exp, 0.5)
        w = FracWeights(tm, alpha)
        for _ in range(100):
            v = rng.standard_normal(150)
            v /= np.linalg.norm(v)
            form = float(np.sum(frac_integral_nodes(w, v) * v * tm.tau))
            assert form >= -1e-10


def _discrete_frac_integral(tm, alpha, node_vals):
    """I^alpha at all nodes from midpoint-averaged node samples."""
    bar = 0.5 * (node_vals[:-1] + node_vals[1:])
    return frac_integral_nodes(FracWeights(tm, alpha), bar)


def _leibniz_residuals(theta, alpha, N):
    """Discrete residuals of both product identities for one mesh size.

    (a)  t d_t^(1-a) f = d_t^(1-a)(t f) - (1 - a) I^a f
    (b)  t I^a f = I^a (t f) + a I^(1+a) f
    """
    tm = GradedTimeMesh(N, 1.0, 1.0)
    t = tm.t
    f = theta(t)
    tf = t * theta(t)
    If = _discrete_frac_integral(tm, alpha, f)
    Itf = _discrete_frac_integral(tm, alpha, tf)
    If0 = np.concatenate([[0.0], If])
    Itf0 = np.concatenate([[0.0], Itf])
    # derivative d_t^(1-a) g at interval midpoints via increments of I^a g
    t_mid = 0.5 * (t[:-1] + t[1:])
    d_f = np.diff(If0) / tm.tau
    d_tf = np.diff(Itf0) / tm.tau
    If_mid = 0.5 * (If0[:-1] + If0[1:])
    res_a = np.abs(t_mid * d_f - (d_tf - (1.0 - alpha) * If_mid)).max()
    # I^(1+a) realized as the unit-order integral of I^a f (trapezoid)
    bar = 0.5 * (If0[:-1] + If0[1:])
    I1 = np.cumsum(bar * tm.tau)
    res_b = np.abs(t[1:] * If - (Itf + alpha * I1)).max()
    return res_a, res_b


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75])
@pytest.mark.parametrize("theta", [lambda t: t * t, np.sin],
                         ids=["t_squared", "sin"])
def test_leibniz_identities_converge(theta, alpha):
    res = np.array([_leibniz_residuals(theta, alpha, N)
                    for N in (64, 128, 256, 512)])
    for k in range(2):
        rates = np.log2(res[:-1, k] / res[1:, k])
        assert rates.min() >= 1.0, f"identity {'ab'[k]} rates {rates}"


def test_weight_rows_are_cancellation_stable():
    # late-row early weights shrink smoothly; a naive power difference would
    # return exact zeros here
    tm = GradedTimeMesh(4000, 1.6, 0.5)
    w = FracWeights(tm, 0.75)
    row = w.row(4000)
    assert np.all(row[:10] > 0.0)
    ratio = row[1:20] / row[:19]
    assert np.all(ratio > 1.0)  # increasing toward later intervals
