import math

import numpy as np
import pytest

from subdiff.mittag_leffler import MlfEvaluator, gamma, reciprocal_gamma

# Frozen values of E_alpha(-x) from the extended-precision series oracle
# (tools/gen_mlf_reference.py): the defining series summed with ~0.45 x^(1/alpha)
# working digits and exactly-formed gamma arguments.
MLF_SERIES_REFERENCE = {
    0.25: [
        (0.05, 0.9475277926665173),
        (0.3, 0.7475917733762234),
        (0.9, 0.4908242549365998),
        (1.5, 0.3632779032999526),
        (1.77, 0.32496555062483684),
        (1.9, 0.3092236411721571),
        (2.6, 0.24506194184790323),
        (4.0, 0.17291766990277474),
        (5.5, 0.13134777146397314),
        (7.0, 0.10585848708784815),
    ],
    0.5: [
        (0.05, 0.9459900435549615),
        (0.3, 0.7345993345676551),
        (1.0, 0.427583576155807),
        (2.5, 0.2108063640611436),
        (3.1, 0.17371840860540824),
        (3.3, 0.16400729757293264),
        (6.0, 0.09277656780053835),
        (12.0, 0.04685422101489376),
        (25.0, 0.02254957243264136),
        (49.5, 0.011395444948937534),
    ],
    0.75: [
        (0.05, 0.9474293585630444),
        (0.5, 0.6037903450952468),
        (1.5, 0.2738222798391781),
        (3.0, 0.12585513691184153),
        (4.9, 0.06958052291535026),
        (5.1, 0.066341438620936),
        (9.0, 0.0344536279569295),
        (17.0, 0.01725159088254259),
        (33.0, 0.008624158289960495),
        (49.5, 0.005689261534458768),
    ],
    0.95: [
        (0.05, 0.9503167500543783),
        (0.5, 0.6046140273421318),
        (1.5, 0.23296065131182464),
        (3.0, 0.06753202221407191),
        (4.9, 0.022224601020698335),
        (5.1, 0.020379889507797688),
        (9.0, 0.007515547547803648),
        (17.0, 0.0034143827498039968),
        (33.0, 0.0016511481914742144),
        (49.5, 0.0010784466639386504),
    ],
}

# E_{1/2}(-x) = exp(x^2) erfc(x), evaluated at 60 digits
MLF_HALF_IDENTITY = [
    (0.1, 0.8964569799691267),
    (1.0, 0.427583576155807),
    (3.3, 0.16400729757293264),
    (10.0, 0.05614099274382259),
    (30.0, 0.01879588886141675),
    (60.0, 0.009401854275176388),
    (200.0, 0.0028209126572120466),
    (1000.0, 0.0005641893014533876),
    (10000.0, 5.641895807268084e-05),
    (100000.0, 5.6418958351954685e-06),
]


def test_gamma_classical_values():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma(2.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)


def test_gamma_recurrence():
    rng = np.random.default_rng(17)
    for x in rng.uniform(0.05, 45.0, size=100):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


def test_gamma_matches_libm():
    # independent reference: the C library implementation
    for x in np.linspace(-9.73, 49.73, 331):
        if x <= 0 and abs(x - round(x)) < 1e-9:
            continue
        assert gamma(float(x)) == pytest.approx(math.gamma(float(x)), rel=1e-13)


@pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
def test_gamma_poles(x):
    with pytest.raises(ValueError):
        gamma(x)


def test_reciprocal_gamma_zeros_at_poles():
    assert reciprocal_gamma(0.0) == 0.0
    assert reciprocal_gamma(-3.0) == 0.0
    assert reciprocal_gamma(2.0) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 0.95, 1.0])
def test_mlf_at_zero(alpha):
    assert MlfEvaluator(alpha)(0.0) == 1.0


def test_mlf_alpha1_is_exp():
    ev = MlfEvaluator(1.0)
    assert ev(1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    xs = np.linspace(0.0, 50.0, 201)
    assert np.max(np.abs(ev(xs) - np.exp(-xs)) / np.exp(-xs)) <= 1e-12


def test_mlf_half_at_one():
    ev = MlfEvaluator(0.5)
    assert ev(1.0) == pytest.approx(math.e * math.erfc(1.0), rel=1e-10)
    assert ev(1.0) == pytest.approx(0.4275835761558070, rel=1e-10)


@pytest.mark.parametrize("alpha", sorted(MLF_SERIES_REFERENCE))
def test_mlf_matches_series_oracle(alpha):
    ev = MlfEvaluator(alpha)
    for x, ref in MLF_SERIES_REFERENCE[alpha]:
        assert ev(x) == pytest.approx(ref, rel=1e-10)


def test_mlf_matches_half_identity_all_regimes():
    ev = MlfEvaluator(0.5)
    for x, ref in MLF_HALF_IDENTITY:
        tol = 1e-10 if x <= 50.0 else 1e-9
        assert ev(x) == pytest.approx(ref, rel=tol)


def test_mlf_large_argument_asymptotics():
    # 4-term tail at x = 40000, alpha = 0.75
    alpha, x = 0.75, 4.0e4
    ref = sum((-1.0) ** (k + 1) * x ** (-k) * reciprocal_gamma(1.0 - alpha * k)
              for k in range(1, 5))
    assert MlfEvaluator(alpha)(x) == pytest.approx(ref, rel=1e-9)


def _asymptotic_all_terms(alpha, x):
    """Reference: the 40-term optimally truncated loop with no early stop.

    Returns the sums and which points the truncation (a growing term) cut.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s = np.zeros_like(x)
    smallest = np.full_like(x, np.inf)
    active = np.ones_like(x, dtype=bool)
    power = np.ones_like(x)
    for k in range(1, 41):
        power = power * (1.0 / x)
        term = (1.0 if k % 2 else -1.0) * power * reciprocal_gamma(1.0 - alpha * k)
        mag = np.abs(term)
        growing = mag > smallest
        take = active & ~growing
        s[take] += term[take]
        active &= ~growing
        np.minimum(smallest, np.where(mag > 0.0, mag, smallest), out=smallest)
    return s, ~active


ASYM_ALPHAS = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]


@pytest.mark.parametrize("alpha", ASYM_ALPHAS)
def test_asymptotic_early_stop_bitwise_large_x(alpha):
    ev = MlfEvaluator(alpha)
    x = np.geomspace(ev.asym_cut, 1e8, 4001)
    ref, _ = _asymptotic_all_terms(alpha, x)
    assert np.array_equal(ev.asymptotic_value(x), ref)
    assert np.array_equal(ev(x), ref)


@pytest.mark.parametrize("alpha", ASYM_ALPHAS)
def test_asymptotic_early_stop_bitwise_truncated(alpha):
    # below the switch point the terms start to grow and optimal
    # truncation cuts the series
    ev = MlfEvaluator(alpha)
    x = np.geomspace(0.5, 50.0, 2001)
    ref, cut = _asymptotic_all_terms(alpha, x)
    assert cut.any()
    assert np.array_equal(ev.asymptotic_value(x), ref)


@pytest.mark.parametrize("alpha", [0.25, 0.5])
def test_asymptotic_early_stop_bitwise_exact_zero_terms(alpha):
    # alpha k integer: 1/Gamma(1 - alpha k) = 0, so those terms are exactly zero
    assert reciprocal_gamma(1.0 - alpha * round(1 / alpha)) == 0.0
    ev = MlfEvaluator(alpha)
    x = np.concatenate([np.geomspace(ev.asym_cut, 1e8, 2001), np.geomspace(0.5, 50.0, 2001)])
    ref, _ = _asymptotic_all_terms(alpha, x)
    assert np.array_equal(ev.asymptotic_value(x), ref)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 0.95])
def test_mlf_monotone_decreasing(alpha):
    ev = MlfEvaluator(alpha)
    grid = np.concatenate([[0.0], np.logspace(-3, 5, 400)])
    vals = ev(grid)
    assert np.all(np.diff(vals) < 0.0)
    assert np.all((vals > 0.0) & (vals <= 1.0))


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 0.95])
def test_mlf_regime_continuity(alpha):
    ev = MlfEvaluator(alpha)
    lo, hi = ev.series_cut, ev.asym_cut
    v_series = float(ev.series_value(lo)[0])
    v_quad_lo = float(ev.quadrature_value(lo)[0])
    assert abs(v_series - v_quad_lo) / v_quad_lo <= 1e-9
    v_quad_hi = float(ev.quadrature_value(hi)[0])
    v_asym = float(ev.asymptotic_value(hi)[0])
    assert abs(v_quad_hi - v_asym) / v_asym <= 1e-9


def test_mlf_series_cut_respects_default_and_safety():
    assert MlfEvaluator(0.75).series_cut == 5.0
    assert MlfEvaluator(0.25).series_cut == pytest.approx(10.0 ** 0.25)


def test_mlf_perturbed_threshold_breaks_continuity():
    # pushing the series past its safe region must be detectable
    ev = MlfEvaluator(0.3)
    v_series = float(ev.series_value(20.0)[0])
    v_quad = float(ev.quadrature_value(20.0)[0])
    assert not abs(v_series - v_quad) / abs(v_quad) <= 1e-9


def test_mlf_vector_matches_scalar():
    ev = MlfEvaluator(0.75)
    xs = np.array([0.0, 0.3, 4.9, 7.7, 49.0, 120.0, 9.0e4])
    vec = ev(xs)
    for x, v in zip(xs, vec):
        assert ev(float(x)) == v


def test_mlf_rejects_bad_arguments():
    ev = MlfEvaluator(0.75)
    with pytest.raises(ValueError):
        ev(-1.0)
    with pytest.raises(ValueError):
        ev(np.nan)
    with pytest.raises(ValueError):
        MlfEvaluator(0.0)
    with pytest.raises(ValueError):
        MlfEvaluator(1.2)


def test_mlf_large_batch_chunking_consistent():
    # arrays beyond the chunk size go through the blocked quadrature path
    ev = MlfEvaluator(0.75)
    xs = np.linspace(5.5, 49.5, 9000)
    whole = ev(xs)
    halves = np.concatenate([ev(xs[:4500]), ev(xs[4500:])])
    assert np.array_equal(whole, halves)
    spot = ev(float(xs[7777]))
    assert spot == whole[7777]
