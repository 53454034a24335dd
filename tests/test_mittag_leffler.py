import math
import tracemalloc

import numpy as np
import pytest

from oracles import (MLF_HALF_IDENTITY, MLF_SERIES_REFERENCE, _asymptotic_all_terms,
                     mlf_complex_division, reciprocal_gamma)
from subdiff.mittag_leffler import _CHUNK, MlfEvaluator, gamma


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
        assert ev(x) == pytest.approx(ref, rel=1e-11)


def test_mlf_matches_half_identity_all_regimes():
    ev = MlfEvaluator(0.5)
    for x, ref in MLF_HALF_IDENTITY:
        assert ev(x) == pytest.approx(ref, rel=1e-11)


def test_mlf_large_argument_asymptotics():
    # 4-term tail at x = 40000, alpha = 0.75
    alpha, x = 0.75, 4.0e4
    ref = sum((-1.0) ** (k + 1) * x ** (-k) * reciprocal_gamma(1.0 - alpha * k)
              for k in range(1, 5))
    assert MlfEvaluator(alpha)(x) == pytest.approx(ref, rel=1e-9)


ASYM_ALPHAS = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]


@pytest.mark.parametrize("alpha", ASYM_ALPHAS)
def test_mlf_matches_asymptotic_oracle(alpha):
    # up to the largest double: the terms stay bounded however large x is
    x = np.concatenate([np.geomspace(50.0, 1e8, 4001), np.geomspace(1e8, 1.7e308, 4001)])
    ref = _asymptotic_all_terms(alpha, x)
    assert np.max(np.abs(MlfEvaluator(alpha)(x) - ref) / ref) <= 1e-11


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 0.95])
def test_mlf_monotone_decreasing(alpha):
    ev = MlfEvaluator(alpha)
    grid = np.concatenate([[0.0], np.logspace(-3, 5, 400)])
    vals = ev(grid)
    assert np.all(np.diff(vals) < 0.0)
    assert np.all((vals > 0.0) & (vals <= 1.0))


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
    # arrays beyond the block size are evaluated in more than one block
    ev = MlfEvaluator(0.75)
    n = 2 * _CHUNK + 811
    xs = np.linspace(5.5, 49.5, n)
    whole = ev(xs)
    halves = np.concatenate([ev(xs[:n // 2]), ev(xs[n // 2:])])
    assert np.array_equal(whole, halves)
    k = _CHUNK + 7
    assert ev(float(xs[k])) == whole[k]


@pytest.mark.parametrize("alpha", [0.01, 0.1, 0.5, 0.75, 0.95, 0.999])
def test_mlf_matches_complex_division_kernel(alpha):
    # the real-arithmetic kernel sums the same rule as complex division does
    x = np.concatenate([[0.0], np.geomspace(1e-8, 1.7e308, 20001)])
    assert np.max(np.abs(MlfEvaluator(alpha)(x) - mlf_complex_division(alpha, x))) <= 1e-14


def test_mlf_memory_is_a_few_blocks():
    # no (arguments x nodes) temporaries: the peak stays below twice the output
    ev = MlfEvaluator(0.75)
    xs = np.geomspace(1e-3, 1e6, 100_000)
    ev(xs[:8])  # build the rule outside the measurement
    tracemalloc.start()
    try:
        out = ev(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * out.nbytes
