"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report as it happens. The table criteria (1-3) run full convergence studies
and take about 25 s together; everything else is quick.
"""

import math

import numpy as np
import pytest

from subdiff.assembly import FieldP1, l2_project
from subdiff.benchmarks import M_VALUES, PRESETS
from subdiff.config import ExperimentConfig
from subdiff.exact import DATA
from subdiff.mesh import StructuredMesh
from subdiff.metrics import LatticeInterpolator, convergence_rates
from subdiff.mittag_leffler import MlfEvaluator
from subdiff.stepping import FracWeights, GradedTimeMesh, run
from subdiff.study import run_table

from oracles import (MLF_SERIES_REFERENCE, _asymptotic_all_terms, frac_integral_nodes,
                     heat_crank_nicolson_reference)
from published import (TABLE1_ERRORS, TABLE1_RATES, TABLE2_ERRORS, TABLE2_RATES,
                       TABLE3_ERRORS, TABLE3_RATES, TABLES)
from test_weights import _leibniz_residuals


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}  {detail}")


def _run_preset(name: str):
    cfg = ExperimentConfig().replace(**PRESETS[name])
    cfg.validate()
    return run_table(cfg)


@pytest.fixture(scope="module")
def table1():
    return _run_preset("table1")


@pytest.fixture(scope="module")
def table2():
    return _run_preset("table2")


@pytest.fixture(scope="module")
def table3():
    return _run_preset("table3")


def test_criterion_1_table1_reproduction(table1):
    """Every max-error entry within 5% of print; every rate within 0.05."""
    failures = []
    mine = table1.E[0.0]
    for M, got, ref in zip(M_VALUES, mine, TABLE1_ERRORS[0.0]):
        dev = (got - ref) / ref
        if abs(dev) > 0.05:
            failures.append(f"M={M}: err {got:.4e} vs {ref:.4e} ({dev:+.1%})")
    for M, got, ref in zip(M_VALUES[1:], table1.CR[0.0], TABLE1_RATES[0.0]):
        if abs(got - ref) > 0.05:
            failures.append(f"M={M}: CR {got:.4f} vs {ref:.4f}")
    ok = not failures
    _report("criterion 1", ok,
            "table 1 errors/rates all within tolerance" if ok else "; ".join(failures))
    assert ok, "; ".join(failures)


def test_criterion_2_table2_reproduction(table2):
    """E_0.5 and E_0.75 columns within 10%; rates at M >= 16 within 0.2."""
    failures = []
    for mu in (0.5, 0.75):
        for M, got, ref in zip(M_VALUES, table2.E[mu], TABLE2_ERRORS[mu]):
            dev = (got - ref) / ref
            if abs(dev) > 0.10:
                failures.append(f"E_{mu} M={M}: {got:.4e} vs {ref:.4e} ({dev:+.1%})")
        for M, got, ref in zip(M_VALUES[1:], table2.CR[mu], TABLE2_RATES[mu]):
            if M >= 16 and abs(got - ref) > 0.2:
                failures.append(f"CR_{mu} M={M}: {got:.3f} vs {ref:.3f}")
    ok = not failures
    _report("criterion 2", ok,
            "table 2 weighted errors/rates within tolerance" if ok else "; ".join(failures))
    assert ok, "; ".join(failures)


def test_criterion_3_table3_reproduction(table3):
    """E_1 within 10%; the nonsmooth-data gap E_0/E_1 > 100 at every M."""
    failures = []
    for M, got, ref in zip(M_VALUES, table3.E[1.0], TABLE3_ERRORS[1.0]):
        dev = (got - ref) / ref
        if abs(dev) > 0.10:
            failures.append(f"E_1 M={M}: {got:.4e} vs {ref:.4e} ({dev:+.1%})")
    for M, e0, e1 in zip(M_VALUES, table3.E[0.0], table3.E[1.0]):
        if e0 / e1 <= 100.0:
            failures.append(f"M={M}: E_0/E_1 = {e0 / e1:.1f} <= 100")
    ok = not failures
    _report("criterion 3", ok,
            "table 3 E_1 within 10% and E_0/E_1 > 100 throughout" if ok
            else "; ".join(failures))
    assert ok, "; ".join(failures)


def test_criterion_4_rate_convention_arithmetic():
    """log2 of successive printed errors reproduces every printed rate."""
    worst = 0.0
    for errors, rates in TABLES.values():
        for mu in errors:
            got = convergence_rates(errors[mu])
            for g, r in zip(got, rates[mu]):
                worst = max(worst, abs(g - r))
    ok = worst <= 2e-3
    _report("criterion 4", ok, f"printed-rate arithmetic, worst deviation {worst:.2e}")
    assert ok


def test_criterion_5_alpha_to_one_degeneration():
    M, N, T = 8, 50, 0.5
    mesh = StructuredMesh(M)
    tm = GradedTimeMesh(N, 1.0, T)
    u0 = l2_project(mesh, DATA["example1"].evaluate)
    recorded = np.empty((N, mesh.n_interior))

    def obs(n, t, u):
        recorded[n - 1] = u.values

    run(mesh, tm, 1.0 - 1e-12, None, u0, observer=obs)
    ref = heat_crank_nicolson_reference(M, u0.values, T / N, N)
    drift = float(np.abs(recorded - ref).max())
    ok = drift <= 1e-10
    _report("criterion 5", ok, f"alpha->1 vs Crank-Nicolson, max step diff {drift:.2e}")
    assert ok


def test_criterion_6_fractional_quadrature_suite():
    failures = []
    # row sums match t^alpha / Gamma(1 + alpha)
    worst = 0.0
    for gamma_exp, alpha in ((1.0, 0.5), (1.6, 0.75), (2.0, 0.3)):
        tm = GradedTimeMesh(200, gamma_exp, 0.5)
        w = FracWeights(tm, alpha)
        g1a = math.gamma(1.0 + alpha)
        for n in (1, 3, 77, 200):
            ref = tm.t[n] ** alpha / g1a
            worst = max(worst, abs(w.row(n).sum() - ref) / ref)
    if worst > 1e-12:
        failures.append(f"row sums off by {worst:.2e}")
    # power rule convergence, order >= 1
    alpha, mu = 0.75, 1.3
    errs = []
    for N in (250, 500, 1000):
        tm = GradedTimeMesh(N, 2.0, 1.0)
        mid = 0.5 * (tm.t[:-1] + tm.t[1:])
        approx = frac_integral_nodes(FracWeights(tm, alpha), mid ** (mu - 1.0))
        exact = math.gamma(mu) / math.gamma(mu + alpha) * tm.t[1:] ** (mu - 1.0 + alpha)
        errs.append(np.abs(approx - exact).max())
    order = min(math.log2(a / b) for a, b in zip(errs, errs[1:]))
    if order < 1.0:
        failures.append(f"power rule order {order:.2f} < 1")
    # positivity of the quadratic form for 100 random histories
    rng = np.random.default_rng(2718)
    tm = GradedTimeMesh(150, 1.6, 0.5)
    w = FracWeights(tm, 0.75)
    worst_form = 0.0
    for _ in range(100):
        v = rng.standard_normal(150)
        v /= np.linalg.norm(v)
        worst_form = min(worst_form, float(
            np.sum(frac_integral_nodes(w, v) * v * tm.tau)))
    if worst_form < -1e-10:
        failures.append(f"positivity violated: {worst_form:.2e}")
    ok = not failures
    _report("criterion 6", ok,
            f"row sums {worst:.1e}, power-rule order {order:.2f}, "
            f"min form {worst_form:.1e}" if ok else "; ".join(failures))
    assert ok, "; ".join(failures)


def test_criterion_7_leibniz_identity_suite():
    failures = []
    for alpha in (0.3, 0.5, 0.75):
        for name, theta in (("t^2", lambda t: t * t), ("sin", np.sin)):
            res = np.array([_leibniz_residuals(theta, alpha, N)
                            for N in (64, 128, 256, 512)])
            for k, tag in enumerate("ab"):
                rates = np.log2(res[:-1, k] / res[1:, k])
                if rates.min() < 1.0:
                    failures.append(
                        f"identity ({tag}) alpha={alpha} theta={name}: "
                        f"order {rates.min():.2f}")
    ok = not failures
    _report("criterion 7", ok,
            "both product identities converge at order >= 1" if ok
            else "; ".join(failures))
    assert ok, "; ".join(failures)


def test_criterion_8_mittag_leffler_suite():
    failures = []
    ev1 = MlfEvaluator(1.0)
    xs = np.linspace(0.0, 50.0, 501)
    worst = np.max(np.abs(ev1(xs) - np.exp(-xs)) / np.exp(-xs))
    if worst > 1e-12:
        failures.append(f"E_1 vs exp off by {worst:.2e}")
    ev_half = MlfEvaluator(0.5)
    ref = math.e * math.erfc(1.0)
    rel = abs(ev_half(1.0) - ref) / ref
    if rel > 1e-10:
        failures.append(f"E_1/2(-1) off by {rel:.2e}")
    gaps = []
    x_large = np.geomspace(50.0, 1e8, 4001)
    for alpha in (0.25, 0.5, 0.75, 0.95):
        ref = _asymptotic_all_terms(alpha, x_large)
        gaps.append(np.abs(MlfEvaluator(alpha)(x_large) - ref) / ref)
    for alpha, pairs in MLF_SERIES_REFERENCE.items():
        x, ref = np.array(pairs).T
        gaps.append(np.abs(MlfEvaluator(alpha)(x) - ref) / ref)
    gaps = np.concatenate(gaps)
    # a nan gap counts as an infinite one
    worst_ref = float(np.max(np.where(np.isnan(gaps), np.inf, gaps)))
    if worst_ref > 1e-11:
        failures.append(f"oracle agreement off by {worst_ref:.2e}")
    for alpha in (0.25, 0.5, 0.75, 0.95):
        vals = MlfEvaluator(alpha)(np.concatenate([[0.0], np.logspace(-3, 5, 300)]))
        if not np.all(np.diff(vals) < 0.0):
            failures.append(f"monotonicity violated at alpha={alpha}")
    ok = not failures
    _report("criterion 8", ok,
            f"exp identity {worst:.1e}, oracle agreement {worst_ref:.1e}, "
            "monotone on [0, 1e5]" if ok else "; ".join(failures))
    assert ok, "; ".join(failures)


def test_criterion_9_variable_diffusivity_manufactured():
    """Forced problem with a(x,y) = 1 + sin(pi x) sin(pi y)/2 and u = t w."""
    alpha, T, N = 0.75, 0.5, 512
    w = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    a = lambda x, y: 1.0 + 0.5 * w(x, y)

    def Lw(x, y):
        s = w(x, y)
        grad2 = np.pi ** 2 * (np.cos(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2
                              + np.sin(np.pi * x) ** 2 * np.cos(np.pi * y) ** 2)
        return 2.0 * np.pi ** 2 * (1.0 + 0.5 * s) * s - 0.5 * grad2

    # oracle check of the hand-derived operator by central differences
    h = 1e-5
    rng = np.random.default_rng(1)
    for x0, y0 in rng.uniform(0.2, 0.8, size=(4, 2)):
        ax = lambda x, y: a(x, y) * np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
        ay = lambda x, y: a(x, y) * np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
        div = ((ax(x0 + h, y0) - ax(x0 - h, y0)) / (2 * h)
               + (ay(x0, y0 + h) - ay(x0, y0 - h)) / (2 * h))
        assert abs(-div - Lw(x0, y0)) < 1e-5

    g1a = math.gamma(1.0 + alpha)
    f = lambda x, y, t: w(x, y) + Lw(x, y) * t ** alpha / g1a

    lat = StructuredMesh(64)
    X, Y = np.meshgrid(lat.xs, lat.xs, indexing="ij")
    exact_T = T * w(X, Y)
    errs = []
    for M in (8, 16, 32):
        mesh = StructuredMesh(M)
        tm = GradedTimeMesh(N, 1.6, T)
        u0 = FieldP1(mesh=mesh, values=np.zeros(mesh.n_interior))
        state = run(mesh, tm, alpha, a, u0, f=f)
        interp = LatticeInterpolator(mesh, lat)
        errs.append(float(np.abs(
            interp(FieldP1(mesh=mesh, values=state.us[-1])) - exact_T).max()))
    rates = [math.log2(p / q) for p, q in zip(errs, errs[1:])]
    ok = min(rates) >= 1.8
    _report("criterion 9", ok,
            f"variable-a manufactured rates {rates[0]:.2f}, {rates[1]:.2f}")
    assert ok, f"rates {rates}"
