"""Built-in verification suites behind the `verify` CLI command.

Each suite returns (name, passed, detail) tuples. The checks are quick
versions of the test-suite oracles: special-function spot values and
identities, fractional-quadrature identities, assembly stencil checks,
and the degeneration of the stepper to classical Crank-Nicolson for the
heat equation as alpha -> 1.
"""

from __future__ import annotations

import math

import numpy as np

from .assembly import assemble_mass, assemble_stiffness, l2_project
from .mesh import build_mesh
from .mittag_leffler import MlfEvaluator, gamma
from .sparse import matvec
from .stepping import build_time_mesh, frac_integral_nodes, frac_weights, run

# spot values from the extended-precision series oracle
# (tools/gen_mlf_reference.py)
_MLF_SPOTS = {
    0.25: ((0.9, 0.4908242549365998), (1.9, 0.3092236411721571),
           (7.0, 0.10585848708784815)),
    0.5: ((1.0, 0.427583576155807), (12.0, 0.04685422101489376),
          (49.5, 0.011395444948937534)),
    0.75: ((1.5, 0.2738222798391781), (9.0, 0.0344536279569295),
           (49.5, 0.005689261534458768)),
    0.95: ((1.5, 0.23296065131182464), (9.0, 0.007515547547803648),
           (49.5, 0.0010784466639386504)),
}


def _check(name, ok, detail=""):
    return (name, bool(ok), detail)


def suite_special_functions(mlf_x_lo=None, mlf_x_hi=None) -> list:
    checks = []
    # exponential identity at alpha = 1
    ev1 = MlfEvaluator(1.0)
    xs = np.linspace(0.0, 50.0, 26)
    err = np.abs(ev1(xs) - np.exp(-xs)).max()
    checks.append(_check("E_1(-x) = exp(-x)", err < 1e-12, f"max abs {err:.2e}"))

    # erfc identity at alpha = 1/2
    ev_half = MlfEvaluator(0.5)
    val = ev_half(1.0)
    ref = math.e * math.erfc(1.0)
    checks.append(_check("E_1/2(-1) = e erfc(1)", abs(val - ref) / ref < 1e-10))

    # oracle spot values
    worst = 0.0
    for alpha, spots in _MLF_SPOTS.items():
        ev = MlfEvaluator(alpha)
        for x, ref in spots:
            worst = max(worst, abs(ev(x) - ref) / abs(ref))
    checks.append(_check("reference spot values", worst < 1e-10, f"worst rel {worst:.2e}"))

    # regime continuity at the active thresholds (perturbable for diagnostics)
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75, 0.95):
        ev = MlfEvaluator(alpha, x_lo=mlf_x_lo, x_hi=mlf_x_hi)
        lo, hi = ev.series_cut, ev.asym_cut
        v1 = float(ev.series_value(lo)[0])
        v2 = float(ev.quadrature_value(lo)[0])
        v3 = float(ev.quadrature_value(hi)[0])
        v4 = float(ev.asymptotic_value(hi)[0])
        for a, b in ((v1, v2), (v3, v4)):
            rel = abs(a - b) / max(abs(a), abs(b)) if max(abs(a), abs(b)) else np.inf
            if not np.isfinite(rel):
                rel = np.inf
            worst = max(worst, rel)
    checks.append(_check("regime continuity", worst < 1e-9, f"worst rel {worst:.2e}"))

    # monotone decay in x
    worst_viol = 0.0
    for alpha in (0.25, 0.5, 0.75, 0.95):
        ev = MlfEvaluator(alpha)
        grid = np.concatenate([[0.0], np.logspace(-3, 5, 120)])
        vals = ev(grid)
        worst_viol = max(worst_viol, float(np.max(np.diff(vals))))
    checks.append(_check("monotone decay", worst_viol <= 0.0,
                         f"max increase {worst_viol:.2e}"))
    return checks


def suite_quadrature_identities() -> list:
    checks = []
    alpha = 0.6
    tm = build_time_mesh(200, 1.6, 0.5)
    w = frac_weights(tm, alpha)
    g1a = gamma(1.0 + alpha)
    worst = 0.0
    for n in (1, 7, 50, 200):
        s = w.row(n).sum()
        ref = tm.t[n] ** alpha / g1a
        worst = max(worst, abs(s - ref) / ref)
    checks.append(_check("weight row sums", worst < 1e-12, f"worst rel {worst:.2e}"))

    # corrected power rule: I^a s^0.3 -> Gamma(1.3)/Gamma(1.3+a) t^(0.3+a)
    errs = []
    for N in (100, 200, 400):
        tmN = build_time_mesh(N, 2.0, 1.0)
        wN = frac_weights(tmN, alpha)
        mid = 0.5 * (tmN.t[:-1] + tmN.t[1:])
        approx = frac_integral_nodes(wN, mid ** 0.3)
        ref = gamma(1.3) / gamma(1.3 + alpha) * tmN.t[1:] ** (0.3 + alpha)
        errs.append(np.abs(approx - ref).max())
    order = math.log2(errs[0] / errs[-1]) / 2.0
    checks.append(_check("power rule order >= 1", order >= 1.0, f"order {order:.2f}"))

    # positivity of sum_n tau_n v_n I^a v (t_n) for random histories
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        v = rng.standard_normal(tm.N)
        v /= np.linalg.norm(v)
        q = float(np.sum(frac_integral_nodes(w, v) * v * tm.tau))
        worst = min(worst, q)
    checks.append(_check("quadrature positivity", worst >= -1e-10, f"min form {worst:.2e}"))
    return checks


def suite_assembly_oracle() -> list:
    checks = []
    mesh = build_mesh(8)
    S = assemble_stiffness(mesh)
    Sd = S.to_dense()
    ref = _stencil_stiffness_dense(8)
    checks.append(_check("unit-coefficient stiffness stencil",
                         np.abs(Sd - ref).max() == 0.0))
    Mfull = assemble_mass(mesh, include_boundary=True)
    total = Mfull.to_dense().sum()
    checks.append(_check("mass total = domain area", abs(total - 1.0) < 1e-13))
    Mi = assemble_mass(mesh)
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(20):
        x = rng.standard_normal(mesh.n_interior)
        ok = ok and x @ matvec(Mi, x) > 0.0 and x @ matvec(S, x) > 0.0
    checks.append(_check("mass/stiffness positive definite (sampled)", ok))
    return checks


def _stencil_stiffness_dense(M: int) -> np.ndarray:
    """Five-point stencil on interior nodes: independent assembly oracle."""
    m = M - 1
    A = np.zeros((m * m, m * m))
    for j in range(m):
        for i in range(m):
            r = j * m + i
            A[r, r] = 4.0
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < m and 0 <= jj < m:
                    A[r, jj * m + ii] = -1.0
    return A


def _stencil_mass_dense(M: int) -> np.ndarray:
    """Consistent P1 mass on interior nodes from the known stencil."""
    m = M - 1
    area = 1.0 / (2.0 * M * M)
    A = np.zeros((m * m, m * m))
    for j in range(m):
        for i in range(m):
            r = j * m + i
            A[r, r] = area
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < m and 0 <= jj < m:
                    A[r, jj * m + ii] = area / 6.0
    return A


def heat_crank_nicolson_reference(M: int, u0: np.ndarray, tau: float,
                                  nsteps: int) -> np.ndarray:
    """Dense CN stepper for u' - div(grad u) = 0, first step fully implicit.

    Built from the analytic interior stencils and dense solves, independent
    of the sparse assembly and CG machinery. Returns all steps (nsteps, dof).
    """
    Md = _stencil_mass_dense(M)
    Sd = _stencil_stiffness_dense(M)
    out = np.empty((nsteps, u0.size))
    u = u0.copy()
    for n in range(1, nsteps + 1):
        if n == 1:
            u = np.linalg.solve(Md + tau * Sd, Md @ u)
        else:
            u = np.linalg.solve(Md + 0.5 * tau * Sd, (Md - 0.5 * tau * Sd) @ u)
        out[n - 1] = u
    return out


def suite_alpha1_limit() -> list:
    M, N, T = 8, 20, 0.5
    mesh = build_mesh(M)
    tm = build_time_mesh(N, 1.0, T)
    u0 = l2_project(mesh, lambda x, y: x * y * (1 - x) * (1 - y))
    recorded = np.empty((N, mesh.n_interior))

    def obs(n, t_n, u_n):
        recorded[n - 1] = u_n.values

    run(mesh, tm, 1.0 - 1e-12, None, u0, observer=obs)
    ref = heat_crank_nicolson_reference(M, u0.values, T / N, N)
    drift = float(np.abs(recorded - ref).max())
    return [_check("alpha -> 1 matches Crank-Nicolson heat stepper",
                   drift < 1e-10, f"max per-step diff {drift:.2e}")]


def suite_benchmark_data() -> list:
    """Arithmetic self-consistency of the bundled reference tables."""
    from .benchmarks import TABLES
    from .metrics import convergence_rates
    worst = 0.0
    for errors, rates in TABLES.values():
        for mu in errors:
            got = convergence_rates(errors[mu])
            for g, r in zip(got, rates[mu]):
                worst = max(worst, abs(g - r))
    return [_check("reference rates match log2 error ratios", worst <= 2e-3,
                   f"worst deviation {worst:.1e}")]


SUITES = {
    "special_functions": suite_special_functions,
    "quadrature_identities": suite_quadrature_identities,
    "assembly_oracle": suite_assembly_oracle,
    "alpha1_limit": suite_alpha1_limit,
    "benchmark_data": suite_benchmark_data,
}


def run_all(mlf_x_lo=None, mlf_x_hi=None) -> tuple[bool, str]:
    lines = []
    all_ok = True
    for name, fn in SUITES.items():
        checks = fn(mlf_x_lo, mlf_x_hi) if name == "special_functions" else fn()
        ok = all(c[1] for c in checks)
        all_ok &= ok
        lines.append(f"[{'PASS' if ok else 'FAIL'}] suite {name}")
        for cname, cok, detail in checks:
            mark = "ok" if cok else "FAIL"
            extra = f" ({detail})" if detail else ""
            lines.append(f"    {mark:4s} {cname}{extra}")
    return all_ok, "\n".join(lines)
