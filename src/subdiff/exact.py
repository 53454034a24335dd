"""Exact solution of the model problem on the unit square for a = 1.

Eigenpairs of the Dirichlet Laplacian are phi_mn = 2 sin(m pi x) sin(n pi y)
with lambda_mn = (m^2 + n^2) pi^2; the solution for initial datum u0 is the
eigenfunction expansion with modal decay E_alpha(-lambda_mn t^alpha). Each
named initial datum carries its closed-form sine coefficients. The decay
is evaluated in one place (decay_rows), once per distinct eigenvalue and
time, and series_on_grid sums the expansion on a tensor grid from one row.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import EvaluationError
from .mittag_leffler import MlfEvaluator


def _odd_factor(k: np.ndarray) -> np.ndarray:
    return 1.0 - (-1.0) ** k


def _coeff_example1(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    return 8.0 * _odd_factor(m) * _odd_factor(n) * (m * n * np.pi ** 2) ** -3.0


def _coeff_example2(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    # sign alternates as sin(m pi/2) sin(n pi/2) on the odd modes
    sign = np.sin(0.5 * np.pi * m) * np.sin(0.5 * np.pi * n)
    sign = np.where(np.abs(sign) > 0.5, np.sign(sign), 0.0)
    return 2.0 * _odd_factor(m) * _odd_factor(n) * (m * n * np.pi ** 2) ** -2.0 * sign


def _coeff_example3(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    return 2.0 * _odd_factor(m) * _odd_factor(n) * (m * n * np.pi ** 2) ** -1.0


def _eval_example1(x, y):
    return x * y * (1.0 - x) * (1.0 - y)


def _eval_example2(x, y):
    return np.minimum(x, 1.0 - x) * np.minimum(y, 1.0 - y)


def _eval_example3(x, y):
    return np.ones_like(np.asarray(x, dtype=float) * np.asarray(y, dtype=float))


def _coeff_zero(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    return np.zeros_like(m)


def _eval_zero(x, y):
    return np.zeros_like(np.asarray(x, dtype=float) + y)


@dataclass(frozen=True)
class InitialDatum:
    """Initial datum: pointwise evaluator plus closed-form sine coefficients."""

    tag: str
    evaluate: Callable
    coefficient_rule: Callable


# The named initial data, by the tag a config's `example` selects.
DATA = {datum.tag: datum for datum in (
    # u0 = x y (1-x)(1-y): smooth, compatible datum
    InitialDatum("example1", _eval_example1, _coeff_example1),
    # u0 = min(x, 1-x) min(y, 1-y): continuous with gradient kinks
    InitialDatum("example2", _eval_example2, _coeff_example2),
    # u0 = 1: incompatible with the boundary condition
    InitialDatum("example3", _eval_example3, _coeff_example3),
    # u0 = 0: the exact solution is zero
    InitialDatum("zero", _eval_zero, _coeff_zero),
)}


@dataclass(frozen=True)
class SeriesSolution:
    """Truncated eigenfunction expansion of the exact solution."""

    alpha: float
    K: int
    C: np.ndarray        # (K, K) coefficients (u0, phi_mn)
    lam: np.ndarray      # (K, K) eigenvalues

    def __post_init__(self):
        self.C.setflags(write=False)
        self.lam.setflags(write=False)

    @functools.cached_property
    def active_mask(self) -> np.ndarray:
        return self.C != 0.0

    @functools.cached_property
    def c2_active(self) -> np.ndarray:
        """2 C on the active modes, in active_mask order."""
        return 2.0 * self.C[self.active_mask]


def make_series(datum: InitialDatum, alpha: float, K: int = 60) -> SeriesSolution:
    """Coefficients from the datum's closed form, K modes per axis."""
    if K < 1:
        raise ValueError(f"mode cutoff K must be >= 1, got {K!r}")
    modes = np.arange(1, K + 1, dtype=float)
    mm, nn = np.meshgrid(modes, modes, indexing="ij")
    C = datum.coefficient_rule(mm, nn)
    lam = (mm ** 2 + nn ** 2) * np.pi ** 2
    return SeriesSolution(alpha=float(alpha), K=int(K), C=np.asarray(C, dtype=float), lam=lam)


@functools.lru_cache(maxsize=1)
def _decay_table(alpha: float, lam_bytes: bytes, t_bytes: bytes) -> np.ndarray:
    """Read-only E_alpha(-lam t^alpha), shape (times, eigenvalues).

    Keyed by value, so every row of a study (same datum, alpha, modes and
    time mesh, any M) reuses one evaluation.
    """
    lam = np.frombuffer(lam_bytes)
    t = np.frombuffer(t_bytes)
    args = (lam[None, :] * (t ** alpha)[:, None]).ravel()
    table = MlfEvaluator(alpha)(args).reshape(t.size, lam.size)
    table.setflags(write=False)
    return table


def decay_rows(sol: SeriesSolution, t) -> np.ndarray:
    """E_alpha(-lambda_mn t^alpha) on the active modes, shape (times, active modes),
    from one oracle run per distinct eigenvalue ((m, n) and (n, m) share one)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("time must be >= 0")
    lam_u, mode_of = np.unique(sol.lam[sol.active_mask], return_inverse=True)
    return _decay_table(sol.alpha, lam_u.tobytes(), t.tobytes())[:, mode_of]


def series_on_grid(sol: SeriesSolution, row: np.ndarray, Sx: np.ndarray,
                   Sy: np.ndarray) -> np.ndarray:
    """Sx (2 C E) Sy^T for one decay row E of decay_rows."""
    D = np.zeros_like(sol.C)
    D[sol.active_mask] = sol.c2_active * row
    return Sx @ D @ Sy.T


def sine_matrix(coords: np.ndarray, K: int) -> np.ndarray:
    """S[i, m-1] = sin(m pi x_i)."""
    modes = np.arange(1, K + 1, dtype=float)
    return np.sin(np.pi * np.outer(np.asarray(coords, dtype=float), modes))


def eval_grid(sol: SeriesSolution, t: float, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """u(x_i, y_j, t) on the tensor grid xs x ys."""
    row = decay_rows(sol, [t])[0]
    out = series_on_grid(sol, row, sine_matrix(xs, sol.K), sine_matrix(ys, sol.K))
    if not np.all(np.isfinite(out)):
        raise EvaluationError(f"series evaluation produced non-finite values at t={t}")
    return out
