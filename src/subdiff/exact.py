"""Exact solution of the model problem on the unit square for a = 1.

Eigenpairs of the Dirichlet Laplacian are phi_mn = 2 sin(m pi x) sin(n pi y)
with lambda_mn = (m^2 + n^2) pi^2; the solution for initial datum u0 is the
eigenfunction expansion with modal decay E_alpha(-lambda_mn t^alpha). Three
standard initial data have closed-form sine coefficients; anything else is
handled by tensor Gauss quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """Initial datum: pointwise evaluator plus optional closed-form coefficients."""

    tag: str
    evaluate: Callable
    coefficient_rule: Callable | None = None


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
    evaluator: MlfEvaluator = field(repr=False)

    def __post_init__(self):
        self.C.setflags(write=False)
        self.lam.setflags(write=False)

    @property
    def active_mask(self) -> np.ndarray:
        return self.C != 0.0


def make_series(datum: InitialDatum, alpha: float, K: int = 60) -> SeriesSolution:
    """Coefficients from the closed form when available, else sine quadrature."""
    if K < 1:
        raise ValueError(f"mode cutoff K must be >= 1, got {K!r}")
    modes = np.arange(1, K + 1, dtype=float)
    mm, nn = np.meshgrid(modes, modes, indexing="ij")
    if datum.coefficient_rule is not None:
        C = datum.coefficient_rule(mm, nn)
    else:
        # tensor Gauss-Legendre, >= 4K points per axis, on (0,1)^2
        npts = 4 * K
        xg, wg = np.polynomial.legendre.leggauss(npts)
        xq = 0.5 * (xg + 1.0)
        wq = 0.5 * wg
        X, Y = np.meshgrid(xq, xq, indexing="ij")
        U = np.asarray(datum.evaluate(X, Y), dtype=float)
        if not np.all(np.isfinite(U)):
            raise EvaluationError("initial datum produced non-finite values")
        Sq = np.sin(np.pi * np.outer(xq, modes))     # (npts, K)
        # (u0, phi_mn) with phi = 2 sin sin
        C = 2.0 * (wq[:, None] * Sq).T @ U @ (wq[:, None] * Sq)
    lam = (mm ** 2 + nn ** 2) * np.pi ** 2
    return SeriesSolution(alpha=float(alpha), K=int(K), C=np.asarray(C, dtype=float),
                          lam=lam, evaluator=MlfEvaluator(alpha=float(alpha)))


def modal_factors(sol: SeriesSolution, t: float) -> np.ndarray:
    """E_alpha(-lambda_mn t^alpha) on the active modes, zero elsewhere."""
    if t < 0.0:
        raise ValueError("time must be >= 0")
    E = np.zeros_like(sol.C)
    mask = sol.active_mask
    if t == 0.0:
        E[mask] = 1.0
    else:
        E[mask] = sol.evaluator(sol.lam[mask] * t ** sol.alpha)
    return E


def sine_matrix(coords: np.ndarray, K: int) -> np.ndarray:
    """S[i, m-1] = sin(m pi x_i)."""
    modes = np.arange(1, K + 1, dtype=float)
    return np.sin(np.pi * np.outer(np.asarray(coords, dtype=float), modes))


def eval_grid(sol: SeriesSolution, t: float, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """u(x_i, y_j, t) on the tensor grid, separably: Sx (2 C E) Sy^T."""
    Sx = sine_matrix(xs, sol.K)
    Sy = sine_matrix(ys, sol.K)
    D = 2.0 * sol.C * modal_factors(sol, t)
    out = Sx @ D @ Sy.T
    if not np.all(np.isfinite(out)):
        raise EvaluationError(f"series evaluation produced non-finite values at t={t}")
    return out

