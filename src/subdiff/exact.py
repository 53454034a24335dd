"""Exact solution of the model problem on the unit square for a = 1.

Eigenpairs of the Dirichlet Laplacian are phi_mn = 2 sin(m pi x) sin(n pi y)
with lambda_mn = (m^2 + n^2) pi^2; the solution for initial datum u0 is the
eigenfunction expansion with modal decay E_alpha(-lambda_mn t^alpha). Each
named initial datum carries its closed-form sine coefficients. The series
is held as its active block, the modes m and n whose rows and columns of
the coefficients hold a nonzero entry, with the block's distinct
eigenvalues. DecayReader is the one evaluator of the decay: it evaluates
it once per distinct eigenvalue and time, one block of 32 time steps at a
time, and holds only that block. A run reads its steps through one, and
eval_grid reads its one time through another and sums the expansion on a
tensor grid.
"""

from __future__ import annotations

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


@dataclass(frozen=True, eq=False)
class SeriesSolution:
    """Truncated eigenfunction expansion of the exact solution on its active
    block; compared and hashed by identity."""

    alpha: float
    m: np.ndarray        # modes in x whose row of coefficients holds a nonzero, ascending
    n: np.ndarray        # modes in y whose column of coefficients holds a nonzero
    C2: np.ndarray       # (m.size, n.size) twice the coefficients (u0, phi_mn)
    lam: np.ndarray      # distinct eigenvalues of the block, ascending
    index: np.ndarray    # (m.size, n.size) each block entry's position in lam

    def __post_init__(self):
        for a in (self.m, self.n, self.C2, self.lam, self.index):
            a.setflags(write=False)


def make_series(datum: InitialDatum, alpha: float, K: int) -> SeriesSolution:
    """Coefficients from the datum's closed form, K modes per axis, kept on
    their active block."""
    if not isinstance(K, (int, np.integer)) or isinstance(K, bool) or K < 1:
        raise ValueError(f"mode cutoff K must be an integer >= 1, got {K!r}")
    modes = np.arange(1, K + 1, dtype=float)
    C = np.asarray(datum.coefficient_rule(*np.meshgrid(modes, modes, indexing="ij")), dtype=float)
    rows = np.flatnonzero(C.any(axis=1))
    cols = np.flatnonzero(C.any(axis=0))
    m, n = rows + 1.0, cols + 1.0
    lam, index = np.unique((m[:, None] ** 2 + n[None, :] ** 2) * np.pi ** 2, return_inverse=True)
    return SeriesSolution(alpha=float(alpha), m=m, n=n, C2=2.0 * C[np.ix_(rows, cols)],
                          lam=lam, index=index.reshape(m.size, n.size))


_BLOCK = 32  # decay rows evaluated together; a run's first step waits for one block


class DecayReader:
    """E_alpha(-lambda t^alpha) of a series at the times t, read row by row.

    Holds one MlfEvaluator and one block of 32 rows. The first read of a
    row of block b evaluates rows [32b, 32b + 32) and replaces the block
    held, so a run's first step waits for one block and its memory does
    not grow with the number of steps. Rows are handed out read-only;
    row(k)[sol.index] is the series' decay at t[k]. A time that is not
    finite and >= 0 is a ValueError naming the first such time, and a
    non-finite decay value an EvaluationError when its block is read.
    """

    def __init__(self, sol: SeriesSolution, t):
        t = np.asarray(t, dtype=float)
        bad = t[~(np.isfinite(t) & (t >= 0.0))]
        if bad.size:
            raise ValueError(f"time must be finite and >= 0, got {float(bad[0])!r}")
        self._mlf = MlfEvaluator(sol.alpha)
        self._lam = sol.lam
        self._t_alpha = t ** sol.alpha
        self._lo, self._block = None, None

    def row(self, k: int) -> np.ndarray:
        """Row k, the decay at the k-th time; evaluates its block on first read."""
        k = range(self._t_alpha.size)[k]   # IndexError out of range, k < 0 from the end
        lo = k - k % _BLOCK
        if lo != self._lo:
            t_alpha = self._t_alpha[lo:lo + _BLOCK]
            block = self._mlf((self._lam[None, :] * t_alpha[:, None]).ravel())
            if not np.all(np.isfinite(block)):
                raise EvaluationError(f"Mittag-Leffler decay E_alpha(-lambda t^alpha) is not "
                                      f"finite for alpha={self._mlf.alpha!r}")
            block = block.reshape(t_alpha.size, self._lam.size)
            block.setflags(write=False)
            self._lo, self._block = lo, block
        return self._block[k - lo]


def sine_matrices(sol: SeriesSolution, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """sin(m pi x_i) for the active modes m and sin(n pi y_j) for the active modes n."""
    return np.sin(np.pi * np.outer(xs, sol.m)), np.sin(np.pi * np.outer(ys, sol.n))


def eval_grid(sol: SeriesSolution, t: float, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """u(x_i, y_j, t) on the tensor grid xs x ys: Sx (2 C E) Sy^T for the
    decay E on the active block, Sx and Sy the sine_matrices of the axes.
    Sy^T is made contiguous, as study.ErrorTracker holds it, so the two
    give the same bits on the same grid."""
    E = DecayReader(sol, [t]).row(0)
    Sx, Sy = sine_matrices(sol, xs, ys)
    out = Sx @ (sol.C2 * E[sol.index]) @ Sy.T.copy()
    if not np.all(np.isfinite(out)):
        raise EvaluationError(f"series evaluation produced non-finite values at t={t}")
    return out
