"""ELLPACK matrices, Jacobi-preconditioned CG, and the scheme's pencil solver.

Serves the time stepper's solves (mass + s stiffness) x = b, a new s each
step: the matrices are symmetric positive definite, small (a few thousand
rows) and share one sparsity pattern, so ``cg_solve``, plain CG with a
diagonal preconditioner and warm starts, fits better than a factorizing
solver; ``LinearSolver`` binds it to the pencil.

A matrix is stored in one format, column-major ELLPACK: two (K, n) arrays
E and J, K the longest row, with row i's k-th stored entry in E[k, i] and
its column in J[k, i]. Each row's entries are stored in increasing column
order; shorter rows are padded with value 0 and the row's first column.
``matvec`` sums row i as a_0 + (a_1 + ... + a_(K-1)), a_k the products
E[k, i] * x[J[k, i]], added in k order; padding adds exact zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import SolverFailureError


@dataclass(frozen=True)
class SparseMatrix:
    """Square matrix as the ELLPACK pair (E, J) (see the module docstring)."""

    E: np.ndarray
    J: np.ndarray

    def __post_init__(self):
        if self.E.ndim != 2 or self.J.shape != self.E.shape:
            raise ValueError("E and J must be (K, n) arrays of one shape")
        for arr in (self.E, self.J):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.E.shape[1]

    def diagonal(self) -> np.ndarray:
        return np.where(self.J == np.arange(self.n), self.E, 0.0).sum(axis=0)

    def max_asymmetry(self) -> float:
        """max |A_ij - A_ji| relative to max |A_ij|; inf when the pattern is not symmetric."""
        E, J = self.E, self.J
        match = J[:, J] == np.arange(self.n)  # [l, k, i]: row J[k, i] stores column i in slot l
        if not match.any(axis=0).all():
            return math.inf
        Et = E[match.argmax(axis=0), J]  # A[J[k, i], i]: the first match, never padding
        padding = J == J[0]  # a row's columns are distinct; padding repeats the first
        padding[0] = False
        scale = np.abs(E).max()
        return float(np.abs(np.where(padding, 0.0, E - Et)).max() / scale) if scale else 0.0


def matvec(A: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """y = A x with a fixed per-row summation order."""
    x = np.asarray(x, dtype=float)
    if x.shape != (A.n,):
        raise ValueError(f"dimension mismatch: matrix {A.n}, vector {x.shape}")
    return _ell_matvec(A.E, A.J, x)


def _ell_matvec(E: np.ndarray, J: np.ndarray, x: np.ndarray) -> np.ndarray:
    P = E * x[J]
    return P[0] + np.add.reduce(P[1:], axis=0)


@dataclass(frozen=True)
class LinearSolver:
    """Jacobi-CG solver for the pencil matrix + s * shift, s chosen per solve.

    ``matrix`` and ``shift`` share one sparsity pattern. Symmetry, finite
    entries and a positive diagonal are checked and diagonals are taken
    once, here, so a time stepper needs one solver per run. A solve with
    shift s applies E_matrix + s * E_shift (the two share J), preconditioned
    by the diagonal of that sum. As the stepper's pencil it applies
    mass(u) = matrix u and stiffness(u) = shift u.
    """

    matrix: SparseMatrix
    shift: SparseMatrix
    rtol: float = 1e-12
    _diag: np.ndarray = field(init=False, repr=False, compare=False)
    _shift_diag: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not np.array_equal(self.matrix.J, self.shift.J):
            raise ValueError("shift must share the sparsity pattern of the matrix")
        for name, A in (("_diag", self.matrix), ("_shift_diag", self.shift)):
            diag = A.diagonal()
            if not (np.isfinite(A.E).all() and np.all(diag > 0.0)):
                raise ValueError("matrix is not SPD: an entry is not finite or a diagonal "
                                 "entry is not positive")
            if (asym := A.max_asymmetry()) > 1e-12:
                raise ValueError(f"matrix is not symmetric (relative asymmetry {asym:.2e})")
            object.__setattr__(self, name, diag)

    def mass(self, u: np.ndarray) -> np.ndarray:
        return matvec(self.matrix, u)

    def stiffness(self, u: np.ndarray) -> np.ndarray:
        return matvec(self.shift, u)

    def solve(self, rhs: np.ndarray, x0: np.ndarray | None = None,
              s: float = 0.0) -> np.ndarray:
        """Solve (matrix + s * shift) x = rhs."""
        if not np.all(np.isfinite(rhs)):
            raise ValueError("rhs contains non-finite entries")
        if x0 is not None and np.shape(x0) != (self.matrix.n,):
            raise ValueError("x0 length does not match matrix dimension")
        E = self.matrix.E + s * self.shift.E
        dinv = 1.0 / (self._diag + s * self._shift_diag)
        return cg_solve((E, self.matrix.J), rhs, dinv, x0=x0, rtol=self.rtol)[0]


def cg_solve(ell: tuple[np.ndarray, np.ndarray], b: np.ndarray, dinv: np.ndarray,
             x0=None, rtol: float = 1e-12,
             max_iter: int | None = None) -> tuple[np.ndarray, list[float]]:
    """Jacobi-preconditioned CG. Returns (x, per-iteration residual norms).

    ell is the (E, J) pair of A's ELL form, dinv the inverse of A's diagonal
    and max_iter 10 n + 1000 by default, n the size of A. Stops when the
    true residual satisfies ||Ax-b|| <= rtol ||b||.
    When only the recursive residual does, CG restarts from the true one;
    raises SolverFailureError when such a restart's true residual is not
    below the last restart's (CG has stalled), past max_iter, or when ||b||
    or a residual norm is not finite (or ||b|| underflows to 0 for a
    nonzero b).
    """
    E, J = ell
    b = np.asarray(b, dtype=float)
    if b.shape != (E.shape[1],):
        raise ValueError(f"dimension mismatch: matrix {E.shape[1]}, vector {b.shape}")
    if not b.any():
        return np.zeros_like(b), [0.0]
    max_iter = 10 * b.size + 1000 if max_iter is None else max_iter
    # an overflow makes a norm inf, which the finiteness checks below report
    with np.errstate(over="ignore"):
        bnorm = math.sqrt(float(b @ b))
        if not 0.0 < bnorm < math.inf:
            raise SolverFailureError(f"norm of b is not finite and nonzero: {bnorm}",
                                     residual=math.nan)
        x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
        r = b - _ell_matvec(E, J, x)
        residuals = [math.sqrt(float(r @ r))]
        tol_abs = rtol * bnorm
        z = np.empty_like(b)
        tmp = np.empty_like(b)
        p = None
        restarted_at = math.inf
        it = 0
        while it < max_iter:
            if residuals[-1] <= tol_abs:
                # recursion may drift from the true residual; confirm before exiting
                true_r = b - _ell_matvec(E, J, x)
                tn = math.sqrt(float(true_r @ true_r))
                if tn <= tol_abs:
                    return x, residuals
                if tn >= restarted_at:
                    raise SolverFailureError(
                        f"CG stalled at relative residual {tn / bnorm:.3e} after {it} "
                        f"iterations", residual=tn / bnorm)
                # the old direction is not conjugate to the replaced residual
                r, p, restarted_at = true_r, None, tn
                residuals[-1] = tn
            if not math.isfinite(residuals[-1]):
                raise SolverFailureError(f"CG residual norm is not finite at iteration {it}",
                                         residual=residuals[-1] / bnorm)
            np.multiply(dinv, r, out=z)
            rz = float(r @ z)
            if p is None:
                p = z.copy()
            else:
                p *= rz / rz_prev
                p += z
            Ap = _ell_matvec(E, J, p)
            alpha = rz / float(p @ Ap)
            np.multiply(p, alpha, out=tmp)
            x += tmp
            np.multiply(Ap, alpha, out=tmp)
            r -= tmp
            rz_prev = rz
            residuals.append(math.sqrt(float(r @ r)))
            it += 1
        r = b - _ell_matvec(E, J, x)
        final = math.sqrt(float(r @ r)) / bnorm
        raise SolverFailureError(
            f"CG did not converge in {max_iter} iterations (relative residual {final:.3e})",
            residual=final)
