"""Minimal CSR matrices and an SPD solver (Jacobi-preconditioned CG).

Serves the per-step solves of the time stepper: matrices here are symmetric
positive definite, small (a few thousand rows), and share one sparsity
pattern, so plain CG with a diagonal preconditioner and warm starts is a
better fit than a factorizing solver.

Matrices are built and stored as CSR, but applied in a column-major
ELLPACK form (``SparseMatrix.ell``): two (K, n) arrays E and J, K the
longest row, with row i's k-th stored entry in E[k, i] and its column in
J[k, i]. Shorter rows are padded with value 0 and a column the row already
reads. ``matvec`` sums row i as a_0 + (a_1 + ... + a_(K-1)), a_k the
products E[k, i] * x[J[k, i]], added in k order; padding adds exact zeros.
That is the order ``np.add.reduceat`` uses on CSR rows of fewer than 9
entries (every finite-element and interpolation row here), so the products
agree with the CSR sum bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import SolverFailureError


@dataclass(frozen=True)
class SparseMatrix:
    """Square CSR matrix. Rows must be nonempty (FE matrices carry diagonals)."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        if self.indptr.shape != (self.n + 1,):
            raise ValueError("indptr length must be n+1")
        if np.any(np.diff(self.indptr) < 1):
            raise ValueError("empty rows are not supported")
        for arr in (self.indptr, self.indices, self.data):
            arr.setflags(write=False)

    def diagonal(self) -> np.ndarray:
        d = np.zeros(self.n)
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        on_diag = rows == self.indices
        d[rows[on_diag]] = self.data[on_diag]
        return d

    @cached_property
    def ell(self) -> tuple[np.ndarray, np.ndarray]:
        """(E, J): the padded column-major ELLPACK form (see the module docstring)."""
        counts = np.diff(self.indptr)
        rows = np.repeat(np.arange(self.n), counts)
        k = np.arange(rows.size) - self.indptr[rows]
        E = np.zeros((int(counts.max()), self.n))
        E[k, rows] = self.data
        J = np.tile(self.indices[self.indptr[:-1]], (E.shape[0], 1))
        J[k, rows] = self.indices
        for arr in (E, J):
            arr.setflags(write=False)
        return E, J

    def max_asymmetry(self) -> float:
        """max |A_ij - A_ji| relative to max |A_ij|; inf when the pattern is not symmetric."""
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        order = np.lexsort((rows, self.indices))  # entries in the transpose's CSR order
        if not (np.array_equal(self.indices[order], rows)
                and np.array_equal(rows[order], self.indices)):
            return math.inf
        scale = np.abs(self.data).max()
        return float(np.abs(self.data[order] - self.data).max() / scale)


def csr_from_coo(n: int, rows, cols, vals) -> SparseMatrix:
    """Build CSR from COO triplets, summing duplicates deterministically."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=float)
    order = np.lexsort((cols, rows))  # stable: ties keep input order
    rows, cols, vals = rows[order], cols[order], vals[order]
    new = np.ones(rows.size, dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.nonzero(new)[0]
    data = np.add.reduceat(vals, starts)
    r = rows[starts]
    c = cols[starts]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, r + 1, 1)
    np.cumsum(indptr, out=indptr)
    return SparseMatrix(n=n, indptr=indptr, indices=c, data=data)


def matvec(A: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """y = A x with a fixed per-row summation order."""
    x = np.asarray(x, dtype=float)
    if x.shape != (A.n,):
        raise ValueError(f"dimension mismatch: matrix {A.n}, vector {x.shape}")
    return _ell_matvec(*A.ell, x)


def _ell_matvec(E: np.ndarray, J: np.ndarray, x: np.ndarray) -> np.ndarray:
    P = E * x[J]
    return P[0] + np.add.reduce(P[1:], axis=0)


@dataclass(frozen=True)
class LinearSolver:
    """Jacobi-CG solver bound to one SPD matrix, or to the pencil matrix + s * shift.

    With ``shift`` (same sparsity pattern as ``matrix``) each solve picks
    its own s. Symmetry is checked and diagonals are taken once, here, and
    each matrix keeps its ELL form, so a time stepper needs one solver per
    run. A solve with shift s applies E_matrix + s * E_shift (the two share
    J), which is the ELL form of matrix.data + s * shift.data entry for
    entry, with the preconditioner 1 / (diag(matrix) + s * diag(shift)):
    what a solver built on that summed matrix would use.
    """

    matrix: SparseMatrix
    rtol: float = 1e-12
    shift: SparseMatrix | None = None
    _diag: np.ndarray = field(init=False, repr=False, compare=False)
    _shift_diag: np.ndarray | None = field(init=False, default=None, repr=False,
                                           compare=False)

    def __post_init__(self):
        for A in (self.matrix, self.shift):
            if A is not None and (asym := A.max_asymmetry()) > 1e-12:
                raise ValueError(f"matrix is not symmetric (relative asymmetry {asym:.2e})")
        if self.shift is not None:
            if not (np.array_equal(self.matrix.indptr, self.shift.indptr)
                    and np.array_equal(self.matrix.indices, self.shift.indices)):
                raise ValueError("shift must share the sparsity pattern of the matrix")
            object.__setattr__(self, "_shift_diag", self.shift.diagonal())
        object.__setattr__(self, "_diag", self.matrix.diagonal())

    def solve(self, rhs: np.ndarray, x0: np.ndarray | None = None,
              s: float = 0.0) -> np.ndarray:
        """Solve (matrix + s * shift) x = rhs; s must be 0 without a shift."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.matrix.n,):
            raise ValueError("rhs length does not match matrix dimension")
        if not np.all(np.isfinite(rhs)):
            raise ValueError("rhs contains non-finite entries")
        if self.shift is None and s != 0.0:
            raise ValueError("a nonzero s needs a solver built with a shift")
        E, J = self.matrix.ell
        diag = self._diag
        if self.shift is not None:
            E = E + s * self.shift.ell[0]
            diag = diag + s * self._shift_diag
        x, residuals = cg_solve((E, J), rhs, 1.0 / diag, x0=x0, rtol=self.rtol,
                                max_iter=10 * self.matrix.n + 1000)
        return x


def cg_solve(ell: tuple[np.ndarray, np.ndarray], b: np.ndarray, dinv: np.ndarray,
             x0=None, rtol: float = 1e-12,
             max_iter: int = 10000) -> tuple[np.ndarray, list[float]]:
    """Jacobi-preconditioned CG. Returns (x, per-iteration residual norms).

    ell is the (E, J) pair of A's ELL form and dinv the inverse of A's
    diagonal. Stops when the true residual satisfies ||Ax-b|| <= rtol ||b||;
    raises SolverFailureError past max_iter, or when ||b|| or a residual
    norm is not finite (or ||b|| underflows to 0 for a nonzero b).
    """
    E, J = ell
    b = np.asarray(b, dtype=float)
    if b.shape != (E.shape[1],):
        raise ValueError(f"dimension mismatch: matrix {E.shape[1]}, vector {b.shape}")
    if not b.any():
        return np.zeros_like(b), [0.0]
    with np.errstate(over="ignore"):  # an overflow fails the check below
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
    it = 0
    while it < max_iter:
        if residuals[-1] <= tol_abs:
            # recursion may drift from the true residual; confirm before exiting
            true_r = b - _ell_matvec(E, J, x)
            tn = math.sqrt(float(true_r @ true_r))
            if tn <= tol_abs:
                return x, residuals
            r = true_r
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
