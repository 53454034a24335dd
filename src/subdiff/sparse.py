"""Symmetric stencil operators, Jacobi-preconditioned CG, and the scheme's pencil solver.

Serves the time stepper's solves (mass + s stiffness) x = b, a new s each
step: the matrices are symmetric positive definite and small (a few
thousand rows), so ``cg_solve``, plain CG with a diagonal preconditioner and
warm starts, fits better than a factorizing solver; ``LinearSolver`` binds
it to the pencil.

Every operator is a ``Stencil``. The P1 matrices couple interior dof (i, j)
only to (i +- 1, j), (i, j +- 1), (i - 1, j - 1) and (i + 1, j + 1), so four
(m, m) arrays, m = M - 1, indexed [j, i] like the dofs, hold one: the center,
east, north and north-east couplings, the west, south and south-west ones
being the neighbours'. So every operator is symmetric; couplings to boundary
vertices are 0. ``matvec`` reads x through one strided view of a zero-padded
copy, at the 9 offsets dj m + di, and sums each row's products SW, S, SE, W,
C, E, NW, N, NE from left to right; the SE and NW couplings are 0, and so is
a coupling to a boundary neighbour, whose slot reads the padding or the
neighbouring row's end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import SolverFailureError


@dataclass(frozen=True)
class Stencil:
    """Symmetric operator on the (m, m) interior dofs; coef[k, j, i] is dof
    (i, j)'s center, east, north or north-east coupling for k = 0..3."""

    coef: np.ndarray
    _taps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.coef.shape[-1]
        if self.coef.shape != (4, m, m):
            raise ValueError(f"coef must be a (4, m, m) array, got shape {self.coef.shape}")
        self.coef.setflags(write=False)
        # taps[dj + 1, di + 1, j, i]: the coupling of dof (i, j) to (i + di, j + dj)
        taps = np.zeros((3, 3, m, m))
        taps[0, 0, 1:, 1:] = self.coef[3, :-1, :-1]  # SW: the NE coupling of (i - 1, j - 1)
        taps[0, 1, 1:] = self.coef[2, :-1]           # S: the N coupling of (i, j - 1)
        taps[1, 0, :, 1:] = self.coef[1, :, :-1]     # W: the E coupling of (i - 1, j)
        taps[1:, 1:] = self.coef.reshape(2, 2, m, m)  # C, E; N, NE
        object.__setattr__(self, "_taps", taps.reshape(3, 3, m * m))

    @property
    def n(self) -> int:
        return self.coef.shape[1] ** 2

    @classmethod
    def _of_taps(cls, taps: np.ndarray) -> "Stencil":
        """The stencil whose (3, 3, n) taps are taps, a sum of stencils'
        taps; its coefficients are copied out of them."""
        taps.setflags(write=False)
        m = math.isqrt(taps.shape[-1])
        A = object.__new__(cls)
        coef = taps[1:, 1:].reshape(4, m, m)
        coef.setflags(write=False)
        object.__setattr__(A, "coef", coef)
        object.__setattr__(A, "_taps", taps)
        return A


class _Product:
    """y = A x into buffers made once: x is written to the zero-padded
    vector's middle, x_view, and a (3, 3, n) strided view of the padding
    reads its 9 shifts."""

    def __init__(self, A: Stencil):
        m, n = A.coef.shape[1], A.n
        self.taps = A._taps
        self.pad = np.zeros(n + 2 * (m + 1))
        self.x_view = self.pad[m + 1:m + 1 + n]
        # an ndarray on the padding's buffer, not as_strided: that builds each
        # view through a wrapper object and raised a table2 study's peak
        # memory by 0.5 MiB
        step = self.pad.itemsize
        self.shifts = np.ndarray((3, 3, n), buffer=self.pad, strides=(m * step, step, step))
        self.terms = np.empty((9, n))

    def __call__(self, out: np.ndarray | None = None) -> np.ndarray:
        """A x_view, written to out when given."""
        np.multiply(self.taps, self.shifts, out=self.terms.reshape(self.taps.shape))
        return np.add.reduce(self.terms, axis=0, out=out)


def matvec(A: Stencil, x: np.ndarray) -> np.ndarray:
    """y = A x with a fixed per-row summation order."""
    x = np.asarray(x, dtype=float)
    if x.shape != (A.n,):
        raise ValueError(f"dimension mismatch: matrix {A.n}, vector {x.shape}")
    product = _Product(A)
    product.x_view[:] = x
    return product()


@dataclass(frozen=True)
class LinearSolver:
    """Jacobi-CG solver for the pencil matrix + s * shift, s chosen per solve.

    Finite coefficients and positive centers are checked once, here, so a
    time stepper needs one solver per run. As the stepper's pencil it
    applies mass(u) = matrix u and stiffness(u) = shift u.
    """

    matrix: Stencil
    shift: Stencil
    rtol: float = 1e-12

    def __post_init__(self):
        for A in (self.matrix, self.shift):
            if not (np.isfinite(A.coef).all() and np.all(A.coef[0] > 0.0)):
                raise ValueError("matrix is not SPD: an entry is not finite or a diagonal "
                                 "entry is not positive")

    def mass(self, u: np.ndarray) -> np.ndarray:
        return matvec(self.matrix, u)

    def stiffness(self, u: np.ndarray) -> np.ndarray:
        return matvec(self.shift, u)

    def solve(self, rhs: np.ndarray, x0: np.ndarray | None = None,
              s: float = 0.0) -> np.ndarray:
        """Solve (matrix + s * shift) x = rhs.

        The taps of matrix + s * shift are s * shift's plus matrix's, bit
        for bit those of Stencil(matrix.coef + s * shift.coef), so they are
        formed in place with nothing to pad or check.
        """
        if not np.all(np.isfinite(rhs)):
            raise ValueError("rhs contains non-finite entries")
        if x0 is not None and np.shape(x0) != (self.matrix.n,):
            raise ValueError("x0 length does not match matrix dimension")
        taps = s * self.shift._taps
        taps += self.matrix._taps
        return cg_solve(Stencil._of_taps(taps), rhs, x0=x0, rtol=self.rtol)[0]


def cg_solve(A: Stencil, b: np.ndarray, x0=None, rtol: float = 1e-12,
             max_iter: int | None = None) -> tuple[np.ndarray, list[float]]:
    """Jacobi-preconditioned CG. Returns (x, per-iteration residual norms).

    The preconditioner is the inverse of A's center, and max_iter 10 n + 1000
    by default, n the size of A. Stops when the true residual satisfies
    ||Ax-b|| <= rtol ||b||.
    When only the recursive residual does, CG restarts from the true one;
    raises SolverFailureError when such a restart's true residual is not
    below the last restart's (CG has stalled), past max_iter, or when ||b||
    or a residual norm is not finite (or ||b|| underflows to 0 for a
    nonzero b).
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (A.n,):
        raise ValueError(f"dimension mismatch: matrix {A.n}, vector {b.shape}")
    if not b.any():
        return np.zeros_like(b), [0.0]
    max_iter = 10 * b.size + 1000 if max_iter is None else max_iter
    dinv = 1.0 / A.coef[0].ravel()
    # p lives in the product's padded vector; A x is formed there only when
    # p is dropped right after
    product = _Product(A)
    p = product.x_view
    Ap = np.empty_like(b)

    def residual(x):
        p[:] = x
        return b - product(Ap)

    # an overflow makes a norm inf, which the finiteness checks below report
    with np.errstate(over="ignore"):
        bnorm = math.sqrt(float(b @ b))
        if not 0.0 < bnorm < math.inf:
            raise SolverFailureError(f"norm of b is not finite and nonzero: {bnorm}",
                                     residual=math.nan)
        x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
        r = residual(x)
        residuals = [math.sqrt(float(r @ r))]
        tol_abs = rtol * bnorm
        z = np.empty_like(b)
        tmp = np.empty_like(b)
        fresh = True  # p holds no direction yet
        restarted_at = math.inf
        it = 0
        while it < max_iter:
            if residuals[-1] <= tol_abs:
                # recursion may drift from the true residual; confirm before exiting
                true_r = residual(x)
                tn = math.sqrt(float(true_r @ true_r))
                if tn <= tol_abs:
                    return x, residuals
                if tn >= restarted_at:
                    raise SolverFailureError(
                        f"CG stalled at relative residual {tn / bnorm:.3e} after {it} "
                        f"iterations", residual=tn / bnorm)
                # the old direction is not conjugate to the replaced residual
                r, fresh, restarted_at = true_r, True, tn
                residuals[-1] = tn
            if not math.isfinite(residuals[-1]):
                raise SolverFailureError(f"CG residual norm is not finite at iteration {it}",
                                         residual=residuals[-1] / bnorm)
            np.multiply(dinv, r, out=z)
            rz = float(r @ z)
            if fresh:
                p[:] = z
                fresh = False
            else:
                p *= rz / rz_prev
                p += z
            product(Ap)
            alpha = rz / float(p @ Ap)
            np.multiply(p, alpha, out=tmp)
            x += tmp
            np.multiply(Ap, alpha, out=tmp)
            r -= tmp
            rz_prev = rz
            residuals.append(math.sqrt(float(r @ r)))
            it += 1
        r = residual(x)
        final = math.sqrt(float(r @ r)) / bnorm
        raise SolverFailureError(
            f"CG did not converge in {max_iter} iterations (relative residual {final:.3e})",
            residual=final)
