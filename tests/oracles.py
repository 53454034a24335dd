"""Reference helpers shared by the tests; the package itself never needs them."""

import numpy as np

from subdiff.sparse import SparseMatrix, csr_from_coo
from subdiff.stepping import FracWeights


def to_dense(A: SparseMatrix) -> np.ndarray:
    """The CSR matrix as a dense array."""
    D = np.zeros((A.n, A.n))
    rows = np.repeat(np.arange(A.n), np.diff(A.indptr))
    D[rows, A.indices] = A.data
    return D


def frac_integral_nodes(weights: FracWeights, samples: np.ndarray) -> np.ndarray:
    """I^alpha of the piecewise-constant history at all mesh nodes t_1..t_N."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (weights.mesh.N,):
        raise ValueError("need one history sample per subinterval")
    return np.array([weights.row(n) @ samples[:n]
                     for n in range(1, weights.mesh.N + 1)])


def stencil_stiffness_dense(M: int) -> np.ndarray:
    """Unit-coefficient P1 stiffness on interior nodes from the known
    five-point stencil: 4 on the diagonal, -1 to axis neighbours."""
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


def stencil_mass_dense(M: int) -> np.ndarray:
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
    Md = stencil_mass_dense(M)
    Sd = stencil_stiffness_dense(M)
    out = np.empty((nsteps, u0.size))
    u = u0.copy()
    for n in range(1, nsteps + 1):
        if n == 1:
            u = np.linalg.solve(Md + tau * Sd, Md @ u)
        else:
            u = np.linalg.solve(Md + 0.5 * tau * Sd, (Md - 0.5 * tau * Sd) @ u)
        out[n - 1] = u
    return out


def add_scaled(A: SparseMatrix, B: SparseMatrix, a: float, b: float) -> SparseMatrix:
    """a*A + b*B for matrices sharing one sparsity pattern."""
    if not (np.array_equal(A.indptr, B.indptr) and np.array_equal(A.indices, B.indices)):
        raise ValueError("add_scaled requires identical sparsity patterns")
    return SparseMatrix(n=A.n, indptr=A.indptr, indices=A.indices,
                        data=a * A.data + b * B.data)


def _locate_scalar(M, x, y):
    """Point location one point at a time: floor division, gridline ties
    shifted to the lower cell, diagonal ties to the lower triangle."""
    sx, fx = divmod(x * M, 1.0)
    sy, fy = divmod(y * M, 1.0)
    sx, sy = int(sx), int(sy)
    if fx == 0.0 and sx > 0:
        sx, fx = sx - 1, 1.0
    if fy == 0.0 and sy > 0:
        sy, fy = sy - 1, 1.0
    cell = sy * M + sx
    if fx >= fy:
        return 2 * cell, (1.0 - fx, fx - fy, fy)
    return 2 * cell + 1, (1.0 - fy, fx, fy - fx)


def interpolation_matrix(mesh, M_s: int) -> SparseMatrix:
    """P1 interpolation onto the interior nodes of the M_s x M_s lattice,
    built point by point as an n x n CSR matrix, n = max(lattice nodes,
    dofs). Row ix * (M_s - 1) + iy holds the lattice point ((ix + 1) / M_s,
    (iy + 1) / M_s); a zero in column 0 keeps every row populated."""
    xs = np.arange(1, M_s) / M_s
    n = max(xs.size ** 2, mesh.n_interior)
    rows, cols, vals = list(range(n)), [0] * n, [0.0] * n
    for r, (x, y) in enumerate((x, y) for x in xs for y in xs):
        tri, lam = _locate_scalar(mesh.M, float(x), float(y))
        for k, node in enumerate(mesh.triangles[tri]):
            dof = mesh.interior_index[node]
            if dof >= 0 and lam[k] != 0.0:
                rows.append(r)
                cols.append(dof)
                vals.append(lam[k])
    return csr_from_coo(n, rows, cols, vals)
