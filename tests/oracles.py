"""Reference helpers shared by the tests; the package itself never needs them."""

from typing import NamedTuple

import numpy as np

from subdiff.sparse import SparseMatrix
from subdiff.stepping import FracWeights


def to_dense(A: SparseMatrix) -> np.ndarray:
    """The ELL matrix as a dense array (padding adds zeros)."""
    D = np.zeros((A.n, A.n))
    np.add.at(D, (np.broadcast_to(np.arange(A.n), A.J.shape), A.J), A.E)
    return D


class Triangulation(NamedTuple):
    nodes: np.ndarray           # ((M+1)^2, 2) lattice coordinates
    triangles: np.ndarray       # (2 M^2, 3) node indices, CCW
    interior_index: np.ndarray  # ((M+1)^2,) dof index or -1 for boundary nodes


def triangulation(M: int) -> Triangulation:
    """The mesh with M subdivisions as explicit arrays: nodes and cells row
    by row (x fastest), each cell's lower (LL, LR, UR) triangle before its
    upper (LL, UR, UL) one, and the interior nodes numbered row by row."""
    side = np.arange(M + 1) / M
    X, Y = np.meshgrid(side, side, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    ix, iy = np.meshgrid(np.arange(M), np.arange(M), indexing="xy")
    ll = (iy * (M + 1) + ix).ravel()
    lr, ul = ll + 1, ll + (M + 1)
    ur = ul + 1
    triangles = np.empty((2 * M * M, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([ll, lr, ur])  # lower: below the diagonal
    triangles[1::2] = np.column_stack([ll, ur, ul])  # upper: above the diagonal
    interior_index = np.full((M + 1, M + 1), -1, dtype=np.int64)
    interior_index[1:-1, 1:-1] = np.arange((M - 1) ** 2).reshape(M - 1, M - 1)
    return Triangulation(nodes, triangles, interior_index.ravel())


def ell_reference(mesh, local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E, J) of the (ntri, 3, 3) element matrices of triangulation(mesh.M)
    summed over the interior dofs the general way: COO triplets in triangle
    order, lexsorted into CSR with each duplicate group summed by
    np.add.reduceat, then laid out as padded column-major ELL."""
    tri = triangulation(mesh.M)
    dof = tri.interior_index[tri.triangles]
    rows = np.repeat(dof, 3, axis=1).ravel()
    cols = np.tile(dof, (1, 3)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    rows, cols, vals = rows[keep], cols[keep], local.ravel()[keep]
    order = np.lexsort((cols, rows))  # stable: ties keep input order
    rows, cols, vals = rows[order], cols[order], vals[order]
    new = np.ones(rows.size, dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.nonzero(new)[0]
    data, r, c = np.add.reduceat(vals, starts), rows[starts], cols[starts]
    n = mesh.n_interior
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, r + 1, 1)
    np.cumsum(indptr, out=indptr)
    counts = np.diff(indptr)
    k = np.arange(r.size) - indptr[r]
    E = np.zeros((int(counts.max()), n))
    E[k, r] = data
    J = np.tile(c[indptr[:-1]], (E.shape[0], 1))
    J[k, r] = c
    return E, J


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
    if not np.array_equal(A.J, B.J):
        raise ValueError("add_scaled requires identical sparsity patterns")
    return SparseMatrix(E=a * A.E + b * B.E, J=A.J)


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


def interpolation_matrix(mesh, M_s: int):
    """P1 interpolation onto the interior nodes of the M_s x M_s lattice,
    built point by point as COO triplets (rows, cols, vals): row
    ix * (M_s - 1) + iy holds the lattice point ((ix + 1) / M_s,
    (iy + 1) / M_s), and each column a dof."""
    xs = np.arange(1, M_s) / M_s
    mesh_tri = triangulation(mesh.M)
    rows, cols, vals = [], [], []
    for r, (x, y) in enumerate((x, y) for x in xs for y in xs):
        tri, lam = _locate_scalar(mesh.M, float(x), float(y))
        for k, node in enumerate(mesh_tri.triangles[tri]):
            dof = mesh_tri.interior_index[node]
            if dof >= 0 and lam[k] != 0.0:
                rows.append(r)
                cols.append(dof)
                vals.append(lam[k])
    return np.array(rows), np.array(cols), np.array(vals)
