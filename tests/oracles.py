"""Reference helpers shared by the tests; the package itself never needs them."""

import numpy as np

from subdiff.sparse import SparseMatrix, csr_from_coo


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
