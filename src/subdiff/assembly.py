"""P1 finite-element assembly on structured meshes.

Boundary degrees of freedom are eliminated: assembled operators act on
interior nodes only, matching the homogeneous Dirichlet condition, and
the resulting systems stay symmetric positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import CoefficientRangeError, EvaluationError
from .mesh import StructuredMesh
from .sparse import LinearSolver, SparseMatrix

# Element stiffness (grad phi_i, grad phi_j) of a cell's lower (LL, LR, UR) and
# upper (LL, UR, UL) triangle, in build_mesh's vertex and triangle order: the
# gradients are +-M and area * M^2 = 1/2, so each is 1/2 of an integer matrix.
_STIFFNESS = 0.5 * np.array([[[1, -1, 0], [-1, 2, -1], [0, -1, 1]],
                             [[1, 0, -1], [0, 1, -1], [-1, -1, 2]]], dtype=float)

# Stencil slot of local entry (i, j) of the same two triangles: the lattice
# offset of vertex j from vertex i as one of the dof offsets
# (-m-1, -m, -1, 0, 1, m, m+1), m = M - 1, which is each row's column order.
_SLOT = np.array([[[3, 4, 6], [2, 3, 5], [0, 1, 3]],
                  [[3, 6, 5], [0, 3, 2], [1, 4, 3]]])


@dataclass(frozen=True)
class FieldP1:
    """Piecewise-linear function with zero boundary trace, stored by dof."""

    mesh: StructuredMesh
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)  # a copy: the caller's array stays writable
        if values.shape != (self.mesh.n_interior,):
            raise ValueError("values length must equal the interior node count")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _eval_on(g, *args: np.ndarray) -> np.ndarray:
    """g(*args) as floats over the arguments' broadcast shape, widened by any
    leading axes of g's result. A g that takes scalars only is evaluated
    point by point through np.vectorize."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    try:
        out = np.asarray(g(*args), dtype=float)
        shape = out.shape[:max(out.ndim - len(shape), 0)] + shape
        if out.shape != shape:
            out = np.broadcast_to(out, shape).astype(float)
    except (TypeError, ValueError):
        out = np.vectorize(g, otypes=[float])(*args)
    return out


def _scatter(mesh: StructuredMesh, local: np.ndarray) -> SparseMatrix:
    """Sum (ntri, 3, 3) element matrices into the ELL pair over the interior dofs.

    Contributions are summed into the 7 stencil slots of each row, in
    triangle order as v0 + (v1 + v2 + ...): the first is assigned and the
    rest are added after. Each row's stored slots then move to the front,
    and the rest pad with 0 and the row's first column.
    """
    n, m = mesh.n_interior, mesh.M - 1
    dof = mesh.interior_index[mesh.triangles]
    rows = np.repeat(dof, 3, axis=1).ravel()
    keep = (rows >= 0) & (np.tile(dof, (1, 3)).ravel() >= 0)
    key = np.broadcast_to(_SLOT, (mesh.M ** 2, 2, 3, 3)).ravel()[keep] * n + rows[keep]
    vals = local.ravel()[keep]
    first = np.full(7 * n, key.size)
    np.minimum.at(first, key, np.arange(key.size))
    lead = first[key] == np.arange(key.size)
    E = np.zeros(7 * n)
    E[key[lead]] = vals[lead]
    rest = np.zeros(7 * n)
    np.add.at(rest, key[~lead], vals[~lead])
    E = (E + rest).reshape(7, n)
    stored = (first < key.size).reshape(7, n)
    J = np.add.outer([-m - 1, -m, -1, 0, 1, m, m + 1], np.arange(n))
    J = np.where(stored, J, J[stored.argmax(axis=0), np.arange(n)])
    order = np.argsort(~stored, axis=0, kind="stable")[:stored.sum(axis=0).max()]
    return SparseMatrix(E=np.take_along_axis(E, order, axis=0),
                        J=np.take_along_axis(J, order, axis=0))


def assemble_mass(mesh: StructuredMesh) -> SparseMatrix:
    """Mass matrix M_ij = (phi_i, phi_j); exact for P1 elements."""
    area = mesh.triangle_area
    local_one = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
    local = np.broadcast_to(local_one, (mesh.triangles.shape[0], 3, 3))
    return _scatter(mesh, local)


def assemble_stiffness(mesh: StructuredMesh, a=None) -> SparseMatrix:
    """Stiffness matrix S_ij = (a grad phi_i, grad phi_j).

    The diffusivity is sampled once per element at the centroid, which keeps
    the O(h^2) spatial accuracy of the discretization, and scales the fixed
    element matrix of its triangle (_STIFFNESS).
    """
    if a is None:
        a_c = np.ones(mesh.triangles.shape[0])
    else:
        cent = mesh.nodes[mesh.triangles].mean(axis=1)
        a_c = _eval_on(a, cent[:, 0], cent[:, 1])
        bad = ~np.isfinite(a_c) | (a_c <= 0.0)
        if bad.any():
            i = int(np.nonzero(bad)[0][0])
            raise CoefficientRangeError(
                f"diffusivity must be finite and > 0; got {a_c[i]!r} at centroid "
                f"({cent[i, 0]}, {cent[i, 1]})")
    return _scatter(mesh, a_c.reshape(-1, 2, 1, 1) * _STIFFNESS)


def load_vector(mesh: StructuredMesh, g) -> np.ndarray:
    """Interior load b_i = (g, phi_i) by the 3-point edge-midpoint rule.

    The edge midpoints are three lattices, of the horizontal (H), vertical
    (V) and diagonal (D) edges; g is evaluated once on the 3 M^2 - 2 M of
    them that can touch an interior vertex. A vertex's basis function is
    1/2 at the midpoints of a triangle's two edges through it, so each of
    its 6 triangles adds area/3 * 0.5 * (g_a + g_b), in triangle order.

    g(x, y) may return values with a leading batch axis, shape (B, points);
    the load is then (B, n_interior), and each row equals the load of that
    row's values alone, bit for bit.
    """
    M, m = mesh.M, mesh.M - 1
    x = np.arange(M + 1) / M
    h = 0.5 * (x[:-1] + x[1:])
    lattices = ((h, x[1:-1]), (x[1:-1], h), (h, h))  # (x, y) axes of H, V, D
    gv = _eval_on(g, np.concatenate([np.tile(px, py.size) for px, py in lattices]),
                  np.concatenate([np.repeat(py, px.size) for px, py in lattices]))
    if not np.all(np.isfinite(gv)):
        raise EvaluationError("load function produced non-finite values")
    lead = gv.shape[:-1]
    H, V, D = np.split(gv, [M * m, 2 * M * m], axis=-1)
    H = H.reshape(*lead, m, M)  # [j - 1, i]: edge (i, j)-(i + 1, j)
    V = V.reshape(*lead, M, m)  # [j, i - 1]: edge (i, j)-(i, j + 1)
    D = D.reshape(*lead, M, M)  # [j, i]: edge (i, j)-(i + 1, j + 1)
    # at interior vertex (i, j), rows j and columns i: the edges through it
    left, right = H[..., :-1], H[..., 1:]
    below, above = V[..., :-1, :], V[..., 1:, :]
    below_left, above_right = D[..., :-1, :-1], D[..., 1:, 1:]
    scale = mesh.triangle_area / 3.0
    b = np.zeros((*lead, m, m))
    # cells (i-1, j-1) lower and upper, (i, j-1) upper, (i-1, j) lower, (i, j) lower and upper
    for ga, gb in ((below, below_left), (below_left, left), (right, below),
                   (left, above), (right, above_right), (above_right, above)):
        b += ((ga + gb) * 0.5) * scale
    return b.reshape(*lead, mesh.n_interior)


def l2_project(mesh: StructuredMesh, g, rtol: float = 1e-12) -> FieldP1:
    """L2 projection of g onto the interior P1 space."""
    mass = assemble_mass(mesh)
    b = load_vector(mesh, g)
    solver = LinearSolver(mass, rtol=rtol)
    return FieldP1(mesh=mesh, values=solver.solve(b))

