"""P1 finite-element assembly on the structured mesh.

Operators and loads are formed in closed form on lattices, without a
triangle list: each interior vertex's matrix row sums the element matrices
of the six triangles around it, and its load sums the edge-midpoint terms
of the same six. Boundary degrees of freedom are eliminated: assembled
operators act on interior nodes only, matching the homogeneous Dirichlet
condition, and the resulting systems stay symmetric positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import sparse
from .exceptions import CoefficientRangeError, EvaluationError
from .mesh import StructuredMesh

# Corners of a cell's lower (LL, LR, UR) and upper (LL, UR, UL) triangle, as
# (x, y) offsets from the cell's lower-left vertex.
_CORNERS = (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1)))

# The six triangles around a vertex in triangle order: the offset (cx, cy) of
# their cell's lower-left vertex from the vertex, and the triangle (0 lower, 1 upper).
_AROUND = [((cx, cy), s) for cy in (-1, 0) for cx in (-1, 0) for s in (0, 1)
           if (-cx, -cy) in _CORNERS[s]]

# Element stiffness (grad phi_i, grad phi_j) of the two triangles, with i and j
# in _CORNERS order: the gradients are +-M and area * M^2 = 1/2, so each is
# 1/2 of an integer matrix.
_STIFFNESS = 0.5 * np.array([[[1, -1, 0], [-1, 2, -1], [0, -1, 1]],
                             [[1, 0, -1], [0, 1, -1], [-1, -1, 2]]], dtype=float)


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


def _assemble(M: int, coef: np.ndarray, local: np.ndarray) -> sparse.Stencil:
    """Sum the element matrices coef[cy, cx, s] * local[s] of every triangle
    into the stencil's center, east, north and north-east couplings.

    Each interior vertex's coupling sums the entries of its triangles (6 for
    the center, the 2 along the edge otherwise) in triangle order as
    v0 + (v1 + v2 + ...), the order of the COO build. Couplings to boundary
    vertices are 0.
    """
    terms = {(0, 0): [], (1, 0): [], (0, 1): [], (1, 1): []}
    for (cx, cy), s in _AROUND:
        c = coef[1 + cy:M + cy, 1 + cx:M + cx, s]  # [j - 1, i - 1] at vertex (i, j)
        i = _CORNERS[s].index((-cx, -cy))
        for j, (px, py) in enumerate(_CORNERS[s]):
            if (cx + px, cy + py) in terms:
                terms[cx + px, cy + py].append(c * local[s, i, j])
    coef = np.stack([v[0] + sum(v[2:], v[1]) for v in terms.values()])
    coef[[1, 3], :, -1] = coef[2:, -1] = 0.0  # E and NE at i = m - 1, N and NE at j = m - 1
    return sparse.Stencil(coef)


def assemble_mass(mesh: StructuredMesh) -> sparse.Stencil:
    """Mass matrix M_ij = (phi_i, phi_j); exact for P1 elements."""
    local = mesh.triangle_area / 12.0 * (np.ones((3, 3)) + np.eye(3))
    return _assemble(mesh.M, np.ones((mesh.M, mesh.M, 2)), np.stack([local, local]))


def assemble_stiffness(mesh: StructuredMesh, a=None) -> sparse.Stencil:
    """Stiffness matrix S_ij = (a grad phi_i, grad phi_j).

    The diffusivity is sampled once per element at the centroid, which keeps
    the O(h^2) spatial accuracy of the discretization, and scales the fixed
    element matrix of its triangle (_STIFFNESS). Centroids are evaluated in
    triangle order, so an error names the first bad triangle.
    """
    M = mesh.M
    if a is None:
        a_c = np.ones((M, M, 2))
    else:
        x = np.arange(M + 1) / M
        # centroid of triangle s in cell column (row) i: its corners' x (y) summed, / 3
        cx = np.stack([sum(x[px:M + px] for px, _ in c) for c in _CORNERS], axis=-1) / 3.0
        cy = np.stack([sum(x[py:M + py] for _, py in c) for c in _CORNERS], axis=-1) / 3.0
        X = np.broadcast_to(cx, (M, M, 2)).ravel()
        Y = np.broadcast_to(cy[:, None], (M, M, 2)).ravel()
        a_c = _eval_on(a, X, Y)
        if a_c.shape != X.shape:
            raise ValueError(f"diffusivity must give one value per centroid, shape {X.shape}; "
                             f"got shape {a_c.shape}")
        bad = ~np.isfinite(a_c) | (a_c <= 0.0)
        if bad.any():
            i = int(np.nonzero(bad)[0][0])
            raise CoefficientRangeError(
                f"diffusivity must be finite and > 0; got {float(a_c[i])!r} at centroid "
                f"({X[i]}, {Y[i]})")
        a_c = a_c.reshape(M, M, 2)
    return _assemble(M, a_c, _STIFFNESS)


@lru_cache(maxsize=8)
def _edge_midpoints(M: int) -> np.ndarray:
    """The (x, y) rows of the H, V and D edge midpoints that can touch an
    interior vertex, read-only, made once per M."""
    x = np.arange(M + 1) / M
    h = 0.5 * (x[:-1] + x[1:])
    lattices = ((h, x[1:-1]), (x[1:-1], h), (h, h))  # (x, y) axes of H, V, D
    xy = np.stack([np.concatenate([np.tile(px, py.size) for px, py in lattices]),
                   np.concatenate([np.repeat(py, px.size) for px, py in lattices])])
    xy.setflags(write=False)
    return xy


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
    gv = _eval_on(g, *_edge_midpoints(M))
    if not np.all(np.isfinite(gv)):
        raise EvaluationError("load function produced non-finite values")
    lead = gv.shape[:-1]
    H, V, D = np.split(gv, [M * m, 2 * M * m], axis=-1)
    H = H.reshape(*lead, m, M)  # [j - 1, i]: edge (i, j)-(i + 1, j)
    V = V.reshape(*lead, M, m)  # [j, i - 1]: edge (i, j)-(i, j + 1)
    D = D.reshape(*lead, M, M)  # [j, i]: edge (i, j)-(i + 1, j + 1)
    # at interior vertex (i, j), rows j and columns i: the edge to vertex (i + dx, j + dy)
    edge = {(-1, 0): H[..., :-1], (1, 0): H[..., 1:], (0, -1): V[..., :-1, :],
            (0, 1): V[..., 1:, :], (-1, -1): D[..., :-1, :-1], (1, 1): D[..., 1:, 1:]}
    scale = mesh.triangle_area / 3.0
    b = np.zeros((*lead, m, m))
    for (cx, cy), s in _AROUND:
        ga, gb = (edge[cx + px, cy + py] for px, py in _CORNERS[s] if (cx + px, cy + py) != (0, 0))
        b += ((ga + gb) * 0.5) * scale
    return b.reshape(*lead, mesh.n_interior)


def l2_project(mesh: StructuredMesh, g, rtol: float = 1e-12) -> FieldP1:
    """L2 projection of g onto the interior P1 space (Jacobi CG on the mass matrix)."""
    mass = assemble_mass(mesh)
    b = load_vector(mesh, g)
    x, _ = sparse.cg_solve(mass, b, rtol=rtol)
    return FieldP1(mesh=mesh, values=x)

