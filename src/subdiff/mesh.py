"""Structured right-angle triangulations of the unit square.

The square is divided into an M x M lattice of cells and every cell is split
along the diagonal running from its lower-left to its upper-right corner.
Nodes are numbered row by row (x fastest), cells likewise, and each cell
contributes its lower triangle before its upper one, so all orderings are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class StructuredMesh:
    """Triangulation data for the unit square with M subdivisions per axis."""

    M: int
    nodes: np.ndarray           # ((M+1)^2, 2) lattice coordinates
    triangles: np.ndarray       # (2 M^2, 3) node indices, CCW
    interior_index: np.ndarray  # ((M+1)^2,) dof index or -1 for boundary nodes
    boundary_mask: np.ndarray   # ((M+1)^2,) bool

    def __post_init__(self):
        for arr in (self.nodes, self.triangles, self.interior_index, self.boundary_mask):
            arr.setflags(write=False)

    @property
    def n_interior(self) -> int:
        return (self.M - 1) ** 2

    @property
    def triangle_area(self) -> float:
        return 1.0 / (2.0 * self.M * self.M)

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(points, index): the 3 M^2 + 2 M distinct edge midpoints, as an
        (n_edges, 2) array ordered by (y, x), and the (ntri, 3) index of the
        midpoints of each triangle's edges v0v1, v1v2, v2v0 in it.

        Each point's coordinates are 0.5 * (p_a + p_b) of its edge's end
        nodes, as every triangle sharing the edge computes them. Midpoints
        lie on the lattice of spacing 1 / (2 M); its integer coordinates
        identify each edge.
        """
        P = self.nodes[self.triangles]
        mids = (0.5 * (P + np.roll(P, -1, axis=1))).reshape(-1, 2)
        side = 2 * self.M + 1
        ij = np.rint(2 * self.M * mids).astype(np.int64)
        key = ij[:, 1] * side + ij[:, 0]
        present = np.zeros(side * side, dtype=bool)
        present[key] = True
        slot = np.cumsum(present) - 1
        index = slot[key].reshape(self.triangles.shape)
        points = np.empty((int(slot[-1]) + 1, 2))
        points[index.ravel()] = mids
        for arr in (points, index):
            arr.setflags(write=False)
        return points, index

    @cached_property
    def interior_scatter(self) -> tuple[np.ndarray, np.ndarray]:
        """(positions, dofs) of the interior vertices in the flattened (ntri, 3)
        triangle-vertex array, in row-major order."""
        dof = self.interior_index[self.triangles].ravel()
        pos = np.flatnonzero(dof >= 0)
        dof = dof[pos]
        for arr in (pos, dof):
            arr.setflags(write=False)
        return pos, dof


def build_mesh(M: int) -> StructuredMesh:
    """Build the structured triangulation with M subdivisions per axis."""
    if not isinstance(M, (int, np.integer)) or M < 2:
        raise ValueError(f"M must be an integer >= 2, got {M!r}")
    M = int(M)
    side = np.arange(M + 1) / M
    X, Y = np.meshgrid(side, side, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    ix, iy = np.meshgrid(np.arange(M), np.arange(M), indexing="xy")
    ix = ix.ravel()
    iy = iy.ravel()
    ll = iy * (M + 1) + ix
    lr = ll + 1
    ul = ll + (M + 1)
    ur = ul + 1
    triangles = np.empty((2 * M * M, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([ll, lr, ur])  # lower: below the diagonal
    triangles[1::2] = np.column_stack([ll, ur, ul])  # upper: above the diagonal

    gx, gy = np.meshgrid(np.arange(M + 1), np.arange(M + 1), indexing="xy")
    boundary = (gx == 0) | (gx == M) | (gy == 0) | (gy == M)
    boundary_mask = boundary.ravel()
    interior_index = np.full((M + 1) ** 2, -1, dtype=np.int64)
    interior_index[~boundary_mask] = np.arange((M - 1) ** 2)

    return StructuredMesh(M=M, nodes=nodes, triangles=triangles,
                          interior_index=interior_index, boundary_mask=boundary_mask)
