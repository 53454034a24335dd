"""Structured right-angle triangulations of the unit square.

The square is divided into an M x M lattice of cells and every cell is split
along the diagonal running from its lower-left to its upper-right corner.
Nodes are numbered row by row (x fastest), cells likewise, and each cell
contributes its lower triangle before its upper one, so all orderings are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StructuredMesh:
    """Triangulation data for the unit square with M subdivisions per axis."""

    M: int
    nodes: np.ndarray           # ((M+1)^2, 2) lattice coordinates
    triangles: np.ndarray       # (2 M^2, 3) node indices, CCW
    interior_index: np.ndarray  # ((M+1)^2,) dof index or -1 for boundary nodes

    def __post_init__(self):
        for arr in (self.nodes, self.triangles, self.interior_index):
            arr.setflags(write=False)

    @property
    def n_interior(self) -> int:
        return (self.M - 1) ** 2

    @property
    def triangle_area(self) -> float:
        return 1.0 / (2.0 * self.M * self.M)


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

    interior_index = np.full((M + 1, M + 1), -1, dtype=np.int64)
    interior_index[1:-1, 1:-1] = np.arange((M - 1) ** 2).reshape(M - 1, M - 1)

    return StructuredMesh(M=M, nodes=nodes, triangles=triangles,
                          interior_index=interior_index.ravel())
