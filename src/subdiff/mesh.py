"""Structured right-angle triangulations of the unit square.

The square is divided into an M x M lattice of cells and every cell is split
along the diagonal running from its lower-left to its upper-right corner.
Nodes are numbered row by row (x fastest), cells likewise, and each cell
contributes its lower triangle before its upper one, so all orderings are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import OutOfDomainError


@dataclass(frozen=True)
class StructuredMesh:
    """Triangulation data for the unit square with M subdivisions per axis."""

    M: int
    nodes: np.ndarray           # ((M+1)^2, 2) lattice coordinates
    triangles: np.ndarray       # (2 M^2, 3) node indices, CCW
    interior_index: np.ndarray  # ((M+1)^2,) dof index or -1 for boundary nodes
    boundary_mask: np.ndarray   # ((M+1)^2,) bool
    h: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "h", np.sqrt(2.0) / self.M)
        for arr in (self.nodes, self.triangles, self.interior_index, self.boundary_mask):
            arr.setflags(write=False)

    @property
    def n_interior(self) -> int:
        return (self.M - 1) ** 2

    @property
    def triangle_area(self) -> float:
        return 1.0 / (2.0 * self.M * self.M)

    def node_id(self, ix: int, iy: int) -> int:
        return iy * (self.M + 1) + ix

    def interior_coords(self) -> np.ndarray:
        """Coordinates of interior nodes ordered by dof index."""
        return self.nodes[~self.boundary_mask]

    @cached_property
    def edge_midpoints(self) -> np.ndarray:
        """(ntri, 3, 2) midpoints of the edges v0v1, v1v2, v2v0 of each triangle."""
        P = self.nodes[self.triangles]
        mids = 0.5 * (P + np.roll(P, -1, axis=1))
        mids.setflags(write=False)
        return mids

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


def locate_point(mesh: StructuredMesh, p) -> tuple[int, np.ndarray]:
    """Find the triangle containing p and its barycentric coordinates.

    Points on shared edges or vertices resolve to the lowest containing
    triangle index. O(1): cell indices come from floor division, the
    diagonal test picks the triangle within the cell.
    """
    x, y = float(p[0]), float(p[1])
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise OutOfDomainError(f"point ({x}, {y}) outside the closed unit square")
    M = mesh.M
    # Cell index with exact-gridline ties shifted down so the lowest-index
    # containing cell wins.
    sx, fx = divmod(x * M, 1.0)
    sy, fy = divmod(y * M, 1.0)
    sx, sy = int(sx), int(sy)
    if fx == 0.0 and sx > 0:
        sx -= 1
        fx = 1.0
    if fy == 0.0 and sy > 0:
        sy -= 1
        fy = 1.0
    cell = sy * M + sx
    if fx >= fy:  # lower triangle (LL, LR, UR); diagonal ties land here
        tri = 2 * cell
        lam = np.array([1.0 - fx, fx - fy, fy])
    else:         # upper triangle (LL, UR, UL)
        tri = 2 * cell + 1
        lam = np.array([1.0 - fy, fx, fy - fx])
    return tri, lam


def write_debug_csv(mesh: StructuredMesh, node_path, triangle_path) -> None:
    """Dump nodes ("id,x,y") and triangles ("id,n0,n1,n2") as CSV."""
    with open(node_path, "w") as fh:
        for i, (x, y) in enumerate(mesh.nodes):
            fh.write(f"{i},{float(x)!r},{float(y)!r}\n")
    with open(triangle_path, "w") as fh:
        for i, (a, b, c) in enumerate(mesh.triangles):
            fh.write(f"{i},{a},{b},{c}\n")
