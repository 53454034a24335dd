"""Structured right-angle triangulations of the unit square.

The square is divided into an M x M lattice of cells and every cell is split
along the diagonal running from its lower-left to its upper-right corner, so
M alone is the mesh: vertices, triangles and interior dofs are lattices that
callers form in closed form. Vertices and cells are numbered row by row
(x fastest), each cell contributes its lower triangle before its upper one,
and the interior vertices are the dofs, again row by row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StructuredMesh:
    """The triangulation of the unit square with M subdivisions per axis."""

    M: int

    def __post_init__(self):
        if not isinstance(self.M, (int, np.integer)) or self.M < 2:
            raise ValueError(f"M must be an integer >= 2, got {self.M!r}")
        object.__setattr__(self, "M", int(self.M))

    @property
    def n_interior(self) -> int:
        return (self.M - 1) ** 2

    @property
    def triangle_area(self) -> float:
        return 1.0 / (2.0 * self.M * self.M)

    @property
    def xs(self) -> np.ndarray:
        """The interior vertex coordinates along either axis, k / M for k = 1..M-1."""
        return np.arange(1, self.M) / self.M


# perfbench/workloads.py calls this name and perfbench/spans.py wraps it
build_mesh = StructuredMesh
