"""Discrete maximum-norm errors on a fine evaluation lattice.

The error at each accepted step is the max over the interior nodes of a
fixed fine lattice of |P1-interpolated discrete solution - exact solution|;
weighted variants multiply by t^mu before taking the max over steps. A
run's per-step errors, and their CSV, are held by study.RunResult.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import FieldP1
from .mesh import StructuredMesh


@dataclass(frozen=True)
class FineLattice:
    """Interior nodes of the M_s x M_s lattice, as a tensor grid."""

    M_s: int
    xs: np.ndarray = field(init=False)

    def __post_init__(self):
        M_s = self.M_s
        if not isinstance(M_s, (int, np.integer)) or isinstance(M_s, bool) or M_s < 2:
            raise ValueError(f"M_s must be an integer >= 2, got {M_s!r}")
        object.__setattr__(self, "M_s", int(M_s))
        xs = np.arange(1, self.M_s) / self.M_s
        xs.setflags(write=False)
        object.__setattr__(self, "xs", xs)


def fine_lattice(M_s: int = 128) -> FineLattice:
    return FineLattice(M_s=M_s)


class LatticeInterpolator:
    """P1 interpolation from a coarse mesh onto a fine lattice that refines it.

    With q = M_s / M, every coarse cell holds the same q x q lattice offsets
    (fx, fy) = (a / q, b / q), a, b = 1..q. On a cell split along its LL-UR
    diagonal, the hat functions of its corners there are LL = 1 - max(fx, fy),
    LR = max(fx - fy, 0), UL = max(fy - fx, 0) and UR = min(fx, fy); these
    form the (4, q*q) weight table. A call forms one product of the table
    with the corner values of every cell. Coarse node values are reproduced
    exactly (the weights are exactly 1/0 there). A call writes the field
    into the interior of a zero-bordered nodal grid and copies the four
    corners of every cell from one strided view of it. The grid, the
    corners, the product and the lattice are buffers made once, so the
    next call overwrites the array a call returns.
    """

    def __init__(self, mesh: StructuredMesh, lattice: FineLattice):
        q, r = divmod(lattice.M_s, mesh.M)
        if r != 0:
            raise ValueError(f"lattice M_s={lattice.M_s} is not a multiple of mesh M={mesh.M}")
        self.mesh = mesh
        self.lattice = lattice
        f = np.arange(1, q + 1) / q
        fx, fy = (g.ravel() for g in np.meshgrid(f, f, indexing="ij"))
        # rows: corners LL, LR, UL, UR; columns: offset (a, b) with b fastest
        self._W = np.stack([1.0 - np.maximum(fx, fy), np.maximum(fx - fy, 0.0),
                            np.maximum(fy - fx, 0.0), np.minimum(fx, fy)])
        M = mesh.M
        self._nodes = np.zeros((M + 1, M + 1))  # nodal values indexed [y, x], zero border
        # corner (a, b) of cell (sy, sx) is node [sy + a, sx + b]: an ndarray on
        # the nodes' buffer, not as_strided (see sparse._Product)
        row, step = self._nodes.strides
        self._corner_view = np.ndarray((2, 2, M, M), buffer=self._nodes,
                                       strides=(row, step, row, step))
        self._corners = np.empty((4, M, M))
        self._cells = np.empty((M * M, q * q))
        self._grid = np.empty((lattice.M_s, lattice.M_s))

    def __call__(self, field: FieldP1) -> np.ndarray:
        """Values on the lattice as an (M_s-1, M_s-1) array indexed [ix, iy]."""
        if field.mesh != self.mesh:
            raise ValueError("field is attached to a different mesh")
        M = self.mesh.M
        q = self.lattice.M_s // M
        self._nodes[1:-1, 1:-1] = field.values.reshape(M - 1, M - 1)
        np.copyto(self._corners.reshape(2, 2, M, M), self._corner_view)
        cells = np.matmul(self._corners.reshape(4, M * M).T, self._W, out=self._cells)
        # cells [(sy, sx), (a, b)] to the lattice [(sx, a), (sy, b)]
        np.copyto(self._grid.reshape(M, q, M, q), cells.reshape(M, M, q, q).transpose(1, 2, 0, 3))
        return self._grid[:-1, :-1]


def weighted_errors(t: np.ndarray, errors: np.ndarray, mus) -> list[float]:
    """E_mu = max_n t_n^mu err_n for each requested mu; ValueError when one is not finite."""
    t = np.asarray(t, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if t.size == 0 or t.size != errors.size:
        raise ValueError("need matching, nonempty step times and errors")
    with np.errstate(over="ignore", invalid="ignore"):
        E = [float(np.max(t ** float(mu) * errors)) for mu in mus]
    for mu, e in zip(mus, E):
        if not np.isfinite(e):
            raise ValueError(f"E_mu for mu={mu} is not finite ({e}); lower mu")
    return E


def convergence_rates(errors) -> list[float]:
    """log2 ratios of successive errors under doubling of M."""
    errors = list(errors)
    if len(errors) < 2:
        raise ValueError("need at least two errors to form a rate")
    rates = []
    for a, b in zip(errors, errors[1:]):
        if not (a > 0.0 and b > 0.0):
            raise ValueError("convergence rate undefined for non-positive errors")
        rates.append(float(np.log2(a / b)))
    return rates
