"""Discrete maximum-norm errors on a fine evaluation lattice.

The error at each accepted step is the max over the interior nodes of a
fixed fine lattice of |P1-interpolated discrete solution - exact solution|;
weighted variants multiply by t^mu before taking the max over steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import FieldP1
from .mesh import StructuredMesh, locate_points
from .sparse import csr_from_coo, matvec


@dataclass(frozen=True)
class FineLattice:
    """Interior nodes of the M_s x M_s lattice, as a tensor grid."""

    M_s: int
    xs: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.M_s < 2:
            raise ValueError(f"M_s must be >= 2, got {self.M_s!r}")
        xs = np.arange(1, self.M_s) / self.M_s
        xs.setflags(write=False)
        object.__setattr__(self, "xs", xs)

    @property
    def n_nodes(self) -> int:
        return (self.M_s - 1) ** 2

    def points(self) -> np.ndarray:
        """All (M_s - 1)^2 nodes, x varying fastest."""
        X, Y = np.meshgrid(self.xs, self.xs, indexing="ij")
        return np.column_stack([X.ravel(), Y.ravel()])


def fine_lattice(M_s: int = 128) -> FineLattice:
    return FineLattice(M_s=int(M_s))


class LatticeInterpolator:
    """P1 interpolation from a coarse mesh onto a fine lattice, precomputed.

    When the lattices nest, coarse node values are reproduced exactly
    (barycentric weights are exactly 1/0 there).
    """

    def __init__(self, mesh: StructuredMesh, lattice: FineLattice):
        self.mesh = mesh
        self.lattice = lattice
        tri, lam = locate_points(mesh, lattice.points())
        dof = mesh.interior_index[mesh.triangles[tri]]
        keep = (dof >= 0) & (lam != 0.0)
        n = max(lattice.n_nodes, mesh.n_interior)
        # a zero in column 0 of every row keeps each row populated (rows near
        # corners may touch only boundary nodes)
        rows = np.concatenate([np.arange(n), np.nonzero(keep)[0]])
        cols = np.concatenate([np.zeros(n, dtype=np.int64), dof[keep]])
        vals = np.concatenate([np.zeros(n), lam[keep]])
        self._P = csr_from_coo(n, rows, cols, vals)

    def __call__(self, field: FieldP1) -> np.ndarray:
        """Values on the lattice as an (M_s-1, M_s-1) array indexed [ix, iy]."""
        x = np.zeros(self._P.n)
        x[: field.values.size] = field.values
        out = matvec(self._P, x)[: self.lattice.n_nodes]
        m = self.lattice.M_s - 1
        return out.reshape(m, m)


@dataclass
class ErrorReport:
    """Per-step errors of one solver run on an M x M mesh."""

    M: int
    t: np.ndarray
    errors: np.ndarray

    def write_steps_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("n,t,err\n")
            for n, (tn, en) in enumerate(zip(self.t, self.errors), start=1):
                fh.write(f"{n},{float(tn)!r},{float(en)!r}\n")


def weighted_errors(t: np.ndarray, errors: np.ndarray, mus) -> list[float]:
    """E_mu = max_n t_n^mu err_n for each requested mu."""
    t = np.asarray(t, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if t.size == 0 or t.size != errors.size:
        raise ValueError("need matching, nonempty step times and errors")
    return [float(np.max(t ** float(mu) * errors)) for mu in mus]


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
