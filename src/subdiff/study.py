"""Orchestration of single solves and convergence studies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import FieldP1, l2_project
from .config import ExperimentConfig
from .exact import DATA, DecayReader, SeriesSolution, make_series, series_on_grid, sine_matrices
from .mesh import StructuredMesh, build_mesh
from .metrics import (FineLattice, LatticeInterpolator, convergence_rates, fine_lattice,
                      weighted_errors)
from .stepping import build_time_mesh, run


class ErrorTracker:
    """Observer recording |||u_h^n - u(t_n)||| at every step.

    The modal decay comes from the tracker's own exact.DecayReader, which
    holds one block of 32 steps. Building a tracker evaluates none of it:
    step n reads row n - 1, and the first read of a block evaluates its 32
    steps. Each step gathers its row onto the series' active block with the
    series' index and costs two small matrix products. The exact field and
    the error go to one lattice buffer made once, so the next step
    overwrites the array exact_on_lattice returns.
    """

    def __init__(self, sol: SeriesSolution, lattice: FineLattice,
                 time_mesh, mesh: StructuredMesh):
        self.sol = sol
        self.interp = LatticeInterpolator(mesh, lattice)
        self.Sx, self.Sy = sine_matrices(sol, lattice.xs, lattice.xs)
        self.decay = DecayReader(sol, time_mesh.t[1:])
        self.errors = np.zeros(time_mesh.N)
        self._lattice = np.empty((lattice.M_s - 1, lattice.M_s - 1))

    def exact_on_lattice(self, n: int) -> np.ndarray:
        return series_on_grid(self.sol, self.decay.row(n - 1)[self.sol.index], self.Sx, self.Sy,
                              out=self._lattice)

    def __call__(self, n: int, t_n: float, u_n: FieldP1) -> None:
        diff = np.subtract(self.interp(u_n), self.exact_on_lattice(n), out=self._lattice)
        self.errors[n - 1] = float(np.abs(diff, out=diff).max())


@dataclass
class RunResult:
    """One run: the error at every step time t_n, n = 1..N, and E_mu by mu."""

    t: np.ndarray
    errors: np.ndarray
    E_mu: dict

    def write_steps_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("n,t,err\n")
            for n, (tn, en) in enumerate(zip(self.t, self.errors), start=1):
                fh.write(f"{n},{float(tn)!r},{float(en)!r}\n")


def run_single(cfg: ExperimentConfig, M: int, mus=None, observer_extra=None) -> RunResult:
    """One (M, N) solve of the configured example with per-step errors."""
    mus = list(cfg.mu) if mus is None else list(mus)
    mesh = build_mesh(M)
    time_mesh = build_time_mesh(cfg.N, cfg.gamma, cfg.T)
    datum = DATA[cfg.example]
    sol = make_series(datum, cfg.alpha, cfg.modes)
    lattice = fine_lattice(cfg.fine_M)
    tracker = ErrorTracker(sol, lattice, time_mesh, mesh)
    u0 = l2_project(mesh, datum.evaluate, rtol=cfg.tol)

    def observer(n, t_n, u_n):
        tracker(n, t_n, u_n)
        if observer_extra is not None:
            observer_extra(n, t_n, u_n)

    run(mesh, time_mesh, cfg.alpha, None, u0, f=None, observer=observer, rtol=cfg.tol)
    t = time_mesh.t[1:]
    return RunResult(t=t, errors=tracker.errors,
                     E_mu=dict(zip(mus, weighted_errors(t, tracker.errors, mus))))


@dataclass
class TableResult:
    Ms: list
    mus: list
    E: dict        # E[mu] = list over Ms
    CR: dict       # CR[mu] = list over Ms[1:]
    runs: list     # the RunResult of each M

    def text(self) -> str:
        head = ["M".rjust(4)]
        for mu in self.mus:
            head.append(f"E_{mu:g}".rjust(11))
            head.append("CR".rjust(7))
        lines = ["  ".join(head)]
        for i, M in enumerate(self.Ms):
            row = [f"{M:4d}"]
            for mu in self.mus:
                row.append(f"{self.E[mu][i]:.4e}")
                row.append(f"{self.CR[mu][i - 1]:7.4f}" if i > 0 else " " * 7)
            lines.append("  ".join(row))
        return "\n".join(lines)

    def csv_text(self) -> str:
        cols = ["M"]
        for mu in self.mus:
            cols.append(f"E_{mu:g}")
            cols.append(f"CR_{mu:g}")
        lines = [",".join(cols)]
        for i, M in enumerate(self.Ms):
            row = [str(M)]
            for mu in self.mus:
                row.append(repr(self.E[mu][i]))
                row.append(repr(self.CR[mu][i - 1]) if i > 0 else "")
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def run_table(cfg: ExperimentConfig) -> TableResult:
    """Run every configured M and collect weighted errors plus rates."""
    mus = list(cfg.mu)
    runs = [run_single(cfg, M, mus=mus) for M in cfg.M]
    E = {mu: [run.E_mu[mu] for run in runs] for mu in mus}
    CR = {mu: convergence_rates(E[mu]) if len(cfg.M) > 1 else [] for mu in mus}
    return TableResult(Ms=list(cfg.M), mus=mus, E=E, CR=CR, runs=runs)
