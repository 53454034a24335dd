"""Orchestration of single solves and convergence studies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import FieldP1, l2_project
from .config import ExperimentConfig
from .exact import DATA, SeriesSolution, decay_rows, make_series, series_on_grid, sine_matrix
from .mesh import StructuredMesh, build_mesh
from .metrics import (ErrorReport, FineLattice, LatticeInterpolator, convergence_rates,
                      fine_lattice, weighted_errors)
from .stepping import build_time_mesh, run


class ErrorTracker:
    """Observer recording |||u_h^n - u(t_n)||| at every step.

    Modal decay factors for all steps come upfront from exact.decay_rows,
    shared with the next tracker on the same series and time mesh; each
    step then costs two small matrix products.
    """

    def __init__(self, sol: SeriesSolution, lattice: FineLattice,
                 time_mesh, mesh: StructuredMesh):
        self.sol = sol
        self.interp = LatticeInterpolator(mesh, lattice)
        self.Sx = sine_matrix(lattice.xs, sol.K)
        self.decay = decay_rows(sol, time_mesh.t[1:])
        self.errors = np.zeros(time_mesh.N)

    def exact_on_lattice(self, n: int) -> np.ndarray:
        return series_on_grid(self.sol, self.decay[n - 1], self.Sx, self.Sx)

    def __call__(self, n: int, t_n: float, u_n: FieldP1) -> None:
        err = float(np.abs(self.interp(u_n) - self.exact_on_lattice(n)).max())
        self.errors[n - 1] = err


@dataclass
class RunResult:
    report: ErrorReport
    E_mu: dict


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
    report = ErrorReport(M=M, t=time_mesh.t[1:], errors=tracker.errors)
    return RunResult(report=report,
                     E_mu=dict(zip(mus, weighted_errors(report.t, report.errors, mus))))


@dataclass
class TableResult:
    Ms: list
    mus: list
    E: dict        # E[mu] = list over Ms
    CR: dict       # CR[mu] = list over Ms[1:]
    reports: list

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
    E = {mu: [] for mu in mus}
    reports = []
    for M in cfg.M:
        res = run_single(cfg, M, mus=mus)
        reports.append(res.report)
        for mu in mus:
            E[mu].append(res.E_mu[mu])
    CR = {mu: convergence_rates(E[mu]) if len(cfg.M) > 1 else [] for mu in mus}
    return TableResult(Ms=list(cfg.M), mus=mus, E=E, CR=CR, reports=reports)
