"""Orchestration of single solves and convergence studies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import FieldP1, l2_project
from .config import ExperimentConfig
from .exact import DATA, DecayReader, SeriesSolution, make_series, sine_matrices
from .mesh import StructuredMesh, build_mesh
from .metrics import LatticeInterpolator, convergence_rates, weighted_errors
from .stepping import GradedTimeMesh, run


class ErrorTracker:
    """Observer recording |||u_h^n - u(t_n)||| at every step.

    The exact field is summed on the first h lattice points per axis with
    two small matrix products, from the decay of the tracker's own
    exact.DecayReader, and reflected onto the rest of the lattice: lattice
    index i mirrors to M - 2 - i for the lattice's M. When every active
    mode m and n is odd, as for every datum in DATA, the field is symmetric
    about x = 1/2 and y = 1/2, since sin(k pi (1 - x)) = sin(k pi x) for
    odd k, so h = M // 2 (x <= 1/2) and the reflections fill the other
    three quadrants. Any other series takes h = M - 1, the whole axis, and
    the reflections copy nothing. h is set once, from the series alone. The
    reader holds one block of 32 steps and evaluates none of it when the
    tracker is built: step n reads row n - 1, and the first read of a block
    evaluates its 32 steps. The error and the exact field go to one lattice
    buffer made once, so the next step overwrites the array
    exact_on_lattice returns.
    """

    def __init__(self, sol: SeriesSolution, lattice: StructuredMesh,
                 time_mesh, mesh: StructuredMesh):
        self.interp = LatticeInterpolator(mesh, lattice)
        self.decay = DecayReader(sol, time_mesh.t[1:])
        self.errors = np.zeros(time_mesh.N)
        self._lattice = np.empty((lattice.M - 1, lattice.M - 1))
        odd = np.all(sol.m % 2 == 1) and np.all(sol.n % 2 == 1)
        h = lattice.M // 2 if odd else lattice.M - 1
        Sx, Sy = sine_matrices(sol, lattice.xs[:h], lattice.xs[:h])
        # Sy^T contiguous: the product takes about 5 us at h = 64, against 8
        self._sum = (Sx, Sy.T.copy(), sol.C2, sol.index)

    def exact_on_lattice(self, n: int) -> np.ndarray:
        Sx, SyT, C2, index = self._sum
        full = self._lattice
        h = Sx.shape[0]
        r = full.shape[0] - h  # rows past the first h, mirrors of rows r-1..0
        np.matmul(Sx @ (C2 * self.decay.row(n - 1)[index]), SyT, out=full[:h, :h])
        np.copyto(full[:h, h:], full[:h, :r][:, ::-1])
        np.copyto(full[h:], full[:r][::-1])
        return full

    def __call__(self, n: int, t_n: float, u_n: FieldP1) -> None:
        diff = np.subtract(self.interp(u_n), self.exact_on_lattice(n), out=self._lattice)
        self.errors[n - 1] = float(np.abs(diff, out=diff).max())


@dataclass(eq=False)
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
    mesh = build_mesh(M)  # the alias, so perfbench/spans.py times this call
    time_mesh = GradedTimeMesh(cfg.N, cfg.gamma, cfg.T)
    datum = DATA[cfg.example]
    sol = make_series(datum, cfg.alpha, cfg.modes)
    lattice = StructuredMesh(cfg.fine_M)
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
    runs = [run_single(cfg, M) for M in cfg.M]
    E = {mu: [run.E_mu[mu] for run in runs] for mu in mus}
    CR = {mu: convergence_rates(E[mu]) if len(cfg.M) > 1 else [] for mu in mus}
    return TableResult(Ms=list(cfg.M), mus=mus, E=E, CR=CR, runs=runs)
