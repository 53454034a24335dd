"""Orchestration of single solves and convergence studies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import FieldP1, l2_project
from .config import ExperimentConfig
from .exact import DATA, DecayReader, SeriesSolution, make_series, sine_matrices
from .mesh import StructuredMesh, build_mesh
from .metrics import (FineLattice, LatticeInterpolator, convergence_rates, fine_lattice,
                      weighted_errors)
from .stepping import build_time_mesh, run


def _parity_classes(modes: np.ndarray) -> list:
    """(positions, sign) of the odd and of the even modes present, with the
    sign (-1)^(m+1) that sin(m pi (1 - x)) = (-1)^(m+1) sin(m pi x) gives
    them; no modes at all is one empty odd class."""
    odd = modes % 2 == 1
    return ([(np.flatnonzero(mask), sign) for mask, sign in ((odd, 1.0), (~odd, -1.0))
             if mask.any()] or [(np.flatnonzero(odd), 1.0)])


def _signed(src: np.ndarray, sign: float, out: np.ndarray, add: bool) -> None:
    """out = sign * src, or out += sign * src when add; sign is +-1, so exact."""
    if add:
        (np.add if sign > 0 else np.subtract)(out, src, out=out)
    elif sign > 0:
        np.copyto(out, src)
    else:
        np.negative(src, out=out)


class ErrorTracker:
    """Observer recording |||u_h^n - u(t_n)||| at every step.

    The modal decay comes from the tracker's own exact.DecayReader, which
    holds one block of 32 steps. Building a tracker evaluates none of it:
    step n reads row n - 1, and the first read of a block evaluates its 32
    steps. The exact field is summed on one quadrant of the lattice and
    reflected: lattice index i mirrors to M_s - 2 - i (x -> 1 - x), and
    sin(m pi (1 - x)) = (-1)^(m+1) sin(m pi x). The active block is split
    by the parity of m and of n (examples 1-3 have one part, all odd); each
    part gathers its step's decay with the series' index, forms its sum on
    the first h = M_s // 2 points per axis (x <= 1/2) with two small matrix
    products, and fills the other three quadrants with the sign of its
    parities. The first part writes the lattice and the others add to it.
    The exact field and the error go to one lattice buffer made once, so
    the next step overwrites the array exact_on_lattice returns.
    """

    def __init__(self, sol: SeriesSolution, lattice: FineLattice,
                 time_mesh, mesh: StructuredMesh):
        self.sol = sol
        self.interp = LatticeInterpolator(mesh, lattice)
        self.decay = DecayReader(sol, time_mesh.t[1:])
        self.errors = np.zeros(time_mesh.N)
        self._lattice = np.empty((lattice.M_s - 1, lattice.M_s - 1))
        h = lattice.M_s // 2
        self._half = np.empty((h, lattice.M_s - 1))  # a later part's rows x <= 1/2
        Sx, Sy = sine_matrices(sol, lattice.xs[:h], lattice.xs[:h])
        # Sy^T contiguous: the product takes about 5 us at h = 64, against 8
        self._parts = [(Sx[:, rows], Sy[:, cols].T.copy(), sol.C2[np.ix_(rows, cols)],
                        sol.index[np.ix_(rows, cols)], sx, sy)
                       for rows, sx in _parity_classes(sol.m)
                       for cols, sy in _parity_classes(sol.n)]

    def exact_on_lattice(self, n: int) -> np.ndarray:
        row = self.decay.row(n - 1)
        full = self._lattice
        h = self._half.shape[0]
        r = full.shape[0] - h  # rows past the first h, mirrors of rows r-1..0
        for k, (Sx, SyT, C2, index, sx, sy) in enumerate(self._parts):
            half = full[:h] if k == 0 else self._half
            np.matmul(Sx @ (C2 * row[index]), SyT, out=half[:, :h])
            _signed(half[:, :r][:, ::-1], sy, half[:, h:], add=False)
            if k > 0:
                np.add(full[:h], half, out=full[:h])
            _signed(half[:r][::-1], sx, full[h:], add=k > 0)
        return full

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
