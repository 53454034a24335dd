"""The benchmark's workloads, run through subdiff's public API.

Each workload is a function of a SolveClock. It returns a flat dict of the
numbers the program produced (the correctness gate compares them with
reference.json). Module attributes are looked up at call time, never
imported by name, so that the wrappers of spans.py see every call.
"""

from __future__ import annotations

import time

import numpy as np

import subdiff.assembly as assembly
import subdiff.mesh as mesh_mod
import subdiff.metrics as metrics
import subdiff.stepping as stepping
import subdiff.study as study
from subdiff.benchmarks import PRESETS
from subdiff.config import ExperimentConfig
from subdiff.mittag_leffler import gamma


class SetupDone(Exception):
    """Raised after the first step of a solve when only set-up is timed."""


class SolveClock:
    """Start and first-step times of each solve, for setup_s and dof_steps.

    The first solve starts when the process was spawned, so its set-up
    includes interpreter start and `import subdiff`; later solves start
    when the workload begins them.
    """

    def __init__(self, t_spawn: float, setup_only: bool):
        self.t_spawn = t_spawn
        self.setup_only = setup_only
        self.solves = []   # [N, dofs, t_start, t_first_step]

    def observer(self, N: int):
        """Observer for one solve of N steps; call right before the solve."""
        t_start = time.monotonic() if self.solves else self.t_spawn
        record = [N, 0, t_start, None]
        self.solves.append(record)

        def observe(n, t_n, u_n):
            if n == 1:
                record[1] = u_n.values.size
                record[3] = time.monotonic()
                if self.setup_only:
                    raise SetupDone

        return observe

    def run(self, solve):
        """Call solve(); None if set-up mode stopped it after step one."""
        try:
            return solve()
        except SetupDone:
            return None

    def setup_s(self) -> float:
        return sum(t_first - t_start for _, _, t_start, t_first in self.solves)

    def dof_steps(self) -> int:
        return sum(N * dofs for N, dofs, _, _ in self.solves)


def table2_coarse(clock: SolveClock) -> dict:
    cfg = ExperimentConfig(**PRESETS["table2"]).replace(M=[4, 8, 16])
    cfg.validate()
    real = study.run_single

    def run_single(cfg, M, mus=None, observer_extra=None):
        return real(cfg, M, mus=mus, observer_extra=clock.observer(cfg.N))

    # run_table looks run_single up in the study module on every row
    study.run_single = run_single
    try:
        if clock.setup_only:
            for M in cfg.M:
                clock.run(lambda: study.run_single(cfg, M))
            return {}
        table = study.run_table(cfg)
    finally:
        study.run_single = real
    return {f"M={M} E_{mu:g}": float(table.E[mu][i])
            for mu in table.mus for i, M in enumerate(table.Ms)}


# criterion-9 manufactured problem: a = 1 + w/2, u = t w, w = sin(pi x) sin(pi y)
ALPHA, GAMMA, T, M_LONG, N_LONG, M_LATTICE = 0.75, 1.6, 0.5, 32, 5200, 128


def _w(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def _a(x, y):
    return 1.0 + 0.5 * _w(x, y)


def _Lw(x, y):
    """-div(a grad w) for the diffusivity _a."""
    s = _w(x, y)
    grad2 = np.pi ** 2 * (np.cos(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2
                          + np.sin(np.pi * x) ** 2 * np.cos(np.pi * y) ** 2)
    return 2.0 * np.pi ** 2 * (1.0 + 0.5 * s) * s - 0.5 * grad2


def manufactured_long(clock: SolveClock) -> dict:
    g1a = gamma(1.0 + ALPHA)

    def f(x, y, t):
        return _w(x, y) + _Lw(x, y) * t ** ALPHA / g1a

    observe = clock.observer(N_LONG)
    mesh = mesh_mod.build_mesh(M_LONG)
    tm = stepping.build_time_mesh(N_LONG, GAMMA, T)
    u0 = assembly.FieldP1(mesh=mesh, values=np.zeros(mesh.n_interior))
    state = clock.run(lambda: stepping.run(mesh, tm, ALPHA, _a, u0, f=f, observer=observe))
    if state is None:
        return {}
    lattice = metrics.fine_lattice(M_LATTICE)
    X, Y = np.meshgrid(lattice.xs, lattice.xs, indexing="ij")
    u_T = metrics.LatticeInterpolator(mesh, lattice)(
        assembly.FieldP1(mesh=mesh, values=state.us[-1]))
    return {"err_T": float(np.abs(u_T - T * _w(X, Y)).max())}


WORKLOADS = {
    "table2-coarse": table2_coarse,
    "manufactured-long": manufactured_long,
}
