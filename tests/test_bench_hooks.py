"""Guard for the benchmark's trace hooks.

perfbench/spans.py wraps package callables by module attribute name; a
rename would break `perfbench/run.py --trace 1` without failing any other
test. This module loads spans.py (read only) and traces one tiny forced run
and one tiny convergence study.
"""

import importlib.util
from pathlib import Path

import numpy as np

import subdiff.exact as exact
import subdiff.stepping as stepping
import subdiff.study as study
from subdiff.assembly import FieldP1
from subdiff.config import ExperimentConfig
from subdiff.exact import DATA, make_series
from subdiff.mesh import build_mesh

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_hooks_resolve_and_count_one_run():
    spans = _load_spans()
    for owner, attr, _ in spans.WRAPPED:
        assert hasattr(owner, attr), f"{owner.__name__}.{attr} is gone"
    mesh = build_mesh(4)
    tm = stepping.build_time_mesh(40, 1.6, 0.5)
    u0 = FieldP1(mesh=mesh, values=np.zeros(mesh.n_interior))
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        state = stepping.run(mesh, tm, 0.75, lambda x, y: 1.0 + x, u0,
                             f=lambda x, y, t: np.ones_like(x) + t)
    finally:
        tracer.uninstall()
    assert state.n == 40
    layers = tracer.layer_metrics()
    assert layers["sparse.solver_builds"] == 1
    assert layers["sparse.cg_calls"] == 40
    assert layers["assembly.load_vector_calls"] == 40
    # recorded on the reduceat CSR path; the CG iterates must not move
    assert layers["sparse.cg_iters"] == 360
    for owner, attr, _ in spans.WRAPPED:  # uninstall restored the originals
        assert not hasattr(getattr(owner, attr), "__wrapped__")


def test_trace_counts_one_oracle_evaluation_per_study():
    # the modal decay table depends on the series and the time mesh, not on
    # M: a two-row study evaluates the oracle once, on the distinct
    # eigenvalues, while each row interpolates at every step
    spans = _load_spans()
    cfg = ExperimentConfig(example="example1", M=[2, 4], N=20, modes=8, fine_M=8)
    cfg.validate()
    sol = make_series(DATA["example1"], cfg.alpha, cfg.modes)
    n_lam = np.unique(sol.lam[sol.active_mask]).size
    exact._decay_table.cache_clear()
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        table = study.run_table(cfg)
    finally:
        tracer.uninstall()
    assert len(table.reports) == 2
    layers = tracer.layer_metrics()
    assert layers["mittag_leffler.args"] == cfg.N * n_lam
    assert layers["metrics.interp_calls"] == 2 * cfg.N
    assert layers["sparse.solver_builds"] == 2
