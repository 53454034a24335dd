"""Guard for the benchmark's workloads and trace hooks.

perfbench/workloads.py and perfbench/spans.py reach package callables by
module attribute name; a rename would break `perfbench/run.py` without
failing any other test. This module loads both files (read only), checks
every package name the workloads use, and traces one tiny forced run and
one tiny convergence study.
"""

import ast
import importlib.util
import json
import math
import types
from pathlib import Path

import numpy as np

import subdiff.stepping as stepping
import subdiff.study as study
from subdiff.assembly import FieldP1
from subdiff.config import ExperimentConfig
from subdiff.exact import DATA, make_series
from subdiff.mesh import StructuredMesh

ROOT = Path(__file__).resolve().parent.parent


def _load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workloads_resolve_and_match_benchmark():
    workloads = _load_perfbench("workloads")  # names imported from subdiff resolve here
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}
    # module attributes are looked up at call time: each one must exist
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    checked = 0
    for alias, attr in sorted(used):
        owner = getattr(workloads, alias, None)
        if isinstance(owner, types.ModuleType) and owner.__name__.startswith("subdiff."):
            assert hasattr(owner, attr), f"{owner.__name__}.{attr} is gone"
            checked += 1
    assert checked  # the walk found the workloads' package calls


def test_trace_hooks_resolve_and_count_one_run():
    spans = _load_perfbench("spans")
    for owner, attr, _ in spans.WRAPPED:
        # Tracer.install reads methods from the class body, not inherited ones
        found = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        assert found, f"{owner.__name__}.{attr} is gone"
    mesh = StructuredMesh(4)
    tm = stepping.GradedTimeMesh(40, 1.6, 0.5)
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
    # the forcing is sampled once per slice of steps
    assert layers["assembly.load_vector_calls"] == math.ceil(40 / stepping.FORCING_SLICE) == 5
    # first recorded with CSR matrices; the ELL and stencil formats kept it
    assert layers["sparse.cg_iters"] == 360
    # one stepping.step span per step, each counting its (n-1) history rows of 9 dofs
    assert sum(span[1] == "stepping.step" for span in tracer.spans) == 40
    assert layers["stepping.history_bytes"] == 9 * 8 * sum(range(40)) == 56_160
    for owner, attr, _ in spans.WRAPPED:  # uninstall restored the originals
        assert not hasattr(getattr(owner, attr), "__wrapped__")


def test_trace_counts_one_oracle_evaluation_per_row():
    # each row of a study evaluates its own modal decay, once per step on
    # the distinct eigenvalues, and interpolates and evaluates the series
    # once per step
    spans = _load_perfbench("spans")
    cfg = ExperimentConfig(example="example1", M=[2, 4], N=20, modes=8, fine_M=8)
    cfg.validate()
    n_lam = make_series(DATA["example1"], cfg.alpha, cfg.modes).lam.size
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        table = study.run_table(cfg)
    finally:
        tracer.uninstall()
    assert len(table.runs) == 2
    layers = tracer.layer_metrics()
    assert layers["mittag_leffler.args"] == len(cfg.M) * cfg.N * n_lam
    # every step time is > 0, so every argument takes the contour
    assert layers["mittag_leffler.quadrature_args"] == len(cfg.M) * cfg.N * n_lam
    assert layers["metrics.interp_calls"] == 2 * cfg.N
    assert sum(span[1] == "study.exact_eval" for span in tracer.spans) == 2 * cfg.N
    assert layers["sparse.solver_builds"] == 2
    # one CG per step and one per row's L2 projection of u_0, all traced
    assert layers["sparse.cg_calls"] == len(cfg.M) * (cfg.N + 1) == 42
    assert layers["sparse.cg_iters"] == 105
