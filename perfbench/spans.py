"""Spans around the public callables of each subdiff module.

Tracer.install() replaces each callable at the module attribute its caller
looks it up under (or the method on its class) with a wrapper that records
a span (name, start, end, parent, run id) and the layer's counts. Spans stay
in memory until the run ends. layer_metrics() turns them into the per-layer
metrics; self time is a span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np

import subdiff.assembly as assembly
import subdiff.mesh as mesh_mod
import subdiff.metrics as metrics
import subdiff.mittag_leffler as mittag_leffler
import subdiff.sparse as sparse
import subdiff.stepping as stepping
import subdiff.study as study

# (owner, attribute, span name): module attributes as their callers look
# them up, and methods on their classes
WRAPPED = (
    (study, "run_single", "study.run_single"),
    (study, "run", "stepping.run"),
    (stepping, "run", "stepping.run"),
    (study, "build_mesh", "mesh.build"),
    (mesh_mod, "build_mesh", "mesh.build"),
    (stepping, "assemble_mass", "assembly.assemble"),
    (stepping, "assemble_stiffness", "assembly.assemble"),
    (assembly, "assemble_mass", "assembly.assemble"),
    (study, "l2_project", "assembly.l2_project"),
    # the stepper's per-step forcing only; l2_project's load is its child
    (stepping, "load_vector", "assembly.load_vector"),
    (sparse, "cg_solve", "sparse.cg"),
    (stepping, "LinearSolver", "sparse.solver_build"),
    (stepping, "frac_weights", "stepping.frac_weights"),
    (stepping, "step", "stepping.step"),
    (mittag_leffler.MlfEvaluator, "__call__", "mittag_leffler.eval"),
    (study, "make_series", "exact.make_series"),
    (metrics.LatticeInterpolator, "__init__", "metrics.interp_build"),
    (metrics.LatticeInterpolator, "__call__", "metrics.interp"),
    (study.ErrorTracker, "__init__", "study.tracker_init"),
    (study.ErrorTracker, "exact_on_lattice", "study.exact_eval"),
)

# per-layer metric -> (span name, "total" | "self" | "calls")
SPAN_METRICS = {
    "mesh.build_s": ("mesh.build", "total"),
    "assembly.assemble_s": ("assembly.assemble", "total"),
    "assembly.l2_project_s": ("assembly.l2_project", "total"),
    "assembly.load_vector_s": ("assembly.load_vector", "total"),
    "assembly.load_vector_calls": ("assembly.load_vector", "calls"),
    "sparse.cg_s": ("sparse.cg", "total"),
    "sparse.cg_calls": ("sparse.cg", "calls"),
    "sparse.solver_build_s": ("sparse.solver_build", "total"),
    "sparse.solver_builds": ("sparse.solver_build", "calls"),
    "stepping.frac_weights_s": ("stepping.frac_weights", "total"),
    "stepping.step_s": ("stepping.step", "total"),
    "stepping.step_self_s": ("stepping.step", "self"),
    "mittag_leffler.eval_s": ("mittag_leffler.eval", "total"),
    "exact.make_series_s": ("exact.make_series", "total"),
    "metrics.interp_build_s": ("metrics.interp_build", "total"),
    "metrics.interp_s": ("metrics.interp", "total"),
    "metrics.interp_calls": ("metrics.interp", "calls"),
    "study.tracker_init_self_s": ("study.tracker_init", "self"),
    "study.exact_eval_s": ("study.exact_eval", "total"),
}

# counts the wrappers take from arguments and results
COUNTS = ("sparse.cg_iters", "sparse.cg_iters_max", "stepping.history_bytes",
          "mittag_leffler.args", "mittag_leffler.series_args",
          "mittag_leffler.quadrature_args", "mittag_leffler.asymptotic_args")

class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []        # [id, name, start_ns, end_ns, parent_id]
        self._open = []        # ids of spans not yet ended
        self.counts = dict.fromkeys(COUNTS, 0)
        self._mlf_args = []    # every argument array, for distinct_frac
        self._saved = []

    def install(self) -> None:
        for owner, attr, name in WRAPPED:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            span = [sid, name, 0, 0, self._open[-1] if self._open else None]
            self.spans.append(span)
            self._open.append(sid)
            span[2] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                self._open.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _observe_sparse_cg(self, args, kwargs, result):
        iters = len(result[1]) - 1
        self.counts["sparse.cg_iters"] += iters
        self.counts["sparse.cg_iters_max"] = max(self.counts["sparse.cg_iters_max"], iters)

    def _observe_stepping_step(self, args, kwargs, result):
        state, n = args[0], args[1]
        # computed, not measured: the history sum reads rows 1..n-1 of Z
        self.counts["stepping.history_bytes"] += (n - 1) * state.Z.shape[1] * state.Z.itemsize

    def _observe_mittag_leffler_eval(self, args, kwargs, result):
        evaluator, x = args[0], np.atleast_1d(np.asarray(args[1], dtype=float))
        series = int(np.count_nonzero(x <= evaluator.series_cut))
        asym = int(np.count_nonzero(x >= evaluator.asym_cut))
        c = self.counts
        c["mittag_leffler.args"] += x.size
        c["mittag_leffler.series_args"] += series
        c["mittag_leffler.asymptotic_args"] += asym
        c["mittag_leffler.quadrature_args"] += x.size - series - asym
        self._mlf_args.append(x)

    def layer_metrics(self) -> dict:
        total, self_time, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for sid, name, start, end, parent in self.spans:
            dur = (end - start) * 1e-9
            total[name] += dur
            self_time[name] += dur
            calls[name] += 1
            if parent is not None:
                self_time[self.spans[parent][1]] -= dur
        kinds = {"total": total, "self": self_time, "calls": calls}
        out = {metric: kinds[kind][span] for metric, (span, kind) in SPAN_METRICS.items()}
        out.update(self.counts)
        n_args = self.counts["mittag_leffler.args"]
        distinct = np.unique(np.concatenate(self._mlf_args)).size if self._mlf_args else 0
        out["mittag_leffler.distinct_frac"] = distinct / n_args if n_args else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "name": name,
                                     "start_ns": start, "end_ns": end,
                                     "parent": parent}) + "\n")
