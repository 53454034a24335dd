import importlib
import inspect
import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

import subdiff
from subdiff.assembly import assemble_mass, assemble_stiffness
from subdiff.config import ConfigError, ExperimentConfig
from subdiff.exact import DATA, InitialDatum, SeriesSolution, make_series
from subdiff.mesh import StructuredMesh, build_mesh
from subdiff.metrics import fine_lattice
from subdiff.mittag_leffler import MlfEvaluator
from subdiff.sparse import LinearSolver
from subdiff.stepping import SchemeState, build_time_mesh
from subdiff.study import ErrorTracker, RunResult, TableResult

REMOVED = ("eval_points", "mlf", "write_debug_csv", "write_matrix_market",
           "initial_field", "step_error", "locate_point", "add_scaled",
           "example1", "example2", "example3", "custom", "ritz_project",
           "frac_integral_nodes", "locate_points", "OutOfDomainError", "csr_from_coo",
           "NumericalBlowupError", "reciprocal_gamma", "SparseMatrix", "ErrorReport",
           "FineLattice")

# module.attribute or module.Class.attribute paths below subdiff
REMOVED_MEMBERS = (
    "stepping.initial_field", "metrics.step_error", "metrics.steps_csv_text",
    "metrics.ErrorReport.weighted_error", "mesh.locate_point",
    "mesh.StructuredMesh.node_id", "mesh.StructuredMesh.interior_coords",
    "assembly.FieldP1.node_values", "sparse.add_scaled", "exact.example1",
    "exact.example2", "exact.example3", "exact.custom", "exact.INITIAL_DATA",
    "config.EXAMPLES", "sparse.SparseMatrix",
    "study.get_datum", "study._zero_datum",
    "exact.modal_factors", "exact.SeriesSolution.evaluator", "study._decay_table",
    "study.MlfEvaluator", "sparse.LinearSolver.max_iter",
    "mittag_leffler.MlfEvaluator.x_lo", "mittag_leffler.MlfEvaluator.x_hi",
    "metrics.FineLattice.points", "metrics.FineLattice.n_nodes", "exact.sine_matrix",
    "assembly.ritz_project", "stepping.frac_integral_nodes",
    "benchmarks.TABLES", "cli.cmd_verify", "mesh.locate_points",
    "exceptions.OutOfDomainError", "assembly._element_gradients",
    "sparse.csr_from_coo", "sparse._ell_matvec", "assembly._STENCIL",
    "exceptions.NumericalBlowupError",
    "mesh.StructuredMesh.edges", "mesh.StructuredMesh.interior_scatter",
    "mesh.StructuredMesh.boundary_mask", "mesh.StructuredMesh.nodes",
    "mesh.StructuredMesh.triangles", "mesh.StructuredMesh.interior_index",
    "assembly._scatter", "assembly._SLOT",
    "sparse.SparseMatrix.nnz", "sparse.SparseMatrix.to_dense", "sparse.SparseMatrix.indptr",
    "sparse.SparseMatrix.indices", "sparse.SparseMatrix.data", "sparse.SparseMatrix.ell",
    "mittag_leffler.reciprocal_gamma", "mittag_leffler.MlfEvaluator.series_value",
    "mittag_leffler.MlfEvaluator.quadrature_value", "mittag_leffler.MlfEvaluator.asymptotic_value",
    "mittag_leffler._tanh_sinh_unit", "mittag_leffler._TS_XI", "mittag_leffler._TS_W",
    "mittag_leffler._QUAD_CUTOFF", "mittag_leffler._SERIES_T_MAX", "mittag_leffler._SERIES_P_CAP",
    "exact.decay_rows", "exact.SeriesSolution.active_mask", "exact.SeriesSolution.c2_active",
    "stepping.SchemeState.block_c", "stepping.SchemeState.block_hist",
    "exact.SeriesSolution.active_block",
    "stepping.SchemeState.mesh", "stepping.SchemeState.time_mesh", "cli.cmd_figure",
    "exact.DecayTable", "exact._decay_table", "exact.shared_decay", "study.shared_decay",
    "metrics.ErrorReport", "exact.decay_table", "exact._checked_times",
    "exact.series_on_grid", "exact._evaluate_decay", "metrics.FineLattice",
)


def test_public_api_all_resolves():
    namespace = {}
    exec("from subdiff import *", namespace)  # AttributeError for a listed name that is missing
    assert set(subdiff.__all__) <= set(namespace)
    for name in REMOVED:
        assert name not in subdiff.__all__ and not hasattr(subdiff, name)


@pytest.mark.parametrize("path", REMOVED_MEMBERS)
def test_removed_members_stay_removed(path):
    module, *owners, name = path.split(".")
    owner = importlib.import_module(f"subdiff.{module}")
    for depth, attr in enumerate(owners, start=1):
        if ".".join([module, *owners[:depth]]) in REMOVED_MEMBERS:
            # the owner is itself removed, and its members with it
            assert not hasattr(owner, attr)
            return
        owner = getattr(owner, attr)
    assert not hasattr(owner, name)


def test_dataclass_fields_removed():
    assert [f.name for f in fields(StructuredMesh)] == ["M"]
    assert [f.name for f in fields(RunResult)] == ["t", "errors", "E_mu"]
    assert [f.name for f in fields(TableResult)] == ["Ms", "mus", "E", "CR", "runs"]
    assert [f.name for f in fields(MlfEvaluator)] == ["alpha"]
    assert [f.name for f in fields(SeriesSolution)] == ["alpha", "m", "n", "C2", "lam", "index"]
    assert [f.name for f in fields(SchemeState)] == ["us", "Z", "n"]
    assert [f.name for f in fields(LinearSolver) if f.init] == ["matrix", "shift", "rtol"]
    rule = next(f for f in fields(InitialDatum) if f.name == "coefficient_rule")
    assert rule.default is MISSING
    for fn in (assemble_mass, assemble_stiffness):
        assert "include_boundary" not in inspect.signature(fn).parameters


def test_each_default_is_declared_once():
    # the CG tolerance is sparse.RTOL wherever a caller may leave it out; the
    # mode cutoff and the lattice size are the configuration's alone
    from subdiff.assembly import l2_project
    from subdiff.sparse import RTOL, cg_solve
    from subdiff.stepping import run
    assert ExperimentConfig().tol is RTOL
    assert next(f for f in fields(LinearSolver) if f.name == "rtol").default is RTOL
    for fn in (cg_solve, run, l2_project):
        assert inspect.signature(fn).parameters["rtol"].default is RTOL
    assert inspect.signature(make_series).parameters["K"].default is inspect.Parameter.empty
    assert inspect.signature(fine_lattice).parameters["M_s"].default is inspect.Parameter.empty


def test_error_tracker_attributes_removed():
    sol = make_series(DATA["example1"], 0.75, K=4)
    tracker = ErrorTracker(sol, fine_lattice(8), build_time_mesh(5, 1.6, 0.5), build_mesh(4))
    for name in ("mask", "c2_act", "t", "lattice", "index", "sol", "_half", "_parts"):
        assert not hasattr(tracker, name)


def test_data_keys_are_the_accepted_examples():
    for tag, datum in DATA.items():
        assert datum.tag == tag
        ExperimentConfig(example=tag).validate()
    for tag in ("custom", "Example1", ""):
        with pytest.raises(ConfigError, match="example must be one of"):
            ExperimentConfig(example=tag).validate()
    assert set(DATA) == {"example1", "example2", "example3", "zero"}


def test_readme_library_example_runs(capsys):
    # the README's one python block, executed as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert re.fullmatch(r"max-norm error at T: \d\.\d{3}e-\d\d\n", capsys.readouterr().out)
