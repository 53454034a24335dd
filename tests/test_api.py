import importlib
import inspect
from dataclasses import MISSING, fields

import pytest

import subdiff
from subdiff.config import ConfigError, ExperimentConfig
from subdiff.exact import DATA, InitialDatum, SeriesSolution, make_series
from subdiff.mesh import StructuredMesh, build_mesh
from subdiff.metrics import ErrorReport, fine_lattice
from subdiff.mittag_leffler import MlfEvaluator
from subdiff.sparse import LinearSolver
from subdiff.stepping import build_time_mesh
from subdiff.study import ErrorTracker
from subdiff.verify import run_all, suite_special_functions

REMOVED = ("eval_points", "mlf", "write_debug_csv", "write_matrix_market",
           "initial_field", "step_error", "locate_point", "add_scaled",
           "example1", "example2", "example3", "custom")

# module.attribute or module.Class.attribute paths below subdiff
REMOVED_MEMBERS = (
    "stepping.initial_field", "metrics.step_error", "metrics.steps_csv_text",
    "metrics.ErrorReport.weighted_error", "mesh.locate_point",
    "mesh.StructuredMesh.node_id", "mesh.StructuredMesh.interior_coords",
    "assembly.FieldP1.node_values", "sparse.add_scaled", "exact.example1",
    "exact.example2", "exact.example3", "exact.custom", "exact.INITIAL_DATA",
    "config.EXAMPLES", "sparse.SparseMatrix.nnz",
    "study.get_datum", "study._zero_datum",
    "exact.modal_factors", "exact.SeriesSolution.evaluator", "study._decay_table",
    "study.MlfEvaluator", "sparse.LinearSolver.max_iter",
    "mittag_leffler.MlfEvaluator.x_lo", "mittag_leffler.MlfEvaluator.x_hi",
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
    for attr in owners:
        owner = getattr(owner, attr)
    assert not hasattr(owner, name)


def test_dataclass_fields_removed():
    assert "h" not in {f.name for f in fields(StructuredMesh)}
    assert [f.name for f in fields(ErrorReport)] == ["M", "t", "errors"]
    assert [f.name for f in fields(MlfEvaluator) if f.init] == ["alpha"]
    assert [f.name for f in fields(SeriesSolution)] == ["alpha", "K", "C", "lam"]
    assert [f.name for f in fields(LinearSolver) if f.init] == ["matrix", "rtol", "shift"]
    rule = next(f for f in fields(InitialDatum) if f.name == "coefficient_rule")
    assert rule.default is MISSING
    for fn in (run_all, suite_special_functions):
        assert not inspect.signature(fn).parameters


def test_error_tracker_attributes_removed():
    sol = make_series(DATA["example1"], 0.75, K=4)
    tracker = ErrorTracker(sol, fine_lattice(8), build_time_mesh(5, 1.6, 0.5), build_mesh(4))
    for name in ("mask", "c2_act", "t", "lattice"):
        assert not hasattr(tracker, name)


def test_data_keys_are_the_accepted_examples():
    for tag, datum in DATA.items():
        assert datum.tag == tag
        ExperimentConfig(example=tag).validate()
    for tag in ("custom", "Example1", ""):
        with pytest.raises(ConfigError, match="example must be one of"):
            ExperimentConfig(example=tag).validate()
    assert set(DATA) == {"example1", "example2", "example3", "zero"}
