import importlib
from dataclasses import fields

import pytest

import subdiff
from subdiff.config import ConfigError, ExperimentConfig
from subdiff.exact import DATA
from subdiff.mesh import StructuredMesh
from subdiff.metrics import ErrorReport

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


def test_data_keys_are_the_accepted_examples():
    for tag, datum in DATA.items():
        assert datum.tag == tag
        ExperimentConfig(example=tag).validate()
    for tag in ("custom", "Example1", ""):
        with pytest.raises(ConfigError, match="example must be one of"):
            ExperimentConfig(example=tag).validate()
    assert set(DATA) == {"example1", "example2", "example3", "zero"}
