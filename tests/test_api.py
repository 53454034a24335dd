import ast
import dataclasses
import importlib
import inspect
import math
import pkgutil
import re
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

import subdiff
from subdiff.assembly import FieldP1, assemble_mass, assemble_stiffness
from subdiff.config import ConfigError, ExperimentConfig
from subdiff.exact import DATA, InitialDatum, SeriesSolution, make_series
from subdiff.mesh import StructuredMesh
from subdiff.mittag_leffler import MlfEvaluator
from subdiff.sparse import LinearSolver
from subdiff.stepping import FracWeights, GradedTimeMesh, SchemeState
from subdiff.study import ErrorTracker, RunResult, TableResult

ROOT = Path(__file__).resolve().parents[1]

REMOVED = ("eval_points", "mlf", "write_debug_csv", "write_matrix_market",
           "initial_field", "step_error", "locate_point", "add_scaled",
           "example1", "example2", "example3", "custom", "ritz_project",
           "frac_integral_nodes", "locate_points", "OutOfDomainError", "csr_from_coo",
           "NumericalBlowupError", "reciprocal_gamma", "SparseMatrix", "ErrorReport",
           "FineLattice", "build_mesh", "build_time_mesh", "frac_weights", "fine_lattice",
           "gamma")

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
    assert inspect.signature(StructuredMesh).parameters["M"].default is inspect.Parameter.empty


def test_error_tracker_attributes_removed():
    sol = make_series(DATA["example1"], 0.75, K=4)
    tracker = ErrorTracker(sol, StructuredMesh(8), GradedTimeMesh(5, 1.6, 0.5), StructuredMesh(4))
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
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert re.fullmatch(r"max-norm error at T: \d\.\d{3}e-\d\d\n", capsys.readouterr().out)


# (module, name) -> what it names: the old constructors, kept as aliases while
# perfbench/ reaches them by name
ALIASES = {("mesh", "build_mesh"): StructuredMesh,
           ("stepping", "build_time_mesh"): GradedTimeMesh,
           ("stepping", "frac_weights"): FracWeights,
           ("metrics", "fine_lattice"): StructuredMesh,
           ("mittag_leffler", "gamma"): math.gamma}


def test_aliases_are_their_classes():
    for (module, name), target in ALIASES.items():
        assert getattr(importlib.import_module(f"subdiff.{module}"), name) is target
    tm = GradedTimeMesh(10, 2, 1)
    assert type(tm.gamma) is float and type(tm.T) is float
    assert tm == GradedTimeMesh(10, 2.0, 1.0) and hash(tm) == hash(GradedTimeMesh(10, 2.0, 1.0))


def _alias_uses(path: Path) -> set:
    """(function or None, alias) for each import and read of an alias in a
    source file; the definitions themselves are not uses."""
    tree = ast.parse(path.read_text())
    own = path.stem if path.parent.name == "subdiff" else None
    bound = {name for module, name in ALIASES if module == own}  # bare names
    modules = {}  # local name -> subdiff module it binds
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = ("subdiff." if node.level else "") + (node.module or "")
            for a in node.names:
                if source == "subdiff":
                    modules[a.asname or a.name] = a.name
                elif source.startswith("subdiff.") and (source[8:], a.name) in ALIASES:
                    bound.add(a.asname or a.name)
                    uses.add((None, a.name))
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("subdiff.") and a.asname:
                    modules[a.asname] = a.name[8:]

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in bound:
            uses.add((func, node.id))
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and (modules.get(node.value.id), node.attr) in ALIASES):
            uses.add((func, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return uses


def test_aliases_are_named_only_where_perfbench_times_them():
    # perfbench/spans.py wraps study.build_mesh and stepping.frac_weights on
    # the calling module; every other caller uses the class
    found = {(path.relative_to(ROOT).as_posix(), *use)
             for folder in ("src/subdiff", "tests") for path in sorted((ROOT / folder).glob("*.py"))
             for use in _alias_uses(path)}
    assert found == {("src/subdiff/study.py", None, "build_mesh"),
                     ("src/subdiff/study.py", "run_single", "build_mesh"),
                     ("src/subdiff/stepping.py", "run", "frac_weights")}


def _dataclass_examples() -> dict:
    """Two separate constructions of each package dataclass, equal in value."""
    mesh, tm = StructuredMesh(4), GradedTimeMesh(5, 1.6, 0.5)
    mass, stiffness = assemble_mass(mesh), assemble_stiffness(mesh)
    run = RunResult(t=tm.t[1:], errors=np.ones(5), E_mu={0.0: 1.0})
    datum = DATA["example1"]
    return {
        ExperimentConfig: ExperimentConfig,
        FieldP1: lambda: FieldP1(mesh=mesh, values=np.ones(9)),
        FracWeights: lambda: FracWeights(GradedTimeMesh(5, 1.6, 0.5), 0.75),
        GradedTimeMesh: lambda: GradedTimeMesh(5, 1.6, 0.5),
        InitialDatum: lambda: InitialDatum(datum.tag, datum.evaluate, datum.coefficient_rule),
        LinearSolver: lambda: LinearSolver(mass, shift=stiffness),
        MlfEvaluator: lambda: MlfEvaluator(0.75),
        RunResult: lambda: RunResult(t=tm.t[1:], errors=np.ones(5), E_mu={0.0: 1.0}),
        SchemeState: lambda: SchemeState.start(np.ones(9), 2),
        SeriesSolution: lambda: make_series(datum, 0.75, K=4),
        type(mass): lambda: assemble_mass(mesh),
        StructuredMesh: lambda: StructuredMesh(4),
        TableResult: lambda: TableResult(Ms=[4], mus=[0.0], E={0.0: [1.0]}, CR={0.0: []},
                                         runs=[run]),
    }


PACKAGE_DATACLASSES = sorted(
    {obj for info in pkgutil.iter_modules(subdiff.__path__)
     for obj in vars(importlib.import_module(f"subdiff.{info.name}")).values()
     if isinstance(obj, type) and dataclasses.is_dataclass(obj)
     and obj.__module__.startswith("subdiff.")}, key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", PACKAGE_DATACLASSES, ids=lambda cls: cls.__name__)
def test_dataclass_eq_and_hash_do_not_raise(cls):
    # a generated __eq__ over an array field raises ValueError; such classes
    # compare by identity (eq=False) or leave the arrays out of the compare
    make = _dataclass_examples()[cls]
    a, b = make(), make()
    assert a == a
    assert (a == b) is cls.__dataclass_params__.eq
    if cls.__hash__ is not None and a == b:
        assert hash(a) == hash(b)
