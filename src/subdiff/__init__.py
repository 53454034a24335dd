"""Finite-element solver for time-fractional diffusion on the unit square.

Solves u' + d_t^(1-alpha)(-div(a grad u)) = f with homogeneous Dirichlet
data: P1 elements in space, a generalized Crank-Nicolson scheme with exact
fractional-integral weights on graded time meshes, and an eigenfunction-
series exact solution for convergence studies.
"""

from .assembly import FieldP1, assemble_mass, assemble_stiffness, l2_project, load_vector
from .config import ConfigError, ExperimentConfig
from .exact import DATA, InitialDatum, SeriesSolution, eval_grid, make_series
from .exceptions import CoefficientRangeError, EvaluationError, SolverFailureError
from .mesh import StructuredMesh, build_mesh
from .metrics import (FineLattice, LatticeInterpolator, convergence_rates, fine_lattice,
                      weighted_errors)
from .mittag_leffler import MlfEvaluator, gamma
from .sparse import LinearSolver, Stencil, cg_solve, matvec
from .stepping import (FracWeights, GradedTimeMesh, SchemeState, build_time_mesh,
                       frac_weights, run, step)
from .study import ErrorTracker, RunResult, TableResult, run_single, run_table

__version__ = "0.1.0"

__all__ = [
    "CoefficientRangeError", "ConfigError", "DATA", "ErrorTracker",
    "EvaluationError", "ExperimentConfig", "FieldP1", "FineLattice",
    "FracWeights", "GradedTimeMesh", "InitialDatum", "LatticeInterpolator",
    "LinearSolver", "MlfEvaluator", "RunResult", "SchemeState", "SeriesSolution", "SolverFailureError",
    "Stencil", "StructuredMesh", "TableResult",
    "assemble_mass", "assemble_stiffness", "build_mesh", "build_time_mesh",
    "cg_solve", "convergence_rates", "eval_grid",
    "fine_lattice", "frac_weights", "gamma",
    "l2_project", "load_vector", "make_series", "matvec",
    "run", "run_single",
    "run_table", "step", "weighted_errors",
]
