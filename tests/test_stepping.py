import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import subdiff.stepping as stepping
from subdiff.assembly import (FieldP1, assemble_mass, assemble_stiffness, l2_project,
                              load_vector)
from subdiff.exact import DATA
from subdiff.exceptions import EvaluationError
from subdiff.mesh import StructuredMesh
from subdiff.mittag_leffler import MlfEvaluator
from subdiff.sparse import LinearSolver, cg_solve, matvec
from subdiff.stepping import FracWeights, GradedTimeMesh, SchemeState, run, step

from oracles import (DensePencil, DiagonalPencil, add_scaled, heat_crank_nicolson_reference,
                     to_dense)


def test_zero_data_stays_zero():
    mesh = StructuredMesh(4)
    tm = GradedTimeMesh(20, 1.6, 0.5)
    u0 = FieldP1(mesh=mesh, values=np.zeros(mesh.n_interior))
    us = [u0.values]
    run(mesh, tm, 0.75, None, u0, observer=lambda n, t, u: us.append(u.values))
    assert all(np.max(np.abs(u)) == 0.0 for u in us)


def test_run_compares_the_field_mesh_by_value():
    tm = GradedTimeMesh(3, 1.6, 0.5)
    u0 = FieldP1(mesh=StructuredMesh(4), values=np.zeros(9))
    with pytest.raises(ValueError, match="attached to a different mesh"):
        run(StructuredMesh(8), tm, 0.75, None, u0)
    run(StructuredMesh(4), tm, 0.75, None, u0)  # an equal mesh built separately


def test_single_dof_first_step_closed_form():
    # M=2: mass = 1/8, stiffness = 4; step 1 solves (m + c11 s) u1 = m u0
    mesh = StructuredMesh(2)
    tm = GradedTimeMesh(1, 1.0, 0.5)
    alpha = 0.6
    mass = assemble_mass(mesh)
    stiff = assemble_stiffness(mesh)
    w = FracWeights(tm, alpha)
    state = SchemeState.start(np.array([0.3]), tm.N)
    u1 = step(state, 1, w.row(1)[0], np.zeros(1), LinearSolver(mass, shift=stiff))
    c11 = 0.5 ** alpha / math.gamma(1.0 + alpha)
    expected = 0.3 * (1.0 / 8.0) / (1.0 / 8.0 + c11 * 4.0)
    assert u1[0] == pytest.approx(expected, rel=1e-12)


def test_step_on_diagonal_pencil_matches_fe_run():
    """step needs only mass, stiffness and solve: on the M = 2 mesh (one dof,
    mass 1/8, stiffness 4) the FE run is the scalar recurrence with lam = 32."""
    mesh = StructuredMesh(2)
    N, alpha = 200, 0.75
    tm = GradedTimeMesh(N, 1.6, 0.5)
    fe = []
    run(mesh, tm, alpha, None, FieldP1(mesh=mesh, values=np.array([0.3])),
        observer=lambda n, t, u: fe.append(u.values[0]))
    w = FracWeights(tm, alpha)
    pencil = DiagonalPencil(np.array([32.0]))
    state = SchemeState.start(np.array([0.3]), N)
    for n in range(1, N + 1):
        c = w.increment_rows(n, n + 1)[0]
        u = step(state, n, c[n - 1], c[: n - 1] @ state.Z[: n - 1], pencil)
        assert abs(u[0] - fe[n - 1]) <= 1e-13 * abs(fe[n - 1]), f"step {n}"


def test_alpha_to_one_matches_crank_nicolson():
    """Uniform mesh, alpha -> 1: per-step agreement with an independent
    dense heat-equation stepper (implicit first step, midpoint after)."""
    M, N, T = 8, 50, 0.5
    mesh = StructuredMesh(M)
    tm = GradedTimeMesh(N, 1.0, T)
    u0 = l2_project(mesh, DATA["example1"].evaluate)
    recorded = np.empty((N, mesh.n_interior))

    def obs(n, t, u):
        recorded[n - 1] = u.values

    run(mesh, tm, 1.0 - 1e-12, None, u0, observer=obs)
    ref = heat_crank_nicolson_reference(M, u0.values, T / N, N)
    assert np.abs(recorded - ref).max() <= 1e-10


def test_stepper_matches_exact_semidiscrete_solution():
    """Modal oracle: for a = 1 the semidiscrete solution is
    sum_k c_k E_alpha(-lambda_h_k t^alpha) v_k over generalized eigenpairs,
    with no time discretization at all."""
    M, alpha, T, N = 8, 0.75, 0.5, 600
    mesh = StructuredMesh(M)
    Md = to_dense(assemble_mass(mesh))
    Sd = to_dense(assemble_stiffness(mesh))
    u0 = l2_project(mesh, DATA["example3"].evaluate)
    L = np.linalg.cholesky(Md)
    Linv = np.linalg.inv(L)
    lam_h, Q = np.linalg.eigh(Linv @ Sd @ Linv.T)
    c0 = Q.T @ (L.T @ u0.values)
    decay = MlfEvaluator(alpha)(lam_h * T ** alpha)
    u_exact_T = Linv.T @ (Q @ (c0 * decay))

    tm = GradedTimeMesh(N, 1.6, T)
    state = run(mesh, tm, alpha, None, u0)
    assert np.abs(state.us[-1] - u_exact_T).max() <= 5e-7


def test_observer_order_and_history_audit():
    mesh = StructuredMesh(4)
    tm = GradedTimeMesh(15, 1.3, 0.4)
    u0 = l2_project(mesh, DATA["example1"].evaluate)
    seen = []
    us = [u0.values]

    def obs(n, t, u):
        seen.append((n, t))
        us.append(u.values)

    state = run(mesh, tm, 0.5, None, u0, observer=obs)
    assert [n for n, _ in seen] == list(range(1, 16))
    assert np.allclose([t for _, t in seen], tm.t[1:])
    assert len(state.us) == 1 and np.array_equal(state.us[-1], us[-1])
    # Z[j-1] = S ubar_j: u^1 on the first interval, midpoint average after
    stiff = assemble_stiffness(mesh)
    worst = max(float(np.max(np.abs(
        state.Z[j - 1] - matvec(stiff, us[1] if j == 1 else 0.5 * (us[j] + us[j - 1])))))
        for j in range(1, state.n + 1))
    assert worst <= 1e-12


def test_step_index_enforced():
    mesh = StructuredMesh(2)
    tm = GradedTimeMesh(3, 1.0, 1.0)
    w = FracWeights(tm, 0.5)
    state = SchemeState.start(np.zeros(1), tm.N)
    with pytest.raises(ValueError):
        mass, stiff = assemble_mass(mesh), assemble_stiffness(mesh)
        c = w.increment_rows(2, 3)[0]
        step(state, 2, c[1], c[:1] @ state.Z[:1], LinearSolver(mass, shift=stiff))


@pytest.mark.parametrize("alpha", [0.5, 0.75])
@pytest.mark.parametrize("example", ["example1", "example3"])
def test_mass_norm_decays(example, alpha):
    mesh = StructuredMesh(8)
    Mm = assemble_mass(mesh)
    tm = GradedTimeMesh(80, 1.6, 0.5)
    u0 = l2_project(mesh, DATA[example].evaluate)
    norms = [float(u0.values @ matvec(Mm, u0.values))]
    run(mesh, tm, alpha, None, u0,
        observer=lambda n, t, u: norms.append(float(u.values @ matvec(Mm, u.values))))
    norms = np.array(norms)
    assert np.all(norms[1:] <= norms[:-1] * (1.0 + 1e-12))


def test_time_mesh_rejects_steps_that_underflow():
    # (n/N)^gamma underflows to 0 for every n < N: tau_1 = ... = tau_(N-1) = 0
    with pytest.raises(ValueError, match=r"N=10 and gamma=1000000.0 .*not positive"):
        GradedTimeMesh(10, 1e6, 0.5)
    # with T = 5e-324 every node rounds to 0 or T, so most steps are 0: the message names T
    with pytest.raises(ValueError, match=r"gamma=1.6 over T=5e-324 .*not positive.*raise T"):
        GradedTimeMesh(10, 1.6, 5e-324)
    tm = GradedTimeMesh(10, 200.0, 0.5)  # steps tiny but positive
    assert np.all(tm.tau > 0.0)


def test_run_with_load_reaches_steady_profile():
    # constant-in-time forcing drives the solution away from zero
    mesh = StructuredMesh(4)
    tm = GradedTimeMesh(30, 1.6, 0.5)
    u0 = FieldP1(mesh=mesh, values=np.zeros(mesh.n_interior))
    f = lambda x, y, t: np.ones_like(x)
    state = run(mesh, tm, 0.75, None, u0, f=f)
    assert np.max(state.us[-1]) > 0.0
    assert np.all(np.isfinite(state.us[-1]))


def _forced_variable_a_problem(M, N):
    mesh = StructuredMesh(M)
    tm = GradedTimeMesh(N, 1.6, 0.5)
    a = lambda x, y: 1.0 + 0.5 * np.sin(np.pi * x) * np.sin(np.pi * y)
    f = lambda x, y, t: np.cos(3.0 * t) * x * (1.0 - y) + t ** 0.25
    u0 = l2_project(mesh, DATA["example1"].evaluate)
    return mesh, tm, a, f, u0


def _direct_sum_run(mesh, tm, alpha, a, u0, f):
    """Oracle: the unblocked scheme, with a fresh solver for add_scaled(M, S, 1, s)
    every step and the whole history sum c_n[:n-1] @ Z[:n-1]."""
    mass = assemble_mass(mesh)
    stiff = assemble_stiffness(mesh, a)
    w = FracWeights(tm, alpha)
    us = [u0.values]
    Z = np.zeros((tm.N, mesh.n_interior))
    for n in range(1, tm.N + 1):
        c = w.increment_rows(n, n + 1)[0]
        theta = 1.0 if n == 1 else 0.5
        rhs = matvec(mass, us[-1])
        if n >= 2:
            rhs -= c[: n - 1] @ Z[: n - 1]
            rhs -= (1.0 - theta) * c[n - 1] * matvec(stiff, us[-1])
        t_mid = 0.5 * (tm.t[n - 1] + tm.t[n])
        rhs += tm.tau[n - 1] * load_vector(mesh, lambda x, y: f(x, y, t_mid))
        lhs = add_scaled(mass, stiff, 1.0, theta * c[n - 1])
        us.append(cg_solve(lhs, rhs, x0=us[-1])[0])
        Z[n - 1] = matvec(stiff, us[1] if n == 1 else 0.5 * (us[n] + us[n - 1]))
    return us


@pytest.mark.parametrize("N", [100, 400])
def test_run_matches_direct_sum_oracle(N):
    # N = 100 crosses three history blocks; N = 400 has 12, the sum of
    # exponentials taking the history from the third block on
    assert stepping.HISTORY_BLOCK < 100 // 3 and 2 * stepping.HISTORY_BLOCK < 400
    mesh, tm, a, f, u0 = _forced_variable_a_problem(8, N)
    ref = _direct_sum_run(mesh, tm, 0.75, a, u0, f)
    us = [u0.values]
    run(mesh, tm, 0.75, a, u0, f=f, observer=lambda n, t, u: us.append(u.values))
    for n in range(1, tm.N + 1):
        scale = np.abs(ref[n]).max()
        assert np.abs(us[n] - ref[n]).max() <= 1e-12 * scale, f"step {n}"


@pytest.mark.parametrize("N", [40, 400])
def test_history_is_a_ring_of_the_latest_vectors(N):
    mesh = StructuredMesh(4)
    tm = GradedTimeMesh(N, 1.6, 0.5)
    u0 = l2_project(mesh, DATA["example1"].evaluate)
    us = [u0.values]
    state = run(mesh, tm, 0.75, None, u0, observer=lambda n, t, u: us.append(u.values))
    rows = min(N, 2 * stepping.HISTORY_BLOCK)
    assert state.Z.shape == (rows, mesh.n_interior)
    stiff = assemble_stiffness(mesh)
    for j in range(N - rows + 1, N + 1):
        ubar = us[1] if j == 1 else 0.5 * (us[j] + us[j - 1])
        assert np.array_equal(state.Z[(j - 1) % rows], matvec(stiff, ubar)), f"Z_{j}"


def test_run_memory_does_not_grow_with_N():
    # the direct sum's history alone grew 4x from N = 400 to N = 1600; the
    # sum of exponentials adds 12 nodes per doubling of T / (t_2B - t_B).
    # Zero data keeps CG's allocations, which tracemalloc slows, out of it.
    mesh = StructuredMesh(8)
    u0 = FieldP1(mesh=mesh, values=np.zeros(mesh.n_interior))
    run(mesh, GradedTimeMesh(100, 1.6, 0.5), 0.75, None, u0)  # caches and lazy imports
    peaks = []
    for N in (400, 1600):
        tm = GradedTimeMesh(N, 1.6, 0.5)
        tracemalloc.start()
        try:
            run(mesh, tm, 0.75, None, u0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0], peaks


def test_sum_of_exponentials_is_built_when_block_2B_starts(monkeypatch):
    B = stepping.HISTORY_BLOCK
    real = stepping.soe_kernel
    built_at = []  # the state's step count when the nodes are built

    def recording(*args):
        built_at.append(state_n[-1])
        return real(*args)

    monkeypatch.setattr(stepping, "soe_kernel", recording)
    mesh = StructuredMesh(4)
    u0 = l2_project(mesh, DATA["example1"].evaluate)
    for N in (2 * B, 2 * B + 1, 5 * B):
        state_n = [0]
        built_at.clear()
        run(mesh, GradedTimeMesh(N, 1.6, 0.5), 0.75, None, u0,
            observer=lambda n, t, u: state_n.append(n))
        assert built_at == ([] if N <= 2 * B else [2 * B]), N


def test_run_with_far_history_leaves_numpy_polynomial_unimported():
    # soe_kernel's trapezoid rule needs neither numpy.polynomial nor an eigensolver
    code = ("import sys\n"
            "import numpy as np\n"
            "def eigh(*args, **kwargs):\n"
            "    raise AssertionError('numpy.linalg.eigh called')\n"
            "np.linalg.eigh = eigh\n"
            "from subdiff import FieldP1, GradedTimeMesh, StructuredMesh, run\n"
            "mesh = StructuredMesh(2)\n"
            "state = run(mesh, GradedTimeMesh(100, 1.6, 0.5), 0.75, None,\n"
            "            FieldP1(mesh=mesh, values=np.ones(1)))\n"
            "print(state.n, 'numpy.polynomial' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(stepping.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.split() == ["100", "False"]


def _step_loads(monkeypatch, f, M=4, N=40):
    """The load tau_n f_n each step of a forced run receives, and the time mesh.
    N = 40 ends in a partial history block, N = 45 in a partial forcing slice
    too."""
    mesh = StructuredMesh(M)
    tm = GradedTimeMesh(N, 1.6, 0.5)
    loads = []
    real = stepping.step

    def recording(state, n, c_nn, memory, pencil, load=None):
        loads.append(load)
        return real(state, n, c_nn, memory, pencil, load=load)

    monkeypatch.setattr(stepping, "step", recording)
    u0 = FieldP1(mesh=mesh, values=np.zeros(mesh.n_interior))
    run(mesh, tm, 0.75, None, u0, f=f)
    monkeypatch.undo()
    return mesh, tm, loads


@pytest.mark.parametrize("N", [40, 45])
def test_block_loads_match_per_step_load_vector(monkeypatch, N):
    # the time dependence adds t after the spatial factor, so sampling the
    # slice's column of times rounds exactly as one time at a time
    assert N % stepping.HISTORY_BLOCK != 0
    assert (N % stepping.FORCING_SLICE != 0) == (N == 45)
    f = lambda x, y, t: np.sin(np.pi * x) * y + t
    mesh, tm, loads = _step_loads(monkeypatch, f, N=N)
    assert len(loads) == N
    for n, load in enumerate(loads, start=1):
        t_mid = 0.5 * (tm.t[n - 1] + tm.t[n])
        expected = tm.tau[n - 1] * load_vector(mesh, lambda x, y: f(x, y, t_mid))
        assert np.array_equal(load, expected), f"step {n}"


def test_scalar_only_forcing_matches_vectorised_twin(monkeypatch):
    # math.* rejects arrays: f is evaluated point by point through np.vectorize
    f_scalar = lambda x, y, t: math.exp(x) * math.sin(3.0 * y) + math.cos(3.0 * t) * x
    f_vector = lambda x, y, t: np.exp(x) * np.sin(3.0 * y) + np.cos(3.0 * t) * x
    _, _, slow = _step_loads(monkeypatch, f_scalar)
    _, _, fast = _step_loads(monkeypatch, f_vector)
    assert len(slow) == len(fast) == 40
    for n, (a, b) in enumerate(zip(slow, fast), start=1):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), f"step {n}"


def test_non_finite_forcing_raises():
    # finite in the first block, nan at the last steps of the partial second one
    mesh = StructuredMesh(4)
    tm = GradedTimeMesh(40, 1.6, 0.5)
    u0 = FieldP1(mesh=mesh, values=np.zeros(mesh.n_interior))
    f = lambda x, y, t: np.where(t > tm.t[37], np.nan, 1.0) * x
    with pytest.raises(EvaluationError, match="non-finite"):
        run(mesh, tm, 0.75, None, u0, f=f)


def test_run_builds_one_solver(monkeypatch):
    built = []
    real = stepping.LinearSolver

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(stepping, "LinearSolver", counting)
    mesh, tm, a, f, u0 = _forced_variable_a_problem(4, 40)
    run(mesh, tm, 0.75, a, u0, f=f)
    assert len(built) == 1


def test_frac_weights_memory_is_linear_in_N():
    N = 200_000
    tm = GradedTimeMesh(N, 1.6, 0.5)
    tracemalloc.start()
    try:
        w = FracWeights(tm, 0.75)
        assert w.row(N).shape == (N,)
        assert w.increment_rows(N, N + 1)[0].shape == (N,)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a few length-N work vectors; the O(N^2) table would need 160 GB
    assert peak < 16 * N * 8


def test_solver_budget_table2(monkeypatch):
    # table2 at M = 4, 8, 16 three ways: CG at the default tol, CG at 1e-15,
    # and every pencil solve dense with the projection's CG at 1e-15. The
    # two converged runs differ by rounding only; the default tol's offset
    # is how far where Jacobi CG stops moves the printed E_mu
    from subdiff.benchmarks import PRESETS
    from subdiff.config import ExperimentConfig
    from subdiff.study import run_table
    cfg = ExperimentConfig().replace(**{**PRESETS["table2"], "M": [4, 8, 16]})

    def E_mu(tol):
        table = run_table(cfg.replace(tol=tol))
        return np.array([table.E[mu] for mu in table.mus])

    default = E_mu(cfg.tol)
    converged = E_mu(1e-15)
    monkeypatch.setattr(stepping, "LinearSolver", DensePencil)
    dense = E_mu(1e-15)
    off_converged = float(np.max(np.abs(converged - dense) / dense))
    off_default = float(np.max(np.abs(default - dense) / dense))
    print(f"[solver budget] E_mu relative to the dense run: CG tol 1e-15 "
          f"{off_converged:.2e}, CG tol {cfg.tol:g} {off_default:.2e}")
    assert off_converged <= 1e-12
    assert off_default <= 5e-10
