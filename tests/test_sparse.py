import math

import numpy as np
import pytest

from subdiff.assembly import assemble_mass, assemble_stiffness
from subdiff.exceptions import SolverFailureError
from subdiff.mesh import build_mesh
from subdiff.sparse import LinearSolver, cg_solve, csr_from_coo, matvec

from oracles import add_scaled, interpolation_matrix, to_dense


def random_spd(n, rng):
    B = rng.standard_normal((n, n))
    A = B @ B.T + n * np.eye(n)
    rows, cols = np.nonzero(A)
    return csr_from_coo(n, rows, cols, A[rows, cols]), A


def test_csr_from_coo_sums_duplicates():
    A = csr_from_coo(2, [0, 0, 1, 0], [0, 1, 1, 0], [1.0, 2.0, 3.0, 4.0])
    assert np.allclose(to_dense(A), [[5.0, 2.0], [0.0, 3.0]])


def test_matvec_zero_and_identity():
    I = csr_from_coo(3, [0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0])
    x = np.array([3.0, -1.0, 2.0])
    assert np.array_equal(matvec(I, np.zeros(3)), np.zeros(3))
    assert np.array_equal(matvec(I, x), x)


def test_matvec_matches_dense():
    # random patterns; rows of 9 or more entries sum in another order than
    # the CSR reduceat did, so these compare with the dense product
    rng = np.random.default_rng(0)
    longest = 0
    for n, cut in ((20, 0.7), (20, 0.3), (60, 1.0), (200, 1.8), (1, 0.0)):
        B = rng.standard_normal((n, n))
        B[np.abs(B) < cut] = 0.0
        np.fill_diagonal(B, 1.0)
        rows, cols = np.nonzero(B)
        A = csr_from_coo(n, rows, cols, B[rows, cols])
        longest = max(longest, int(np.diff(A.indptr).max()))
        x = rng.standard_normal(n)
        assert np.max(np.abs(matvec(A, x) - B @ x)) <= 1e-13
    assert longest >= 9


def _reduceat_matvec(A, x):
    """The CSR product: each row's products summed by np.add.reduceat."""
    return np.add.reduceat(A.data * x[A.indices], A.indptr[:-1])


def test_matvec_bitwise_matches_reduceat_on_fe_matrices():
    rng = np.random.default_rng(11)
    a = lambda x, y: 1.0 + 0.5 * np.sin(np.pi * x) * np.sin(np.pi * y)
    for M in range(2, 65):
        mesh = build_mesh(M)
        mass = assemble_mass(mesh)
        stiff = assemble_stiffness(mesh, a)
        pencil = add_scaled(mass, stiff, 1.0, 0.0123)
        for A in (mass, stiff, pencil):
            x = rng.standard_normal(A.n)
            assert np.array_equal(matvec(A, x), _reduceat_matvec(A, x)), M


def test_matvec_bitwise_matches_reduceat_on_interpolator():
    rng = np.random.default_rng(12)
    for M in (3, 4, 32):
        P = interpolation_matrix(build_mesh(M), 128)
        x = rng.standard_normal(P.n)
        assert np.array_equal(matvec(P, x), _reduceat_matvec(P, x))


def test_ell_form_layout():
    A = csr_from_coo(3, [0, 0, 0, 1, 2, 2], [0, 1, 2, 1, 0, 2],
                     [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    E, J = A.ell
    assert np.array_equal(E, [[1.0, 4.0, 5.0], [2.0, 0.0, 6.0], [3.0, 0.0, 0.0]])
    assert np.array_equal(J, [[0, 1, 0], [1, 1, 2], [2, 1, 0]])  # padding reads the row's own columns
    assert A.ell is A.ell


def test_matvec_dimension_mismatch():
    I = csr_from_coo(3, [0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        matvec(I, np.ones(4))


def test_add_scaled_requires_same_pattern():
    A = csr_from_coo(2, [0, 1], [0, 1], [1.0, 1.0])
    B = csr_from_coo(2, [0, 1, 1], [0, 0, 1], [1.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        add_scaled(A, B, 1.0, 1.0)
    C = add_scaled(A, A, 2.0, 3.0)
    assert np.allclose(to_dense(C), 5.0 * np.eye(2))


def test_solver_diagonal():
    A = csr_from_coo(3, [0, 1, 2], [0, 1, 2], [2.0, 4.0, 8.0])
    x = LinearSolver(A).solve(np.array([1.0, 0.0, 0.0]))
    assert np.allclose(x, [0.5, 0.0, 0.0], atol=1e-14)


def test_solver_single_dof_stiffness():
    # M=2 has one interior node; unit-coefficient stiffness entry is 4
    S = assemble_stiffness(build_mesh(2))
    assert np.allclose(to_dense(S), [[4.0]])
    x = LinearSolver(S).solve(np.array([1.0]))
    assert x == pytest.approx([0.25])


def test_solver_random_spd_residual():
    rng = np.random.default_rng(1)
    A, Ad = random_spd(50, rng)
    b = rng.standard_normal(50)
    x = LinearSolver(A).solve(b)
    assert np.linalg.norm(Ad @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_solver_roundtrip():
    rng = np.random.default_rng(2)
    A, Ad = random_spd(40, rng)
    x_true = rng.standard_normal(40)
    x = LinearSolver(A).solve(Ad @ x_true)
    assert np.linalg.norm(x - x_true) <= 1e-10 * np.linalg.norm(x_true)


def test_solver_rejects_nonsymmetric():
    A = csr_from_coo(2, [0, 0, 1], [0, 1, 1], [1.0, 0.5, 1.0])  # pattern not symmetric
    B = csr_from_coo(2, [0, 0, 1, 1], [0, 1, 0, 1], [1.0, 0.5, 0.4, 1.0])
    for C in (A, B):
        with pytest.raises(ValueError):
            LinearSolver(C)


def test_solver_rejects_nonfinite_rhs():
    A = csr_from_coo(2, [0, 1], [0, 1], [1.0, 1.0])
    with pytest.raises(ValueError):
        LinearSolver(A).solve(np.array([1.0, np.nan]))


def test_solver_failure_carries_residual():
    rng = np.random.default_rng(3)
    A, _ = random_spd(50, rng)
    with pytest.raises(SolverFailureError) as info:
        cg_solve(A.ell, rng.standard_normal(50), 1.0 / A.diagonal(), max_iter=2)
    assert 0.0 < info.value.residual


@pytest.mark.parametrize("value", [1e160, 1e-170])
def test_solver_rejects_unrepresentable_rhs_norm(value):
    # ||b||^2 overflows to inf or underflows to 0 for a finite, nonzero b
    solver = LinearSolver(assemble_mass(build_mesh(4)))
    with pytest.raises(SolverFailureError, match="norm of b is not finite"):
        solver.solve(np.full(9, value))
    assert np.array_equal(solver.solve(np.zeros(9)), np.zeros(9))


def test_cg_raises_at_first_nonfinite_residual():
    # the max_iter failure would come 10^4 iterations later, with another message
    A = assemble_mass(build_mesh(4))
    E, J = A.ell
    with pytest.raises(SolverFailureError,
                       match="residual norm is not finite at iteration 0") as info:
        cg_solve((np.full_like(E, np.nan), J), np.ones(A.n), 1.0 / A.diagonal())
    assert math.isnan(info.value.residual)


def test_cg_residual_monotone_on_fe_system():
    mesh = build_mesh(16)
    A = add_scaled(assemble_mass(mesh), assemble_stiffness(mesh), 1.0, 0.003)
    rng = np.random.default_rng(4)
    for _ in range(5):
        _, res = cg_solve(A.ell, rng.standard_normal(A.n), 1.0 / A.diagonal())
        r = np.array(res)
        assert np.all(r[1:] <= r[:-1] * (1.0 + 1e-12))


def test_shifted_solver_matches_add_scaled_bitwise():
    mesh = build_mesh(8)
    M, S = assemble_mass(mesh), assemble_stiffness(mesh, lambda x, y: 1.0 + x * y)
    pencil = LinearSolver(M, shift=S)
    rng = np.random.default_rng(7)
    for s in (0.0, 1e-4, 0.37):
        b = rng.standard_normal(M.n)
        x0 = rng.standard_normal(M.n)
        fresh = LinearSolver(add_scaled(M, S, 1.0, s))
        assert np.array_equal(pencil.solve(b, x0=x0, s=s), fresh.solve(b, x0=x0))


def test_cg_solve_on_ell_pair_matches_matrix():
    mesh = build_mesh(8)
    A = add_scaled(assemble_mass(mesh), assemble_stiffness(mesh), 1.0, 0.01)
    b = np.random.default_rng(8).standard_normal(A.n)
    x, res = cg_solve(A.ell, b, 1.0 / A.diagonal())
    assert np.array_equal(x, LinearSolver(A).solve(b))
    assert np.linalg.norm(matvec(A, x) - b) <= 1e-12 * np.linalg.norm(b)
    assert res[-1] <= 1e-12 * np.linalg.norm(b)
    with pytest.raises(ValueError):
        cg_solve(A.ell, np.ones(A.n + 1), 1.0 / A.diagonal())


def test_shifted_solver_validation():
    A = csr_from_coo(2, [0, 1], [0, 1], [1.0, 1.0])
    B = csr_from_coo(2, [0, 0, 1, 1], [0, 1, 0, 1], [2.0, 1.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        LinearSolver(A, shift=B)                  # pattern differs
    with pytest.raises(ValueError):
        LinearSolver(A).solve(np.ones(2), s=1.0)  # no shift to scale


def test_cg_matches_dense_solve():
    mesh = build_mesh(6)
    A = assemble_stiffness(mesh)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(A.n)
    x_cg = LinearSolver(A).solve(b)
    x_dense = np.linalg.solve(to_dense(A), b)
    assert np.max(np.abs(x_cg - x_dense)) <= 1e-10


def test_warm_start_converges_fast():
    mesh = build_mesh(16)
    A = add_scaled(assemble_mass(mesh), assemble_stiffness(mesh), 1.0, 0.003)
    rng = np.random.default_rng(6)
    b = rng.standard_normal(A.n)
    dinv = 1.0 / A.diagonal()
    x, res_cold = cg_solve(A.ell, b, dinv)
    _, res_warm = cg_solve(A.ell, b, dinv, x0=x + 1e-8 * rng.standard_normal(A.n))
    assert len(res_warm) < len(res_cold)

