import math

import numpy as np
import pytest

import subdiff.sparse as sparse
from subdiff.assembly import _STIFFNESS, assemble_mass, assemble_stiffness
from subdiff.exceptions import SolverFailureError
from subdiff.mesh import build_mesh
from subdiff.sparse import LinearSolver, Stencil, cg_solve, matvec

from oracles import add_scaled, coo_reference, to_csr, to_dense, triangulation

# Lattice offsets (di, dj) of a row's 7 slots: SW, S, W, C, E, N, NE.
SLOTS = ((-1, -1), (0, -1), (-1, 0), (0, 0), (1, 0), (0, 1), (1, 1))


def stencil(C, E=0.0, N=0.0, NE=0.0):
    """The stencil with (m, m) center couplings C; E, N and NE broadcast to C."""
    C = np.asarray(C, dtype=float)
    return Stencil(np.stack([np.broadcast_to(v, C.shape) for v in (C, E, N, NE)]))


def identity(m):
    return stencil(np.ones((m, m)))


def spd_solve(A, b, **kwargs):
    """Jacobi CG on the one SPD matrix A."""
    return cg_solve(A, b, **kwargs)[0]


def self_pencil(A):
    """The solver of A + s A; at s = 0 it applies A and A's center exactly."""
    return LinearSolver(A, shift=A)


def fe_pencil(M, s, a=None):
    """mass + s * stiffness on the mesh with M subdivisions, and its dense form."""
    mesh = build_mesh(M)
    A = add_scaled(assemble_mass(mesh), assemble_stiffness(mesh, a), 1.0, s)
    return A, to_dense(A)


def test_matvec_zero_and_identity():
    I = identity(2)
    x = np.array([3.0, -1.0, 2.0, 5.0])
    assert np.array_equal(matvec(I, np.zeros(4)), np.zeros(4))
    assert np.array_equal(matvec(I, x), x)


def _row_loop_matvec(A, x):
    """y = A x one row at a time: the products of the 7 slots SW, S, W, C, E,
    N, NE added from left to right, a slot's coupling being its own for C, E,
    N and NE and its neighbour's E, N or NE coupling for W, S and SW, and a
    slot whose neighbour is a boundary vertex adding 0 times the row's value."""
    m = A.coef.shape[1]
    X = x.reshape(m, m)
    own = dict(zip(((0, 0), (1, 0), (0, 1), (1, 1)), A.coef))
    y = np.empty((m, m))
    for j in range(m):
        for i in range(m):
            terms = []
            for di, dj in SLOTS:
                jj, ii = j + dj, i + di
                if not (0 <= jj < m and 0 <= ii < m):
                    terms.append(0.0 * X[j, i])
                elif (di, dj) in own:
                    terms.append(own[di, dj][j, i] * X[jj, ii])
                else:
                    terms.append(own[-di, -dj][jj, ii] * X[jj, ii])
            total = terms[0]
            for t in terms[1:]:
                total = total + t
            y[j, i] = total
    return y.ravel()


def test_matvec_bitwise_matches_row_loop_on_fe_matrices():
    # up to M = 64, where the (9, n) product buffer is past glibc's 128 KiB
    # mmap threshold; the second vector is large, of both signs, in the
    # columns i = 0 and i = m - 1 that the zero W and E couplings read
    # across a row's end
    rng = np.random.default_rng(11)
    a = lambda x, y: 1.0 + 0.5 * np.sin(np.pi * x) * np.sin(np.pi * y)
    for M in range(2, 65):
        mesh = build_mesh(M)
        mass = assemble_mass(mesh)
        stiff = assemble_stiffness(mesh, a)
        pencil = add_scaled(mass, stiff, 1.0, 0.0123)
        edges = rng.standard_normal((M - 1, M - 1))
        edges[:, [0, -1]] = rng.choice([-1e200, 1e200], size=(M - 1, 2))
        for A in (mass, stiff, pencil):
            for x in (rng.standard_normal(A.n), edges.ravel()):
                assert np.array_equal(matvec(A, x), _row_loop_matvec(A, x)), M


@pytest.mark.parametrize("M", [*range(2, 65), 128])
def test_assembly_bitwise_matches_coo_csr_reference(M):
    mesh = build_mesh(M)
    area = mesh.triangle_area
    tri = triangulation(M)
    ntri = tri.triangles.shape[0]
    cent = tri.nodes[tri.triangles].mean(axis=1)
    a = lambda x, y: 1.0 + 0.5 * np.sin(np.pi * x) * np.sin(np.pi * y) + x * y
    # math.* rejects arrays, so this a takes the np.vectorize fallback
    a_scalar = lambda x, y: 1.0 + math.exp(-x) * math.cos(y)
    cases = [
        (assemble_mass(mesh), np.broadcast_to(area / 12.0 * (np.ones((3, 3)) + np.eye(3)),
                                              (ntri, 3, 3))),
        (assemble_stiffness(mesh), np.ones((ntri // 2, 2, 1, 1)) * _STIFFNESS),
        (assemble_stiffness(mesh, a),
         a(cent[:, 0], cent[:, 1]).reshape(-1, 2, 1, 1) * _STIFFNESS),
        (assemble_stiffness(mesh, a_scalar),
         np.vectorize(a_scalar)(cent[:, 0], cent[:, 1]).reshape(-1, 2, 1, 1) * _STIFFNESS),
    ]
    for A, local in cases:
        # compared as CSR triplets: a dense matrix at M = 128 takes 2 GB
        for got, want in zip(to_csr(A), coo_reference(mesh, local)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_matvec_dimension_mismatch():
    with pytest.raises(ValueError):
        matvec(identity(2), np.ones(5))
    for shape in ((3, 2, 2), (4, 2, 3), (4, 4), (1, 4, 2, 2)):
        with pytest.raises(ValueError, match=r"coef must be a \(4, m, m\) array"):
            Stencil(np.ones(shape))


def test_solver_diagonal():
    A = stencil([[2.0, 4.0], [8.0, 16.0]])
    x = spd_solve(A, np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(x, [0.5, 0.0, 0.0, 0.0], atol=1e-14)


def test_solver_single_dof_stiffness():
    # M=2 has one interior node; unit-coefficient stiffness entry is 4
    S = assemble_stiffness(build_mesh(2))
    assert np.allclose(to_dense(S), [[4.0]])
    x = spd_solve(S, np.array([1.0]))
    assert x == pytest.approx([0.25])


def test_solver_fe_pencil_residual():
    rng = np.random.default_rng(1)
    for s in (0.0, 0.003, 0.5):
        A, Ad = fe_pencil(8, s, lambda x, y: 1.0 + x * y)
        b = rng.standard_normal(A.n)
        x = spd_solve(A, b)
        assert np.linalg.norm(Ad @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_solver_roundtrip():
    rng = np.random.default_rng(2)
    A, Ad = fe_pencil(12, 0.01)
    x_true = rng.standard_normal(A.n)
    x = spd_solve(A, Ad @ x_true)
    assert np.linalg.norm(x - x_true) <= 1e-10 * np.linalg.norm(x_true)


def test_solver_rejects_nonfinite_rhs():
    with pytest.raises(ValueError):
        self_pencil(identity(2)).solve(np.array([1.0, np.nan, 0.0, 0.0]))


@pytest.mark.parametrize("shape", [(8,), (), (10,)])
def test_solver_rejects_x0_of_wrong_shape(shape):
    solver = self_pencil(assemble_mass(build_mesh(4)))
    with pytest.raises(ValueError, match="x0 length does not match matrix dimension"):
        solver.solve(np.ones(9), x0=np.zeros(shape))


def test_solver_failure_carries_residual():
    rng = np.random.default_rng(3)
    A, _ = fe_pencil(8, 0.5)
    with pytest.raises(SolverFailureError) as info:
        cg_solve(A, rng.standard_normal(A.n), max_iter=2)
    assert 0.0 < info.value.residual


@pytest.mark.parametrize("value", [1e160, 1e-170])
def test_solver_rejects_unrepresentable_rhs_norm(value):
    # ||b||^2 overflows to inf or underflows to 0 for a finite, nonzero b
    solver = self_pencil(assemble_mass(build_mesh(4)))
    with pytest.raises(SolverFailureError, match="norm of b is not finite"):
        solver.solve(np.full(9, value))
    assert np.array_equal(solver.solve(np.zeros(9)), np.zeros(9))


def test_cg_raises_at_first_nonfinite_residual():
    # the max_iter failure would come 10 n + 1000 iterations later, with another message
    A = assemble_mass(build_mesh(4))
    with pytest.raises(SolverFailureError,
                       match="residual norm is not finite at iteration 0") as info:
        cg_solve(Stencil(np.full_like(A.coef, np.nan)), np.ones(A.n))
    assert math.isnan(info.value.residual)


def test_cg_residual_monotone_on_fe_system():
    mesh = build_mesh(16)
    A = add_scaled(assemble_mass(mesh), assemble_stiffness(mesh), 1.0, 0.003)
    rng = np.random.default_rng(4)
    for _ in range(5):
        _, res = cg_solve(A, rng.standard_normal(A.n))
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
        fresh = spd_solve(add_scaled(M, S, 1.0, s), b, x0=x0)
        assert np.array_equal(pencil.solve(b, x0=x0, s=s), fresh)


def test_pencil_solve_forms_no_fresh_stencil(monkeypatch):
    # one cg_solve on the summed slots, whose iterates are those of the fresh stencil
    mesh = build_mesh(8)
    M, S = assemble_mass(mesh), assemble_stiffness(mesh, lambda x, y: 1.0 + x * y)
    pencil = LinearSolver(M, shift=S)
    rng = np.random.default_rng(9)
    cases = [(s, rng.standard_normal(M.n), rng.standard_normal(M.n)) for s in (0.0, 1e-4, 0.37)]
    calls, built = [], []
    real_cg, real_init = sparse.cg_solve, Stencil.__post_init__

    def recording_cg(A, b, **kwargs):
        calls.append((A, real_cg(A, b, **kwargs)))
        return calls[-1][1]

    def counting_init(self):
        built.append(1)
        real_init(self)

    monkeypatch.setattr(sparse, "cg_solve", recording_cg)
    monkeypatch.setattr(Stencil, "__post_init__", counting_init)
    xs = [pencil.solve(b, x0=x0, s=s) for s, b, x0 in cases]
    monkeypatch.undo()
    assert not built and len(calls) == len(cases)
    for (s, b, x0), x, (A, (x_seen, residuals)) in zip(cases, xs, calls):
        fresh = Stencil(M.coef + s * S.coef)
        assert np.array_equal(A._taps, fresh._taps) and np.array_equal(A.coef, fresh.coef)
        x_ref, residuals_ref = cg_solve(fresh, b, x0=x0)
        assert x is x_seen and np.array_equal(x, x_ref) and residuals == residuals_ref


def test_cg_solve_on_ell_pair_matches_matrix():
    mesh = build_mesh(8)
    A = add_scaled(assemble_mass(mesh), assemble_stiffness(mesh), 1.0, 0.01)
    b = np.random.default_rng(8).standard_normal(A.n)
    x, res = cg_solve(A, b)
    assert np.array_equal(x, self_pencil(A).solve(b))
    assert np.linalg.norm(matvec(A, x) - b) <= 1e-12 * np.linalg.norm(b)
    assert res[-1] <= 1e-12 * np.linalg.norm(b)
    with pytest.raises(ValueError):
        cg_solve(A, np.ones(A.n + 1))


def test_shifted_solver_validation():
    # the shift is checked as the matrix is
    with pytest.raises(ValueError, match="matrix is not SPD"):
        LinearSolver(identity(2), shift=stencil(np.zeros((2, 2))))


def test_solver_is_the_pencil_only():
    # a single SPD matrix is solved by cg_solve; the solver needs its shift
    with pytest.raises(TypeError, match="shift"):
        LinearSolver(identity(2))


def test_cg_matches_dense_solve():
    mesh = build_mesh(6)
    A = assemble_stiffness(mesh)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(A.n)
    x_cg = spd_solve(A, b)
    x_dense = np.linalg.solve(to_dense(A), b)
    assert np.max(np.abs(x_cg - x_dense)) <= 1e-10


def test_warm_start_converges_fast():
    mesh = build_mesh(16)
    A = add_scaled(assemble_mass(mesh), assemble_stiffness(mesh), 1.0, 0.003)
    rng = np.random.default_rng(6)
    b = rng.standard_normal(A.n)
    x, res_cold = cg_solve(A, b)
    _, res_warm = cg_solve(A, b, x0=x + 1e-8 * rng.standard_normal(A.n))
    assert len(res_warm) < len(res_cold)



def test_cg_restarts_after_residual_replacement():
    # at rtol 1e-15 the recursive residual passes before the true one; CG that
    # kept its old direction after replacing r drifted to 1e-5 in 10,610 iterations
    A, _ = fe_pencil(32, 0.1)
    b = np.random.default_rng(0).standard_normal(A.n)
    try:
        x = spd_solve(A, b, rtol=1e-15)
    except SolverFailureError as exc:  # a stop at the rounding floor is an honest answer
        assert "stalled" in str(exc) and exc.residual <= 1e-12
    else:
        assert np.linalg.norm(matvec(A, x) - b) <= 1e-15 * np.linalg.norm(b)


def test_cg_stops_when_replacements_stall():
    A, _ = fe_pencil(16, 0.1)
    b = np.random.default_rng(1).standard_normal(A.n)
    with pytest.raises(SolverFailureError, match="CG stalled at relative residual") as info:
        cg_solve(A, b, rtol=1e-20)
    assert 0.0 < info.value.residual <= 1e-12


def test_solver_rejects_matrix_that_cannot_be_spd():
    ones = np.ones((2, 2))
    for A in (stencil([[1.0, 0.0], [1.0, 1.0]]), stencil([[1.0, -2.0], [1.0, 1.0]]),
              stencil([[1.0, np.inf], [1.0, 1.0]]), stencil([[np.nan, 1.0], [1.0, 1.0]]),
              stencil(ones, E=np.inf), stencil(ones, NE=np.nan)):   # off the center
        with pytest.raises(ValueError, match="matrix is not SPD"):
            self_pencil(A)
