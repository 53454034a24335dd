import math
import re

import numpy as np
import pytest

from subdiff.assembly import FieldP1, assemble_mass, assemble_stiffness, l2_project, load_vector
from subdiff.exceptions import CoefficientRangeError
from subdiff.mesh import build_mesh
from subdiff.sparse import cg_solve, matvec

from oracles import (_locate_scalar, stencil_mass_dense, stencil_stiffness_dense, to_dense,
                     triangulation)


def test_mass_single_interior_entry():
    # six incident triangles, each contributing area/6 on the diagonal
    M = assemble_mass(build_mesh(2))
    assert np.allclose(to_dense(M), [[1.0 / 8.0]], rtol=1e-15, atol=0.0)


def test_mass_matches_stencil():
    # every interior entry: area on the diagonal, area/6 to the six neighbours
    for M in (2, 4, 8):
        Md = to_dense(assemble_mass(build_mesh(M)))
        assert np.allclose(Md, stencil_mass_dense(M), rtol=1e-15, atol=0.0), M


def test_mass_times_one_approximates_hat_integrals():
    mesh = build_mesh(6)
    Mi = assemble_mass(mesh)
    ones = np.ones(mesh.n_interior)
    hat_integrals = 6 * mesh.triangle_area / 3.0 * ones
    assert np.max(np.abs(matvec(Mi, ones) - hat_integrals)) <= 3 * mesh.triangle_area / 3


@pytest.mark.parametrize("M", [2, 3, 4, 5, 7, 8, 12])
def test_stiffness_stencil_exact(M):
    S = assemble_stiffness(build_mesh(M))
    assert np.array_equal(to_dense(S), stencil_stiffness_dense(M))


def test_stiffness_constant_coefficient_scales():
    mesh = build_mesh(6)
    S1 = to_dense(assemble_stiffness(mesh))
    Sc = to_dense(assemble_stiffness(mesh, lambda x, y: 2.5))
    assert np.max(np.abs(Sc - 2.5 * S1)) <= 1e-14 * np.abs(Sc).max()


def test_stiffness_linearity_in_coefficient():
    mesh = build_mesh(8)
    a1 = lambda x, y: 1.0 + x * y
    a2 = lambda x, y: 2.0 + np.sin(np.pi * x)
    S12 = to_dense(assemble_stiffness(mesh, lambda x, y: a1(x, y) + a2(x, y)))
    Ssum = to_dense(assemble_stiffness(mesh, a1)) + to_dense(assemble_stiffness(mesh, a2))
    assert np.max(np.abs(S12 - Ssum)) <= 1e-13 * np.abs(S12).max()


def test_matrices_symmetric_and_positive_definite():
    mesh = build_mesh(8)
    Mi = assemble_mass(mesh)
    S = assemble_stiffness(mesh, lambda x, y: 1.0 + 0.5 * x)
    for A in (Mi, S, assemble_stiffness(mesh)):
        D = to_dense(A)
        assert np.array_equal(D, D.T)
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.standard_normal(mesh.n_interior)
        assert x @ matvec(Mi, x) > 0.0
        assert x @ matvec(S, x) > 0.0


def test_stiffness_rejects_bad_coefficient():
    mesh = build_mesh(4)
    tri = triangulation(4)
    x0, y0 = map(float, tri.nodes[tri.triangles[0]].mean(axis=0))  # the first bad triangle
    msg = f"got {x0 - 0.5!r} at centroid ({x0!r}, {y0!r})"
    assert msg == "got -0.33333333333333337 at centroid (0.16666666666666666, 0.08333333333333333)"
    with pytest.raises(CoefficientRangeError, match=re.escape(msg)):
        assemble_stiffness(mesh, lambda x, y: x - 0.5)  # nonpositive samples
    with pytest.raises(CoefficientRangeError):
        assemble_stiffness(mesh, lambda x, y: np.full_like(x, np.nan))


def test_stiffness_rejects_a_leading_axis():
    # a load may carry a batch axis; a diffusivity gives one value per centroid
    msg = "diffusivity must give one value per centroid, shape (32,); got shape (2, 32)"
    with pytest.raises(ValueError, match=re.escape(msg)):
        assemble_stiffness(build_mesh(4), lambda x, y: np.stack([1 + x, 1 + y]))


def _triangle_midpoints(mesh):
    """(ntri, 3, 2) midpoints of each triangle's edges v0v1, v1v2, v2v0."""
    tri = triangulation(mesh.M)
    P = tri.nodes[tri.triangles]
    return 0.5 * (P + np.roll(P, -1, axis=1))


def _scatter_add_at(mesh, contrib):
    out = np.zeros(mesh.n_interior)
    tri = triangulation(mesh.M)
    dof = tri.interior_index[tri.triangles]
    np.add.at(out, dof[dof >= 0], contrib[dof >= 0])
    return out


def _load_reference(mesh, gv):
    """The einsum rule on (ntri, 3) midpoint values, scattered with add.at."""
    phi_mid = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    return _scatter_add_at(mesh, mesh.triangle_area / 3.0 * np.einsum("tq,qi->ti", gv, phi_mid))


def test_load_vector_bitwise_matches_add_at_reference():
    """The closed-form load reproduces g at every triangle's own midpoints,
    the einsum rule and the direct scatter, bit for bit."""
    g = lambda x, y: np.exp(x) * np.sin(3.0 * y) + x * y
    # math.* rejects arrays, so this g takes the np.vectorize fallback
    g_scalar = lambda x, y: math.exp(x) * math.sin(3.0 * y) + x * y
    # a block of forcing rows: (B, 1) times broadcast against the points
    f = lambda x, y, t: np.cos(np.pi * t) * np.sin(np.pi * x) * y + t * x
    t = np.linspace(0.0, 0.5, 7)[:, None]
    for M in (2, 3, 5, 16, 32, 64):
        mesh = build_mesh(M)
        mids = _triangle_midpoints(mesh)
        x, y = mids[..., 0], mids[..., 1]
        for fn, gv in ((g, g(x, y)), (g_scalar, np.vectorize(g_scalar)(x, y)),
                       (lambda x, y: 0.3, np.full(x.shape, 0.3))):  # a Python scalar
            assert np.array_equal(load_vector(mesh, fn), _load_reference(mesh, gv)), M
        block = load_vector(mesh, lambda x, y: f(x, y, t))
        assert block.shape == (7, mesh.n_interior)
        for row, tb in zip(block, t[:, 0]):
            assert np.array_equal(row, _load_reference(mesh, f(x, y, tb))), M


def test_load_vector_degree2_exact():
    """Edge-midpoint rule integrates g * phi_i exactly for linear g."""
    mesh = build_mesh(4)
    b = load_vector(mesh, lambda x, y: 1.0 + 2.0 * x - y)
    # oracle: 6-point degree-4 rule per triangle
    a1, b1 = 0.816847572980459, 0.091576213509771
    a2, b2 = 0.108103018168070, 0.445948490915965
    pts = np.array([[a1, b1, b1], [b1, a1, b1], [b1, b1, a1],
                    [a2, b2, b2], [b2, a2, b2], [b2, b2, a2]])
    w = np.array([0.109951743655322] * 3 + [0.223381589678011] * 3)
    ref = np.zeros(mesh.n_interior)
    nodes, triangles, interior_index = triangulation(4)
    for tri in triangles:
        P = nodes[tri]
        q = pts @ P
        g = 1.0 + 2.0 * q[:, 0] - q[:, 1]
        for k, node in enumerate(tri):
            dof = interior_index[node]
            if dof >= 0:
                ref[dof] += mesh.triangle_area * np.sum(w * pts[:, k] * g)
    assert np.max(np.abs(b - ref)) <= 1e-15


def test_field_stores_a_read_only_float_copy():
    mesh = build_mesh(4)
    v = np.zeros(9)
    field = FieldP1(mesh, v)
    v[0] = 1.0  # the caller's array stays writable and does not alias the field
    assert field.values[0] == 0.0
    with pytest.raises(ValueError, match="read-only"):
        field.values[0] = 1.0
    field = FieldP1(mesh, [1, 2, 3, 4, 5, 6, 7, 8, 9])
    assert field.values.dtype == float and field.values[8] == 9.0
    with pytest.raises(ValueError, match="interior node count"):
        FieldP1(mesh, np.zeros(8))


def test_l2_project_reproduces_hat():
    mesh = build_mesh(5)
    coeffs = np.zeros(mesh.n_interior)
    coeffs[7] = 1.0
    hat = FieldP1(mesh=mesh, values=coeffs)
    nodes, triangles, interior_index = triangulation(5)
    full = np.zeros(nodes.shape[0])
    full[interior_index >= 0] = hat.values

    def hat_fn(x, y):
        # P1 interpolation of the stored nodal values
        out = np.zeros_like(np.asarray(x, dtype=float))
        flat_x = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
        flat_y = np.atleast_1d(np.asarray(y, dtype=float)).ravel()
        vals = np.empty_like(flat_x)
        for i in range(flat_x.size):
            tri, lam = _locate_scalar(mesh.M, flat_x[i], flat_y[i])
            vals[i] = np.dot(lam, full[triangles[tri]])
        return vals.reshape(np.shape(out))

    proj = l2_project(mesh, hat_fn)
    assert np.max(np.abs(proj.values - coeffs)) <= 1e-10


def test_l2_project_close_to_interpolant():
    mesh = build_mesh(16)
    g = lambda x, y: x * y * (1 - x) * (1 - y)
    proj = l2_project(mesh, g)
    tri = triangulation(16)
    coords = tri.nodes[tri.interior_index >= 0]
    interp = g(coords[:, 0], coords[:, 1])
    h = 1.0 / 16
    assert np.max(np.abs(proj.values - interp)) <= h * h


def test_l2_project_constant_center_value():
    # projecting 1: boundary-layer oscillations decay toward the center
    mesh = build_mesh(8)
    proj = l2_project(mesh, lambda x, y: np.ones_like(x))
    # node (ix, iy) of the 9 x 9 lattice is dof (iy - 1) * 7 + ix - 1
    center = proj.values[3 * 7 + 3]
    assert abs(center - 1.0) < 0.05
    edge_adjacent = proj.values[3 * 7 + 0]
    assert abs(edge_adjacent - 1.0) > abs(center - 1.0)


def test_ritz_projection_is_identity_on_members():
    """Galerkin reproduction: with the member's own energy load, the
    projection returns the member coefficients."""
    mesh = build_mesh(5)
    S = assemble_stiffness(mesh)
    coeffs = np.linspace(0.1, 1.0, mesh.n_interior)
    b = matvec(S, coeffs)  # A(g, phi_i) for g in the P1 space
    recovered, _ = cg_solve(S, b)
    assert np.max(np.abs(recovered - coeffs)) <= 1e-10
