from fractions import Fraction

import numpy as np
import pytest

from subdiff.exceptions import OutOfDomainError
from subdiff.mesh import build_mesh, locate_points


def test_counts_M2():
    mesh = build_mesh(2)
    assert mesh.triangles.shape[0] == 8
    assert mesh.nodes.shape[0] == 9
    assert mesh.n_interior == 1
    (interior,) = mesh.nodes[~mesh.boundary_mask]
    assert tuple(interior) == (0.5, 0.5)


def test_counts_M8():
    mesh = build_mesh(8)
    assert mesh.triangles.shape[0] == 128
    assert mesh.nodes.shape[0] == 81
    assert mesh.n_interior == 49


@pytest.mark.parametrize("M", [2, 3, 8, 64])
def test_triangle_areas_exact(M):
    """Signed areas, in exact rational arithmetic, are all 1/(2 M^2)."""
    mesh = build_mesh(M)
    target = Fraction(1, 2 * M * M)
    total = Fraction(0)
    for tri in mesh.triangles:
        pts = []
        for node in tri:
            ix = node % (M + 1)
            iy = node // (M + 1)
            pts.append((Fraction(int(ix), M), Fraction(int(iy), M)))
        (x0, y0), (x1, y1), (x2, y2) = pts
        area = Fraction(1, 2) * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
        assert area == target  # positive orientation included
        total += area
    assert total == 1


@pytest.mark.parametrize("M", [2, 5, 16])
def test_boundary_classification(M):
    mesh = build_mesh(M)
    on_edge = (mesh.nodes[:, 0] == 0) | (mesh.nodes[:, 0] == 1) | \
              (mesh.nodes[:, 1] == 0) | (mesh.nodes[:, 1] == 1)
    assert np.array_equal(mesh.boundary_mask, on_edge)
    assert mesh.boundary_mask.sum() == 4 * M


def test_interior_index_bijection():
    mesh = build_mesh(7)
    idx = mesh.interior_index[mesh.interior_index >= 0]
    assert sorted(idx) == list(range(36))


def test_build_mesh_rejects_small_M():
    with pytest.raises(ValueError):
        build_mesh(1)


def _locate_one(mesh, p):
    """locate_points for the single point p: (triangle index, barycentrics)."""
    (tri,), (lam,) = locate_points(mesh, [p])
    return int(tri), lam


def test_locate_corner():
    mesh = build_mesh(4)
    tri, lam = _locate_one(mesh, (0.0, 0.0))
    assert tri == 0
    assert np.allclose(sorted(lam), [0, 0, 1])
    assert lam[0] == 1.0  # the corner is the triangle's first vertex


def test_locate_centroid():
    mesh = build_mesh(4)
    for tri_id in (0, 1, 17, 31):
        verts = mesh.nodes[mesh.triangles[tri_id]]
        cent = verts.mean(axis=0)
        tri, lam = _locate_one(mesh, cent)
        assert tri == tri_id
        assert np.allclose(lam, 1 / 3)


def test_locate_reconstructs_points():
    mesh = build_mesh(6)
    rng = np.random.default_rng(42)
    for p in rng.uniform(0.0, 1.0, size=(500, 2)):
        tri, lam = _locate_one(mesh, p)
        assert np.all(lam >= -1e-14)
        assert abs(lam.sum() - 1.0) <= 1e-14
        rec = lam @ mesh.nodes[mesh.triangles[tri]]
        assert np.max(np.abs(rec - p)) <= 1e-13


def test_locate_edge_ties_take_lowest_triangle():
    mesh = build_mesh(4)
    # diagonal midpoint of cell (0,0): lower triangle (index 0) wins over 1
    tri, _ = _locate_one(mesh, (0.125, 0.125))
    assert tri == 0
    # vertical gridline between cells 0 and 1: left cell wins
    tri, _ = _locate_one(mesh, (0.25, 0.1))
    verts = mesh.nodes[mesh.triangles[tri]]
    assert tri == 0 and np.max(verts[:, 0]) == 0.25
    # shared lattice vertex: the lowest-indexed containing triangle
    tri, lam = _locate_one(mesh, (0.25, 0.25))
    assert tri == 0
    rec = lam @ mesh.nodes[mesh.triangles[tri]]
    assert np.allclose(rec, (0.25, 0.25))
    # top-right corner of the domain
    tri, _ = _locate_one(mesh, (1.0, 1.0))
    assert tri == 2 * 16 - 2


def test_locate_rejects_outside():
    mesh = build_mesh(4)
    for p in [(-0.01, 0.5), (0.5, 1.01), (2.0, 2.0)]:
        with pytest.raises(OutOfDomainError):
            _locate_one(mesh, p)


@pytest.mark.parametrize("M", [2, 3, 8, 32])
def test_edge_points_once_per_edge(M):
    mesh = build_mesh(M)
    points, index = mesh.edges
    assert points.shape == (3 * M * M + 2 * M, 2)
    assert index.shape == mesh.triangles.shape
    assert np.unique(points, axis=0).shape == points.shape
    P = mesh.nodes[mesh.triangles]
    mids = 0.5 * (P + np.roll(P, -1, axis=1))
    assert np.array_equal(points[index], mids)  # every triangle's own bits


def test_locate_points_rejects_any_point_outside():
    mesh = build_mesh(6)
    P = np.array([[0.5, 0.5], [1.0, 1.0], [0.5, np.nan], [0.25, 0.75]])
    with pytest.raises(OutOfDomainError, match="nan"):
        locate_points(mesh, P)
    tri, lam = locate_points(mesh, P[[0, 1, 3]])
    assert tri.shape == (3,) and lam.shape == (3, 3)
