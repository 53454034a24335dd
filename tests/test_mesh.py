from fractions import Fraction

import numpy as np
import pytest

from subdiff.mesh import StructuredMesh, build_mesh

from oracles import triangulation


def test_counts_M2():
    tri = triangulation(2)
    assert tri.triangles.shape[0] == 8
    assert tri.nodes.shape[0] == 9
    assert build_mesh(2).n_interior == 1
    (interior,) = tri.nodes[tri.interior_index >= 0]
    assert tuple(interior) == (0.5, 0.5)


def test_counts_M8():
    tri = triangulation(8)
    assert tri.triangles.shape[0] == 128
    assert tri.nodes.shape[0] == 81
    assert build_mesh(8).n_interior == 49


@pytest.mark.parametrize("M", [2, 3, 8, 64])
def test_triangle_areas_exact(M):
    """Signed areas, in exact rational arithmetic, are all 1/(2 M^2)."""
    target = Fraction(1, 2 * M * M)
    assert build_mesh(M).triangle_area == float(target)
    total = Fraction(0)
    for tri in triangulation(M).triangles:
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
    tri = triangulation(M)
    on_edge = (tri.nodes[:, 0] == 0) | (tri.nodes[:, 0] == 1) | \
              (tri.nodes[:, 1] == 0) | (tri.nodes[:, 1] == 1)
    assert np.array_equal(tri.interior_index < 0, on_edge)
    assert np.count_nonzero(tri.interior_index < 0) == 4 * M


def test_interior_index_bijection():
    tri = triangulation(7)
    idx = tri.interior_index[tri.interior_index >= 0]
    assert sorted(idx) == list(range(build_mesh(7).n_interior))


def test_build_mesh_rejects_small_M():
    with pytest.raises(ValueError):
        build_mesh(1)


@pytest.mark.parametrize("M", [1, 0, True, 2.0, "3"])
def test_mesh_validates_its_own_M(M):
    with pytest.raises(ValueError, match="M must be an integer >= 2"):
        StructuredMesh(M)


def test_mesh_stores_int_and_compares_by_value():
    mesh = StructuredMesh(np.int64(5))
    assert type(mesh.M) is int and mesh.M == 5
    assert build_mesh(8) == build_mesh(8) and build_mesh(8) != build_mesh(4)
