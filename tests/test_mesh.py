from fractions import Fraction

import numpy as np
import pytest

from subdiff.mesh import build_mesh


def test_counts_M2():
    mesh = build_mesh(2)
    assert mesh.triangles.shape[0] == 8
    assert mesh.nodes.shape[0] == 9
    assert mesh.n_interior == 1
    (interior,) = mesh.nodes[mesh.interior_index >= 0]
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
    assert np.array_equal(mesh.interior_index < 0, on_edge)
    assert np.count_nonzero(mesh.interior_index < 0) == 4 * M


def test_interior_index_bijection():
    mesh = build_mesh(7)
    idx = mesh.interior_index[mesh.interior_index >= 0]
    assert sorted(idx) == list(range(36))


def test_build_mesh_rejects_small_M():
    with pytest.raises(ValueError):
        build_mesh(1)

