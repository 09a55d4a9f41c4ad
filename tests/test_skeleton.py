from __future__ import annotations

import math

import pytest

from ifcmcp.errors import SkeletonFailure, SlopeOutOfRange
from ifcmcp.geometry import checked_polygon
from ifcmcp.skeleton import gable_roof_solid, hip_roof_solid, skeletonize

from conftest import signed_volume

SQUARE = [(0, 0), (10, 0), (10, 10), (0, 10)]
RECT = [(0, 0), (10, 0), (10, 4), (0, 4)]
L_SHAPE = [(0, 0), (10, 0), (10, 5), (5, 5), (5, 10), (0, 10)]
TEE = [(0, 0), (12, 0), (12, 4), (8, 4), (8, 9), (4, 9), (4, 4), (0, 4)]


def apex_height(mesh) -> float:
    return max(v.z for v in mesh.vertices)


def ridge_points(mesh, base_z: float = 0.0):
    return sorted({(v.x, v.y, v.z) for v in mesh.vertices if v.z > base_z + 1e-9})


def test_square_45_apex_matches_inradius_oracle():
    mesh = hip_roof_solid(checked_polygon(SQUARE), 45.0, 0.0)
    # oracle: apex height = inradius * tan(slope); square inradius = 5
    assert apex_height(mesh) == pytest.approx(5.0 * math.tan(math.radians(45.0)),
                                              abs=1e-9)
    assert mesh.is_watertight()


def test_square_30_apex():
    mesh = hip_roof_solid(checked_polygon(SQUARE), 30.0, 0.0)
    assert apex_height(mesh) == pytest.approx(5.0 * math.tan(math.radians(30.0)),
                                              abs=1e-9)


def test_rectangle_ridge_height_and_length():
    mesh = hip_roof_solid(checked_polygon(RECT), 45.0, 0.0)
    ridge = ridge_points(mesh)
    assert len(ridge) == 2
    (x1, y1, z1), (x2, y2, z2) = ridge
    assert z1 == pytest.approx(2.0, abs=1e-9)
    assert z2 == pytest.approx(2.0, abs=1e-9)
    assert y1 == pytest.approx(2.0, abs=1e-9)
    assert math.hypot(x2 - x1, y2 - y1) == pytest.approx(6.0, abs=1e-9)


def test_base_z_offsets_entire_mesh():
    mesh = hip_roof_solid(checked_polygon(SQUARE), 30.0, 7.0)
    assert min(v.z for v in mesh.vertices) == pytest.approx(7.0)
    assert apex_height(mesh) == pytest.approx(
        7.0 + 5.0 * math.tan(math.radians(30.0)), abs=1e-9)


@pytest.mark.parametrize("outline", [SQUARE, RECT, L_SHAPE, TEE,
                                     [(0, 0), (8, 0), (10, 6), (4, 10), (-2, 6)]])
def test_roofs_watertight_and_positive_volume(outline):
    mesh = hip_roof_solid(checked_polygon(outline), 35.0, 0.0)
    assert mesh.is_watertight()
    assert signed_volume(mesh) > 0


def test_l_shape_skeleton_structure():
    subtrees = skeletonize(list(checked_polygon(L_SHAPE).vertices))
    sources = sorted((round(st.source.x, 6), round(st.source.y, 6),
                      round(st.height, 6)) for st in subtrees)
    assert (2.5, 2.5, 2.5) in sources
    assert (7.5, 2.5, 2.5) in sources
    assert (2.5, 7.5, 2.5) in sources


def test_slope_out_of_range():
    with pytest.raises(SlopeOutOfRange):
        hip_roof_solid(checked_polygon(SQUARE), 2.0, 0.0)
    with pytest.raises(SlopeOutOfRange):
        hip_roof_solid(checked_polygon(SQUARE), 89.0, 0.0)


def test_gable_rect_ridge():
    mesh = gable_roof_solid(checked_polygon([(0, 0), (10, 0), (10, 8), (0, 8)]),
                            30.0, 3.0)
    assert mesh.is_watertight()
    expect = 3.0 + 4.0 * math.tan(math.radians(30.0))
    assert apex_height(mesh) == pytest.approx(expect, abs=1e-9)
    ridge = ridge_points(mesh, base_z=3.0)
    assert len(ridge) == 2
    (x1, y1, _), (x2, y2, _) = ridge
    # ridge spans the full long dimension (vertical gable ends)
    assert math.hypot(x2 - x1, y2 - y1) == pytest.approx(10.0)


def test_gable_rotated_rectangle():
    c, s = math.cos(math.radians(30)), math.sin(math.radians(30))
    outline = [(0, 0), (10 * c, 10 * s), (10 * c - 4 * s, 10 * s + 4 * c),
               (-4 * s, 4 * c)]
    mesh = gable_roof_solid(checked_polygon(outline), 45.0, 0.0)
    assert mesh.is_watertight()
    assert apex_height(mesh) == pytest.approx(2.0, abs=1e-9)


def test_gable_requires_rectangle():
    with pytest.raises(SkeletonFailure):
        gable_roof_solid(checked_polygon(L_SHAPE), 30.0, 0.0)
    with pytest.raises(SkeletonFailure):
        gable_roof_solid(checked_polygon([(0, 0), (10, 0), (11, 4), (0, 4)]), 30.0, 0.0)


def test_collinear_outline_vertices_handled():
    outline = [(0, 0), (5, 0), (10, 0), (10, 10), (0, 10)]
    mesh = hip_roof_solid(checked_polygon(outline), 45.0, 0.0)
    assert mesh.is_watertight()
    assert apex_height(mesh) == pytest.approx(5.0, abs=1e-9)
