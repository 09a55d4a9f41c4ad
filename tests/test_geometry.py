from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifcmcp import geometry, measure
from ifcmcp.errors import (
    DegenerateFace,
    DegeneratePolygon,
    EmptyMesh,
    NonPositiveDepth,
    ZeroLengthAxis,
)
from ifcmcp.geometry import (
    Point2,
    Point3,
    Polygon2,
    axes_placement,
    checked_mesh,
    ear_clip,
    extrude_profile,
    mesh_to_brep,
    polygon_area,
    prism_mesh,
    wall_axis_to_profile,
)
from ifcmcp.model import new_model

from conftest import signed_volume

L_SHAPE = [(0, 0), (10, 0), (10, 5), (5, 5), (5, 10), (0, 10)]


def test_unit_square_area():
    assert polygon_area(Polygon2([(0, 0), (1, 0), (1, 1), (0, 1)])) == 1.0


def test_l_shape_area_matches_rectangle_decomposition():
    # oracle: 10x5 lower rectangle + 5x5 upper wing
    assert polygon_area(Polygon2(L_SHAPE)) == pytest.approx(10 * 5 + 5 * 5, abs=1e-12)


def test_reversed_polygon_normalized():
    fwd = Polygon2(L_SHAPE)
    rev = Polygon2(list(reversed(L_SHAPE)))
    assert polygon_area(fwd) == polygon_area(rev) == 75.0


def test_an_accepted_polygon_has_its_exact_area():
    # Polygon2 accepts this triangle by the exact sum of its shoelace terms;
    # summed in float order the terms cancel and the area read 0.0
    assert polygon_area(Polygon2([(0, 1), (1, 1), (2 ** 53, 0)])) == 0.5


@given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
                min_size=3, max_size=8))
@settings(max_examples=200)
# a near-duplicate pair whose kept point decided, by input order, whether
# another vertex touched a non-adjacent edge
@example([(-4.4e-267, 0.0), (0.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])
@example([(0.0, 1.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 8.681398445634643e-69), (0.0, 0.0)])
def test_polygon_area_reversal_property(points):
    try:
        poly = Polygon2(points)
    except DegeneratePolygon:
        return
    assert polygon_area(poly) > 0
    assert polygon_area(Polygon2(list(reversed(points)))) == pytest.approx(
        polygon_area(poly))


_ANY_FINITE = st.one_of(st.integers(-3, 3).map(float),
                        st.floats(allow_nan=False, allow_infinity=False))


@given(st.lists(st.tuples(_ANY_FINITE, _ANY_FINITE), max_size=8))
@settings(deadline=None)
# one coordinate product is inf and another -inf: fsum raised ValueError
@example([(1e6, -1), (3, -1), (-1e300, 0.5), (1e-12, 1e300), (-1e300, -1)])
# the doubled area is inf: the polygon was built
@example([(0, 0), (1e200, 0), (1e200, 1e200), (0, 1e200)])
# fsum raised OverflowError
@example([(1e308, -1), (3, -1), (-1e308, 0.5), (1e-12, 1e308), (-1e308, -1)])
def test_any_finite_points_give_a_polygon_or_a_degenerate_polygon(points):
    try:
        poly = Polygon2(points)
    except DegeneratePolygon:
        return
    assert len(poly.vertices) >= 3


def test_degenerate_polygons_rejected():
    with pytest.raises(DegeneratePolygon):
        Polygon2([(0, 0), (1, 0)])
    with pytest.raises(DegeneratePolygon):
        Polygon2([(0, 0), (1, 0), (2, 0)])  # zero area
    with pytest.raises(DegeneratePolygon):
        Polygon2([(0, 0), (1, 1), (1, 0), (0, 1)])  # bowtie
    with pytest.raises(DegeneratePolygon):
        Polygon2([(0, 0), (1e-9, 0), (0, 1e-9)])  # below merge tolerance


def test_close_vertices_merged():
    poly = Polygon2([(0, 0), (1, 0), (1, 1e-8), (1, 1), (0, 1)])
    assert len(poly.vertices) == 4


def test_wall_axis_profile_basic():
    profile, placement = wall_axis_to_profile(Point2(0, 0), Point2(10, 0), 0.25)
    assert polygon_area(profile) == pytest.approx(10 * 0.25)
    assert placement.x_axis == Point3(1.0, 0.0, 0.0)
    assert placement.origin == Point3(0.0, 0.0, 0.0)


def test_wall_axis_profile_rotated():
    profile, placement = wall_axis_to_profile(Point2(0, 0), Point2(0, 5), 0.3)
    assert placement.x_axis == Point3(0.0, 1.0, 0.0)
    x0, _, x1, _ = profile.bounds()
    assert x1 - x0 == pytest.approx(5.0)


def test_wall_axis_345_triangle():
    profile, _ = wall_axis_to_profile(Point2(0, 0), Point2(3, 4), 0.2)
    x0, _, x1, _ = profile.bounds()
    assert x1 - x0 == pytest.approx(5.0)
    assert polygon_area(profile) == pytest.approx(5.0 * 0.2)


def test_wall_axis_zero_length():
    with pytest.raises(ZeroLengthAxis):
        wall_axis_to_profile(Point2(0, 0), Point2(0, 0), 0.2)


def test_profile_area_exactness():
    # |end-start| * thickness should be exact for representable values
    profile, _ = wall_axis_to_profile(Point2(0, 0), Point2(8, 0), 0.5)
    assert polygon_area(profile) == 8 * 0.5


def test_extrude_rectangle_takes_fast_path():
    model = new_model(guid_seed=11)
    before = len(model.by_class.get("IFCRECTANGLEPROFILEDEF", ()))
    extrude_profile(model, Polygon2([(0, 0), (1, 0), (1, 1), (0, 1)]), 1.0)
    assert len(model.by_class.get("IFCRECTANGLEPROFILEDEF", ())) == before + 1
    assert not model.by_class.get("IFCARBITRARYCLOSEDPROFILEDEF")


def test_extrude_l_shape_takes_arbitrary_path_and_volume():
    model = new_model(guid_seed=12)
    pds = extrude_profile(model, Polygon2(L_SHAPE), 0.25)
    assert model.by_class.get("IFCARBITRARYCLOSEDPROFILEDEF")
    # volume oracle: profile area x depth, via independent tessellation
    solid_ids = model.by_class["IFCEXTRUDEDAREASOLID"]
    assert len(solid_ids) == 1
    body = measure._decode_extrusion(model, model.entities[next(iter(solid_ids))])
    assert body.area * body.depth == pytest.approx(75 * 0.25)
    assert pds in model.entities


def test_decoded_bodies_and_axes_are_immutable(four_wall_model):
    # a cache of decoded geometry may hand one value to every caller
    wall = sorted(four_wall_model.by_class["IFCWALL"])[0]
    body = measure.body_of(four_wall_model, wall)
    axis = measure.wall_axis(four_wall_model, wall)
    assert isinstance(body, measure.Extrusion) and isinstance(axis, measure.WallAxis)
    assert (body.depth, axis.length, axis.height) == (3.0, 10.0, 3.0)
    for value in (body, axis):
        for field in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, field, getattr(value, field))
    assert body.polygon is None and body.outline.vertices == (
        (0.0, -0.125), (10.0, -0.125), (10.0, 0.125), (0.0, 0.125))


def test_extrusion_volume_against_signed_volume_oracle():
    poly = Polygon2([(0, 0), (10, 0), (10, 0.25), (0, 0.25)])
    mesh = prism_mesh(poly, 3.0)
    assert mesh.is_watertight()
    assert signed_volume(mesh) == pytest.approx(10 * 0.25 * 3.0, rel=1e-9)
    mesh_l = prism_mesh(Polygon2(L_SHAPE), 0.25)
    assert signed_volume(mesh_l) == pytest.approx(75 * 0.25, rel=1e-9)


def test_extrude_rejects_bad_depth():
    model = new_model(guid_seed=13)
    with pytest.raises(NonPositiveDepth):
        extrude_profile(model, Polygon2([(0, 0), (1, 0), (1, 1), (0, 1)]), 0.0)


def test_mesh_to_brep_tetrahedron():
    model = new_model(guid_seed=14)
    mesh = checked_mesh(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)],
    )
    mesh_to_brep(model, mesh)
    assert len(model.by_class["IFCFACE"]) == 4
    assert len(model.by_class["IFCCLOSEDSHELL"]) == 1


def test_mesh_to_brep_dedups_cube_vertices():
    model = new_model(guid_seed=15)
    cube = prism_mesh(Polygon2([(0, 0), (1, 0), (1, 1), (0, 1)]), 1.0)
    assert len(cube.faces) == 12
    mesh_to_brep(model, cube)
    points = [
        e for e in model.entities.values()
        if e.class_name == "IFCCARTESIANPOINT" and len(e.attributes[0]) == 3
    ]
    # 1 model origin + 8 distinct cube corners + brep position-free points
    coords = {e.attributes[0] for e in points}
    cube_coords = {c for c in coords if set(c) <= {0.0, 1.0}} - {(0.0, 0.0, 0.0)}
    assert len(cube_coords) == 7  # 8 corners minus the shared origin point


def test_trimesh_validation():
    with pytest.raises(EmptyMesh):
        checked_mesh([], [])
    with pytest.raises(DegenerateFace):
        checked_mesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 5)])
    with pytest.raises(DegenerateFace):
        checked_mesh([(0, 0, 0), (1, 0, 0), (2, 0, 0)], [(0, 1, 2)])  # zero area


def test_mesh_error_leaves_model_untouched():
    model = new_model(guid_seed=16)
    before = model.to_bytes()
    with pytest.raises(DegenerateFace):
        checked_mesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 7)])
    assert model.to_bytes() == before


def test_box_and_prism_watertight():
    assert prism_mesh(Polygon2([(0, 0), (1, 0), (1, 1), (0, 1)]), 1.0).is_watertight()
    assert prism_mesh(Polygon2(L_SHAPE), 1.0).is_watertight()
    assert prism_mesh(Polygon2([(0, 0), (4, 0), (4, 2), (0, 2)]), 1.5,
                      axis="y").is_watertight()


def test_ear_clip_preserves_area():
    for outline in ([(0, 0), (1, 0), (1, 1), (0, 1)], L_SHAPE,
                    [(0, 0), (8, 0), (10, 6), (4, 10), (-2, 6)]):
        poly = Polygon2(outline)
        pts = list(poly.vertices)
        tris = ear_clip(pts)
        total = sum(
            abs((pts[b].x - pts[a].x) * (pts[c].y - pts[a].y)
                - (pts[c].x - pts[a].x) * (pts[b].y - pts[a].y)) / 2
            for a, b, c in tris
        )
        assert total == pytest.approx(polygon_area(poly), rel=1e-12)


def test_placement_orthonormal_enforced(monkeypatch):
    # a file's axes enter through axes_placement, which makes them
    # orthonormal and checks them once
    placement = axes_placement((0, 0, 0), (0, 0, 2), (1, 0, 1))
    assert placement == (Point3(0, 0, 0), Point3(0, 0, 1), Point3(1, 0, 0), Point3(0, 1, 0))
    with pytest.raises(ZeroLengthAxis):
        axes_placement((0, 0, 0), (0, 0, 1), (0, 0, 1))
    # the check stands behind the projection: a skewed x axis is refused
    monkeypatch.setattr(geometry, "_first_proj_axis",
                        lambda z_axis, direction: geometry._unit(direction))
    with pytest.raises(ValueError):
        axes_placement((0, 0, 0), (0, 0, 1), (1, 0, 1))


def test_placement_world_transform():
    placement = axes_placement(Point3(1, 2, 3), Point3(0, 0, 1),
                               Point3(0, 1, 0))  # x->world y
    p = placement.to_world(Point3(1, 0, 0))
    assert p == Point3(1.0, 3.0, 3.0)
    v = placement.rotate(Point3(1, 0, 0))
    assert v == Point3(0.0, 1.0, 0.0)
