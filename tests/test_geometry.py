from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifcmcp import builders, geometry, measure, scene, snapshot
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
    Sweep,
    axes_placement,
    checked_mesh,
    checked_polygon,
    ear_clip,
    emit_body,
    polygon_area,
    prism_mesh,
    wall_axis_to_profile,
    weld,
)
from ifcmcp.model import load_model, new_model
from ifcmcp.step import EntityRef

from conftest import signed_volume

L_SHAPE = [(0, 0), (10, 0), (10, 5), (5, 5), (5, 10), (0, 10)]


def test_unit_square_area():
    assert polygon_area(checked_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])) == 1.0


def test_l_shape_area_matches_rectangle_decomposition():
    # oracle: 10x5 lower rectangle + 5x5 upper wing
    assert polygon_area(checked_polygon(L_SHAPE)) == pytest.approx(10 * 5 + 5 * 5, abs=1e-12)


def test_reversed_polygon_normalized():
    fwd = checked_polygon(L_SHAPE)
    rev = checked_polygon(list(reversed(L_SHAPE)))
    assert polygon_area(fwd) == polygon_area(rev) == 75.0


def test_an_accepted_polygon_has_its_exact_area():
    # checked_polygon accepts this triangle by the exact sum of its shoelace terms;
    # summed in float order the terms cancel and the area read 0.0
    assert polygon_area(checked_polygon([(0, 1), (1, 1), (2 ** 53, 0)])) == 0.5


@given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
                min_size=3, max_size=8))
@settings(max_examples=200)
# a near-duplicate pair whose kept point decided, by input order, whether
# another vertex touched a non-adjacent edge
@example([(-4.4e-267, 0.0), (0.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])
@example([(0.0, 1.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 8.681398445634643e-69), (0.0, 0.0)])
def test_polygon_area_reversal_property(points):
    try:
        poly = checked_polygon(points)
    except DegeneratePolygon:
        return
    assert polygon_area(poly) > 0
    assert polygon_area(checked_polygon(list(reversed(points)))) == pytest.approx(
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
        poly = checked_polygon(points)
    except DegeneratePolygon:
        return
    assert len(poly.vertices) >= 3


def test_degenerate_polygons_rejected():
    with pytest.raises(DegeneratePolygon):
        checked_polygon([(0, 0), (1, 0)])
    with pytest.raises(DegeneratePolygon):
        checked_polygon([(0, 0), (1, 0), (2, 0)])  # zero area
    with pytest.raises(DegeneratePolygon):
        checked_polygon([(0, 0), (1, 1), (1, 0), (0, 1)])  # bowtie
    with pytest.raises(DegeneratePolygon):
        checked_polygon([(0, 0), (1e-9, 0), (0, 1e-9)])  # below merge tolerance


def test_close_vertices_merged():
    poly = checked_polygon([(0, 0), (1, 0), (1, 1e-8), (1, 1), (0, 1)])
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
    emit_body(model, Sweep(checked_polygon([(0, 0), (1, 0), (1, 1), (0, 1)]), 1.0))
    assert len(model.by_class.get("IFCRECTANGLEPROFILEDEF", ())) == before + 1
    assert not model.by_class.get("IFCARBITRARYCLOSEDPROFILEDEF")


def test_extrude_l_shape_takes_arbitrary_path_and_volume():
    model = new_model(guid_seed=12)
    pds = emit_body(model, Sweep(checked_polygon(L_SHAPE), 0.25))
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
    assert body.outline.vertices == (
        (0.0, -0.125), (10.0, -0.125), (10.0, 0.125), (0.0, 0.125))


# --- a rectangle profile is checked where it is decoded, and only there ---

def _verdict(build, *args):
    """``build(*args)``'s vertices, or the message of its DegeneratePolygon."""
    try:
        return build(*args).vertices
    except DegeneratePolygon as exc:
        return str(exc)


_SIDES = st.one_of(st.floats(1e-9, 1e200), st.floats(-9.0, 200.0).map(lambda e: 10.0 ** e))
_ORIGINS = st.one_of(st.floats(-1e300, 1e300), st.floats(-20.0, 20.0),
                     st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0))
                     .map(lambda t: t[0] * 10.0 ** t[1]))
_TURNS = st.one_of(st.none(), st.sampled_from([(0.0, 1.0), (-1.0, 0.0), (3.0, 4.0)]),
                   st.floats(0.0, 2 * math.pi).map(lambda a: (math.cos(a), math.sin(a))))


@given(xdim=_SIDES, ydim=_SIDES, origin=st.tuples(_ORIGINS, _ORIGINS), turn=_TURNS,
       axis=st.sampled_from([None, (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]))
@settings(deadline=None)
@example(xdim=1e-7, ydim=3.0, origin=(0.0, 0.0), turn=None, axis=None)  # too thin
@example(xdim=1e200, ydim=1e200, origin=(0.0, 0.0), turn=None, axis=None)  # area overflows
@example(xdim=1e-3, ydim=1e-3, origin=(1e12, 0.0), turn=None, axis=None)  # small, far off
@example(xdim=2e-6, ydim=2e-6, origin=(0.0, 0.0), turn=None, axis=None)  # the least side
@example(xdim=4.0, ydim=3.0, origin=(2.0, 1.0), turn=None, axis=(0.0, 0.0, -1.0))  # clockwise
def test_a_rectangle_decodes_to_the_checked_polygons_verdict(xdim, ydim, origin, turn, axis):
    # a rectangle's corners are built unchecked only where checked_polygon
    # must accept them; the profile's Position is 2D, or 3D with an Axis
    model = new_model(guid_seed=5)
    emit_body(model, Sweep(checked_polygon([(0, 0), (1, 0), (1, 1), (0, 1)]), 1.0))
    (profile_id,) = model.by_class["IFCRECTANGLEPROFILEDEF"]
    (solid_id,) = model.by_class["IFCEXTRUDEDAREASOLID"]
    location = origin if axis is None else (*origin, 0.0)
    point = EntityRef(model.add("IFCCARTESIANPOINT", [location]))
    ratios = turn if turn is None or axis is None else (*turn, 0.0)
    direction = None if ratios is None else EntityRef(model.add("IFCDIRECTION", [ratios]))
    position = model.add("IFCAXIS2PLACEMENT2D", [point, direction]) if axis is None else \
        model.add("IFCAXIS2PLACEMENT3D",
                  [point, EntityRef(model.add("IFCDIRECTION", [axis])), direction])
    profile = model.entities[profile_id]
    profile.attributes = (*profile.attributes[:2], EntityRef(position), xdim, ydim)
    frame = axes_placement(location, axis, None if turn is None else (*turn, 0.0))
    (ox, oy, _oz), _z, (ux, uy, _uz), (vx, vy, _vz) = frame
    x, y = xdim / 2, ydim / 2
    corners = [(ox + a * ux + b * vx, oy + a * uy + b * vy)  # the frame's (a, b, 0)
               for a, b in ((-x, -y), (x, -y), (x, y), (-x, y))]
    decoded = _verdict(lambda: measure._decode_extrusion(model, model.entities[solid_id]).outline)
    assert decoded == _verdict(checked_polygon, corners)


def test_the_read_tools_check_no_rectangle_of_a_kit_model(monkeypatch):
    # every world mesh and plan slab rebuilt and checked its rectangle
    outline = [(0, 0), (8, 0), (8, 6), (0, 6)]
    model = new_model(guid_seed=5)
    walls = builders.create_wall_chain(model, outline, 3.0, 0.2, close=True)
    builders.create_door(model, wall_guid=walls[0], position_along_axis=2.0)
    builders.create_window(model, wall_guid=walls[1], position_along_axis=3.0)
    builders.create_slab(model, outline, 0.25)
    builders.create_roof(model, outline, style="flat", base_z=3.0)
    model = load_model(model.to_bytes())
    assert set(model.by_class) >= {"IFCDOOR", "IFCWINDOW", "IFCSLAB", "IFCROOF"}
    assert "IFCARBITRARYCLOSEDPROFILEDEF" not in model.by_class
    checked = []
    monkeypatch.setattr(measure, "checked_polygon",
                        lambda points: checked.append(points) or checked_polygon(points))
    scene.get_ifc_scene_overview(model)
    snapshot.render_plan(model)
    for view in ("north", "south", "east", "west"):
        snapshot.render_elevation(model, view)
    assert checked == []
    # a polyline profile is checked where the slab is admitted, by the
    # decoder's own arm, and where it is decoded
    slab = builders.create_slab(model, L_SHAPE, 0.25)
    assert len(checked) == 1
    measure.body_of(model, model.by_guid[slab])
    assert len(checked) == 2


def test_extrusion_volume_against_signed_volume_oracle():
    poly = checked_polygon([(0, 0), (10, 0), (10, 0.25), (0, 0.25)])
    mesh = prism_mesh(poly, 3.0)
    assert mesh.is_watertight()
    assert signed_volume(mesh) == pytest.approx(10 * 0.25 * 3.0, rel=1e-9)
    mesh_l = prism_mesh(checked_polygon(L_SHAPE), 0.25)
    assert signed_volume(mesh_l) == pytest.approx(75 * 0.25, rel=1e-9)


def test_extrude_rejects_bad_depth():
    # the emitter checks nothing; the admission refuses the sweep
    with pytest.raises(NonPositiveDepth):
        measure.admit(Sweep(checked_polygon([(0, 0), (1, 0), (1, 1), (0, 1)]), 0.0))


def test_mesh_to_brep_tetrahedron():
    model = new_model(guid_seed=14)
    mesh = checked_mesh(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)],
    )
    emit_body(model, weld(mesh))
    assert len(model.by_class["IFCFACE"]) == 4
    assert len(model.by_class["IFCCLOSEDSHELL"]) == 1


def test_mesh_to_brep_dedups_cube_vertices():
    model = new_model(guid_seed=15)
    cube = prism_mesh(checked_polygon([(0, 0), (1, 0), (1, 1), (0, 1)]), 1.0)
    assert len(cube.faces) == 12
    emit_body(model, weld(cube))
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
    assert prism_mesh(checked_polygon([(0, 0), (1, 0), (1, 1), (0, 1)]), 1.0).is_watertight()
    assert prism_mesh(checked_polygon(L_SHAPE), 1.0).is_watertight()
    assert prism_mesh(checked_polygon([(0, 0), (4, 0), (4, 2), (0, 2)]), 1.5,
                      axis="y").is_watertight()


def test_ear_clip_preserves_area():
    for outline in ([(0, 0), (1, 0), (1, 1), (0, 1)], L_SHAPE,
                    [(0, 0), (8, 0), (10, 6), (4, 10), (-2, 6)]):
        poly = checked_polygon(outline)
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
