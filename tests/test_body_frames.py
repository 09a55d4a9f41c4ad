"""A body is placed where its frames put it.

An extruded solid's ``Position`` and a rectangle profile's ``Position`` are
axis placements like a product's ``RelativePlacement``; IFC4's
``IfcSweptAreaSolid`` and ``IfcParameterizedProfileDef`` define them so. A
file that moves or turns a body there must measure and draw as one that
moves or turns its product's ``ObjectPlacement`` the same way.
"""

from __future__ import annotations

import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifcmcp import builders, dsl, measure, scene, snapshot
from ifcmcp.geometry import checked_polygon, prism_mesh
from ifcmcp.model import load_model, new_model
from ifcmcp.step import EntityRef

from conftest import world_box


def _solid(model, product_id):
    """The IFCEXTRUDEDAREASOLID of a kit product's Body."""
    shape = model.resolve(model.entities[product_id].attributes[6])
    return model.resolve(model.resolve(shape.attributes[2][0]).attributes[3][0])


def _relative_placement(model, product_id):
    return model.resolve(model.resolve(model.entities[product_id].attributes[5]).attributes[1])


def _set(record, index, value):
    record.attributes = record.attributes[:index] + (value,) + record.attributes[index + 1:]


def _point(model, *coordinates):
    return EntityRef(model.add("IFCCARTESIANPOINT", [tuple(map(float, coordinates))]))


def _direction(model, *ratios):
    return EntityRef(model.add("IFCDIRECTION", [tuple(map(float, ratios))]))


def _one_product(build, edit):
    """A new model with one kit product, and its id, after ``edit(model,
    product_id)``, saved and reloaded."""
    model = new_model(guid_seed=11)
    guid = build(model)
    edit(model, model.require_guid(guid).id)
    model = load_model(model.to_bytes())
    return model, model.require_guid(guid).id


def _views(model):
    return snapshot.render_plan(model), snapshot.render_elevation(model, "south")


def _wall(model):
    return builders.create_wall(model, (0, 0), (5, 0), 3.0, 0.2)


def _slab(model):
    return builders.create_slab(model, [(0, 0), (4, 0), (4, 3), (0, 3)], 0.2)


def test_a_wall_moved_in_its_solid_position_measures_and_draws_where_it_is():
    def in_solid(model, wall):
        _set(model.resolve(_solid(model, wall).attributes[1]), 0, _point(model, 1, 0, 0))

    def in_placement(model, wall):
        _set(_relative_placement(model, wall), 0, _point(model, 1, 0, 0))

    moved, wall = _one_product(_wall, in_solid)
    placed, _wall_id = _one_product(_wall, in_placement)
    lo, hi = world_box(moved, wall)
    assert (lo.x, hi.x) == (1.0, 6.0)
    axis = measure.wall_axis(moved, wall)
    assert (axis.start.x, axis.end.x, axis.length) == (1.0, 6.0, 5.0)
    assert _views(moved) == _views(placed)


def test_a_wall_turned_in_its_solid_position_measures_and_draws_where_it_is():
    def in_solid(model, wall):
        position = model.resolve(_solid(model, wall).attributes[1])
        _set(position, 1, _direction(model, 0, 0, 1))
        _set(position, 2, _direction(model, 0, 1, 0))

    def in_placement(model, wall):
        position = _relative_placement(model, wall)
        _set(position, 1, _direction(model, 0, 0, 1))
        _set(position, 2, _direction(model, 0, 1, 0))

    turned, wall = _one_product(_wall, in_solid)
    placed, _wall_id = _one_product(_wall, in_placement)
    lo, hi = world_box(turned, wall)
    assert [round(v, 12) + 0.0 for v in (lo.x, hi.x, lo.y, hi.y)] == [-0.1, 0.1, 0.0, 5.0]
    axis = measure.wall_axis(turned, wall)
    assert (axis.end.x, axis.end.y) == (0.0, 5.0)
    assert _views(turned) == _views(placed)


def test_a_slab_moved_in_its_solid_position_is_drawn_where_its_box_is():
    def in_solid(model, slab):
        _set(model.resolve(_solid(model, slab).attributes[1]), 0, _point(model, 2, 0, 0))

    def in_placement(model, slab):
        _set(_relative_placement(model, slab), 0, _point(model, 2, 0, 0))

    moved, slab = _one_product(_slab, in_solid)
    placed, _slab_id = _one_product(_slab, in_placement)
    lo, hi = world_box(moved, slab)
    assert (lo.x, hi.x) == (2.0, 6.0)
    assert snapshot.render_plan(moved) == snapshot.render_plan(placed)


def test_a_rectangle_turned_in_its_profile_position_is_a_turned_box():
    # a 4 x 2 rectangle centred on (2, 1), turned a quarter about its centre
    def turned(model, slab):
        profile = model.resolve(_solid(model, slab).attributes[0])
        _set(model.resolve(profile.attributes[2]), 1, _direction(model, 0, 1))

    model, slab = _one_product(
        lambda model: builders.create_slab(model, [(0, 0), (4, 0), (4, 2), (0, 2)], 0.2),
        turned)
    lo, hi = world_box(model, slab)
    assert [round(v, 12) + 0.0 for v in (lo.x, hi.x, lo.y, hi.y)] == [1.0, 3.0, -1.0, 3.0]
    body = measure.body_of(model, slab)
    assert [tuple(round(v, 12) + 0.0 for v in p) for p in body.outline.vertices] == [
        (3.0, -1.0), (3.0, 3.0), (1.0, 3.0), (1.0, -1.0)]
    assert body.area == 8.0
    assert measure.element_area(model, slab) == 8.0


# a third ratio, which a 2D direction should not have, is not read
@pytest.mark.parametrize("ratios", [(0, 1), (0, 1, 7)])
def test_a_2d_relative_placement_turns_its_product_by_its_ref_direction(ratios):
    def turned(model, wall):
        a2p = model.add("IFCAXIS2PLACEMENT2D", [_point(model, 0, 0), _direction(model, *ratios)])
        placement = model.resolve(model.entities[wall].attributes[5])
        _set(placement, 1, EntityRef(a2p))

    model, wall = _one_product(_wall, turned)
    axis = measure.wall_axis(model, wall)
    assert tuple(axis.start) == (0.0, 0.0, 0.0)
    assert (axis.end.x + 0.0, axis.end.y) == (0.0, 5.0)
    lo, hi = world_box(model, wall)
    assert (lo.y, hi.y) == (0.0, 5.0)


# --- the same building with each rotation moved into its solids ---

def _rotation_into_solids(model):
    """Move every kit product's Axis and RefDirection from its ObjectPlacement
    into its extruded solid's Position, whose Location stays at the origin.
    Only a placement that no other placement is relative to is moved."""
    parents = {inst.attributes[0].id for inst in model.entities.values()
               if inst.class_name == "IFCLOCALPLACEMENT" and inst.attributes[0] is not None}
    for product_id in _bodied(model):
        placement = model.entities[product_id].attributes[5]
        if placement.id in parents:
            continue
        relative = _relative_placement(model, product_id)
        solid = _solid(model, product_id)
        if relative.attributes[1:] == (None, None) or solid.class_name != "IFCEXTRUDEDAREASOLID":
            continue
        position = model.resolve(solid.attributes[1])
        position.attributes = (position.attributes[0],) + relative.attributes[1:]
        relative.attributes = (relative.attributes[0], None, None)


def _bodied(model):
    """Ids of the products that have a body, ascending."""
    return [i for i in model.entities if measure.body_of(model, i) is not None]


def _close(a, b, scale):
    return a == b or math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9 * scale)


_WALL = st.tuples(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8),
                  st.integers(-8, 8)).filter(lambda w: w[:2] != w[2:])


@given(walls=st.lists(_WALL, min_size=1, max_size=4), door=st.booleans())
@settings(deadline=None)
@example(walls=[(0, 0, 3, 4), (0, 0, -2, 5)], door=False)
def test_a_rotation_in_the_solids_measures_as_one_in_the_placements(walls, door):
    model = new_model(guid_seed=17)
    builders.create_slab(model, [(0, 0), (6, 0), (6, 2), (3, 5), (0, 2)], 0.25)
    builders.create_mesh_element(model, "IFCFURNISHINGELEMENT", prism_mesh(
        checked_polygon([(1, 1), (2.5, 1), (2, 2), (1, 1.5)]), 0.8), "Table")
    for x0, y0, x1, y1 in walls:
        wall = builders.create_wall(model, (x0, y0), (x1, y1), 3.0, 0.2)
    if door:  # its host wall keeps its rotation: the door's placement is relative to it
        builders.create_door(model, wall_guid=wall, position_along_axis=0.5, width=0.5)
    moved = load_model(model.to_bytes())
    _rotation_into_solids(moved)
    moved = load_model(moved.to_bytes())
    ids = _bodied(model)
    assert ids == _bodied(moved)
    for query in ("all | list(length)", "all | list(area)"):
        expected, got = (dsl.eval_query(m, dsl.parse_query(query))[0] for m in (model, moved))
        assert len(expected) == len(got)
        assert all(_close(a, b, 10.0) for a, b in zip(expected, got)), query
    for product_id in ids:
        box, moved_box = world_box(model, product_id), world_box(moved, product_id)
        assert all(_close(a, b, 10.0) for a, b in zip((*box[0], *box[1]),
                                                      (*moved_box[0], *moved_box[1])))
        mesh, moved_mesh = measure.world_mesh(model, product_id), measure.world_mesh(moved, product_id)
        assert mesh.faces == moved_mesh.faces
        assert all(_close(a, b, 10.0) for p, q in zip(mesh.vertices, moved_mesh.vertices)
                   for a, b in zip(p, q))


# --- openings are placed and drawn in their wall's axis frame ---

def _door_gap(model, wall):
    """World (x, y) corners of the plan's door gap in the one wall of ``model``."""
    axis = measure.wall_axis(model, wall)
    (path,) = re.findall(r'<path d="M([^"]*) Z" fill="#ffffff"', snapshot.render_plan(model))
    min_x = min(axis.start.x, axis.end.x) - snapshot.MARGIN  # the walls' extents
    max_y = max(axis.start.y, axis.end.y) + snapshot.MARGIN
    corners = [tuple(map(float, corner.split(","))) for corner in path.split(" L")]
    return [(px / snapshot.SCALE + min_x, max_y - py / snapshot.SCALE) for px, py in corners]


def _door(model, wall, position_along_axis):
    """``model`` with a default door at ``position_along_axis`` in ``wall``,
    saved and reloaded, and the id of the door's opening."""
    _door_guid, opening = builders.create_door(model, wall_guid=model.guid_of(wall),
                                               position_along_axis=position_along_axis)
    model = load_model(model.to_bytes())
    return model, model.require_guid(opening).id


def _centred_on_solid(model, wall):
    """The kit profile, centred on (2.5, 0), is centred on its solid's Position
    moved to (2.5, 0, 0): the wall stays where it is."""
    solid = _solid(model, wall)
    _set(model.resolve(solid.attributes[1]), 0, _point(model, 2.5, 0, 0))
    _set(model.resolve(model.resolve(solid.attributes[0]).attributes[2]), 0, _point(model, 0, 0))


def test_a_door_in_a_wall_moved_in_its_solid_position_is_placed_along_its_axis():
    # the opening was placed in the wall's ObjectPlacement: x 1.55..2.45
    def in_solid(model, wall):
        _set(model.resolve(_solid(model, wall).attributes[1]), 0, _point(model, 1, 0, 0))

    model, wall = _one_product(_wall, in_solid)
    model, opening = _door(model, wall, 2.0)
    lo, hi = world_box(model, opening)
    assert (round(lo.x, 12), round(hi.x, 12)) == (2.55, 3.45)


def test_the_plan_draws_a_door_gap_along_a_wall_centred_on_its_solid_position():
    # the gap was measured from the solid's Position, not the axis start: x -0.95
    model, wall = _one_product(_wall, _centred_on_solid)
    model, opening = _door(model, wall, 2.0)
    lo, hi = world_box(model, opening)
    assert (round(lo.x, 12), round(hi.x, 12)) == (1.55, 2.45)
    xs = [x for x, _y in _door_gap(model, wall)]
    assert (min(xs), max(xs)) == pytest.approx((1.55, 2.45), abs=1e-3)


def test_a_doors_sill_is_its_height_in_its_walls_axis_frame():
    # the sill was measured between the door's and the wall's ObjectPlacements:
    # 0.5 for a door on the floor of a wall whose solid stands 0.5 up
    def raised(model, wall):
        _set(model.resolve(_solid(model, wall).attributes[1]), 0, _point(model, 0, 0, 0.5))

    model, wall = _one_product(_wall, raised)
    door, _opening = builders.create_door(model, wall_guid=model.guid_of(wall),
                                          position_along_axis=2.0)
    window, _opening = builders.create_window(model, wall_guid=model.guid_of(wall),
                                              position_along_axis=4.0)
    model = load_model(model.to_bytes())
    properties = scene.get_door_properties(model, door)
    assert (properties["sill_height"], properties["host_wall"]) == (0.0, model.guid_of(wall))
    # the same frame reads a window's sill
    axis = measure.wall_axis(model, wall)
    origin = model.placement_of(model.require_guid(window).id).origin
    assert axis.placement.to_local(origin).z == pytest.approx(builders.WINDOW_SILL, abs=1e-12)
    # a host without a wall axis has no sill to read, as a door without a body has no width
    _set(model.entities[wall], 6, None)
    model = load_model(model.to_bytes())
    assert scene.get_door_properties(model, door)["sill_height"] is None


def test_a_door_in_a_wall_that_hangs_down_from_its_solid_position_stands_on_its_bottom():
    # the opening hung from the wall's top, z 0.9..3.0: its sill was measured
    # along the body frame's z from the profile plane, which is the top here
    def hanging(model, wall):
        position = model.resolve(_solid(model, wall).attributes[1])
        for index, value in enumerate((_point(model, 0, 0, 3), _direction(model, 0, 0, -1),
                                       _direction(model, 1, 0, 0))):
            _set(position, index, value)

    model, wall = _one_product(_wall, hanging)
    lo, hi = world_box(model, wall)
    assert (lo.z, hi.z) == (0.0, 3.0)
    door, opening = builders.create_door(model, wall_guid=model.guid_of(wall),
                                         position_along_axis=2.0)
    model = load_model(model.to_bytes())
    lo, hi = world_box(model, model.require_guid(opening).id)
    assert (lo.x, lo.z, hi.x, hi.z) == pytest.approx((1.55, 0.0, 2.45, 2.1), abs=1e-12)
    assert scene.get_door_properties(model, door)["sill_height"] == 0.0
    # the wall's axis runs along its bottom, so a roof over it sits on its top
    assert measure.wall_axis(model, wall).start.z == 0.0


_TURN = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda t: t != (0, 0))


@given(wall=_WALL, move=st.tuples(st.integers(-4, 4), st.integers(-4, 4)), turn=_TURN,
       centred=st.booleans(), at=st.floats(0.0, 1.0))
@settings(deadline=None)
@example(wall=(0, 0, 5, 0), move=(1, 0), turn=(1, 0), centred=False, at=0.35)
def test_a_door_is_placed_and_drawn_where_its_walls_axis_frame_puts_it(
        wall, move, turn, centred, at):
    def moved_and_turned(model, wall_id):
        if centred:
            _centred_on_solid(model, wall_id)
        position = model.resolve(_solid(model, wall_id).attributes[1])
        _set(position, 0, _point(model, *move, 0))
        _set(position, 1, _direction(model, 0, 0, 1))
        _set(position, 2, _direction(model, *turn, 0))

    x0, y0, x1, y1 = wall
    model, wall_id = _one_product(
        lambda model: builders.create_wall(model, (x0, y0), (x1, y1), 3.0, 0.2), moved_and_turned)
    axis = measure.wall_axis(model, wall_id)
    width = builders.DOOR_WIDTH
    along = width / 2 + at * (axis.length - width)
    model, opening = _door(model, wall_id, along)
    lo, hi = world_box(model, opening)
    centre = axis.placement.to_world((along, 0.0, builders.DOOR_HEIGHT / 2))
    assert all(math.isclose((a + b) / 2, c, abs_tol=1e-9) for a, b, c in zip(lo, hi, centre))
    gap = [axis.placement.to_local((x, y, axis.start.z)).x for x, y in _door_gap(model, wall_id)]
    assert (min(gap), max(gap)) == pytest.approx((along - width / 2, along + width / 2), abs=1e-3)
