"""World frames composed down a ``PlacementRelTo`` chain, against an oracle.

The oracle is the frame code as it stood while every frame was checked: a
frozen dataclass whose ``__post_init__`` checked unit length and
orthogonality, whose ``y_axis`` was a cached ``z_axis`` cross ``x_axis``, and
a reader that applied IFC's ``IfcBuildAxes`` rule; a 2D placement turns by
its RefDirection's x and y about z, as ``IfcAxis2Placement2D`` defines it (the
reader of that time ignored it). ``geometry.Placement`` now
checks a file's frame once, where it enters, and composes without a check;
the property below holds it to the same floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from hypothesis import example, given
from hypothesis import strategies as st

from ifcmcp.errors import InvalidPlacement, ZeroLengthAxis
from ifcmcp.geometry import Point3
from ifcmcp.model import new_model
from ifcmcp.step import EntityRef


@dataclass(frozen=True)
class OraclePlacement:
    origin: Point3 = Point3(0.0, 0.0, 0.0)
    z_axis: Point3 = Point3(0.0, 0.0, 1.0)
    x_axis: Point3 = Point3(1.0, 0.0, 0.0)

    def __post_init__(self):
        for axis in (self.z_axis, self.x_axis):
            norm = math.sqrt(axis.x ** 2 + axis.y ** 2 + axis.z ** 2)
            if abs(norm - 1.0) > 1e-9:
                raise ValueError(f"axis {axis} is not unit length")
        dot = (self.z_axis.x * self.x_axis.x + self.z_axis.y * self.x_axis.y
               + self.z_axis.z * self.x_axis.z)
        if abs(dot) > 1e-9:
            raise ValueError("placement axes are not orthogonal")

    @cached_property
    def y_axis(self) -> Point3:
        z, x = self.z_axis, self.x_axis
        return Point3(z.y * x.z - z.z * x.y, z.z * x.x - z.x * x.z,
                      z.x * x.y - z.y * x.x)

    def to_world(self, p: Point3) -> Point3:
        x, y, z = self.x_axis, self.y_axis, self.z_axis
        return Point3(
            self.origin.x + p.x * x.x + p.y * y.x + p.z * z.x,
            self.origin.y + p.x * x.y + p.y * y.y + p.z * z.y,
            self.origin.z + p.x * x.z + p.y * y.z + p.z * z.z,
        )

    def rotate(self, v: Point3) -> Point3:
        x, y, z = self.x_axis, self.y_axis, self.z_axis
        return Point3(
            v.x * x.x + v.y * y.x + v.z * z.x,
            v.x * x.y + v.y * y.y + v.z * z.y,
            v.x * x.z + v.y * y.z + v.z * z.z,
        )


def _length(v: Point3) -> float:
    return (v.x ** 2 + v.y ** 2 + v.z ** 2) ** 0.5


def _unit(v: Point3) -> Point3:
    try:
        length = _length(v)
    except OverflowError:
        length = math.inf
    if not 1e-150 < length < 1e150:
        scale = max(map(abs, v))
        if scale == 0.0:
            raise ZeroLengthAxis(f"direction {tuple(v)} has zero length")
        v = Point3(v.x / scale, v.y / scale, v.z / scale)
        length = _length(v)
    return Point3(v.x / length, v.y / length, v.z / length)


def _first_proj_axis(z_axis: Point3, direction: Point3) -> Point3:
    unit = _unit(direction)
    dot = unit.x * z_axis.x + unit.y * z_axis.y + unit.z * z_axis.z
    if dot == 0.0:
        return unit
    x_axis = Point3(unit.x - dot * z_axis.x, unit.y - dot * z_axis.y,
                    unit.z - dot * z_axis.z)
    if _length(x_axis) <= 1e-6:
        raise ZeroLengthAxis("RefDirection is parallel to Axis")
    return _unit(x_axis)


def _oracle_local(model, inst) -> OraclePlacement:
    coords = model.resolve(inst.attributes[0]).attributes[0]
    origin = Point3(*coords, *(0.0,) * (3 - len(coords)))
    if inst.class_name != "IFCAXIS2PLACEMENT3D":
        # IFC's 2D rule: the RefDirection's x and y ratios, z 0, about world z
        ref = inst.attributes[1]
        if ref is None:
            return OraclePlacement(origin)
        x, y = model.resolve(ref).attributes[0][:2]
        return OraclePlacement(origin, Point3(0.0, 0.0, 1.0),
                               _first_proj_axis(Point3(0.0, 0.0, 1.0), Point3(x, y, 0.0)))
    if inst.attributes[1:] == (None, None):
        return OraclePlacement(origin)
    axis, ref_direction = (None if ref is None else Point3(*model.resolve(ref).attributes[0])
                           for ref in inst.attributes[1:])
    z_axis = Point3(0.0, 0.0, 1.0) if axis is None else _unit(axis)
    if ref_direction is None:
        ref_direction = Point3(0.0, 1.0, 0.0) if z_axis.y == z_axis.z == 0.0 \
            else Point3(1.0, 0.0, 0.0)
    return OraclePlacement(origin, z_axis, _first_proj_axis(z_axis, ref_direction))


def oracle_world(model, placement_id: int) -> OraclePlacement:
    chain = []
    inst = model.entities[placement_id]
    while True:
        chain.append(_oracle_local(model, model.resolve(inst.attributes[1])))
        if inst.attributes[0] is None:
            break
        inst = model.resolve(inst.attributes[0])
    world = chain.pop()
    while chain:
        local = chain.pop()
        world = OraclePlacement(
            origin=world.to_world(local.origin),
            z_axis=world.rotate(local.z_axis),
            x_axis=world.rotate(local.x_axis),
        )
    if not all(map(math.isfinite, world.origin)):
        raise InvalidPlacement("world origin is not finite")
    return world


_COORD = st.one_of(st.integers(-20, 20).map(float), st.floats(-1e4, 1e4),
                   st.sampled_from([1e308, -1e308, 1e-300]))
_RATIO = st.one_of(st.integers(-2, 2).map(float), st.floats(-2.0, 2.0),
                   st.sampled_from([1e300, -1e-300, 1e-7, 1e-160]))
_DIRECTION = st.one_of(st.none(), st.tuples(_RATIO, _RATIO, _RATIO))
_LOCAL = st.tuples(
    st.sampled_from(["IFCAXIS2PLACEMENT3D", "IFCAXIS2PLACEMENT3D", "IFCAXIS2PLACEMENT2D"]),
    st.one_of(st.tuples(_COORD, _COORD), st.tuples(_COORD, _COORD, _COORD)),
    _DIRECTION, _DIRECTION)


def _frame_error(resolve):
    try:
        return resolve()
    except (ZeroLengthAxis, InvalidPlacement) as error:
        return type(error)


@given(st.lists(_LOCAL, min_size=1, max_size=6))
# an axis with no RefDirection, a tilted RefDirection on a tilted axis, and
# a frame rotated about world x below one rotated about world z
@example([("IFCAXIS2PLACEMENT3D", (1.0, 2.0, 3.0), (1.0, 0.0, 0.0), None)])
@example([("IFCAXIS2PLACEMENT3D", (0.0, 0.0), (0.0, 1.0, 1.0), (1.0, 1.0, 0.5))])
@example([("IFCAXIS2PLACEMENT3D", (5.0, 0.0, 0.0), None, (0.0, 1.0, 0.0)),
          ("IFCAXIS2PLACEMENT3D", (0.0, 2.0, 1.0), (0.0, -1.0, 0.0), None)])
def test_world_frames_equal_the_checked_composition(locals_):
    model = new_model(guid_seed=3)
    parent = None
    chain = []
    for class_name, coords, axis, ref_direction in locals_:
        location = EntityRef(model.add("IFCCARTESIANPOINT", [coords]))
        axis_ref, ref_ref = (None if ratios is None
                             else EntityRef(model.add("IFCDIRECTION", [ratios]))
                             for ratios in (axis, ref_direction))
        if class_name == "IFCAXIS2PLACEMENT3D":
            a2p = model.add(class_name, [location, axis_ref, ref_ref])
        else:
            a2p = model.add(class_name, [location, ref_ref])
        parent = EntityRef(model.add("IFCLOCALPLACEMENT", [parent, EntityRef(a2p)]))
        chain.append(parent.id)
    for placement_id in chain:
        world = _frame_error(lambda: model.resolve_placement(placement_id))
        oracle = _frame_error(lambda: oracle_world(model, placement_id))
        if isinstance(oracle, type):
            assert world is oracle
            continue
        assert (world.origin, world.z_axis, world.x_axis, world.y_axis) == (
            oracle.origin, oracle.z_axis, oracle.x_axis, oracle.y_axis)
        z, x = world.z_axis, world.x_axis
        assert abs(math.sqrt(z.x ** 2 + z.y ** 2 + z.z ** 2) - 1.0) <= 1e-9
        assert abs(math.sqrt(x.x ** 2 + x.y ** 2 + x.z ** 2) - 1.0) <= 1e-9
        assert abs(z.x * x.x + z.y * x.y + z.z * x.z) <= 1e-9
