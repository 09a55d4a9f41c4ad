"""Predefined element creation tools: walls, slabs, roofs, openings, stairs.

Every builder validates its parameters and builds each product's body as a
value, a ``geometry.Sweep`` or a ``geometry.weld``-ed mesh. One rule,
``measure.admit``, checks every body as ``body_of`` will decode it before
the builder's first write, so a refused call writes nothing and an accepted
product reads back. Only then does the builder write each body through the
one emitter, ``geometry.emit_body``, link containment, and return the
GlobalId(s) of what it created. Defaults follow common practice: doors
0.9 x 2.1 m, windows 1.2 x 1.4 m with a 0.9 m sill.
"""

from __future__ import annotations

import math

from . import measure, schema
from .errors import (ClassNotAllowed, InvalidParams, OpeningOutOfBounds, SkeletonFailure,
                     UnknownStorey, WallsNotClosed)
from .geometry import (WORLD, Placement, Point2, Point3, Polygon2, Sweep, TriMesh, checked_polygon,
                       dist2, emit_axis2placement3d, emit_body, prism_mesh, wall_axis_to_profile,
                       weld)
from .model import IfcModel, placement_id
from .skeleton import gable_roof_solid, hip_roof_solid
from .step import EntityRef, EnumToken

DOOR_WIDTH = 0.9
DOOR_HEIGHT = 2.1
WINDOW_WIDTH = 1.2
WINDOW_HEIGHT = 1.4
WINDOW_SILL = 0.9
FLAT_ROOF_THICKNESS = 0.2
DOWN = Point3(0.0, 0.0, -1.0)

MESH_CLASS_ALLOWLIST = frozenset({
    "IFCBUILDINGELEMENTPROXY", "IFCFURNISHINGELEMENT", "IFCROOF", "IFCSTAIR",
    "IFCWALL", "IFCSLAB", "IFCCOLUMN", "IFCBEAM", "IFCMEMBER",
})


def _resolve_storey(model: IfcModel, storey_guid: str | None,
                    elevation: float | None = None) -> int:
    if storey_guid is not None:
        entity_id = model.by_guid.get(storey_guid)
        if entity_id is None or model.entities[entity_id].class_name != "IFCBUILDINGSTOREY":
            raise UnknownStorey(f"no storey with GlobalId {storey_guid!r}")
        return entity_id
    if elevation is not None:
        return model.storey_for_elevation(elevation)
    return model.default_storey()


def _add_product(model: IfcModel, class_name: str, parent: int, frame: Placement,
                 body: Sweep | TriMesh, name: str | None, *rest,
                 storey: int | None = None) -> tuple[str, int]:
    """Write a product with the admitted ``body``, placed at ``frame`` in the
    placement of the entity ``parent`` and contained in ``storey`` when one is
    given; returns (GlobalId, id). ``rest`` follows the eight attributes every
    product shares."""
    parent_lp = placement_id(model, parent)
    lp = model.add("IFCLOCALPLACEMENT", [parent_lp and EntityRef(parent_lp),
                                         EntityRef(emit_axis2placement3d(model, frame))])
    shape = emit_body(model, body)
    guid = model.guids.fresh()
    product = model.add(class_name, [guid, None, name or model.next_name(class_name), None, None,
                                     EntityRef(lp), EntityRef(shape), None, *rest])
    if storey is not None:
        model.contain_in_storey(product, storey)
    return guid, product


def _wall_id(model: IfcModel, guid: str) -> int:
    wall = model.require_guid(guid)
    if wall.class_name not in schema.WALL_CLASSES:
        raise InvalidParams(f"{guid} is not a wall")
    return wall.id


def _create_walls(model: IfcModel, points, height: float, thickness: float,
                  storey: str | None, name: str | None = None) -> list[str]:
    """A wall from each point to the next; every wall is admitted before the
    first is written."""
    if height <= 0:
        raise InvalidParams(f"wall height must be positive, got {height}")
    if thickness <= 0:
        raise InvalidParams(f"wall thickness must be positive, got {thickness}")
    walls = []
    for start, end in zip(points, points[1:]):
        start, end = Point2(*map(float, start)), Point2(*map(float, end))
        if dist2(start, end) < 1e-6:
            raise InvalidParams("wall start and end points coincide")
        profile, frame = wall_axis_to_profile(start, end, thickness)
        body = Sweep(profile, float(height))
        measure.admit(body)
        walls.append((frame, body))
    storey_id = _resolve_storey(model, storey)
    guids = []
    for frame, body in walls:
        guid, wall = _add_product(model, "IFCWALL", storey_id, frame, body, name,
                                  EnumToken("STANDARD"), storey=storey_id)
        # one default wall type, hidden from the viewport listing
        wall_type = model.by_class.get("IFCWALLTYPE") or [model.add("IFCWALLTYPE", [
            model.guids.fresh(), None, "wall", None, None, None, None, None, None,
            EnumToken("STANDARD")])]
        model.relate("IFCRELDEFINESBYTYPE", wall_type[0], wall)
        guids.append(guid)
    return guids


def create_wall(model: IfcModel, start, end, height: float, thickness: float,
                storey: str | None = None, name: str | None = None) -> str:
    return _create_walls(model, [start, end], height, thickness, storey, name)[0]


def create_wall_chain(model: IfcModel, points, height: float, thickness: float,
                      close: bool = False, storey: str | None = None) -> list[str]:
    if len(points) < 2:
        raise InvalidParams("wall chain needs at least 2 points")
    if close and len(points) < 3:
        raise InvalidParams("closing a chain needs at least 3 points")
    return _create_walls(model, [*points, points[0]] if close else points, height, thickness,
                         storey)


def create_slab(model: IfcModel, outline, thickness: float, elevation: float = 0.0,
                name: str | None = None, storey: str | None = None) -> str:
    if thickness <= 0:
        raise InvalidParams(f"slab thickness must be positive, got {thickness}")
    poly = checked_polygon(outline)
    storey_id = _resolve_storey(model, storey, elevation=elevation)
    local_z = elevation - model.storey_elevation(storey_id)
    # top face at the given elevation: extrude downward by the thickness
    body = Sweep(poly, float(thickness), DOWN)
    measure.admit(body)
    frame = WORLD._replace(origin=Point3(0.0, 0.0, local_z))
    return _add_product(model, "IFCSLAB", storey_id, frame, body, name, EnumToken("FLOOR"),
                        storey=storey_id)[0]


def create_roof(model: IfcModel, outline, style: str = "hip",
                slope_deg: float = 30.0, base_z: float = 0.0,
                name: str | None = None) -> tuple[str, list[str]]:
    if style not in ("hip", "gable", "flat"):
        raise InvalidParams(f"roof style must be hip, gable or flat, got {style!r}")
    poly = checked_polygon(outline)
    storey_id = model.storey_for_elevation(base_z)
    local_z = base_z - model.storey_elevation(storey_id)
    warnings: list[str] = []
    body, predefined = Sweep(poly, FLAT_ROOF_THICKNESS), "FLAT_ROOF"
    for kind, solid, fallback in (("gable", gable_roof_solid, "hip"),
                                  ("hip", hip_roof_solid, "flat")):
        if style == kind:
            try:
                body, predefined = weld(solid(poly, slope_deg, 0.0)), f"{kind.upper()}_ROOF"
            except SkeletonFailure as exc:
                warnings.append(f"{kind} roof unavailable ({exc}); using {fallback} roof")
                style = fallback
    measure.admit(body)
    guid, _roof = _add_product(model, "IFCROOF", storey_id,
                               WORLD._replace(origin=Point3(0.0, 0.0, local_z)), body, name,
                               EnumToken(predefined), storey=storey_id)
    return guid, warnings


def create_roof_over_walls(model: IfcModel, wall_guids: list[str],
                           style: str = "hip", slope_deg: float = 30.0,
                           name: str | None = None) -> tuple[str, list[str]]:
    if len(wall_guids) < 3:
        raise WallsNotClosed("need at least 3 walls to outline a roof")
    axes = []
    for guid in wall_guids:
        axis = measure.wall_axis(model, _wall_id(model, guid))
        if axis is None:
            raise InvalidParams(f"{guid} is not a wall with an axis profile")
        axes.append(axis)

    tol = 1e-6
    ends = [(Point2(*axis.start[:2]), Point2(*axis.end[:2])) for axis in axes]
    loop = list(ends.pop(0))
    while ends:  # the first wall, in order, with an end at the loop's tail
        tail = loop[-1]
        hit = next((k for k, (s, e) in enumerate(ends)
                    if dist2(s, tail) < tol or dist2(e, tail) < tol), None)
        if hit is None:
            raise WallsNotClosed("wall endpoints do not chain into a loop")
        s, e = ends.pop(hit)
        loop.append(e if dist2(s, tail) < tol else s)
    if dist2(loop[-1], loop[0]) > tol:
        raise WallsNotClosed("wall chain does not return to its start")
    base_z = max(axis.start.z + axis.height for axis in axes)
    return create_roof(model, loop[:-1], style=style, slope_deg=slope_deg,
                       base_z=base_z, name=name)


def _project_on_axis(axis: measure.WallAxis, point: Point2) -> tuple[float, float]:
    """Metres along a wall axis to the axis point nearest to a 2D point, and
    the distance between the two: the point's coordinates in the axis frame,
    its x clamped to the axis."""
    along, across, _up = axis.placement.to_local(Point3(point.x, point.y, axis.start.z))
    nearest = min(max(along, 0.0), axis.length)
    return nearest, math.hypot(along - nearest, across)


def _nearest_wall(model: IfcModel, point: Point2) -> int:
    """Id of the wall whose axis passes nearest to a 2D point."""
    best = None
    for wall_id in model.ids_of(schema.WALL_CLASSES.__contains__):
        axis = measure.wall_axis(model, wall_id)
        if axis is None:
            continue
        _along, distance = _project_on_axis(axis, point)
        if best is None or distance < best[1]:
            best = (wall_id, distance)
    if best is None:
        raise InvalidParams("model has no walls to host the opening")
    return best[0]


def _create_filled_opening(model: IfcModel, filler_class: str,
                           wall_guid: str | None, position,
                           position_along_axis: float | None,
                           width: float, height: float, sill: float,
                           name: str | None) -> tuple[str, str]:
    if width <= 0 or height <= 0:
        raise InvalidParams("opening width and height must be positive")
    if sill < 0:
        raise InvalidParams("sill height cannot be negative")

    point = None if position is None else Point2(float(position[0]), float(position[1]))
    if wall_guid is not None:
        wall_id = _wall_id(model, wall_guid)
        if position_along_axis is None and point is None:
            raise InvalidParams("provide position_along_axis or a position point")
    elif point is None:
        raise InvalidParams("provide a wall GUID or a position point")
    else:
        wall_id, position_along_axis = _nearest_wall(model, point), None

    body = measure.body_of(model, wall_id)
    if not isinstance(body, measure.Extrusion):
        raise InvalidParams("host wall has no axis profile")
    # the axis in the body's frame under the wall's ObjectPlacement
    axis = measure.axis(body, body.frame)
    if position_along_axis is None:
        world = measure.axis(body, measure.world_frame(body, model.placement_of(wall_id)))
        position_along_axis, _distance = _project_on_axis(world, point)
    pos = float(position_along_axis)
    if pos - width / 2 < -1e-9 or pos + width / 2 > axis.length + 1e-9:
        raise OpeningOutOfBounds(
            f"opening spans [{pos - width / 2:.3f}, {pos + width / 2:.3f}] m "
            f"on a {axis.length:.3f} m wall"
        )
    if sill + height > axis.height + 1e-9:
        raise OpeningOutOfBounds(
            f"opening top at {sill + height:.3f} m exceeds wall height "
            f"{axis.height:.3f} m"
        )

    x, y = width / 2, axis.thickness / 2
    # the opening's and its filler's body; admitting it checks the box
    body = Sweep(Polygon2((Point2(-x, -y), Point2(x, -y), Point2(x, y), Point2(-x, y))),
                 float(height))
    measure.admit(body)

    frame = axis.placement._replace(origin=axis.placement.to_world(Point3(pos, 0.0, sill)))
    opening_guid, opening = _add_product(model, "IFCOPENINGELEMENT", wall_id, frame, body, None,
                                         EnumToken("OPENING"))
    model.relate("IFCRELVOIDSELEMENT", wall_id, opening)

    filler_guid, filler = _add_product(model, filler_class, opening, WORLD, body, name,
                                       float(height), float(width), None, None, None)
    model.relate("IFCRELFILLSELEMENT", opening, filler)
    storey_id = model.storey_of(wall_id) or model.default_storey()
    model.contain_in_storey(filler, storey_id)
    return filler_guid, opening_guid


def create_door(model: IfcModel, wall_guid: str | None = None, position=None,
                position_along_axis: float | None = None,
                width: float = DOOR_WIDTH, height: float = DOOR_HEIGHT,
                name: str | None = None) -> tuple[str, str]:
    """Door voided into a wall; sill is always 0."""
    return _create_filled_opening(model, "IFCDOOR", wall_guid, position,
                                  position_along_axis, width, height, 0.0, name)


def create_window(model: IfcModel, wall_guid: str | None = None, position=None,
                  position_along_axis: float | None = None,
                  width: float = WINDOW_WIDTH, height: float = WINDOW_HEIGHT,
                  sill_height: float = WINDOW_SILL,
                  name: str | None = None) -> tuple[str, str]:
    return _create_filled_opening(model, "IFCWINDOW", wall_guid, position,
                                  position_along_axis, width, height,
                                  sill_height, name)


def create_stairs(model: IfcModel, origin, direction_deg: float,
                  total_rise: float, total_run: float, step_count: int,
                  width: float, name: str | None = None) -> str:
    if step_count < 2:
        raise InvalidParams(f"stairs need at least 2 steps, got {step_count}")
    if total_rise <= 0 or total_run <= 0 or width <= 0:
        raise InvalidParams("rise, run and width must all be positive")
    riser = total_rise / step_count
    tread = total_run / step_count

    # sawtooth side profile (x along run, second coordinate up)
    profile_pts: list[tuple[float, float]] = [(0.0, 0.0), (total_run, 0.0),
                                              (total_run, total_rise)]
    for i in range(step_count - 1, 0, -1):
        profile_pts.append((i * tread, (i + 1) * riser))
        profile_pts.append((i * tread, i * riser))
    profile_pts.append((0.0, riser))
    body = weld(prism_mesh(checked_polygon(profile_pts), width, axis="y"))
    measure.admit(body)

    origin = Point3(*(float(v) for v in origin))
    storey_id = model.storey_for_elevation(origin.z)
    local_z = origin.z - model.storey_elevation(storey_id)
    angle = math.radians(direction_deg)
    x_axis = Point3(math.cos(angle), math.sin(angle), 0.0)
    frame = Placement(Point3(origin.x, origin.y, local_z), WORLD.z_axis, x_axis,
                      Point3(-x_axis.y, x_axis.x, 0.0))
    return _add_product(model, "IFCSTAIR", storey_id, frame, body, name,
                        EnumToken("STRAIGHT_RUN_STAIR"), storey=storey_id)[0]


def create_mesh_element(model: IfcModel, ifc_class: str, mesh: TriMesh,
                        name: str, storey: str | None = None) -> str:
    ifc_class = ifc_class.upper()
    if ifc_class not in MESH_CLASS_ALLOWLIST:
        raise ClassNotAllowed(
            f"{ifc_class} is not an allowed class for mesh elements"
        )
    storey_id = _resolve_storey(model, storey)
    body = weld(mesh)
    measure.admit(body)
    # PredefinedType, left unset, where the class has one
    rest = [None] if len(schema.ATTRIBUTES[ifc_class]) > 8 else []
    return _add_product(model, ifc_class, storey_id, WORLD, body, name, *rest,
                        storey=storey_id)[0]
