"""Predefined element creation tools: walls, slabs, roofs, openings, stairs.

Every builder validates its parameters, emits the representation subgraph
through the geometry layer, links containment, and returns the GlobalId(s)
of what it created. Defaults follow common practice where the user gives
none: doors 0.9 x 2.1 m, windows 1.2 x 1.4 m with a 0.9 m sill.
"""

from __future__ import annotations

import math

from . import measure, schema
from .errors import (
    ClassNotAllowed,
    InvalidParams,
    OpeningOutOfBounds,
    SkeletonFailure,
    UnknownStorey,
    WallsNotClosed,
)
from .geometry import (
    Point2,
    Point3,
    Polygon2,
    TriMesh,
    dist2,
    emit_axis2placement3d,
    extrude_profile,
    mesh_to_brep,
    prism_mesh,
    wall_axis_to_profile,
)
from .model import IfcModel
from .skeleton import gable_roof_solid, hip_roof_solid
from .step import EntityRef, EnumToken

DOOR_WIDTH = 0.9
DOOR_HEIGHT = 2.1
WINDOW_WIDTH = 1.2
WINDOW_HEIGHT = 1.4
WINDOW_SILL = 0.9
FLAT_ROOF_THICKNESS = 0.2

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


def _storey_placement_id(model: IfcModel, storey_id: int) -> int:
    ref = model.entities[storey_id].attributes[5]
    return ref.id if isinstance(ref, EntityRef) else None


def _place(model: IfcModel, parent_lp: int | None, origin: Point3,
           x_axis: Point3 | None = None) -> int:
    a2p = emit_axis2placement3d(
        model, origin,
        z_axis=Point3(0.0, 0.0, 1.0) if x_axis is not None else None,
        x_axis=x_axis,
    )
    parent = EntityRef(parent_lp) if parent_lp is not None else None
    return model.add("IFCLOCALPLACEMENT", [parent, EntityRef(a2p)])


def ensure_wall_type(model: IfcModel) -> int:
    """Singleton default wall type, hidden from the viewport listing."""
    existing = model.by_class.get("IFCWALLTYPE")
    if existing:
        return existing[0]
    return model.add("IFCWALLTYPE", [
        model.guids.fresh(), None, "wall", None, None, None, None, None, None,
        EnumToken("STANDARD"),
    ])


def create_wall(model: IfcModel, start, end, height: float, thickness: float,
                storey: str | None = None, name: str | None = None) -> str:
    if height <= 0:
        raise InvalidParams(f"wall height must be positive, got {height}")
    if thickness <= 0:
        raise InvalidParams(f"wall thickness must be positive, got {thickness}")
    start = Point2(*(float(v) for v in start))
    end = Point2(*(float(v) for v in end))
    if dist2(start, end) < 1e-6:
        raise InvalidParams("wall start and end points coincide")
    storey_id = _resolve_storey(model, storey)

    profile, frame = wall_axis_to_profile(start, end, thickness)
    lp = _place(model, _storey_placement_id(model, storey_id),
                Point3(start.x, start.y, 0.0), x_axis=frame.x_axis)
    shape = extrude_profile(model, profile, height)
    guid = model.guids.fresh()
    wall = model.add("IFCWALL", [
        guid, None, name or model.next_name("IFCWALL"), None, None,
        EntityRef(lp), EntityRef(shape), None, EnumToken("STANDARD"),
    ])
    model.contain_in_storey(wall, storey_id)
    model.relate("IFCRELDEFINESBYTYPE", ensure_wall_type(model), wall)
    return guid


def create_wall_chain(model: IfcModel, points, height: float, thickness: float,
                      close: bool = False, storey: str | None = None) -> list[str]:
    pts = [Point2(*(float(v) for v in p)) for p in points]
    if len(pts) < 2:
        raise InvalidParams("wall chain needs at least 2 points")
    for a, b in zip(pts, pts[1:]):
        if dist2(a, b) < 1e-6:
            raise InvalidParams("consecutive chain points coincide")
    segments = list(zip(pts, pts[1:]))
    if close:
        if len(pts) < 3:
            raise InvalidParams("closing a chain needs at least 3 points")
        if dist2(pts[-1], pts[0]) < 1e-6:
            raise InvalidParams("closing segment has zero length")
        segments.append((pts[-1], pts[0]))
    return [
        create_wall(model, a, b, height, thickness, storey=storey)
        for a, b in segments
    ]


def create_slab(model: IfcModel, outline, thickness: float, elevation: float = 0.0,
                name: str | None = None, storey: str | None = None) -> str:
    if thickness <= 0:
        raise InvalidParams(f"slab thickness must be positive, got {thickness}")
    poly = outline if isinstance(outline, Polygon2) else Polygon2(outline)
    storey_id = _resolve_storey(model, storey, elevation=elevation)
    local_z = elevation - model.storey_elevation(storey_id)
    lp = _place(model, _storey_placement_id(model, storey_id),
                Point3(0.0, 0.0, local_z))
    # top face at the given elevation: extrude downward by the thickness
    shape = extrude_profile(model, poly, thickness, direction=Point3(0.0, 0.0, -1.0))
    guid = model.guids.fresh()
    slab = model.add("IFCSLAB", [
        guid, None, name or model.next_name("IFCSLAB"), None, None,
        EntityRef(lp), EntityRef(shape), None, EnumToken("FLOOR"),
    ])
    model.contain_in_storey(slab, storey_id)
    return guid


def create_roof(model: IfcModel, outline, style: str = "hip",
                slope_deg: float = 30.0, base_z: float = 0.0,
                name: str | None = None) -> tuple[str, list[str]]:
    if style not in ("hip", "gable", "flat"):
        raise InvalidParams(f"roof style must be hip, gable or flat, got {style!r}")
    poly = outline if isinstance(outline, Polygon2) else Polygon2(outline)
    storey_id = model.storey_for_elevation(base_z)
    local_z = base_z - model.storey_elevation(storey_id)
    warnings: list[str] = []

    mesh: TriMesh | None = None
    predefined = "FLAT_ROOF"
    if style == "gable":
        try:
            mesh = gable_roof_solid(poly, slope_deg, 0.0)
            predefined = "GABLE_ROOF"
        except SkeletonFailure as exc:
            warnings.append(f"gable roof unavailable ({exc}); using hip roof")
            style = "hip"
    if style == "hip":
        try:
            mesh = hip_roof_solid(poly, slope_deg, 0.0)
            predefined = "HIP_ROOF"
        except SkeletonFailure as exc:
            warnings.append(f"hip roof unavailable ({exc}); using flat roof")
            style = "flat"

    lp = _place(model, _storey_placement_id(model, storey_id),
                Point3(0.0, 0.0, local_z))
    if style == "flat":
        shape = extrude_profile(model, poly, FLAT_ROOF_THICKNESS)
    else:
        shape = mesh_to_brep(model, mesh)
    guid = model.guids.fresh()
    roof = model.add("IFCROOF", [
        guid, None, name or model.next_name("IFCROOF"), None, None,
        EntityRef(lp), EntityRef(shape), None, EnumToken(predefined),
    ])
    model.contain_in_storey(roof, storey_id)
    return guid, warnings


def create_roof_over_walls(model: IfcModel, wall_guids: list[str],
                           style: str = "hip", slope_deg: float = 30.0,
                           name: str | None = None) -> tuple[str, list[str]]:
    if len(wall_guids) < 3:
        raise WallsNotClosed("need at least 3 walls to outline a roof")
    axes = []
    for guid in wall_guids:
        inst = model.require_guid(guid)
        axis = measure.wall_axis(model, inst.id)
        if axis is None:
            raise InvalidParams(f"{guid} is not a wall with an axis profile")
        axes.append(axis)

    tol = 1e-6
    remaining = list(range(len(axes)))
    first = axes[remaining.pop(0)]
    loop = [Point2(first["start"].x, first["start"].y),
            Point2(first["end"].x, first["end"].y)]
    while remaining:
        tail = loop[-1]
        hit = None
        for index in remaining:
            s = Point2(axes[index]["start"].x, axes[index]["start"].y)
            e = Point2(axes[index]["end"].x, axes[index]["end"].y)
            if dist2(s, tail) < tol:
                hit, nxt = index, e
                break
            if dist2(e, tail) < tol:
                hit, nxt = index, s
                break
        if hit is None:
            raise WallsNotClosed("wall endpoints do not chain into a loop")
        remaining.remove(hit)
        loop.append(nxt)
    if dist2(loop[-1], loop[0]) > tol:
        raise WallsNotClosed("wall chain does not return to its start")
    outline = Polygon2(loop[:-1])
    base_z = max(axis["base_z"] + axis["height"] for axis in axes)
    return create_roof(model, outline, style=style, slope_deg=slope_deg,
                       base_z=base_z, name=name)


def _project_on_axis(axis: dict, point: Point2) -> tuple[float, float]:
    """Metres along a wall axis to the axis point nearest to a 2D point, and
    the distance between the two."""
    sx, sy = axis["start"].x, axis["start"].y
    ex, ey = axis["end"].x, axis["end"].y
    t = ((point.x - sx) * (ex - sx) + (point.y - sy) * (ey - sy)) / (axis["length"] ** 2)
    t = min(max(t, 0.0), 1.0)
    px, py = sx + t * (ex - sx), sy + t * (ey - sy)
    return t * axis["length"], math.hypot(point.x - px, point.y - py)


def _nearest_wall(model: IfcModel, point: Point2) -> tuple[int, float]:
    """Wall id and axis parameter (metres along axis) nearest to a 2D point."""
    best = None
    for wall_id in model.ids_of(schema.WALL_CLASSES.__contains__):
        axis = measure.wall_axis(model, wall_id)
        if axis is None:
            continue
        along, distance = _project_on_axis(axis, point)
        if best is None or distance < best[2]:
            best = (wall_id, along, distance)
    if best is None:
        raise InvalidParams("model has no walls to host the opening")
    return best[0], best[1]


def _create_filled_opening(model: IfcModel, filler_class: str,
                           wall_guid: str | None, position,
                           position_along_axis: float | None,
                           width: float, height: float, sill: float,
                           name: str | None) -> tuple[str, str]:
    if width <= 0 or height <= 0:
        raise InvalidParams("opening width and height must be positive")
    if sill < 0:
        raise InvalidParams("sill height cannot be negative")

    if wall_guid is not None:
        wall = model.require_guid(wall_guid)
        if wall.class_name not in schema.WALL_CLASSES:
            raise InvalidParams(f"{wall_guid} is not a wall")
        wall_id = wall.id
        if position_along_axis is None and position is None:
            raise InvalidParams("provide position_along_axis or a position point")
    else:
        if position is None:
            raise InvalidParams("provide a wall GUID or a position point")
        point = Point2(float(position[0]), float(position[1]))
        wall_id, position_along_axis = _nearest_wall(model, point)

    axis = measure.wall_axis(model, wall_id)
    if axis is None:
        raise InvalidParams("host wall has no axis profile")
    if position_along_axis is None:
        point = Point2(float(position[0]), float(position[1]))
        position_along_axis, _distance = _project_on_axis(axis, point)
    pos = float(position_along_axis)
    if pos - width / 2 < -1e-9 or pos + width / 2 > axis["length"] + 1e-9:
        raise OpeningOutOfBounds(
            f"opening spans [{pos - width / 2:.3f}, {pos + width / 2:.3f}] m "
            f"on a {axis['length']:.3f} m wall"
        )
    if sill + height > axis["height"] + 1e-9:
        raise OpeningOutOfBounds(
            f"opening top at {sill + height:.3f} m exceeds wall height "
            f"{axis['height']:.3f} m"
        )

    thickness = axis["thickness"]
    wall_lp = model.entities[wall_id].attributes[5].id
    half_w = width / 2
    box = Polygon2([(-half_w, -thickness / 2), (half_w, -thickness / 2),
                    (half_w, thickness / 2), (-half_w, thickness / 2)])

    opening_lp = _place(model, wall_lp, Point3(pos, 0.0, sill))
    opening_shape = extrude_profile(model, box, height)
    opening_guid = model.guids.fresh()
    opening = model.add("IFCOPENINGELEMENT", [
        opening_guid, None, model.next_name("IFCOPENINGELEMENT"), None, None,
        EntityRef(opening_lp), EntityRef(opening_shape), None, EnumToken("OPENING"),
    ])
    model.relate("IFCRELVOIDSELEMENT", wall_id, opening)

    filler_lp = _place(model, opening_lp, Point3(0.0, 0.0, 0.0))
    filler_shape = extrude_profile(model, box, height)
    filler_guid = model.guids.fresh()
    filler = model.add(filler_class, [
        filler_guid, None, name or model.next_name(filler_class), None, None,
        EntityRef(filler_lp), EntityRef(filler_shape), None,
        float(height), float(width), None, None, None,
    ])
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
    mesh = prism_mesh(Polygon2(profile_pts), width, axis="y")

    origin = Point3(*(float(v) for v in origin))
    storey_id = model.storey_for_elevation(origin.z)
    local_z = origin.z - model.storey_elevation(storey_id)
    angle = math.radians(direction_deg)
    x_axis = Point3(math.cos(angle), math.sin(angle), 0.0)
    lp = _place(model, _storey_placement_id(model, storey_id),
                Point3(origin.x, origin.y, local_z), x_axis=x_axis)
    shape = mesh_to_brep(model, mesh)
    guid = model.guids.fresh()
    stair = model.add("IFCSTAIR", [
        guid, None, name or model.next_name("IFCSTAIR"), None, None,
        EntityRef(lp), EntityRef(shape), None, EnumToken("STRAIGHT_RUN_STAIR"),
    ])
    model.contain_in_storey(stair, storey_id)
    return guid


def create_mesh_element(model: IfcModel, ifc_class: str, mesh: TriMesh,
                        name: str, storey: str | None = None) -> str:
    ifc_class = ifc_class.upper()
    if ifc_class not in MESH_CLASS_ALLOWLIST:
        raise ClassNotAllowed(
            f"{ifc_class} is not an allowed class for mesh elements"
        )
    storey_id = _resolve_storey(model, storey)
    lp = _place(model, _storey_placement_id(model, storey_id), Point3(0.0, 0.0, 0.0))
    shape = mesh_to_brep(model, mesh)
    guid = model.guids.fresh()
    attrs = [guid, None, name or model.next_name(ifc_class), None, None,
             EntityRef(lp), EntityRef(shape), None]
    if len(schema.ATTRIBUTES[ifc_class]) > 8:
        attrs.append(None)  # PredefinedType where the class has one
    element = model.add(ifc_class, attrs)
    model.contain_in_storey(element, storey_id)
    return guid
