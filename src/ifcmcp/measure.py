"""Derived geometric quantities read back from representation subgraphs.

This is the one module that reads a product's body records: ``body_of``
decodes them into an immutable ``Extrusion`` or a ``TriMesh``, and
``world_frame`` composes an extrusion's ``Position`` into its product's
``Placement``. ``bounds``, ``axis`` and ``world_mesh`` place a body in that
one frame, so a caller that holds both reads the product once. Every
attribute goes through ``model.read`` by name and every axis placement
through ``geometry.read_axes``, so a malformed record raises ``InvalidBody``
naming its ``#id``, class and attribute; a profile class the kit does not
write measures as ``None``. A profile is checked once, where it is decoded,
by the rectangle or polyline arm, and ``world_mesh`` and the plan draw it
unchecked. ``admit`` runs the same decoding on the body a create tool is
about to write, and on that body as a reload reads it, so the tool refuses
before writing what a read would refuse, before or after a save.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Callable, NamedTuple

from . import schema
from .errors import EmptyMesh, InvalidBody
from .geometry import (POINT_TOL, WORLD, Placement, Point2, Point3, Polygon2, Sweep, TriMesh,
                       checked_mesh, checked_polygon, polygon_area, prism_mesh, read_axes,
                       rectangle_record)
from .model import POSITIVE, REF, REFS, TEXT, IfcModel, read
from .step import format_real


class Extrusion(NamedTuple):
    """An extruded area solid; ``frame`` is its ``Position``. ``bbox`` (x0, y0,
    x1, y1), ``area`` and the checked ``outline`` are the profile's in
    ``frame``."""

    bbox: tuple[float, float, float, float]
    area: float
    depth: float
    direction: Point3
    frame: Placement
    outline: Polygon2


class WallAxis(NamedTuple):
    """Axis, dimensions and frame of a wall built by this kit. ``placement``
    is the body's frame, turned upright if the body hangs down from it,
    moved to ``start``, the axis's start at the body's lowest point: a
    point's x there is its position along the axis, its y its position
    across and its z its height above the body's bottom."""

    start: Point3
    end: Point3
    length: float
    thickness: float
    height: float
    placement: Placement


def _position(model: IfcModel, record) -> Placement:
    """Frame of the optional ``Position``; WORLD when unset."""
    position = read(model, record, "Position", REF, InvalidBody, None)
    return WORLD if position is None else read_axes(model, position, InvalidBody)


def body_of(model: IfcModel, entity_id: int) -> Extrusion | TriMesh | None:
    """Decode the Body shape representation of a product, if it has one."""
    shape = read(model, model.entities[entity_id], "Representation", REF, InvalidBody, None)
    if shape is None:
        return None
    for rep in read(model, shape, "Representations", REFS, InvalidBody):
        if read(model, rep, "RepresentationIdentifier", TEXT, InvalidBody, None) != "Body":
            continue
        for item in read(model, rep, "Items", REFS, InvalidBody)[:1]:  # the first item alone
            if item.class_name == "IFCEXTRUDEDAREASOLID":
                return _decode_extrusion(model, item)
            if item.class_name == "IFCFACETEDBREP":
                return _decode_brep(model, item)
    return None


def _decode_extrusion(model: IfcModel, solid) -> Extrusion | None:
    """None for a profile class other than a rectangle or a polyline polygon."""
    profile = read(model, solid, "SweptArea", REF, InvalidBody)
    if profile.class_name == "IFCRECTANGLEPROFILEDEF":
        xdim = read(model, profile, "XDim", POSITIVE, InvalidBody)
        ydim = read(model, profile, "YDim", POSITIVE, InvalidBody)
        bbox, area, outline = rectangle_profile(xdim, ydim, _position(model, profile))
    elif profile.class_name == "IFCARBITRARYCLOSEDPROFILEDEF":
        curve = read(model, profile, "OuterCurve", REF, InvalidBody)
        bbox, area, outline = polyline_profile(
            [Point2(*read(model, point, "Coordinates", (2, 3), InvalidBody)[:2])
             for point in read(model, curve, "Points", REFS, InvalidBody)])
    else:
        return None
    direction = read(model, solid, "ExtrudedDirection", REF, InvalidBody)
    ratios = read(model, direction, "DirectionRatios", (3,), InvalidBody)
    return Extrusion(bbox, area, read(model, solid, "Depth", POSITIVE, InvalidBody),
                     Point3(*ratios), _position(model, solid), outline)


def rectangle_profile(xdim: float, ydim: float,
                      position: Placement) -> tuple[tuple, float, Polygon2]:
    """The bbox, area and checked outline of a rectangle profile of positive
    ``xdim`` and ``ydim`` centred on ``position``."""
    (ox, oy, _oz), z_axis, (ux, uy, _uz), (vx, vy, _vz) = position
    x, y = xdim / 2, ydim / 2
    corners = [Point2(ox + a * ux + b * vx, oy + a * uy + b * vy)  # its frame's (a, b, 0)
               for a, b in ((-x, -y), (x, -y), (x, y), (-x, y))]
    xs, ys = zip(*corners)
    bbox = (min(xs), min(ys), max(xs), max(ys))
    largest = max(-bbox[0], -bbox[1], bbox[2], bbox[3])  # the largest |coordinate|
    # checked_polygon must accept corners that run counter-clockwise (the
    # frame faces up), whose area terms cannot overflow (up to 1e150) and
    # whose sides are too long for rounding at that size to merge, cross
    # or flatten them: only other corners are checked
    outline = Polygon2(tuple(corners)) if z_axis == WORLD.z_axis and largest <= 1e150 \
        and min(xdim, ydim) >= max(2 * POINT_TOL, 1e-6 * largest) else checked_polygon(corners)
    return bbox, xdim * ydim, outline


def polyline_profile(points: list[Point2]) -> tuple[tuple, float, Polygon2]:
    """The bbox, area and checked outline of a polyline profile's points; a
    last point within 1e-9 m of the first closes the curve."""
    if len(points) > 1 and math.hypot(points[0].x - points[-1].x,
                                      points[0].y - points[-1].y) < 1e-9:
        points = points[:-1]
    outline = checked_polygon(points)
    return outline.bounds(), polygon_area(outline), outline


def admit(body: Sweep | TriMesh) -> Extrusion | TriMesh:
    """The body ``body_of`` decodes from what ``geometry.emit_body`` writes
    for ``body``, checked as decoding checks it: a sweep's profile by the arm
    that reads its record, then by the prism ``world_mesh`` derives; a welded
    mesh by ``checked_mesh``, its vertices in the order ``_decode_brep`` meets
    them. Where the file rounds a real it writes (``step.format_real`` keeps
    15 digits), the body a reload decodes is checked too."""
    reals: set[float] = set()
    admitted = _decoded(body, lambda x: reals.add(x) or x)
    written = {x: float(format_real(x)) for x in reals}  # as a reload reads it
    if any(y != x for x, y in written.items()):
        _decoded(body, written.__getitem__)
    return admitted


def _decoded(body: Sweep | TriMesh, real: Callable[[float], float]) -> Extrusion | TriMesh:
    """``admit``'s body, with each real ``emit_body`` writes mapped by ``real``."""
    if isinstance(body, TriMesh):
        order: dict[int, int] = {}
        faces = [tuple(order.setdefault(i, len(order)) for i in face) for face in body.faces]
        return checked_mesh([tuple(map(real, body.vertices[i])) for i in order], faces)
    rectangle = rectangle_record(body.profile)
    if rectangle is None:  # the points written (a -0.0 is written 0.0)
        points = [Point2(real(x), real(y)) for x, y in body.profile.vertices]
        bbox, area, outline = polyline_profile([*points, points[0]])
    else:
        (cx, cy), xdim, ydim = rectangle
        bbox, area, outline = rectangle_profile(
            real(xdim), real(ydim), Placement(Point3(real(cx), real(cy), 0.0), *WORLD[1:]))
    depth = real(body.depth)
    prism_mesh(outline, depth)
    return Extrusion(bbox, area, depth, body.direction, WORLD, outline)


def _decode_brep(model: IfcModel, brep) -> TriMesh:
    vertices: list[tuple[float, float, float]] = []
    vertex_index: dict[int, int] = {}
    faces: list[tuple[int, int, int]] = []
    shell = read(model, brep, "Outer", REF, InvalidBody)
    for face in read(model, shell, "CfsFaces", REFS, InvalidBody):
        for bound in read(model, face, "Bounds", REFS, InvalidBody):
            loop = read(model, bound, "Bound", REF, InvalidBody)
            ids = []
            for point in read(model, loop, "Polygon", REFS, InvalidBody):
                if point.id not in vertex_index:
                    vertex_index[point.id] = len(vertices)
                    vertices.append(read(model, point, "Coordinates", (3,), InvalidBody))
                ids.append(vertex_index[point.id])
            for k in range(1, len(ids) - 1):  # fan for polygonal loops
                faces.append((ids[0], ids[k], ids[k + 1]))
    return checked_mesh(vertices, faces)


def world_frame(body: Extrusion | TriMesh, placement: Placement) -> Placement:
    """World frame of a decoded body's coordinates: an extrusion's ``frame``
    composed into its product's ``placement``, or the latter for a brep."""
    return placement.compose(body.frame) if isinstance(body, Extrusion) else placement


def bounds(body: Extrusion | TriMesh, frame: Placement) -> tuple[Point3, Point3]:
    """World box of a body in its ``world_frame``. A finite body and frame can
    still overflow there: InvalidBody."""
    if isinstance(body, TriMesh):
        (x0, y0, z0), (x1, y1, z1) = body.bounds()
    else:
        x0, y0, x1, y1 = body.bbox
        d, depth = body.direction, body.depth
        dx, dy, dz = d.x * depth, d.y * depth, d.z * depth
        x0, y0, z0 = x0 + min(dx, 0.0), y0 + min(dy, 0.0), min(dz, 0.0)
        x1, y1, z1 = x1 + max(dx, 0.0), y1 + max(dy, 0.0), max(dz, 0.0)
    # each corner is frame.to_world's, unrolled: read tools box every product
    (ox, oy, oz), (zx, zy, zz), (xx, xy, xz), (yx, yy, yz) = frame
    corners = [(ox + x * xx + y * yx + z * zx, oy + x * xy + y * yy + z * zy,
                oz + x * xz + y * yz + z * zz)
               for x in (x0, x1) for y in (y0, y1) for z in (z0, z1)]
    if not all(map(math.isfinite, chain.from_iterable(corners))):
        raise InvalidBody("a body's world bounding box is not finite")
    return Point3(*map(min, zip(*corners))), Point3(*map(max, zip(*corners)))


def axis(body: Extrusion, frame: Placement) -> WallAxis:
    """The axis of a wall whose body runs along its frame's x, placed by
    ``frame``: its ``world_frame`` for world coordinates, or the body's own
    ``frame`` for coordinates under the wall's ``ObjectPlacement``."""
    x0, y0, x1, y1 = body.bbox
    rise = body.direction.z * body.depth  # the body's top or bottom z in ``frame``
    if frame.z_axis.z < 0:  # a body that hangs down from its frame: turned upright about x
        frame = frame._replace(z_axis=Point3(*(0.0 - v for v in frame.z_axis)),
                               y_axis=Point3(*(0.0 - v for v in frame.y_axis)))
        rise = -rise
    low = min(rise, 0.0)
    start = frame.to_world(Point3(x0, 0.0, low))
    return WallAxis(start, frame.to_world(Point3(x1, 0.0, low)), x1 - x0, y1 - y0, body.depth,
                    frame._replace(origin=start))


def world_bbox(model: IfcModel, entity_id: int,
               placement: Placement) -> tuple[Point3, Point3] | None:
    """World box of a product whose ``placement_of`` is ``placement``."""
    body = body_of(model, entity_id)
    return None if body is None else bounds(body, world_frame(body, placement))


def world_mesh(model: IfcModel, entity_id: int) -> TriMesh | None:
    """Body geometry in world coordinates: a brep, or an extrusion's prism,
    shifted down by its depth when it extrudes down, placed in its
    ``world_frame``. The mesh is derived from a checked body, so only its
    coordinates are checked, as huge origins overflow there (EmptyMesh)."""
    body = body_of(model, entity_id)
    if body is None:
        return None
    frame = world_frame(body, model.placement_of(entity_id))
    if isinstance(body, TriMesh):
        vertices, faces = body.vertices, body.faces
    else:
        vertices, faces = prism_mesh(body.outline, body.depth)
        if body.direction.z < 0:  # downward extrusion: the prism tops out at origin
            vertices = [(x, y, z - body.depth) for x, y, z in vertices]
    vertices = tuple(map(frame.to_world, vertices))
    if not all(map(math.isfinite, chain.from_iterable(vertices))):
        raise EmptyMesh("mesh has non-finite coordinates")
    return TriMesh(vertices, faces)


def wall_axis(model: IfcModel, wall_id: int) -> WallAxis | None:
    body = body_of(model, wall_id)
    if not isinstance(body, Extrusion):
        return None
    return axis(body, world_frame(body, model.placement_of(wall_id)))


def element_length(model: IfcModel, entity_id: int) -> float | None:
    if model.entities[entity_id].class_name in schema.WALL_CLASSES:
        axis = wall_axis(model, entity_id)
        return axis.length if axis else None
    body = body_of(model, entity_id)
    if body is None:
        return None
    lo, hi = bounds(body, WORLD)
    return hi.x - lo.x


def element_height(model: IfcModel, entity_id: int) -> float | None:
    body = body_of(model, entity_id)
    if isinstance(body, TriMesh):
        lo, hi = body.bounds()
        return hi.z - lo.z
    return None if body is None else body.depth


def element_area(model: IfcModel, entity_id: int) -> float | None:
    """Walls: axis length times height. Other extrusions: profile area."""
    if model.entities[entity_id].class_name in schema.WALL_CLASSES:
        axis = wall_axis(model, entity_id)
        return None if axis is None else axis.length * axis.height
    body = body_of(model, entity_id)
    return body.area if isinstance(body, Extrusion) else None


def element_elevation(model: IfcModel, entity_id: int) -> float:
    return model.placement_of(entity_id).origin.z
