"""Derived geometric quantities read back from representation subgraphs.

This is the one module that reads a product's body records: ``body_of``
decodes them into an immutable ``Extrusion`` or a ``TriMesh``. ``bounds``
and ``axis`` derive a world box and an immutable ``WallAxis`` from a decoded
body and its product's ``Placement``, so a caller that holds both reads the
product once; ``world_bbox`` and ``wall_axis`` compose them from an id.
Every point, number and reference of a body goes through ``model.read``,
the one checked reader that also serves placements, so a malformed record
raises ``InvalidBody`` naming its ``#id``, class and attribute; a profile
class the kit does not write measures as ``None``. Everything is re-derived
from the entity graph on each call, so results stay valid across save/load
cycles.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple

from . import schema
from .errors import EmptyMesh, InvalidBody
from .geometry import (Placement, Point2, Point3, Polygon2, TriMesh, checked_mesh,
                       polygon_area, prism_mesh)
from .model import NUMBER, REF, REFS, IfcModel, read
from .step import EntityRef


class Extrusion(NamedTuple):
    """An extruded area solid in its product's frame. ``bbox`` (x0, y0, x1,
    y1) and ``area`` are the profile's; ``polygon`` is None for a rectangle."""

    bbox: tuple[float, float, float, float]
    area: float
    depth: float
    direction: Point3
    origin: Point3
    polygon: Polygon2 | None

    @property
    def outline(self) -> Polygon2:
        """The profile; a rectangle runs counter-clockwise from (x0, y0)."""
        if self.polygon is not None:
            return self.polygon
        x0, y0, x1, y1 = self.bbox
        return Polygon2([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


class WallAxis(NamedTuple):
    """World-space axis segment and dimensions of a wall built by this kit."""

    start: Point3
    end: Point3
    length: float
    thickness: float
    height: float
    placement: Placement


def _location(model: IfcModel, record, index: int) -> Point3:
    """Location of the optional ``Position`` at ``index``; z is 0 for a 2D
    point, and the origin stands in for an unset position."""
    if index < len(record.attributes) and record.attributes[index] is None:
        return Point3(0.0, 0.0, 0.0)
    position = read(model, record, index, "Position", REF, InvalidBody)
    location = read(model, position, 0, "Location", REF, InvalidBody)
    coords = read(model, location, 0, "Coordinates", (2, 3), InvalidBody)
    return Point3(*coords, *(0.0,) * (3 - len(coords)))


def body_of(model: IfcModel, entity_id: int) -> Extrusion | TriMesh | None:
    """Decode the Body shape representation of a product, if it has one."""
    inst = model.entities[entity_id]
    index = schema.attribute_index(inst.class_name, "Representation")
    if index is None or index >= len(inst.attributes):
        return None
    pds_ref = inst.attributes[index]
    if not isinstance(pds_ref, EntityRef):
        return None
    shape = model.entities[pds_ref.id]
    for rep in read(model, shape, 2, "Representations", REFS, InvalidBody):
        if rep.class_name != "IFCSHAPEREPRESENTATION" or rep.attributes[1] != "Body":
            continue
        items = read(model, rep, 3, "Items", REFS, InvalidBody)
        if not items:
            continue
        item = items[0]
        if item.class_name == "IFCEXTRUDEDAREASOLID":
            return _decode_extrusion(model, item)
        if item.class_name == "IFCFACETEDBREP":
            return _decode_brep(model, item)
    return None


def _decode_extrusion(model: IfcModel, solid) -> Extrusion | None:
    """None for a profile class other than a rectangle or a polyline polygon."""
    profile = read(model, solid, 0, "SweptArea", REF, InvalidBody)
    polygon = None
    if profile.class_name == "IFCRECTANGLEPROFILEDEF":
        xdim = read(model, profile, 3, "XDim", NUMBER, InvalidBody)
        ydim = read(model, profile, 4, "YDim", NUMBER, InvalidBody)
        cx, cy, _cz = _location(model, profile, 2)
        bbox = (cx - xdim / 2, cy - ydim / 2, cx + xdim / 2, cy + ydim / 2)
        area = xdim * ydim
    elif profile.class_name == "IFCARBITRARYCLOSEDPROFILEDEF":
        curve = read(model, profile, 2, "OuterCurve", REF, InvalidBody)
        points = [Point2(*read(model, point, 0, "Coordinates", (2, 3), InvalidBody)[:2])
                  for point in read(model, curve, 0, "Points", REFS, InvalidBody)]
        if len(points) > 1 and math.hypot(points[0].x - points[-1].x,
                                          points[0].y - points[-1].y) < 1e-9:
            points = points[:-1]
        polygon = Polygon2(points)
        bbox, area = polygon.bounds(), polygon_area(polygon)
    else:
        return None
    direction = read(model, solid, 2, "ExtrudedDirection", REF, InvalidBody)
    ratios = read(model, direction, 0, "DirectionRatios", (3,), InvalidBody)
    return Extrusion(bbox, area, read(model, solid, 3, "Depth", NUMBER, InvalidBody),
                     Point3(*ratios), _location(model, solid, 1), polygon)


def _decode_brep(model: IfcModel, brep) -> TriMesh:
    vertices: list[tuple[float, float, float]] = []
    vertex_index: dict[int, int] = {}
    faces: list[tuple[int, int, int]] = []
    shell = read(model, brep, 0, "Outer", REF, InvalidBody)
    for face in read(model, shell, 0, "CfsFaces", REFS, InvalidBody):
        for bound in read(model, face, 0, "Bounds", REFS, InvalidBody):
            loop = read(model, bound, 0, "Bound", REF, InvalidBody)
            ids = []
            for point in read(model, loop, 0, "Polygon", REFS, InvalidBody):
                if point.id not in vertex_index:
                    vertex_index[point.id] = len(vertices)
                    vertices.append(read(model, point, 0, "Coordinates", (3,), InvalidBody))
                ids.append(vertex_index[point.id])
            for k in range(1, len(ids) - 1):  # fan for polygonal loops
                faces.append((ids[0], ids[k], ids[k + 1]))
    return checked_mesh(vertices, faces)


def _local_box(body: Extrusion | TriMesh) -> tuple[Point3, Point3]:
    """Box of a decoded body in its product's frame."""
    if isinstance(body, TriMesh):
        return body.bounds()
    x0, y0, x1, y1 = body.bbox
    ox, oy, oz = body.origin
    d, depth = body.direction, body.depth
    dx, dy, dz = d.x * depth, d.y * depth, d.z * depth
    return (
        Point3(ox + x0 + min(dx, 0.0), oy + y0 + min(dy, 0.0), oz + min(dz, 0.0)),
        Point3(ox + x1 + max(dx, 0.0), oy + y1 + max(dy, 0.0), oz + max(dz, 0.0)),
    )


def bounds(body: Extrusion | TriMesh, placement: Placement) -> tuple[Point3, Point3]:
    """World box of a decoded body placed in its product's frame. A finite
    body and frame can still overflow there: InvalidBody."""
    (x0, y0, z0), (x1, y1, z1) = _local_box(body)
    to_world = placement.to_world
    corners = [to_world(Point3(x, y, z)) for x in (x0, x1) for y in (y0, y1) for z in (z0, z1)]
    if not all(map(math.isfinite, chain.from_iterable(corners))):
        raise InvalidBody("a body's world bounding box is not finite")
    return Point3(*map(min, zip(*corners))), Point3(*map(max, zip(*corners)))


def axis(body: Extrusion, placement: Placement) -> WallAxis:
    """The axis of a wall whose body is an extrusion along its local x."""
    x0, y0, x1, y1 = body.bbox
    return WallAxis(placement.to_world(Point3(x0, 0.0, 0.0)),
                    placement.to_world(Point3(x1, 0.0, 0.0)),
                    x1 - x0, y1 - y0, body.depth, placement)


def world_bbox(model: IfcModel, entity_id: int) -> tuple[Point3, Point3] | None:
    body = body_of(model, entity_id)
    return None if body is None else bounds(body, model.placement_of(entity_id))


def world_mesh(model: IfcModel, entity_id: int) -> TriMesh | None:
    """Body geometry tessellated into world coordinates.

    An extrusion's prism is built in the profile plane. Each of its
    vertices is shifted down by the depth when the extrusion points down,
    then by the solid's origin, as it is placed in the world. The mesh is
    derived from a checked body, so only its coordinates are checked, as
    huge origins overflow there (EmptyMesh). Nothing is kept between calls.
    """
    body = body_of(model, entity_id)
    if body is None:
        return None
    to_world = model.placement_of(entity_id).to_world
    if isinstance(body, TriMesh):
        vertices, faces = tuple(map(to_world, body.vertices)), body.faces
    else:
        vertices, faces = prism_mesh(body.outline, body.depth)
        if body.direction.z < 0:  # downward extrusion: the prism tops out at origin
            vertices = [(x + 0.0, y + 0.0, z - body.depth) for x, y, z in vertices]
        ox, oy, oz = body.origin
        vertices = tuple([to_world(Point3(x + ox, y + oy, z + oz)) for x, y, z in vertices])
    mesh = TriMesh(vertices, faces)
    if not all(map(math.isfinite, chain.from_iterable(vertices))):
        raise EmptyMesh("mesh has non-finite coordinates")
    return mesh


def wall_axis(model: IfcModel, wall_id: int) -> WallAxis | None:
    body = body_of(model, wall_id)
    return axis(body, model.placement_of(wall_id)) if isinstance(body, Extrusion) else None


def element_length(model: IfcModel, entity_id: int) -> float | None:
    if model.entities[entity_id].class_name in schema.WALL_CLASSES:
        axis = wall_axis(model, entity_id)
        return axis.length if axis else None
    body = body_of(model, entity_id)
    if body is None:
        return None
    lo, hi = _local_box(body)
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
