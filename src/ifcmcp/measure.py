"""Derived geometric quantities read back from representation subgraphs.

Everything here re-derives measurements from the entity graph itself (no
cached Python-side state), so results stay valid across save/load cycles.
"""

from __future__ import annotations

import math

from . import schema
from .geometry import Point2, Point3, Polygon2, TriMesh, polygon_area, prism_mesh
from .model import IfcModel
from .step import EntityRef


def body_of(model: IfcModel, entity_id: int) -> dict | None:
    """Decode the Body shape representation of a product, if it has one."""
    inst = model.entities[entity_id]
    index = schema.attribute_index(inst.class_name, "Representation")
    if index is None or index >= len(inst.attributes):
        return None
    pds_ref = inst.attributes[index]
    if not isinstance(pds_ref, EntityRef):
        return None
    pds = model.entities[pds_ref.id]
    for rep_ref in pds.attributes[2] or ():
        rep = model.entities[rep_ref.id]
        if rep.class_name != "IFCSHAPEREPRESENTATION" or rep.attributes[1] != "Body":
            continue
        items = rep.attributes[3] or ()
        if not items:
            continue
        item = model.entities[items[0].id]
        if item.class_name == "IFCEXTRUDEDAREASOLID":
            return _decode_extrusion(model, item)
        if item.class_name == "IFCFACETEDBREP":
            return _decode_brep(model, item)
    return None


def _decode_profile(model: IfcModel, profile_id: int) -> dict | None:
    """A rectangle or a polygon; None for a profile class the kit does not write."""
    profile = model.entities[profile_id]
    if profile.class_name == "IFCRECTANGLEPROFILEDEF":
        xdim = float(profile.attributes[3])
        ydim = float(profile.attributes[4])
        cx = cy = 0.0
        position = profile.attributes[2]
        if isinstance(position, EntityRef):
            location = model.entities[position.id].attributes[0]
            coords = model.entities[location.id].attributes[0]
            cx, cy = float(coords[0]), float(coords[1])
        return {
            "kind": "rect",
            "xdim": xdim,
            "ydim": ydim,
            "area": xdim * ydim,
            "bbox": (cx - xdim / 2, cy - ydim / 2, cx + xdim / 2, cy + ydim / 2),
        }
    if profile.class_name == "IFCARBITRARYCLOSEDPROFILEDEF":
        curve = model.entities[profile.attributes[2].id]
        points = []
        for ref in curve.attributes[0] or ():
            coords = model.entities[ref.id].attributes[0]
            points.append(Point2(float(coords[0]), float(coords[1])))
        if len(points) > 1 and math.hypot(points[0].x - points[-1].x,
                                          points[0].y - points[-1].y) < 1e-9:
            points = points[:-1]
        poly = Polygon2(points)
        x0, y0, x1, y1 = poly.bounds()
        return {
            "kind": "polygon",
            "polygon": poly,
            "area": polygon_area(poly),
            "bbox": (x0, y0, x1, y1),
        }
    return None


def _decode_extrusion(model: IfcModel, solid) -> dict | None:
    profile = _decode_profile(model, solid.attributes[0].id)
    if profile is None:
        return None
    direction = model.entities[solid.attributes[2].id].attributes[0]
    depth = float(solid.attributes[3])
    origin = Point3(0.0, 0.0, 0.0)
    position = solid.attributes[1]
    if isinstance(position, EntityRef):
        coords = model.entities[model.entities[position.id].attributes[0].id].attributes[0]
        values = list(coords) + [0.0] * (3 - len(coords))
        origin = Point3(*[float(v) for v in values[:3]])
    return {
        "kind": "extrusion",
        "profile": profile,
        "depth": depth,
        "direction": Point3(*(float(v) for v in direction)),
        "origin": origin,
    }


def _decode_brep(model: IfcModel, brep) -> dict:
    shell = model.entities[brep.attributes[0].id]
    vertices: list[Point3] = []
    vertex_index: dict[int, int] = {}
    faces: list[tuple[int, int, int]] = []
    for face_ref in shell.attributes[0] or ():
        face = model.entities[face_ref.id]
        for bound_ref in face.attributes[0] or ():
            bound = model.entities[bound_ref.id]
            loop = model.entities[bound.attributes[0].id]
            ids = []
            for point_ref in loop.attributes[0] or ():
                if point_ref.id not in vertex_index:
                    coords = model.entities[point_ref.id].attributes[0]
                    vertex_index[point_ref.id] = len(vertices)
                    vertices.append(Point3(*(float(v) for v in coords)))
                ids.append(vertex_index[point_ref.id])
            for k in range(1, len(ids) - 1):  # fan for polygonal loops
                faces.append((ids[0], ids[k], ids[k + 1]))
    mesh = TriMesh(vertices, faces)
    return {"kind": "mesh", "mesh": mesh}


def local_bbox(model: IfcModel, entity_id: int) -> tuple[Point3, Point3] | None:
    body = body_of(model, entity_id)
    if body is None:
        return None
    if body["kind"] == "mesh":
        return body["mesh"].bounds()
    x0, y0, x1, y1 = body["profile"]["bbox"]
    ox, oy, oz = body["origin"]
    d = body["direction"]
    depth = body["depth"]
    dx, dy, dz = d.x * depth, d.y * depth, d.z * depth
    return (
        Point3(ox + x0 + min(dx, 0.0), oy + y0 + min(dy, 0.0), oz + min(dz, 0.0)),
        Point3(ox + x1 + max(dx, 0.0), oy + y1 + max(dy, 0.0), oz + max(dz, 0.0)),
    )


def world_bbox(model: IfcModel, entity_id: int) -> tuple[Point3, Point3] | None:
    box = local_bbox(model, entity_id)
    if box is None:
        return None
    placement = model.placement_of(entity_id)
    lo, hi = box
    corners = [
        Point3(x, y, z)
        for x in (lo.x, hi.x) for y in (lo.y, hi.y) for z in (lo.z, hi.z)
    ]
    world = [placement.to_world(c) for c in corners]
    return (
        Point3(min(c.x for c in world), min(c.y for c in world), min(c.z for c in world)),
        Point3(max(c.x for c in world), max(c.y for c in world), max(c.z for c in world)),
    )


def world_mesh(model: IfcModel, entity_id: int) -> TriMesh | None:
    """Body geometry tessellated into world coordinates.

    An extrusion's prism is built in the profile plane. Each of its
    vertices is shifted down by the depth when the extrusion points down,
    then by the solid's origin, as it is placed in the world, so only the
    prism and the returned mesh are built and checked. Nothing is kept
    between calls.
    """
    body = body_of(model, entity_id)
    if body is None:
        return None
    to_world = model.placement_of(entity_id).to_world
    if body["kind"] == "mesh":
        mesh = body["mesh"]
        return TriMesh([to_world(v) for v in mesh.vertices], mesh.faces)
    profile = body["profile"]
    if profile["kind"] == "rect":
        x0, y0, x1, y1 = profile["bbox"]
        poly = Polygon2([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
    else:
        poly = profile["polygon"]
    prism = prism_mesh(poly, body["depth"])
    points = prism.vertices
    if body["direction"].z < 0:  # downward extrusion: the prism tops out at origin
        down = -body["depth"]
        points = [(x + 0.0, y + 0.0, z + down) for x, y, z in points]
    ox, oy, oz = body["origin"]
    return TriMesh([to_world(Point3(x + ox, y + oy, z + oz)) for x, y, z in points],
                   prism.faces)


def wall_axis(model: IfcModel, wall_id: int) -> dict | None:
    """World-space axis segment and dimensions of a wall built by this kit."""
    body = body_of(model, wall_id)
    if body is None or body["kind"] != "extrusion":
        return None
    profile = body["profile"]
    x0, y0, x1, y1 = profile["bbox"]
    length = x1 - x0
    thickness = y1 - y0
    placement = model.placement_of(wall_id)
    start = placement.to_world(Point3(x0, 0.0, 0.0))
    end = placement.to_world(Point3(x1, 0.0, 0.0))
    return {
        "start": start,
        "end": end,
        "length": length,
        "thickness": thickness,
        "height": body["depth"],
        "base_z": placement.origin.z,
        "placement": placement,
    }


def element_length(model: IfcModel, entity_id: int) -> float | None:
    inst = model.entities[entity_id]
    if inst.class_name in schema.WALL_CLASSES:
        axis = wall_axis(model, entity_id)
        return axis["length"] if axis else None
    box = local_bbox(model, entity_id)
    if box is None:
        return None
    return box[1].x - box[0].x


def element_height(model: IfcModel, entity_id: int) -> float | None:
    body = body_of(model, entity_id)
    if body is None:
        return None
    if body["kind"] == "extrusion":
        return body["depth"]
    lo, hi = body["mesh"].bounds()
    return hi.z - lo.z


def element_area(model: IfcModel, entity_id: int) -> float | None:
    """Slabs: profile area. Walls: axis length times height."""
    inst = model.entities[entity_id]
    body = body_of(model, entity_id)
    if body is None:
        return None
    if inst.class_name in schema.WALL_CLASSES:
        axis = wall_axis(model, entity_id)
        if axis is None:
            return None
        return axis["length"] * axis["height"]
    if body["kind"] == "extrusion":
        return body["profile"]["area"]
    return None


def element_elevation(model: IfcModel, entity_id: int) -> float:
    return model.placement_of(entity_id).origin.z
