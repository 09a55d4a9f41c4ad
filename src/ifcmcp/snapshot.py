"""Headless 2D renderers: orthographic plan sections and elevations as SVG.

Deterministic by construction: elements are emitted in entity-id order,
coordinates formatted with fixed precision, 50 px per metre, y flipped.
Product GlobalIds are embedded as element ids so clients can hit-test.
"""

from __future__ import annotations

import math
import re
from array import array

from . import measure, schema
from .errors import DegenerateFace, EmptyModel, UnknownGuid
from .geometry import MIN_FACE_AREA, Point3
from .model import RELATING, IfcModel
from .scene import _name_of, products_in_order

SCALE = 50.0  # px per metre
MARGIN = 1.0  # metres of padding around the content extents

_WALL_FILL = "#4a4a4a"
_SLAB_STROKE = "#808080"
_GENERIC_FILL = "#c8c8c8"
_GLYPH_STROKE = "#1a1a1a"
# the characters XML 1.0 forbids even escaped; U+FFFD stands in for each
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _escaped(text: str) -> str:
    """``text`` as SVG character data or a double-quoted attribute value."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return _NOT_XML.sub("\ufffd", text.replace('"', "&quot;"))


def _fmt(value: float) -> str:
    text = f"{value:.2f}"
    return "0.00" if text == "-0.00" else text


class _Canvas:
    def __init__(self, min_x: float, min_y: float, max_x: float, max_y: float):
        self.min_x = min_x - MARGIN
        self.max_y = max_y + MARGIN
        self.width = (max_x - min_x + 2 * MARGIN) * SCALE
        self.height = (max_y - min_y + 2 * MARGIN) * SCALE
        self.parts: list[str] = []

    def to_px(self, x: float, y: float) -> tuple[float, float]:
        return (x - self.min_x) * SCALE, (self.max_y - y) * SCALE

    def path(self, points, fill: str = "none", stroke: str = "none",
             width: float = 1.0, element_id: str | None = None,
             title: str | None = None):
        """A closed path through ``points``."""
        coords = [self.to_px(p[0], p[1]) for p in points]
        d = "M" + " L".join(f"{_fmt(x)},{_fmt(y)}" for x, y in coords) + " Z"
        attrs = f' id="{_escaped(element_id)}"' if element_id else ""
        body = f'<path{attrs} d="{d}" fill="{fill}" stroke="{stroke}" stroke-width="{_fmt(width)}"/>'
        if title:
            body = f'<g>{body}<title>{_escaped(title)}</title></g>'
        self.parts.append(body)

    def line(self, a, b):
        x1, y1 = self.to_px(a[0], a[1])
        x2, y2 = self.to_px(b[0], b[1])
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{_GLYPH_STROKE}" stroke-width="1.00"/>'
        )

    def arc(self, centre, radius: float, start_deg: float, end_deg: float):
        a0 = math.radians(start_deg)
        a1 = math.radians(end_deg)
        sx, sy = self.to_px(centre[0] + radius * math.cos(a0),
                            centre[1] + radius * math.sin(a0))
        ex, ey = self.to_px(centre[0] + radius * math.cos(a1),
                            centre[1] + radius * math.sin(a1))
        r = radius * SCALE
        self.parts.append(
            f'<path d="M{_fmt(sx)},{_fmt(sy)} A{_fmt(r)},{_fmt(r)} 0 0 1 '
            f'{_fmt(ex)},{_fmt(ey)}" fill="none" stroke="{_GLYPH_STROKE}" stroke-width="1.00"/>'
        )

    def open_group(self, element_id: str | None, title: str):
        attrs = f' id="{_escaped(element_id)}"' if element_id else ""
        self.parts.append(f'<g{attrs}><title>{_escaped(title)}</title>')

    def close_group(self):
        self.parts.append("</g>")

    def render(self) -> str:
        header = (
            '<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="0 0 {_fmt(self.width)} {_fmt(self.height)}" '
            f'width="{_fmt(self.width)}" height="{_fmt(self.height)}">'
        )
        return "\n".join([header] + self.parts + ["</svg>"])


def _openings_of_wall(model: IfcModel, wall_id: int):
    """(opening_id, filler_id | None, filler_class | None) per voids rel."""
    found = []
    for opening_id in model.linked(wall_id, "IFCRELVOIDSELEMENT", RELATING):
        filler_id = filler_class = None
        for filler_id in model.linked(opening_id, "IFCRELFILLSELEMENT", RELATING):
            filler_class = model.entities[filler_id].class_name
        found.append((opening_id, filler_id, filler_class))
    return found


def render_plan(model: IfcModel, storey_guid: str | None = None,
                cut_height: float = 1.2) -> str:
    """Top-down section at storey elevation + cut height."""
    products = products_in_order(model)
    if not products:
        raise EmptyModel("the model contains no products to render")
    if storey_guid is not None:
        storey = model.require_guid(storey_guid)
        if storey.class_name != "IFCBUILDINGSTOREY":
            raise UnknownGuid(storey_guid)
        storey_id = storey.id
    else:
        storey_id = model.default_storey()
    cut_z = model.storey_elevation(storey_id) + cut_height

    def in_cut(box) -> bool:
        return box[0].z - 1e-9 <= cut_z <= box[1].z + 1e-9

    # each product drawn is read once; the extents are wall axes, slab boxes
    # and generic boxes, padded by the 1 m margin
    slabs, walls, generic = [], [], []
    xs: list[float] = []
    ys: list[float] = []
    for entity_id in products:
        class_name = model.entities[entity_id].class_name
        if class_name in ("IFCDOOR", "IFCWINDOW"):
            continue  # rendered as part of their host wall
        if class_name == "IFCSLAB" and model.storey_of(entity_id) != storey_id:
            continue
        body = measure.body_of(model, entity_id)
        if body is None:
            continue
        frame = measure.world_frame(body, model.placement_of(entity_id))
        box = measure.bounds(body, frame)
        extrusion = isinstance(body, measure.Extrusion)
        if class_name == "IFCSLAB":
            if extrusion:
                slabs.append((entity_id, [frame.to_world(Point3(p.x, p.y, 0.0))
                                          for p in body.outline.vertices]))
        elif not in_cut(box):
            continue
        elif class_name in schema.WALL_CLASSES:
            if not extrusion:
                continue
            axis = measure.axis(body, frame)
            walls.append((entity_id, axis))
            box = axis.start, axis.end
        else:
            generic.append((entity_id, box))
        xs.extend((box[0].x, box[1].x))
        ys.extend((box[0].y, box[1].y))
    if not xs:
        raise EmptyModel("nothing intersects the requested plan cut")
    canvas = _Canvas(min(xs), min(ys), max(xs), max(ys))

    for entity_id, outline in slabs:
        canvas.path(outline, fill="none", stroke=_SLAB_STROKE, width=1.5,
                    element_id=model.guid_of(entity_id), title=_name_of(model, entity_id))

    # a wall's rectangle, gaps and glyphs are drawn in its axis frame: x along, y across
    for entity_id, axis in walls:
        to_world = axis.placement.to_world
        half = axis.thickness / 2.0
        length = axis.length
        corners = [to_world((0.0, -half, 0.0)), to_world((length, -half, 0.0)),
                   to_world((length, half, 0.0)), to_world((0.0, half, 0.0))]
        canvas.open_group(model.guid_of(entity_id), _name_of(model, entity_id))
        canvas.path(corners, fill=_WALL_FILL)
        canvas.close_group()

        for opening_id, filler_id, filler_class in _openings_of_wall(model, entity_id):
            body = measure.body_of(model, opening_id)
            if not isinstance(body, measure.Extrusion):
                continue  # only an extruded opening cuts a gap
            frame = measure.world_frame(body, model.placement_of(opening_id))
            if not in_cut(measure.bounds(body, frame)):
                continue
            x0, _y0, x1, _y1 = body.bbox
            along0 = axis.placement.to_local(frame.origin).x + x0
            along1 = along0 + (x1 - x0)
            gap = [to_world((along0, -half - 0.01, 0.0)), to_world((along1, -half - 0.01, 0.0)),
                   to_world((along1, half + 0.01, 0.0)), to_world((along0, half + 0.01, 0.0))]
            canvas.path(gap, fill="#ffffff")
            width = along1 - along0
            if filler_class == "IFCDOOR":
                canvas.open_group(model.guid_of(filler_id),
                                  _name_of(model, filler_id))
                hinge = to_world((along0, 0.0, 0.0))
                canvas.line(hinge, to_world((along0, width, 0.0)))
                x_axis = axis.placement.x_axis
                base_angle = math.degrees(math.atan2(x_axis.y, x_axis.x))
                canvas.arc(hinge, width, base_angle, base_angle + 90.0)
                canvas.close_group()
            elif filler_class == "IFCWINDOW":
                canvas.open_group(model.guid_of(filler_id),
                                  _name_of(model, filler_id))
                for across in (-half, 0.0, half):
                    canvas.line(to_world((along0, across, 0.0)), to_world((along1, across, 0.0)))
                canvas.close_group()

    for entity_id, (lo, hi) in generic:
        canvas.path([(lo.x, lo.y), (hi.x, lo.y), (hi.x, hi.y), (lo.x, hi.y)],
                    fill="none", stroke=_SLAB_STROKE, width=1.0,
                    element_id=model.guid_of(entity_id), title=_name_of(model, entity_id))

    return canvas.render()


_VIEWS = {
    # screen_x basis, depth basis (pointing away from the viewer)
    "south": (Point3(1.0, 0.0, 0.0), Point3(0.0, 1.0, 0.0)),
    "north": (Point3(-1.0, 0.0, 0.0), Point3(0.0, -1.0, 0.0)),
    "east": (Point3(0.0, 1.0, 0.0), Point3(-1.0, 0.0, 0.0)),
    "west": (Point3(0.0, -1.0, 0.0), Point3(1.0, 0.0, 0.0)),
}


def render_elevation(model: IfcModel, view: str = "south") -> str:
    """Orthographic elevation; products painted back-to-front.

    One product's world mesh is held at a time: it is projected once, the
    running extents take its screen coordinates, and only its mean depth,
    its id and its visible faces, depth-sorted as screen coordinates, are
    kept for painting.
    """
    if view not in _VIEWS:
        raise ValueError(f"view must be one of {sorted(_VIEWS)}, got {view!r}")
    (rx, ry, rz), (dx, dy, dz) = _VIEWS[view]
    products = products_in_order(model)
    if not products:
        raise EmptyModel("the model contains no products to render")

    items = []
    min_x = min_z = math.inf
    max_x = max_z = -math.inf
    for entity_id in products:
        mesh = measure.world_mesh(model, entity_id)
        if mesh is None:
            continue
        vertices = mesh.vertices
        xs = [p.x * rx + p.y * ry + p.z * rz for p in vertices]
        zs = [p.z for p in vertices]
        depths = [p.x * dx + p.y * dy + p.z * dz for p in vertices]
        min_x, max_x = min(min_x, min(xs)), max(max_x, max(xs))
        min_z, max_z = min(min_z, min(zs)), max(max_z, max(zs))
        faces = []
        for index, (a, b, c) in enumerate(mesh.faces):
            pa, pb, pc = vertices[a], vertices[b], vertices[c]
            ux, uy, uz = pb.x - pa.x, pb.y - pa.y, pb.z - pa.z
            vx, vy, vz = pc.x - pa.x, pc.y - pa.y, pc.z - pa.z
            nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
            if 0.5 * math.sqrt(nx * nx + ny * ny + nz * nz) <= MIN_FACE_AREA:  # flat in the world
                raise DegenerateFace(index, f"face {index} is degenerate")
            if nx * dx + ny * dy + nz * dz >= -1e-9:
                continue  # back or edge-on face
            faces.append(((depths[a] + depths[b] + depths[c]) / 3.0, index, a, b, c))
        if faces:
            # far faces first; six floats a face, x and z of each corner
            faces.sort(key=lambda f: (-f[0], f[1]))
            corners = array("d", [v for _fd, _index, *tri in faces
                                  for i in tri for v in (xs[i], zs[i])])
            items.append((sum(depths) / len(depths), entity_id, corners))
    if min_x == math.inf:
        raise EmptyModel("no product has renderable geometry")
    canvas = _Canvas(min_x, min_z, max_x, max_z)

    # far products first; nearer ones paint over them
    items.sort(key=lambda item: (-item[0], item[1]))
    for _depth, entity_id, corners in items:
        canvas.open_group(model.guid_of(entity_id), _name_of(model, entity_id))
        for k in range(0, len(corners), 6):
            ax, az, bx, bz, cx, cz = corners[k:k + 6]
            canvas.path([(ax, az), (bx, bz), (cx, cz)],
                        fill=_GENERIC_FILL, stroke=_GLYPH_STROKE, width=0.5)
        canvas.close_group()
    return canvas.render()
