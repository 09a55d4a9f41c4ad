"""Parametric solid construction and geometric measurement.

All coordinates are metres; point equality uses a 1e-6 m tolerance
throughout. A value is checked once, where it enters the kit
(``checked_polygon``, ``checked_mesh``, ``read_axes``); one derived from
checked values is built directly. A body a tool writes, a ``Sweep`` or a
``weld``-ed mesh, is checked by ``measure.admit`` before the tool's first
write; ``emit_body``, the one emitter of both kinds, checks nothing.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

from .errors import DegenerateFace, DegeneratePolygon, EmptyMesh, NonPositiveDepth, ZeroLengthAxis
from .model import REF, read
from .step import EntityRef, EnumToken

if TYPE_CHECKING:
    from .errors import InvalidBody, InvalidPlacement
    from .model import IfcModel

POINT_TOL = 1e-6
MIN_FACE_AREA = 1e-12


class Point2(NamedTuple):
    x: float
    y: float


class Point3(NamedTuple):
    x: float
    y: float
    z: float


def dist2(a: Point2, b: Point2) -> float:
    return math.hypot(b.x - a.x, b.y - a.y)


def _cross(o: Point2, a: Point2, b: Point2) -> float:
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def _segments_cross(p1: Point2, p2: Point2, q1: Point2, q2: Point2) -> bool:
    """Proper intersection test for non-adjacent polygon edges."""
    d1 = _cross(q1, q2, p1)
    d2 = _cross(q1, q2, p2)
    d3 = _cross(p1, p2, q1)
    d4 = _cross(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


class Polygon2(NamedTuple):
    """Simple polygon: a tuple of ``Point2`` running counter-clockwise.
    Building one checks nothing: a profile entering the kit is built by
    ``checked_polygon``, one derived from checked parts directly."""

    vertices: tuple[Point2, ...]

    def edges(self):
        return zip(self.vertices, self.vertices[1:] + self.vertices[:1])

    def bounds(self) -> tuple[float, float, float, float]:
        return (*map(min, zip(*self.vertices)), *map(max, zip(*self.vertices)))


def checked_polygon(points) -> Polygon2:
    """The polygon of a tool's outline, a file's profile or a roof's outline.
    Consecutive vertices closer than 1e-6 m are merged, and reversed input
    is flipped so that the area is positive; points that do not make a
    simple polygon of finite, non-zero area are a DegeneratePolygon."""
    pts = [Point2(float(x), float(y)) for x, y in points]
    if not all(map(math.isfinite, chain.from_iterable(pts))):
        raise DegeneratePolygon("polygon has non-finite coordinates")
    # a run of consecutive points (around the ring) each closer than
    # POINT_TOL to the one before collapses to its smallest point (by x,
    # then y), and the area is summed exactly, so a list and its reversal
    # clean to the same ring and get the same verdict
    n = len(pts)
    near = [dist2(pts[i - 1], pts[i]) < POINT_TOL for i in range(n)]
    if all(near):
        raise DegeneratePolygon("polygon needs at least 3 distinct vertices")
    start = near.index(False)
    cleaned: list[Point2] = []
    for i in range(start, start + n):
        if near[i % n]:
            cleaned[-1] = min(cleaned[-1], pts[i % n])
        else:
            cleaned.append(pts[i % n])
    if len(cleaned) < 3:
        raise DegeneratePolygon("polygon needs at least 3 distinct vertices")
    try:  # a term or the sum may overflow
        area2 = math.fsum(a.x * b.y - b.x * a.y for a, b in zip(cleaned[-1:] + cleaned, cleaned))
    except (OverflowError, ValueError):
        area2 = math.inf
    if not math.isfinite(area2):
        raise DegeneratePolygon("polygon area is too large for a double")
    if abs(area2) < 2 * MIN_FACE_AREA:
        raise DegeneratePolygon("polygon has zero area")
    if area2 < 0:
        cleaned.reverse()
    n = len(cleaned)
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_cross(cleaned[i], cleaned[(i + 1) % n],
                               cleaned[j], cleaned[(j + 1) % n]):
                raise DegeneratePolygon("polygon is self-intersecting")
    return Polygon2(tuple(cleaned))


def polygon_area(poly: Polygon2) -> float:
    """Shoelace area, summed exactly as ``checked_polygon`` sums it to accept
    the polygon; positive because polygons are stored CCW."""
    return math.fsum(a.x * b.y - b.x * a.y for a, b in poly.edges()) / 2.0


def _cross3(z: Point3, x: Point3) -> Point3:
    return Point3(z.y * x.z - z.z * x.y, z.z * x.x - z.x * x.z, z.x * x.y - z.y * x.x)


class Placement(NamedTuple):
    """Right-handed orthonormal frame whose ``y_axis`` is ``z_axis`` cross
    ``x_axis``. A file's frame enters through ``read_axes``, which checks it;
    a frame derived from checked frames is built directly."""

    origin: Point3
    z_axis: Point3
    x_axis: Point3
    y_axis: Point3

    # unpacked as tuples, cheaper than NamedTuple field reads; any 3 floats are a point
    def to_world(self, p: tuple[float, float, float]) -> Point3:
        (ox, oy, oz), (zx, zy, zz), (xx, xy, xz), (yx, yy, yz) = self
        x, y, z = p
        return Point3(ox + x * xx + y * yx + z * zx, oy + x * xy + y * yy + z * zy,
                      oz + x * xz + y * yz + z * zz)

    def to_local(self, p: tuple[float, float, float]) -> Point3:
        """This frame's coordinates of the world point ``p``, the inverse of
        ``to_world``: as the axes are orthonormal, ``p`` less the origin
        dotted with each axis."""
        (ox, oy, oz), (zx, zy, zz), (xx, xy, xz), (yx, yy, yz) = self
        x, y, z = p[0] - ox, p[1] - oy, p[2] - oz
        return Point3(x * xx + y * xy + z * xz, x * yx + y * yy + z * yz,
                      x * zx + y * zy + z * zz)

    def rotate(self, v: Point3) -> Point3:
        """Apply only the rotational part of the frame to a vector."""
        _origin, (zx, zy, zz), (xx, xy, xz), (yx, yy, yz) = self
        vx, vy, vz = v
        return Point3(vx * xx + vy * yx + vz * zx, vx * xy + vy * yy + vz * zy,
                      vx * xz + vy * yz + vz * zz)

    def compose(self, local: Placement) -> Placement:
        """World frame of ``local``, a frame given in this one. Rotating an
        orthonormal frame keeps it orthonormal, so nothing is checked."""
        z_axis, x_axis = self.rotate(local.z_axis), self.rotate(local.x_axis)
        return Placement(self.to_world(local.origin), z_axis, x_axis, _cross3(z_axis, x_axis))


_Z = Point3(0.0, 0.0, 1.0)
_X = Point3(1.0, 0.0, 0.0)
_Y = _cross3(_Z, _X)
WORLD = Placement(Point3(0.0, 0.0, 0.0), _Z, _X, _Y)


def _length(v: Point3) -> float:
    return (v.x ** 2 + v.y ** 2 + v.z ** 2) ** 0.5


def _unit(v: Point3) -> Point3:
    """``v`` scaled to unit length. A vector whose squared length would
    overflow, or lose its digits to underflow, is first divided by its
    largest component."""
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
    """Unit ``direction`` less its part along the unit ``z_axis``. A direction
    already normal to the axis is only normalised, so no rounding is added.
    One within about 1e-6 rad of the axis counts as parallel: a shorter
    remainder, once normalised, need not be normal to the axis within
    ``axes_placement``'s 1e-9."""
    unit = _unit(direction)
    dot = unit.x * z_axis.x + unit.y * z_axis.y + unit.z * z_axis.z
    if dot == 0.0:
        return unit
    x_axis = Point3(unit.x - dot * z_axis.x, unit.y - dot * z_axis.y,
                    unit.z - dot * z_axis.z)
    if _length(x_axis) <= 1e-6:
        raise ZeroLengthAxis(
            f"RefDirection {tuple(direction)} is parallel to Axis {tuple(z_axis)}")
    return _unit(x_axis)


def axes_placement(location, axis=None, ref_direction=None) -> Placement:
    """The frame of an axis placement: its Location's 2 or 3 coordinates
    (z is 0 for two) and its Axis and RefDirection ratios, None when unset.
    As IFC's ``IfcBuildAxes`` does, the x axis is RefDirection projected
    onto the plane normal to Axis (``IfcFirstProjAxis``), so the two need
    not be orthogonal. ZeroLengthAxis for a zero or parallel direction."""
    origin = Point3(*location, *(0.0,) * (3 - len(location)))
    if axis is None and ref_direction is None:
        return Placement(origin, _Z, _X, _Y)
    z_axis = _Z if axis is None else _unit(Point3(*axis))
    if ref_direction is None:
        # IFC's default (1,0,0) would have no part normal to this axis
        ref_direction = Point3(0.0, 1.0, 0.0) if z_axis.y == z_axis.z == 0.0 else _X
    x_axis = _first_proj_axis(z_axis, Point3(*ref_direction))
    dot = z_axis.x * x_axis.x + z_axis.y * x_axis.y + z_axis.z * x_axis.z
    if abs(_length(z_axis) - 1.0) > 1e-9 or abs(_length(x_axis) - 1.0) > 1e-9 or abs(dot) > 1e-9:
        raise ValueError(f"placement axes {z_axis} and {x_axis} are not orthonormal")
    return Placement(origin, z_axis, x_axis, _cross3(z_axis, x_axis))


def read_axes(model: IfcModel, record, error: type[InvalidBody | InvalidPlacement]) -> Placement:
    """The frame of a file's axis placement ``record``; a malformed attribute
    raises ``error``, the in-band error of its part. An IFCAXIS2PLACEMENT3D
    has an Axis and a RefDirection; any other record is read as 2D by its own
    class, turned about z by its RefDirection's first two ratios."""
    location = read(model, record, "Location", REF, error)
    coords = read(model, location, "Coordinates", (2, 3), error)
    if record.class_name == "IFCAXIS2PLACEMENT3D":
        return axes_placement(coords, _ratios(model, record, "Axis", (3,), error),
                              _ratios(model, record, "RefDirection", (3,), error))
    ratios = _ratios(model, record, "RefDirection", (2, 3), error)
    return axes_placement(coords, None, None if ratios is None else (*ratios[:2], 0.0))


def _ratios(model: IfcModel, record, name: str, lengths, error) -> tuple | None:
    """DirectionRatios of the direction ``name``; None when unset."""
    direction = read(model, record, name, REF, error, None)
    return None if direction is None else read(model, direction, "DirectionRatios", lengths, error)


def _tri_area3(a: Point3, b: Point3, c: Point3) -> float:
    ux, uy, uz = b.x - a.x, b.y - a.y, b.z - a.z
    vx, vy, vz = c.x - a.x, c.y - a.y, c.z - a.z
    cx, cy, cz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    return 0.5 * math.sqrt(cx * cx + cy * cy + cz * cz)


class TriMesh(NamedTuple):
    """Indexed triangle mesh: a tuple of ``Point3`` and a tuple of index
    triples. Building one checks nothing: a mesh entering the kit is built
    by ``checked_mesh``, one derived from checked parts directly."""

    vertices: tuple[Point3, ...]
    faces: tuple[tuple[int, int, int], ...]

    def is_watertight(self) -> bool:
        """Every undirected edge used exactly twice, once per direction."""
        directed: dict[tuple[int, int], int] = {}
        for a, b, c in self.faces:
            for u, v in ((a, b), (b, c), (c, a)):
                directed[(u, v)] = directed.get((u, v), 0) + 1
        for (u, v), count in directed.items():
            if count != 1 or directed.get((v, u), 0) != 1:
                return False
        return True

    def bounds(self) -> tuple[Point3, Point3]:
        return Point3(*map(min, zip(*self.vertices))), Point3(*map(max, zip(*self.vertices)))


def checked_mesh(vertices, faces) -> TriMesh:
    """The mesh of a tool's arguments, a file's brep or a roof's skeleton.
    EmptyMesh for no vertices or faces or a coordinate not finite, else
    DegenerateFace for the first face that is not three in-range indices
    spanning more than ``MIN_FACE_AREA``."""
    points = tuple(Point3(float(x), float(y), float(z)) for x, y, z in vertices)
    if not points or not faces:
        raise EmptyMesh("mesh has no vertices or faces")
    if not all(map(math.isfinite, chain.from_iterable(points))):
        raise EmptyMesh("mesh has non-finite coordinates")
    n = len(points)
    tris: list[tuple[int, int, int]] = []
    for index, face in enumerate(faces):
        tri = tuple(int(i) for i in face)
        if len(tri) != 3:
            raise DegenerateFace(index, f"face {index} is not a triangle")
        if any(i < 0 or i >= n for i in tri):
            raise DegenerateFace(index, f"face {index} has out-of-range vertex index")
        if _tri_area3(*(points[i] for i in tri)) <= MIN_FACE_AREA:
            raise DegenerateFace(index, f"face {index} is degenerate")
        tris.append(tri)
    return TriMesh(points, tuple(tris))


def ear_clip(points: list[Point2]) -> list[tuple[int, int, int]]:
    """Triangulate a simple CCW polygon by ear clipping.

    Collinear vertices are tolerated: when no strictly convex ear exists
    the flattest corner is removed without emitting a triangle.
    """
    n = len(points)
    if n < 3:
        raise DegeneratePolygon("cannot triangulate fewer than 3 points")
    order = list(range(n))
    triangles: list[tuple[int, int, int]] = []
    guard = 0
    while len(order) > 3:
        guard += 1
        if guard > 4 * n * n:
            raise DegeneratePolygon("ear clipping failed to converge")
        clipped = False
        m = len(order)
        for k in range(m):
            i_prev, i_cur, i_next = order[k - 1], order[k], order[(k + 1) % m]
            a, b, c = points[i_prev], points[i_cur], points[i_next]
            cross = _cross(a, b, c)
            if cross <= 1e-12:
                continue
            if any(
                _point_in_tri(points[j], a, b, c)
                for j in order
                if j not in (i_prev, i_cur, i_next)
            ):
                continue
            triangles.append((i_prev, i_cur, i_next))
            order.pop(k)
            clipped = True
            break
        if not clipped:
            # only collinear/reflex corners left: drop the flattest corner
            flattest = min(
                range(len(order)),
                key=lambda k: abs(_cross(points[order[k - 1]], points[order[k]],
                                         points[order[(k + 1) % len(order)]])),
            )
            a, b, c = (points[order[flattest - 1]], points[order[flattest]],
                       points[order[(flattest + 1) % len(order)]])
            if abs(_cross(a, b, c)) > 1e-9:
                raise DegeneratePolygon("ear clipping stuck on a non-flat corner")
            order.pop(flattest)
    a, b, c = order
    if _cross(points[a], points[b], points[c]) > 1e-12:
        triangles.append((a, b, c))
    return triangles


def _point_in_tri(p: Point2, a: Point2, b: Point2, c: Point2) -> bool:
    # inclusive: a vertex on the ear boundary must block the ear too
    d1 = _cross(a, b, p)
    d2 = _cross(b, c, p)
    d3 = _cross(c, a, p)
    return d1 >= -1e-12 and d2 >= -1e-12 and d3 >= -1e-12


def prism_mesh(profile: Polygon2, depth: float, axis: str = "z") -> TriMesh:
    """Extrude a CCW profile into a closed mesh.

    ``axis='z'``: profile in XY, extruded +Z. ``axis='y'``: profile in XZ
    (x right, second coordinate up), extruded +Y — used for stair flights.
    Swapping y and z mirrors the first prism into the second, so the second
    has the same faces, each wound the other way.

    Faces come in pairs of equal area (a cap triangle and its twin, the
    halves of a side). A checked profile can still make a pair too thin
    (an ear of at most ``MIN_FACE_AREA``, a short edge on a thin depth), so
    the first face of each pair alone is checked: DegenerateFace.
    """
    if depth <= 0:
        raise NonPositiveDepth(f"extrusion depth must be positive, got {depth}")
    if axis not in ("y", "z"):
        raise ValueError(f"unsupported extrusion axis {axis!r}")
    depth = float(depth)
    pts = profile.vertices
    n = len(pts)
    verts = tuple([Point3(p.x, p.y, 0.0) for p in pts] + [Point3(p.x, p.y, depth) for p in pts])
    faces: list[tuple[int, int, int]] = []
    for a, b, c in ear_clip(pts):
        faces.append((a, c, b))              # bottom, wound downward
        faces.append((n + a, n + b, n + c))  # top, wound upward
    for i in range(n):
        j = (i + 1) % n
        faces.append((i, j, n + j))
        faces.append((i, n + j, n + i))
    if axis == "y":
        verts = tuple([Point3(x, z, y) for x, y, z in verts])
        faces = [(a, c, b) for a, b, c in faces]
    mesh = TriMesh(verts, tuple(faces))
    for index in range(0, len(faces), 2):
        a, b, c = faces[index]
        if _tri_area3(verts[a], verts[b], verts[c]) <= MIN_FACE_AREA:
            raise DegenerateFace(index, f"face {index} is degenerate")
    return mesh


def wall_axis_to_profile(start: Point2, end: Point2,
                         thickness: float) -> tuple[Polygon2, Placement]:
    """Rectangle profile centred on the wall axis plus its local frame; the
    wall's admission checks the profile."""
    length = dist2(start, end)
    if length < POINT_TOL:
        raise ZeroLengthAxis("wall start and end points coincide")
    half = thickness / 2.0
    profile = Polygon2((Point2(0.0, -half), Point2(length, -half), Point2(length, half),
                        Point2(0.0, half)))
    dx, dy = (end.x - start.x) / length, (end.y - start.y) / length
    # the axes are unit and orthogonal by construction
    x_axis = Point3(dx, dy, 0.0)
    return profile, Placement(Point3(start.x, start.y, 0.0), _Z, x_axis, _cross3(_Z, x_axis))


# --- entity emission (representation subgraphs) ---

def _xy(v: float) -> float:
    # collapse -0.0 so written coordinates are stable
    return v + 0.0 if v != 0 else 0.0


def emit_axis2placement3d(model: "IfcModel", frame: Placement) -> int:
    """An axis placement of ``frame``; its Axis and RefDirection are written
    when its axes are not its parent's."""
    origin, z_axis, x_axis, _y_axis = frame
    location = model.add("IFCCARTESIANPOINT",
                         [(_xy(origin.x), _xy(origin.y), _xy(origin.z))])
    axis = ref_dir = None
    if x_axis != _X or z_axis != _Z:
        ref_dir = EntityRef(model.add("IFCDIRECTION", [tuple(x_axis)]))
        axis = EntityRef(model.add("IFCDIRECTION", [tuple(z_axis)]))
    return model.add("IFCAXIS2PLACEMENT3D", [EntityRef(location), axis, ref_dir])


class Sweep(NamedTuple):
    """An extruded area solid as a create tool writes it: ``profile`` swept
    ``depth`` metres along ``direction``, from an unturned ``Position``.
    ``measure.admit`` gives the body ``body_of`` decodes from it."""

    profile: Polygon2
    depth: float
    direction: Point3 = _Z


def rectangle_record(poly: Polygon2) -> tuple[Point2, float, float] | None:
    """The centre, XDim and YDim a rectangle profile of ``poly`` holds; None
    unless ``poly`` is an axis-aligned rectangle, which is written as one."""
    if len(poly.vertices) != 4 or not all(
            abs(a.x - b.x) < POINT_TOL or abs(a.y - b.y) < POINT_TOL for a, b in poly.edges()):
        return None
    x0, y0, x1, y1 = poly.bounds()
    return Point2(_xy((x0 + x1) / 2.0), _xy((y0 + y1) / 2.0)), x1 - x0, y1 - y0


def weld(mesh: TriMesh) -> TriMesh:
    """``mesh`` as a brep holds it: vertices that round alike at 1e-9 m are
    one point, the first of them. Welding can flatten a face, so a tool
    admits the welded mesh."""
    keys: dict[tuple[float, float, float], int] = {}
    points: list[Point3] = []
    index = []
    for x, y, z in mesh.vertices:
        index.append(keys.setdefault((round(x, 9), round(y, 9), round(z, 9)), len(keys)))
        if index[-1] == len(points):
            points.append(Point3(_xy(x), _xy(y), _xy(z)))
    return TriMesh(tuple(points), tuple((index[a], index[b], index[c]) for a, b, c in mesh.faces))


def extrude_profile(model: "IfcModel", body: Sweep) -> int:
    """Write a sweep's extruded area solid, its profile a rectangle or a
    closed polyline; returns its id."""
    rectangle = rectangle_record(body.profile)
    if rectangle is not None:
        centre, xdim, ydim = rectangle
        position = model.add("IFCAXIS2PLACEMENT2D",
                             [EntityRef(model.add("IFCCARTESIANPOINT", [tuple(centre)])), None])
        profile = model.add("IFCRECTANGLEPROFILEDEF",
                            [EnumToken("AREA"), None, EntityRef(position), xdim, ydim])
    else:
        point_ids = [model.add("IFCCARTESIANPOINT", [(_xy(p.x), _xy(p.y))])
                     for p in body.profile.vertices]
        point_ids.append(point_ids[0])  # closed curve repeats the first point
        polyline = model.add("IFCPOLYLINE", [tuple(EntityRef(i) for i in point_ids)])
        profile = model.add("IFCARBITRARYCLOSEDPROFILEDEF",
                            [EnumToken("AREA"), None, EntityRef(polyline)])
    position = emit_axis2placement3d(model, WORLD)
    direction = model.add("IFCDIRECTION", [tuple(body.direction)])
    return model.add("IFCEXTRUDEDAREASOLID", [EntityRef(profile), EntityRef(position),
                                              EntityRef(direction), body.depth])


def mesh_to_brep(model: "IfcModel", mesh: TriMesh) -> int:
    """Write a welded mesh's faceted brep, a point per vertex; returns its id."""
    ids = [model.add("IFCCARTESIANPOINT", [tuple(v)]) for v in mesh.vertices]
    face_ids = []
    for a, b, c in mesh.faces:
        loop = model.add("IFCPOLYLOOP",
                         [(EntityRef(ids[a]), EntityRef(ids[b]), EntityRef(ids[c]))])
        bound = model.add("IFCFACEOUTERBOUND", [EntityRef(loop), True])
        face_ids.append(model.add("IFCFACE", [(EntityRef(bound),)]))
    shell = model.add("IFCCLOSEDSHELL", [tuple(EntityRef(i) for i in face_ids)])
    return model.add("IFCFACETEDBREP", [EntityRef(shell)])


def emit_body(model: "IfcModel", body: Sweep | TriMesh) -> int:
    """Write an admitted body, a sweep or a welded mesh, as a product's Body
    representation; returns the product shape id. It checks nothing:
    ``measure.admit`` has checked what this writes."""
    if isinstance(body, Sweep):
        item, kind = extrude_profile(model, body), "SweptSolid"
    else:
        item, kind = mesh_to_brep(model, body), "Brep"
    rep = model.add("IFCSHAPEREPRESENTATION",
                    [EntityRef(model.context_id), "Body", kind, (EntityRef(item),)])
    return model.add("IFCPRODUCTDEFINITIONSHAPE", [None, None, (EntityRef(rep),)])
