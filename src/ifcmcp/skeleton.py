"""Straight-skeleton construction and hip/gable roof meshing.

The skeleton is built with the shrinking-wavefront algorithm (edge and
split events processed from a priority queue). Roof faces are then
recovered by planar face traversal over the arc graph, lifted so that a
point at skeleton distance d sits at height d*tan(slope).

Vertex convention throughout: polygon CCW, y-axis up, interior to the
left of each directed edge.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from .errors import SkeletonFailure, SlopeOutOfRange
from .geometry import Point2, Polygon2, TriMesh, checked_mesh, dist2, ear_clip

_EPS = 1e-9
_MERGE_TOL = 1e-7


def _sub(a: Point2, b: Point2) -> Point2:
    return Point2(a.x - b.x, a.y - b.y)


def _add(a: Point2, b: Point2) -> Point2:
    return Point2(a.x + b.x, a.y + b.y)


def _mul(a: Point2, s: float) -> Point2:
    return Point2(a.x * s, a.y * s)


def _dot(a: Point2, b: Point2) -> float:
    return a.x * b.x + a.y * b.y


def _cross(a: Point2, b: Point2) -> float:
    return a.x * b.y - a.y * b.x


def _norm(a: Point2) -> Point2:
    length = math.hypot(a.x, a.y)
    if length < _EPS:
        raise SkeletonFailure("zero-length direction in skeleton construction")
    return Point2(a.x / length, a.y / length)


def _line_line(p1: Point2, d1: Point2, p2: Point2, d2: Point2) -> Point2 | None:
    denom = _cross(d1, d2)
    if abs(denom) < _EPS:
        return None
    t = _cross(_sub(p2, p1), d2) / denom
    return _add(p1, _mul(d1, t))


def _ray_ray(p1: Point2, d1: Point2, p2: Point2, d2: Point2) -> Point2 | None:
    denom = _cross(d1, d2)
    if abs(denom) < _EPS:
        return None
    diff = _sub(p2, p1)
    t1 = _cross(diff, d2) / denom
    t2 = _cross(diff, d1) / denom
    if t1 < -_EPS or t2 < -_EPS:
        return None
    return _add(p1, _mul(d1, t1))


def _ray_line(p1: Point2, d1: Point2, p2: Point2, d2: Point2) -> Point2 | None:
    denom = _cross(d1, d2)
    if abs(denom) < _EPS:
        return None
    t1 = _cross(_sub(p2, p1), d2) / denom
    if t1 < -_EPS:
        return None
    return _add(p1, _mul(d1, t1))


def _line_distance(p: Point2, d_unit: Point2, point: Point2) -> float:
    return abs(_cross(d_unit, _sub(point, p)))


class _Edge:
    """Original polygon edge; shared by identity across the wavefront."""

    __slots__ = ("p", "q", "v", "bisector_left", "bisector_right")

    def __init__(self, p: Point2, q: Point2):
        self.p = p
        self.q = q
        self.v = _norm(_sub(q, p))
        self.bisector_left: tuple[Point2, Point2] | None = None   # at p
        self.bisector_right: tuple[Point2, Point2] | None = None  # at q


class _Vertex:
    __slots__ = ("point", "edge_left", "edge_right", "bisector_dir", "is_reflex",
                 "prev", "next", "lav", "valid")

    def __init__(self, point: Point2, edge_left: _Edge, edge_right: _Edge,
                 creator_dirs: tuple[Point2, Point2] | None = None):
        self.point = point
        self.edge_left = edge_left
        self.edge_right = edge_right
        self.prev: _Vertex | None = None
        self.next: _Vertex | None = None
        self.lav: _LAV | None = None
        self.valid = True
        if creator_dirs is None:
            # original polygon vertex: bisect the incoming/outgoing edges
            a = _mul(edge_left.v, -1.0)
            b = edge_right.v
            self.is_reflex = _cross(edge_left.v, edge_right.v) < -_EPS
        else:
            a, b = creator_dirs
            self.is_reflex = _cross(a, b) < -_EPS
        direction = _add(_norm(a), _norm(b))
        if math.hypot(direction.x, direction.y) < _EPS:
            # straight corner: move perpendicular (left) to the outgoing edge
            e = edge_right.v
            direction = Point2(-e.y, e.x)
            self.is_reflex = False
        self.bisector_dir = direction if not self.is_reflex else _mul(direction, -1.0)

    def next_event(self, original_edges: list[_Edge]):
        events = []
        if self.is_reflex:
            for edge in original_edges:
                if edge is self.edge_left or edge is self.edge_right:
                    continue
                event = self._split_candidate(edge)
                if event is not None:
                    events.append(event)
        if self.prev is not None:
            i_prev = _ray_ray(self.point, self.bisector_dir,
                              self.prev.point, self.prev.bisector_dir)
            if i_prev is not None:
                dist = _line_distance(self.edge_left.p, self.edge_left.v, i_prev)
                events.append(_Event(dist, i_prev, True, self.prev, self))
        if self.next is not None:
            i_next = _ray_ray(self.point, self.bisector_dir,
                              self.next.point, self.next.bisector_dir)
            if i_next is not None:
                dist = _line_distance(self.edge_right.p, self.edge_right.v, i_next)
                events.append(_Event(dist, i_next, True, self, self.next))
        if not events:
            return None
        return min(events, key=lambda ev: dist2(self.point, ev.point))

    def _split_candidate(self, edge: _Edge):
        # pick whichever own edge is less parallel to the candidate edge
        left_dot = abs(_dot(self.edge_left.v, edge.v))
        right_dot = abs(_dot(self.edge_right.v, edge.v))
        self_edge = self.edge_left if left_dot < right_dot else self.edge_right
        i = _line_line(self_edge.p, self_edge.v, edge.p, edge.v)
        if i is None or dist2(i, self.point) < _EPS:
            return None
        lin = _norm(_sub(self.point, i))
        edv = edge.v if _dot(lin, edge.v) >= 0 else _mul(edge.v, -1.0)
        bisec = _add(edv, lin)
        if math.hypot(bisec.x, bisec.y) < _EPS:
            return None
        b = _ray_line(self.point, self.bisector_dir, i, bisec)
        if b is None:
            return None
        # b must lie inside the wedge swept by the candidate edge
        bl_p, bl_d = edge.bisector_left
        br_p, br_d = edge.bisector_right
        if dist2(b, bl_p) < _EPS or dist2(b, br_p) < _EPS:
            return None
        x_start = _cross(_norm(bl_d), _norm(_sub(b, bl_p))) < _EPS
        x_end = _cross(_norm(br_d), _norm(_sub(b, br_p))) > -_EPS
        x_edge = _cross(edge.v, _norm(_sub(b, edge.p))) > -_EPS
        if not (x_start and x_end and x_edge):
            return None
        return _Event(_line_distance(edge.p, edge.v, b), b, False, self, edge)


class _Event:
    __slots__ = ("distance", "point", "is_edge", "a", "b")

    def __init__(self, distance: float, point: Point2, is_edge: bool, a, b):
        self.distance = distance
        self.point = point
        self.is_edge = is_edge
        self.a = a  # vertex (edge: left vertex; split: the reflex vertex)
        self.b = b  # edge event: right vertex; split event: opposite edge


class _LAV:
    """Circular list of active wavefront vertices."""

    def __init__(self):
        self.head: _Vertex | None = None
        self.size = 0

    @classmethod
    def from_points(cls, vertices: list[_Vertex]) -> "_LAV":
        lav = cls()
        for v in vertices:
            lav._append(v)
        return lav

    @classmethod
    def from_chain(cls, head: _Vertex) -> "_LAV":
        lav = cls()
        lav.head = head
        cur = head
        while True:
            lav.size += 1
            cur.lav = lav
            cur = cur.next
            if cur is head:
                break
        return lav

    def _append(self, v: _Vertex):
        v.lav = self
        if self.head is None:
            self.head = v
            v.prev = v.next = v
        else:
            tail = self.head.prev
            tail.next = v
            v.prev = tail
            v.next = self.head
            self.head.prev = v
        self.size += 1

    def __iter__(self):
        if self.head is None:
            return
        cur = self.head
        while True:
            yield cur
            cur = cur.next
            if cur is self.head:
                return

    def invalidate(self, v: _Vertex):
        v.valid = False
        if self.head is v:
            self.head = v.next if v.next is not v else None
        v.lav = None

    def unify(self, va: _Vertex, vb: _Vertex, point: Point2) -> _Vertex:
        replacement = _Vertex(point, va.edge_left, vb.edge_right,
                              creator_dirs=(_norm(va.bisector_dir),
                                            _norm(vb.bisector_dir)))
        replacement.lav = self
        if self.head in (va, vb):
            self.head = replacement
        va.prev.next = replacement
        vb.next.prev = replacement
        replacement.prev = va.prev
        replacement.next = vb.next
        va.valid = False
        vb.valid = False
        va.lav = vb.lav = None
        self.size -= 1
        return replacement


@dataclass
class Subtree:
    source: Point2
    height: float
    sinks: list[Point2] = field(default_factory=list)


class _SLAV:
    def __init__(self, points: list[Point2]):
        n = len(points)
        edges = [_Edge(points[i], points[(i + 1) % n]) for i in range(n)]
        vertices = [
            _Vertex(points[i], edges[i - 1], edges[i]) for i in range(n)
        ]
        for i, edge in enumerate(edges):
            edge.bisector_left = (vertices[i].point, vertices[i].bisector_dir)
            end = vertices[(i + 1) % n]
            edge.bisector_right = (end.point, end.bisector_dir)
        self.original_edges = edges
        self.lavs: list[_LAV] = [_LAV.from_points(vertices)]

    def empty(self) -> bool:
        return not self.lavs

    def handle_edge_event(self, event: _Event):
        sinks: list[Point2] = []
        new_events = []
        lav = event.a.lav
        if event.a.prev is event.b.next:
            # peak: the whole loop collapses into one point
            self.lavs.remove(lav)
            for vertex in list(lav):
                sinks.append(vertex.point)
                lav.invalidate(vertex)
        else:
            new_vertex = lav.unify(event.a, event.b, event.point)
            sinks.extend((event.a.point, event.b.point))
            nxt = new_vertex.next_event(self.original_edges)
            if nxt is not None:
                new_events.append(nxt)
        return Subtree(event.point, event.distance, sinks), new_events

    def handle_split_event(self, event: _Event):
        lav = event.a.lav
        sinks = [event.a.point]
        opposite: _Edge = event.b
        x = y = None
        for v in [vertex for l in self.lavs for vertex in l]:
            if opposite is v.edge_left:
                x, y = v, v.prev
            elif opposite is v.edge_right:
                y, x = v, v.next
            if x is not None:
                x_ok = _cross(_norm(y.bisector_dir),
                              _norm(_sub(event.point, y.point))) < _EPS
                y_ok = _cross(_norm(x.bisector_dir),
                              _norm(_sub(event.point, x.point))) > -_EPS
                if x_ok and y_ok:
                    break
                x = y = None
        if x is None:
            # no opposite-edge segment matches: treat as a discarded event
            return None, []

        v1 = _Vertex(event.point, event.a.edge_left, opposite)
        v2 = _Vertex(event.point, opposite, event.a.edge_right)
        v1.prev = event.a.prev
        v1.next = x
        event.a.prev.next = v1
        x.prev = v1
        v2.prev = y
        v2.next = event.a.next
        event.a.next.prev = v2
        y.next = v2

        self.lavs.remove(lav)
        if lav is not x.lav:
            # split merged two wavefronts into one
            self.lavs.remove(x.lav)
            new_lavs = [_LAV.from_chain(v1)]
        else:
            new_lavs = [_LAV.from_chain(v1), _LAV.from_chain(v2)]
        vertices = []
        for new_lav in new_lavs:
            if new_lav.size > 2:
                self.lavs.append(new_lav)
                vertices.append(new_lav.head)
            else:
                # collapsed to a segment; close it out
                sinks.append(new_lav.head.next.point)
                for v in list(new_lav):
                    new_lav.invalidate(v)
        new_events = []
        for vertex in vertices:
            nxt = vertex.next_event(self.original_edges)
            if nxt is not None:
                new_events.append(nxt)
        event.a.valid = False
        return Subtree(event.point, event.distance, sinks), new_events


def _merge_sources(subtrees: list[Subtree]) -> list[Subtree]:
    merged: list[Subtree] = []
    by_key: dict[tuple[float, float], int] = {}
    for st in subtrees:
        key = (round(st.source.x, 9), round(st.source.y, 9))
        if key in by_key:
            target = merged[by_key[key]]
            for sink in st.sinks:
                if all(dist2(sink, s) > _MERGE_TOL for s in target.sinks):
                    target.sinks.append(sink)
        else:
            by_key[key] = len(merged)
            merged.append(st)
    return merged


def skeletonize(points: list[Point2]) -> list[Subtree]:
    """Straight skeleton of a CCW simple polygon (no holes)."""
    if len(points) < 3:
        raise SkeletonFailure("polygon needs at least 3 vertices")
    slav = _SLAV(points)
    output: list[Subtree] = []
    queue: list[tuple[float, int, _Event]] = []
    counter = 0

    def push(event):
        nonlocal counter
        if event is not None:
            heapq.heappush(queue, (event.distance, counter, event))
            counter += 1

    for vertex in slav.lavs[0]:
        push(vertex.next_event(slav.original_edges))

    guard = 0
    limit = 64 * max(len(points) ** 2, 16)
    while queue and not slav.empty():
        guard += 1
        if guard > limit:
            raise SkeletonFailure("event loop failed to terminate")
        _, _, event = heapq.heappop(queue)
        if event.is_edge:
            if not (event.a.valid and event.b.valid):
                continue
            arc, new_events = slav.handle_edge_event(event)
        else:
            if not event.a.valid:
                continue
            arc, new_events = slav.handle_split_event(event)
        for ev in new_events:
            push(ev)
        if arc is not None:
            output.append(arc)
    if not output:
        raise SkeletonFailure("no skeleton events produced")
    return _merge_sources(output)


# --- roof face recovery ---

def _skeleton_graph(outline: list[Point2], subtrees: list[Subtree]):
    nodes: list[tuple[Point2, float]] = [(p, 0.0) for p in outline]

    def find(point: Point2) -> int | None:
        for idx, (p, _h) in enumerate(nodes):
            if dist2(p, point) < _MERGE_TOL:
                return idx
        return None

    for st in subtrees:
        if find(st.source) is None:
            nodes.append((st.source, st.height))
    arcs: set[tuple[int, int]] = set()
    n = len(outline)
    for i in range(n):
        arcs.add((min(i, (i + 1) % n), max(i, (i + 1) % n)))
    for st in subtrees:
        s = find(st.source)
        for sink in st.sinks:
            t = find(sink)
            if t is None:
                raise SkeletonFailure("skeleton arc endpoint is not a known node")
            if t != s:
                arcs.add((min(s, t), max(s, t)))
    return nodes, arcs


def _interior_faces(nodes, arcs) -> list[list[int]]:
    neighbors: dict[int, list[int]] = {}
    for u, v in arcs:
        neighbors.setdefault(u, []).append(v)
        neighbors.setdefault(v, []).append(u)
    for u, nbrs in neighbors.items():
        origin = nodes[u][0]
        nbrs.sort(key=lambda j: math.atan2(nodes[j][0].y - origin.y,
                                           nodes[j][0].x - origin.x))

    def next_dart(u: int, v: int) -> tuple[int, int]:
        nbrs = neighbors[v]
        k = nbrs.index(u)
        return v, nbrs[k - 1]

    darts = sorted({(u, v) for u, v in arcs} | {(v, u) for u, v in arcs})
    visited: set[tuple[int, int]] = set()
    faces: list[list[int]] = []
    for start in darts:
        if start in visited:
            continue
        loop: list[int] = []
        cur = start
        while True:
            if cur in visited:
                raise SkeletonFailure("face traversal revisited a half-edge")
            visited.add(cur)
            loop.append(cur[0])
            cur = next_dart(*cur)
            if cur == start:
                break
            if len(loop) > 2 * len(darts):
                raise SkeletonFailure("face traversal failed to close")
        area2 = sum(
            nodes[loop[i]][0].x * nodes[loop[(i + 1) % len(loop)]][0].y
            - nodes[loop[(i + 1) % len(loop)]][0].x * nodes[loop[i]][0].y
            for i in range(len(loop))
        )
        if area2 > _EPS:
            faces.append(loop)
    return faces


def hip_roof_solid(outline: Polygon2, slope_deg: float, base_z: float) -> TriMesh:
    """Watertight hip roof over ``outline`` with planes at ``slope_deg``.

    Raises :class:`SkeletonFailure` when the skeleton cannot be built or
    the recovered faces do not close up; callers are expected to fall
    back to a flat roof in that case.
    """
    if not 5.0 <= slope_deg <= 85.0:
        raise SlopeOutOfRange(f"roof slope must be within [5, 85] degrees, got {slope_deg}")
    points = list(outline.vertices)
    try:
        subtrees = skeletonize(points)
        nodes, arcs = _skeleton_graph(points, subtrees)
        faces = _interior_faces(nodes, arcs)
    except SkeletonFailure:
        raise
    except Exception as exc:  # numerical breakdowns become SkeletonFailure
        raise SkeletonFailure(f"straight skeleton failed: {exc}") from exc
    if len(faces) != len(points):
        raise SkeletonFailure(
            f"expected {len(points)} roof faces, recovered {len(faces)}"
        )
    rise = math.tan(math.radians(slope_deg))
    verts = [(p.x, p.y, base_z + h * rise) for p, h in nodes]
    tris: list[tuple[int, int, int]] = []
    for loop in faces:
        pts = [nodes[i][0] for i in loop]
        for a, b, c in ear_clip(pts):
            tris.append((loop[a], loop[b], loop[c]))
    for a, b, c in ear_clip(points):
        tris.append((a, c, b))  # floor of the roof solid, wound downward
    mesh = checked_mesh(verts, tris)
    if not mesh.is_watertight():
        raise SkeletonFailure("roof mesh is not watertight")
    return mesh


def gable_roof_solid(outline: Polygon2, slope_deg: float, base_z: float) -> TriMesh:
    """Gable roof: hip with the two short-end planes made vertical.

    Only rectangular outlines admit a gable ridge; anything else raises
    :class:`SkeletonFailure` so the caller can degrade to a hip roof.
    """
    if not 5.0 <= slope_deg <= 85.0:
        raise SlopeOutOfRange(f"roof slope must be within [5, 85] degrees, got {slope_deg}")
    verts2 = outline.vertices
    if len(verts2) != 4:
        raise SkeletonFailure("gable roofs require a rectangular outline")
    edges = [_sub(verts2[(i + 1) % 4], verts2[i]) for i in range(4)]
    for i in range(4):
        if abs(_dot(_norm(edges[i]), _norm(edges[(i + 1) % 4]))) > 1e-6:
            raise SkeletonFailure("gable roofs require a rectangular outline")
    len0 = math.hypot(edges[0].x, edges[0].y)
    len1 = math.hypot(edges[1].x, edges[1].y)
    # ridge runs parallel to the longer side; ends sit on the shorter pair
    if len0 >= len1:
        a, b, c, d = verts2  # a->b long, b->c short (gable end), c->d long
    else:
        b, c, d, a = verts2
    ridge_half = dist2(b, c) / 2.0
    height = ridge_half * math.tan(math.radians(slope_deg))
    r1 = _mul(_add(b, c), 0.5)
    r2 = _mul(_add(d, a), 0.5)
    verts = [
        (a.x, a.y, base_z), (b.x, b.y, base_z), (c.x, c.y, base_z),
        (d.x, d.y, base_z),
        (r1.x, r1.y, base_z + height), (r2.x, r2.y, base_z + height),
    ]
    faces = [
        (0, 1, 4), (0, 4, 5),   # slope over edge a->b
        (2, 3, 5), (2, 5, 4),   # slope over edge c->d
        (1, 2, 4),              # vertical gable end over b->c
        (3, 0, 5),              # vertical gable end over d->a
        (0, 2, 1), (0, 3, 2),   # floor
    ]
    mesh = checked_mesh(verts, faces)
    if not mesh.is_watertight():
        raise SkeletonFailure("gable roof mesh is not watertight")
    return mesh
