"""Meshes are checked where they enter the kit and built unchecked where they
are derived. The oracle here is the check that building any mesh ran when
every mesh was checked; the parity properties hold the checks that moved
(a prism's thin face pairs, a world face that rounding flattens, a world
coordinate that overflows) to the answers that oracle gives."""

from __future__ import annotations

import json
import math
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifcmcp import geometry, measure
from ifcmcp.errors import DegenerateFace, DegeneratePolygon, EmptyMesh, IfcError
from ifcmcp.geometry import (MIN_FACE_AREA, Point3, TriMesh, checked_mesh, checked_polygon,
                             prism_mesh)
from ifcmcp.model import load_model, new_model
from ifcmcp.scene import products_in_order
from ifcmcp.service import Session, handle_request
from ifcmcp.step import EntityRef


def _check_as_built(vertices, faces):
    """The mesh as building it checked it when every mesh was checked."""
    vertices = [Point3(float(x), float(y), float(z)) for x, y, z in vertices]
    if not vertices or not faces:
        raise EmptyMesh("mesh has no vertices or faces")
    for v in vertices:
        if not all(math.isfinite(c) for c in v):
            raise EmptyMesh("mesh has non-finite coordinates")
    tris = []
    for index, face in enumerate(faces):
        tri = tuple(int(i) for i in face)
        if len(tri) != 3:
            raise DegenerateFace(index, f"face {index} is not a triangle")
        if any(i < 0 or i >= len(vertices) for i in tri):
            raise DegenerateFace(index, f"face {index} has out-of-range vertex index")
        a, b, c = (vertices[i] for i in tri)
        ux, uy, uz = b.x - a.x, b.y - a.y, b.z - a.z
        vx, vy, vz = c.x - a.x, c.y - a.y, c.z - a.z
        cx, cy, cz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
        if 0.5 * math.sqrt(cx * cx + cy * cy + cz * cz) <= MIN_FACE_AREA:
            raise DegenerateFace(index, f"face {index} is degenerate")
        tris.append(tri)
    return tuple(vertices), tuple(tris)


class _CheckedAsBuilt(TriMesh):
    __slots__ = ()

    def __new__(cls, vertices, faces):
        _check_as_built(vertices, faces)
        return super().__new__(cls, vertices, faces)


def _every_mesh_checked() -> ExitStack:
    """A block in which every TriMesh that geometry or measure builds goes
    through the oracle first."""
    stack = ExitStack()
    for module in (geometry, measure):
        stack.enter_context(mock.patch.object(module, "TriMesh", _CheckedAsBuilt))
    return stack


def _outcome(build, *args):
    """The mesh a build gives, as plain tuples, or its error's type and text."""
    try:
        vertices, faces = build(*args)
    except IfcError as exc:
        return type(exc).__name__, str(exc)
    return tuple(vertices), tuple(faces)


_SCALES = st.sampled_from([7e-7, 1e-6, 1.5e-6, 2e-6, 5e-6, 1e-3, 1.0, 30.0])
_DEPTHS = st.one_of(st.sampled_from([1e-14, 1e-12, 1e-11, 1e-9, 1e-7, 1e-6, 2e-6, 0.2, 3.0]),
                    st.floats(1e-12, 5.0))


@st.composite
def _outlines(draw):
    """Star-shaped outlines, many of them near POINT_TOL and MIN_FACE_AREA."""
    scale = draw(_SCALES)
    n = draw(st.integers(3, 6))
    turns = sorted(draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n,
                                 max_size=n, unique=True)))
    radii = draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n))
    return [[scale * r * math.cos(2 * math.pi * t), scale * r * math.sin(2 * math.pi * t)]
            for t, r in zip(turns, radii)]


_TETRA_FACES = [[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]]
# a corner and one point along each axis, each at its own scale, so faces
# span areas from well below MIN_FACE_AREA to square metres
_TETRAS = st.tuples(_SCALES, _SCALES, _SCALES).map(
    lambda s: [[0.0, 0.0, 0.0], [s[0], 0.0, 0.0], [0.0, s[1], 0.0], [0.0, 0.0, s[2]]])
_FACES = st.one_of(st.just(_TETRA_FACES),
                   st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3),
                            min_size=1, max_size=5))


@given(vertices=_TETRAS, faces=_FACES)
@example(vertices=[[0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]], faces=[[0, 1, 2]])
@example(vertices=[[0, 0, 0], [math.inf, 0, 0], [0, 1, 0]], faces=[[0, 1, 2]])
def test_checked_mesh_answers_as_every_mesh_was_checked(vertices, faces):
    assert _outcome(checked_mesh, vertices, faces) == \
        _outcome(_check_as_built, vertices, faces)


@given(outline=_outlines(), depth=_DEPTHS, axis=st.sampled_from(["z", "y"]))
@example(outline=[[0, 0], [2e-6, 0], [2e-6, 1e-6], [1.05e-6, 1e-6], [0, 1e-6]],
         depth=1.0, axis="z")  # an ear of 9.75e-13 m2
@example(outline=[[0, 0], [1e-6, 0], [1e-6, 5.0], [0, 5.0]], depth=2e-6,
         axis="y")  # sides of 1e-12 m2 on the 1e-6 m edges
def test_prism_mesh_answers_as_every_mesh_was_checked(outline, depth, axis):
    try:
        profile = checked_polygon(outline)
    except DegeneratePolygon:
        return
    expected = _outcome(prism_mesh, profile, depth, axis)
    with _every_mesh_checked():
        assert _outcome(prism_mesh, profile, depth, axis) == expected


def _placed_building(origin, turn: float) -> bytes:
    """An empty kit model whose building stands at ``origin``, turned by
    ``turn`` degrees about z."""
    model = new_model("My Project", guid_seed=9)
    placement = model.resolve(model.entities[model.building_id].attributes[5])
    frame = model.resolve(placement.attributes[1])
    angle = math.radians(turn)
    frame.attributes = (
        EntityRef(model.add("IFCCARTESIANPOINT", [tuple(map(float, origin))])), None,
        EntityRef(model.add("IFCDIRECTION", [(math.cos(angle), math.sin(angle), 0.0)])))
    return model.to_bytes()


def _session_answers(data: bytes, case: dict):
    """Replies to the case's calls on a session of ``data``, the STEP bytes
    they leave, and each product's world mesh."""
    session = Session(load_model(data, guid_seed=5))
    replies = []

    def call(tool: str, arguments: dict) -> dict:
        reply = handle_request(session, {"jsonrpc": "2.0", "id": len(replies),
                                         "method": "tools/call",
                                         "params": {"name": tool, "arguments": arguments}})
        replies.append(reply)
        return json.loads(reply["result"]["content"][0]["text"]) if "result" in reply else {}

    call("create_slab", {"outline": case["slab"], "thickness": case["thickness"],
                         "elevation": case["elevation"]})
    call("create_mesh_element", {"ifc_class": "IFCFURNISHINGELEMENT", "name": "Mesh",
                                 "vertices": case["vertices"], "faces": case["faces"]})
    walls, outline = [], case["walls"]
    for start, end in zip(outline, outline[1:] + outline[:1]):
        walls.append(call("create_wall", {"start": start, "end": end, "height": case["height"],
                                          "thickness": case["wall_thickness"]}).get("guid"))
    if None not in walls:
        call("create_roof_over_walls", {"wall_guids": walls, "style": case["style"]})
    call("capture_elevation_view", {"view": case["view"]})
    meshes = [_outcome(measure.world_mesh, session.model, product)
              for product in products_in_order(session.model)]
    return replies, session.model.to_bytes(), meshes


_CASES = st.fixed_dictionaries({
    "origin": st.tuples(*[st.one_of(st.sampled_from([0.0, 3.0, 1e5]),
                                    st.floats(-1e6, 1e6))] * 3),
    "turn": st.one_of(st.sampled_from([0.0, 30.0, 90.0]), st.floats(0.0, 360.0)),
    "slab": _outlines(), "thickness": _DEPTHS,
    "elevation": st.one_of(st.sampled_from([0.0, 3.0, 1e3]), st.floats(-100.0, 100.0)),
    "vertices": _TETRAS, "faces": _FACES,
    "walls": _outlines(), "height": _DEPTHS,
    "wall_thickness": st.sampled_from([2e-6, 1e-5, 0.25]),
    "style": st.sampled_from(["hip", "gable", "flat"]),
    "view": st.sampled_from(["north", "south", "east", "west"]),
})
_SQUARE = [[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]]
_CASE = {"origin": (0.0, 0.0, 0.0), "turn": 0.0, "slab": _SQUARE, "thickness": 0.2,
         "elevation": 0.0, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
         "faces": _TETRA_FACES, "walls": _SQUARE, "height": 3.0, "wall_thickness": 0.25,
         "style": "hip", "view": "south"}
_SPECK = [[0.0, 0.0], [1e-9, 0.0], [0.0, 1e-9]]  # no slab or wall has this outline


@given(case=_CASES)
@settings(deadline=None)
@example(case=_CASE)
@example(case={**_CASE, "slab": [[0, 0], [2e-6, 0], [2e-6, 1e-6], [1.05e-6, 1e-6],
                                 [0, 1e-6]]})  # an ear of 9.75e-13 m2
@example(case={**_CASE, "height": 2e-12})  # wall ends of 2.5e-13 m2
# slab sides of 5e-12 m2 that rounding to z = 1e5 flattens
@example(case={**_CASE, "origin": (0.0, 0.0, 1e5), "thickness": 1e-12})
# a finite mesh element, alone in the model, that overflows where it is placed
@example(case={**_CASE, "origin": (1.7e308, 0.0, 0.0), "slab": _SPECK, "walls": _SPECK,
               "vertices": [[0, 0, 0], [1e308, 0, 0], [0, 1, 0], [0, 0, 1]]})
def test_tools_answer_as_when_every_mesh_was_checked(case):
    data = _placed_building(case["origin"], case["turn"])
    replies, saved, meshes = _session_answers(data, case)
    with _every_mesh_checked():
        expected_replies, expected_saved, expected_meshes = _session_answers(data, case)
    assert (replies, saved) == (expected_replies, expected_saved)
    # a world mesh the oracle rejects is rejected where it is rendered, so
    # only the ones it accepts are compared
    for mesh, expected in zip(meshes, expected_meshes):
        if not isinstance(expected[0], str):
            assert mesh == expected


def test_meshes_and_polygons_are_immutable(four_wall_model):
    wall = four_wall_model.by_class["IFCWALL"][0]
    polygon = checked_polygon([(0, 0), (1, 0), (1, 1)])
    for value, field in ((checked_mesh(_CASE["vertices"], _TETRA_FACES), "faces"),
                         (measure.world_mesh(four_wall_model, wall), "vertices"),
                         (polygon, "vertices")):
        with pytest.raises(AttributeError):
            setattr(value, field, ())
    assert polygon.vertices == ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))
