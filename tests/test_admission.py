"""A create tool admits the body ``body_of`` will decode, before its first write.

Each builder builds its product's body as a value and ``measure.admit``
checks it with the decoder's own checks. So a refused call leaves the STEP
bytes as they were, and an accepted product decodes to the body that was
admitted and reads back through the overview and ``get_object_info``.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from ifcmcp import builders, measure
from ifcmcp.geometry import Sweep, checked_mesh, checked_polygon, emit_body, weld
from ifcmcp.model import new_model
from ifcmcp.scene import products_in_order
from ifcmcp.service import Session, handle_request
from ifcmcp.step import EntityRef


def _call(session: Session, tool: str, arguments: dict) -> dict:
    """The tool's payload; an error reply's payload holds ``error``."""
    reply = handle_request(session, {"jsonrpc": "2.0", "id": 1, "method": "tools/call",
                                     "params": {"name": tool, "arguments": arguments}})
    assert "result" in reply, reply
    return json.loads(reply["result"]["content"][0]["text"])


_SLIVER_SLAB = [[1485.8959739065667, 840.0439853463674], [1485.8959763105797, 840.0439853463674],
                [1485.8959763105797, 840.0440242337203], [1485.8959739065667, 840.0440242337203]]


@pytest.mark.parametrize("tool, arguments, error", [
    # the weld flattens the 1e-12 m width: once 33 entities were written first
    ("create_stairs", {"origin": [0, 0, 0], "total_rise": 1e150, "total_run": 9007199254740993,
                       "step_count": 2, "width": 1e-12}, "DegenerateFace"),
    # the weld merges (0,0,0) and (1e-10,0,0): once 12 entities were written first
    ("create_mesh_element", {"ifc_class": "IfcBuildingElementProxy", "name": "Proxy",
                             "vertices": [[0, 0, 0], [1e-10, 0, 0], [0, 1, 0], [0, 0, 1]],
                             "faces": [[0, 2, 3], [1, 2, 3], [0, 1, 3]]}, "DegenerateFace"),
    # the second wall's ends are 7.5e-13 m2: once the first wall was written
    ("create_wall_chain", {"points": [[0, 0], [10, 0], [10, 1.5e-6]], "height": 3,
                           "thickness": 1e-6}, "DegenerateFace"),
    # the weld makes face 0 collinear: once accepted, and no read tool could read it
    ("create_mesh_element", {"ifc_class": "IfcFurnishingElement", "name": "Table",
                             "vertices": [[0.5, 0, 0], [0, 0, 0], [1, 0, 0], [0.5, 4e-10, 0],
                                          [0.5, 0.5, 1]],
                             "faces": [[1, 2, 3], [0, 4, 1], [2, 4, 0]]}, "DegenerateFace"),
    # the rectangle written as centre and sides reads back with zero area:
    # once accepted, and no read tool could read it
    ("create_slab", {"outline": _SLIVER_SLAB, "thickness": 0.00010809353679722867},
     "DegeneratePolygon"),
], ids=["stairs-welded-flat", "mesh-welded-collapse", "wall-chain-second-wall",
        "mesh-welded-collinear", "slab-rectangle-reads-flat"])
def test_a_body_the_decoder_refuses_is_refused_before_any_write(tool, arguments, error):
    session = Session(new_model(guid_seed=31))
    before = session.model.to_bytes()
    assert _call(session, tool, arguments)["error"]["type"] == error
    assert session.model.to_bytes() == before


def test_a_roof_over_walls_refuses_a_guid_that_is_not_a_wall():
    # a slab's profile was read as a fourth wall's axis, and the roof was built
    session = Session(new_model(guid_seed=31))
    walls = [_call(session, "create_wall", {"start": a, "end": b, "height": 3, "thickness": 0.2})
             ["guid"] for a, b in (([10, 0], [10, 10]), ([10, 10], [0, 10]), ([0, 10], [0, 0]))]
    slab = _call(session, "create_slab", {"outline": [[0, -3], [10, -3], [10, 3], [0, 3]],
                                          "thickness": 0.2})["guid"]
    before = session.model.to_bytes()
    assert _call(session, "create_roof_over_walls", {"wall_guids": [*walls, slab]})["error"] == \
        {"type": "InvalidParams", "message": f"{slab} is not a wall"}
    assert session.model.to_bytes() == before


def test_what_is_written_decodes_to_what_was_admitted():
    model = new_model(guid_seed=31)
    bodies = [Sweep(checked_polygon([(0, 0), (4, 0), (4, 3), (0, 3)]), 0.2),
              Sweep(checked_polygon([(0, 0), (4, 0), (4, 3), (2, 5), (0, 3)]), 1.5,
                    builders.DOWN),
              # vertices the faces meet out of order, one unused, two that weld
              weld(checked_mesh([(9, 9, 9), (0, 0, 1), (0, 0, 0), (1, 0, 0), (0, 1, 0),
                                 (1e-10, 0, 0)],
                                [(2, 4, 3), (5, 3, 1), (3, 4, 1), (2, 1, 4)]))]
    for body in bodies:
        shape = emit_body(model, body)
        product = model.add("IFCBUILDINGELEMENTPROXY", [
            model.guids.fresh(), None, "P", None, None, None, EntityRef(shape), None, None])
        assert measure.body_of(model, product) == measure.admit(body)


# --- the property: every create call is refused unwritten or reads back ---

_EDGES = st.sampled_from([0.0, 1.0, -1.0, 3.0, 0.25, 1e5, 1e150, -1e150, 1e300, -1e300,
                          1e-300, 5e-324, 1e-12, 1e-7, 1.5e-6, 2 ** 53 + 1])
_NUMBERS = st.one_of(_EDGES, st.floats(-20.0, 20.0), st.integers(-20, 20))
_POSITIVES = st.one_of(_EDGES.filter(lambda v: v > 0), st.floats(1e-7, 20.0))
_POINT2 = st.lists(_NUMBERS, min_size=2, max_size=2)
_POINT3 = st.lists(_NUMBERS, min_size=3, max_size=3)
_OUTLINE = st.lists(_POINT2, min_size=3, max_size=5)
_FACES = st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3), min_size=1, max_size=5)


def _arguments(data, tool: str, walls: list[str]) -> dict:
    """Schema-valid arguments for ``tool``; the opening and roof tools name
    ``walls``, the model's walls."""
    draw = data.draw
    if tool == "create_wall":
        return {"start": draw(_POINT2), "end": draw(_POINT2), "height": draw(_POSITIVES),
                "thickness": draw(_POSITIVES)}
    if tool == "create_wall_chain":
        return {"points": draw(st.lists(_POINT2, min_size=2, max_size=4)),
                "height": draw(_POSITIVES), "thickness": draw(_POSITIVES),
                "close": draw(st.booleans())}
    if tool == "create_slab":
        return {"outline": draw(_OUTLINE), "thickness": draw(_POSITIVES),
                "elevation": draw(_NUMBERS)}
    if tool == "create_roof":
        return {"outline": draw(_OUTLINE), "style": draw(st.sampled_from(["hip", "gable", "flat"])),
                "base_z": draw(_NUMBERS)}
    if tool == "create_roof_over_walls":
        return {"wall_guids": draw(st.lists(st.sampled_from(walls), min_size=3, max_size=4,
                                            unique=True)),
                "style": draw(st.sampled_from(["hip", "gable", "flat"]))}
    if tool in ("create_door", "create_window"):
        where = {"wall_guid": draw(st.sampled_from(walls)), "position_along_axis":
                 draw(st.one_of(_POSITIVES, st.floats(0.0, 10.0)))} if draw(st.booleans()) \
            else {"position": draw(_POINT2)}
        sizes = draw(st.fixed_dictionaries({}, optional={"width": _POSITIVES,
                                                         "height": _POSITIVES}))
        return {**where, **sizes}
    if tool == "create_stairs":
        return {"origin": draw(_POINT3), "direction_deg": draw(_NUMBERS),
                "total_rise": draw(_POSITIVES), "total_run": draw(_POSITIVES),
                "step_count": draw(st.integers(2, 4)), "width": draw(_POSITIVES)}
    # the fifth vertex is the first moved by an amount the weld may round away
    vertices = draw(st.lists(_POINT3, min_size=4, max_size=4))
    nudge = draw(st.sampled_from([0.0, 1e-12, 4e-10, 1e-9, 2e-9, 1e-7]))
    vertices.append([vertices[0][0] + nudge, *vertices[0][1:]])
    return {"ifc_class": draw(st.sampled_from(["IfcFurnishingElement", "IfcBuildingElementProxy"])),
            "name": "Mesh", "vertices": vertices, "faces": draw(_FACES)}


_TOOLS = ["create_wall", "create_wall_chain", "create_slab", "create_roof",
          "create_roof_over_walls", "create_door", "create_window", "create_stairs",
          "create_mesh_element"]


@given(data=st.data())
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_a_create_call_is_refused_unwritten_or_reads_back_as_admitted(data):
    # three calls on a model that starts with a closed square of walls
    model = new_model(guid_seed=31)
    builders.create_wall_chain(model, [(0, 0), (10, 0), (10, 10), (0, 10)], 3.0, 0.25,
                               close=True)
    session = Session(model)
    admitted: list = []
    plain = measure.admit
    with mock.patch.object(measure, "admit", lambda body: admitted.append(plain(body))):
        for _step in range(3):
            walls = [model.guid_of(i) for i in model.by_class["IFCWALL"]]
            tool = data.draw(st.sampled_from(_TOOLS))
            before, products = model.to_bytes(), set(products_in_order(model))
            admitted.clear()
            payload = _call(session, tool, _arguments(data, tool, walls))
            event(f"{tool}: {payload['error']['type'] if 'error' in payload else 'accepted'}")
            if "error" in payload:
                assert model.to_bytes() == before, (tool, payload)
                continue
            assert "error" not in _call(session, "get_ifc_scene_overview", {})
            for product in set(products_in_order(model)) - products:
                assert measure.body_of(model, product) in admitted, tool
                assert "error" not in _call(session, "get_object_info",
                                            {"guid": model.guid_of(product)})
