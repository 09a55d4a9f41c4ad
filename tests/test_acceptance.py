"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines stream.
"""

from __future__ import annotations

import json
import math
import random
import re
import time
from pathlib import Path

from ifcmcp import builders, dsl, measure, scene, snapshot
from ifcmcp.geometry import checked_mesh, checked_polygon
from ifcmcp.guid import guid_decode, guid_encode
from ifcmcp.knowledge import index_corpus
from ifcmcp.model import new_model, open_model, psets_of
from ifcmcp.service import Session, handle_request
from ifcmcp.skeleton import hip_roof_solid
from ifcmcp.step import parse_step, write_step
from ifcmcp.cli import run_trace

from conftest import SQUARE_WALLS, build_l_building, world_box

TRACES = Path(__file__).resolve().parent.parent / "traces"
FIXTURES = Path(__file__).resolve().parent / "fixtures"

def evaluate(model, text):
    return dsl.eval_query(model, dsl.parse_query(text))


REFERENCE_GUID = "3UdjywU2L4v9tTcFvuqwGm"


def _report(criterion: int, text: str):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def _mesh_fixture_model():
    model = new_model(guid_seed=501)
    builders.create_mesh_element(
        model, "IFCBUILDINGELEMENTPROXY",
        checked_mesh([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)],
                [(0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)]),
        "Arch")
    builders.create_stairs(model, (5, 0, 0), 30.0, 3.0, 4.0, 12, 1.2)
    return model.to_bytes()


def _semantic_model_bytes():
    session = Session(new_model(guid_seed=502))
    trace = json.loads((TRACES / "semantic_edits.json").read_text())
    run_trace(session, trace)
    return session.model.to_bytes()


def test_acceptance_1_step_round_trip_fixpoint():
    model, _ = build_l_building(seed=500)
    fixtures = {
        "fresh_model": new_model(guid_seed=499).to_bytes(),
        "four_wall_scene": _four_wall_bytes(),
        "l_building": model.to_bytes(),
        "semantic_edits": _semantic_model_bytes(),
        "mesh_elements": _mesh_fixture_model(),
        "tricky_legacy": (FIXTURES / "tricky.ifc").read_bytes(),
    }
    assert len(fixtures) >= 5
    for name, data in fixtures.items():
        started = time.perf_counter()
        first = write_step(*parse_step(data))
        second = write_step(*parse_step(first))
        elapsed = time.perf_counter() - started
        assert second == first, f"{name}: write-parse-write is not a fixpoint"
        body = data.decode("iso-8859-1").split("DATA;", 1)[1].rsplit("ENDSEC;", 1)[0]
        oracle_count = len(re.findall(r"#\d+\s*=", body))
        assert len(parse_step(data)[1]) == oracle_count, name
        assert elapsed < 1.0, f"{name}: round-trip took {elapsed:.3f}s"
    _report(1, f"write-parse-write fixpoint on {len(fixtures)} fixtures, "
               "entity counts match the regex oracle, < 1 s each")


def _four_wall_bytes():
    model = new_model(guid_seed=498)
    for start, end in SQUARE_WALLS:
        builders.create_wall(model, start, end, 3.0, 0.25)
    return model.to_bytes()


def test_acceptance_2_guid_codec():
    value = guid_decode(REFERENCE_GUID)
    assert guid_encode(value) == REFERENCE_GUID
    rng = random.Random(777)
    for _ in range(10_000):
        bits = rng.getrandbits(128)
        assert guid_decode(guid_encode(bits)) == bits
    _report(2, "10,000-case encode/decode bijection and the reference "
               f"GlobalId {REFERENCE_GUID} re-encodes identically")


def test_acceptance_3_scene_info_reference_shape():
    model = new_model("My Project", guid_seed=497)
    for start, end in SQUARE_WALLS:
        builders.create_wall(model, start, end, 3.0, 0.25)
    info = scene.get_scene_info(model)
    assert list(info.keys()) == ["count", "total", "offset", "limit", "objects"]
    assert info["count"] == 9 and info["total"] == 9
    assert info["offset"] == 0 and info["limit"] == 9
    rows = info["objects"]
    assert [o["ifc_class"] for o in rows] == [
        "IfcProject", "IfcSite", "IfcBuilding", "IfcBuildingStorey",
        "IfcWall", "IfcWall", "IfcWall", "IfcWall", "IfcWallType"]
    assert rows[0]["name"] == "IfcProject/My Project"
    walls = rows[4:8]
    assert [w["name"] for w in walls] == ["IfcWall/Wall_001", "IfcWall/Wall_002",
                                          "IfcWall/Wall_003", "IfcWall/Wall_004"]
    assert [w["location"] for w in walls] == [
        [0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [10.0, 10.0, 0.0], [0.0, 10.0, 0.0]]
    for row in rows:
        assert list(row.keys()) == ["name", "type", "location", "visible",
                                    "selected", "guid", "ifc_class"]
        assert row["type"] == ("MESH" if row["ifc_class"] == "IfcWall" else "EMPTY")
        assert row["selected"] is False
        assert row["visible"] is (row["ifc_class"] != "IfcWallType")
    _report(3, "fresh model + 4 walls + wall type lists 9 objects with the "
               "reference field order and locations")


def test_acceptance_4_l_building_trace():
    session = Session(new_model(guid_seed=496))
    trace = json.loads((TRACES / "l_building.json").read_text())
    started = time.perf_counter()
    reports = run_trace(session, trace)
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"trace took {elapsed:.3f}s"
    assert len(reports) == len(trace["steps"])
    model = session.model
    assert len(model.by_class["IFCWALL"]) == 6
    assert len(model.by_class["IFCSLAB"]) == 2
    assert len(model.by_class["IFCDOOR"]) == 1
    assert len(model.by_class["IFCROOF"]) == 1
    result, _log, _ = evaluate(model, "slabs | sum(area)")
    assert abs(result - 150.0) <= 1e-9
    roof_id = next(iter(model.by_class["IFCROOF"]))
    assert measure.world_mesh(model, roof_id).is_watertight()
    _report(4, "L-building trace replays in "
               f"{elapsed * 1000:.0f} ms: 6 walls, 2 slabs, 1 door, 1 "
               "watertight hip roof, slab area sum 150.0")


def test_acceptance_5_semantic_edits_trace(tmp_path):
    session = Session(new_model(guid_seed=495))
    trace = json.loads((TRACES / "semantic_edits.json").read_text())
    run_trace(session, trace)
    path = tmp_path / "edited.ifc"
    session.model.save(str(path))
    model = open_model(str(path))  # post-conditions after save/reload

    wall_ids = sorted(model.by_class["IFCWALL"])
    assert [model.entities[w].attributes[2] for w in wall_ids] == \
        ["Wall-3.0m"] * 4
    building = model.entities[model.building_id]
    assert building.attributes[3] == "High-rise residential tower"
    door = model.entities[next(iter(model.by_class["IFCDOOR"]))]
    assert door.attributes[2] == "Door_001 - My Storey"
    for wall_id in wall_ids:
        props = psets_of(model, wall_id)["Thermal_Properties"]
        assert props["U-value"] == 0.25
        assert props["Insulation_Type"] == "Mineral Wool"
    slab_id = next(iter(model.by_class["IFCSLAB"]))
    assert psets_of(model, slab_id)["Pset_SlabCommon"]["Fire_Rating"] == "2HR"
    from ifcmcp.model import classifications_of, owner_of
    for wall_id in wall_ids:
        assert {"system": "Uniclass 2015", "code": "Ss_25_10_20"} in \
            classifications_of(model, wall_id)
    assert {"system": "Uniclass 2015", "code": "Ss_25_30"} in \
        classifications_of(model, slab_id)
    for window_id in sorted(model.by_class["IFCWINDOW"]):
        assert psets_of(model, window_id)["Cost"]["UnitCost"] == 500
    assert owner_of(model, wall_ids[0]) == {"user": "BIM Manager",
                                            "created": 1700000000}
    _report(5, "all 8 semantic-edit tasks replay and verify after a "
               "save/reload cycle")


def test_acceptance_6_roof_geometry():
    square = checked_polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
    mesh = hip_roof_solid(square, 30.0, 0.0)
    apex = max(v.z for v in mesh.vertices)
    oracle = 5.0 * math.tan(math.radians(30.0))  # inradius x tan(slope)
    assert abs(apex - oracle) <= 1e-9

    rect = checked_polygon([(0, 0), (10, 0), (10, 4), (0, 4)])
    mesh = hip_roof_solid(rect, 45.0, 0.0)
    ridge = sorted({(v.x, v.y) for v in mesh.vertices if v.z > 1e-9})
    heights = {round(v.z, 12) for v in mesh.vertices if v.z > 1e-9}
    assert len(ridge) == 2
    assert all(abs(h - 2.0) <= 1e-9 for h in heights)
    length = math.hypot(ridge[1][0] - ridge[0][0], ridge[1][1] - ridge[0][1])
    assert abs(length - 6.0) <= 1e-9
    _report(6, "square 10x10 at 30 deg apex matches the inradius oracle; "
               "10x4 rectangle at 45 deg gives ridge height 2.0, length 6.0")


def _raw_graph_scan(model, class_name):
    """Brute-force oracle over the raw entity map, no shared helpers."""
    lengths = []
    areas = []
    ids = sorted(i for i, e in model.entities.items()
                 if e.class_name == class_name)
    for entity_id in ids:
        inst = model.entities[entity_id]
        pds = model.entities[inst.attributes[6].id]
        rep = model.entities[pds.attributes[2][0].id]
        solid = model.entities[rep.attributes[3][0].id]
        profile = model.entities[solid.attributes[0].id]
        depth = solid.attributes[3]
        assert profile.class_name == "IFCRECTANGLEPROFILEDEF"
        xdim, ydim = profile.attributes[3], profile.attributes[4]
        lengths.append(xdim)
        areas.append(xdim * depth if class_name == "IFCWALL" else xdim * ydim)
    return ids, lengths, areas


def test_acceptance_7_dsl_oracle_equivalence():
    rng = random.Random(20240808)
    checked = 0
    for trial in range(100):
        model = new_model(guid_seed=10_000 + trial)
        for _ in range(rng.randint(0, 10)):
            x0, y0 = rng.uniform(-30, 30), rng.uniform(-30, 30)
            dx, dy = rng.uniform(0.5, 12), rng.uniform(-4, 4)
            builders.create_wall(model, (x0, y0), (x0 + dx, y0 + dy),
                                 rng.uniform(2, 5), rng.uniform(0.1, 0.4))
        for _ in range(rng.randint(0, 5)):
            x0, y0 = rng.uniform(-30, 30), rng.uniform(-30, 30)
            w, h = rng.uniform(1, 15), rng.uniform(1, 15)
            builders.create_slab(model, [(x0, y0), (x0 + w, y0),
                                         (x0 + w, y0 + h), (x0, y0 + h)],
                                 rng.uniform(0.1, 0.5),
                                 elevation=rng.uniform(-1, 4))
        assert len(scene.products_in_order(model)) <= 20
        walls, wall_lengths, wall_areas = _raw_graph_scan(model, "IFCWALL")
        slabs, _slab_lengths, slab_areas = _raw_graph_scan(model, "IFCSLAB")
        assert evaluate(model, "walls | count")[0] == len(walls)
        assert evaluate(model, "slabs | count")[0] == len(slabs)
        if walls:
            assert evaluate(model, "walls | sum(length)")[0] == \
                float(sum(wall_lengths))
            assert evaluate(model, "walls | sum(area)")[0] == \
                float(sum(wall_areas))
        if slabs:
            assert evaluate(model, "slabs | sum(area)")[0] == \
                float(sum(slab_areas))
        checked += 1
    assert checked == 100
    _report(7, "count/sum(length)/sum(area) equal brute-force graph scans "
               "on 100 random models of up to 20 products")


def test_acceptance_8_mcp_conformance():
    session = Session(new_model(guid_seed=494))

    def send(message):
        response = handle_request(session, json.dumps(message))
        if "id" in message:
            assert response["jsonrpc"] == "2.0"
            assert response["id"] == message["id"]
            assert ("result" in response) != ("error" in response)
        return response

    init = send({"jsonrpc": "2.0", "id": 1, "method": "initialize",
                 "params": {"protocolVersion": "2024-11-05"}})
    assert init["result"]["protocolVersion"]
    send({"jsonrpc": "2.0", "method": "notifications/initialized"})
    listing = send({"jsonrpc": "2.0", "id": 2, "method": "tools/list"})
    assert len(listing["result"]["tools"]) >= 20

    calls = [
        ("get_ifc_scene_overview", {}),
        ("create_wall", {"start": [0, 0], "end": [10, 0], "height": 3.0,
                         "thickness": 0.25}),
        ("get_scene_info", {"offset": 0, "limit": 50}),
        ("execute_ifc_query", {"query": "walls | count"}),
        ("capture_plan_view", {}),
    ]
    for offset, (tool, arguments) in enumerate(calls):
        response = send({"jsonrpc": "2.0", "id": 3 + offset,
                         "method": "tools/call",
                         "params": {"name": tool, "arguments": arguments}})
        assert not response["result"].get("isError"), tool
        content = response["result"]["content"]
        assert content[0]["type"] == "text"
        json.loads(content[0]["text"])

    bad = send({"jsonrpc": "2.0", "id": 99, "method": "tools/call",
                "params": {"name": "create_wall",
                           "arguments": {"start": [0, 0], "end": [1, 0],
                                         "height": -1, "thickness": 0.1}}})
    assert bad["error"]["code"] == -32602
    assert bad["error"]["data"]["violations"]
    unknown = send({"jsonrpc": "2.0", "id": 100, "method": "tools/call",
                    "params": {"name": "no_such_tool", "arguments": {}}})
    assert unknown["result"]["isError"] is True
    _report(8, "initialize, tools/list and 5 tool calls produce only valid "
               "JSON-RPC 2.0 frames; invalid-params and unknown-tool shapes "
               "as specified")


def test_acceptance_9_retrieval_determinism(tmp_path):
    rng = random.Random(4242)
    vocabulary = ["wall", "slab", "roof", "door", "window", "storey", "beam",
                  "column", "brace", "panel", "frame", "joist"]
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(50):
        words = [rng.choice(vocabulary) for _ in range(40)]
        words.append(f"uniquetoken{i:02d}")
        rng.shuffle(words)
        (corpus / f"doc{i:02d}.md").write_text(" ".join(words),
                                               encoding="utf-8")
    index = index_corpus(corpus)
    assert len(index.chunks) == 50
    for trial in range(100):
        target = trial % 50
        results = index.search(f"uniquetoken{target:02d}")
        assert results, f"query {trial} found nothing"
        assert results[0][0].doc_id == f"doc{target:02d}.md"
    _report(9, "unique-token top-1 holds for 100 queries over a 50-doc corpus")


def test_acceptance_10_snapshot_determinism():
    model_a, handles_a = build_l_building(seed=493)
    model_b, _ = build_l_building(seed=493)
    svg_a = snapshot.render_plan(model_a)
    svg_b = snapshot.render_plan(model_b)
    assert svg_a == svg_b  # independent builds, byte-identical output
    assert snapshot.render_plan(model_a) == svg_a

    ids = re.findall(r'id="([^"]+)"', svg_a)
    assert len(ids) == len(set(ids))
    cut_z = model_a.storey_elevation(model_a.default_storey()) + 1.2
    info = scene.get_scene_info(model_a)
    for row in info["objects"]:
        if row["ifc_class"] in ("IfcWall", "IfcDoor"):
            entity_id = model_a.by_guid[row["guid"]]
            box = world_box(model_a, entity_id)
            if box and box[0].z <= cut_z <= box[1].z:
                assert ids.count(row["guid"]) == 1, row["name"]
    _report(10, "plan SVG byte-identical across independent seeded builds; "
                "one id per cut product, cross-checked against the scene "
                "listing")
