from __future__ import annotations

import importlib
import importlib.util
import io
import json
import math
import os
from collections import OrderedDict
from decimal import Decimal
from enum import IntEnum
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifcmcp import builders, scene
from ifcmcp import knowledge as knowledge_mod
from ifcmcp import model as model_mod
from ifcmcp import service as service_mod
from ifcmcp.errors import DuplicateName
from ifcmcp.geometry import checked_polygon, prism_mesh
from ifcmcp.knowledge import KnowledgeIndex
from ifcmcp.model import load_model, new_model
from ifcmcp.service import (
    GROUPS,
    TOOLS,
    CompiledSchema,
    Session,
    ToolDescriptor,
    handle_request,
    serve_stdio,
    tool_table,
    validate_args,
)
from ifcmcp.step import EntityRef


@pytest.fixture
def session():
    return Session(new_model(guid_seed=21))


def rpc(session, method, params=None, request_id=1):
    message = {"jsonrpc": "2.0", "id": request_id, "method": method}
    if params is not None:
        message["params"] = params
    return handle_request(session, json.dumps(message))


def call(session, tool, arguments, request_id=1):
    return rpc(session, "tools/call",
               {"name": tool, "arguments": arguments}, request_id)


def payload_of(response):
    return json.loads(response["result"]["content"][0]["text"])


def assert_valid_frame(response, request_id):
    assert response["jsonrpc"] == "2.0"
    assert response["id"] == request_id
    assert ("result" in response) != ("error" in response)


def test_initialize(session):
    response = rpc(session, "initialize", {"protocolVersion": "2024-11-05"})
    assert_valid_frame(response, 1)
    result = response["result"]
    assert result["protocolVersion"] == "2024-11-05"
    assert result["serverInfo"]["name"] == "ifcmcp"
    assert "tools" in result["capabilities"]


def test_tools_list_contents_and_stability(session):
    first = rpc(session, "tools/list")
    names = [t["name"] for t in first["result"]["tools"]]
    for expected in ("get_scene_info", "get_object_info",
                     "get_ifc_scene_overview", "get_door_properties",
                     "execute_ifc_query", "search_ifc_knowledge",
                     "capture_plan_view", "capture_elevation_view",
                     "create_wall"):
        assert expected in names
    assert len(names) >= 20
    assert json.dumps(first["result"]) == \
        json.dumps(rpc(session, "tools/list")["result"])
    # ordering: groups in canonical order, names sorted inside each group
    groups = [session.tools[n].group for n in names]
    assert groups == sorted(groups, key=GROUPS.index)
    for group in GROUPS:
        in_group = [n for n in names if session.tools[n].group == group]
        assert in_group == sorted(in_group)


def test_tool_descriptors_shape(session):
    for tool in rpc(session, "tools/list")["result"]["tools"]:
        assert tool["inputSchema"]["type"] == "object"
        assert isinstance(tool["inputSchema"]["required"], list)
        assert isinstance(tool["annotations"]["readOnlyHint"], bool)
        assert isinstance(tool["annotations"]["destructiveHint"], bool)
        assert tool["description"]


def test_call_create_wall_and_query(session):
    response = call(session, "create_wall",
                    {"start": [0, 0], "end": [10, 0], "height": 3.5,
                     "thickness": 0.25})
    assert_valid_frame(response, 1)
    guid = payload_of(response)["guid"]
    assert len(guid) == 22
    info = payload_of(call(session, "get_object_info", {"guid": guid}, 2))
    assert info["bounding_box"]["size"] == [10.0, 0.25, 3.5]


def test_invalid_params_error_shape(session):
    response = call(session, "create_wall",
                    {"start": [0, 0], "end": [10, 0], "height": -1,
                     "thickness": 0.25})
    assert_valid_frame(response, 1)
    assert response["error"]["code"] == -32602
    violations = response["error"]["data"]["violations"]
    assert violations[0]["path"] == "/height"


def test_missing_required_param(session):
    response = call(session, "create_wall", {"start": [0, 0], "end": [1, 0]})
    assert response["error"]["code"] == -32602
    paths = {v["path"] for v in response["error"]["data"]["violations"]}
    assert "/" in paths or paths  # required-property violations at the root


def test_slab_min_items_violation(session):
    response = call(session, "create_slab",
                    {"outline": [[0, 0], [1, 0]], "thickness": 0.2})
    assert response["error"]["code"] == -32602
    assert any("outline" in v["path"] for v in
               response["error"]["data"]["violations"])


def test_type_violation_with_pointer_path(session):
    response = call(session, "create_wall",
                    {"start": [0, 0], "end": [10, 0], "height": "three",
                     "thickness": 0.25})
    violations = response["error"]["data"]["violations"]
    assert any(v["path"] == "/height" for v in violations)


def _tool_setup(seed=41):
    """A same-seed session with four closed walls, a door and a knowledge index."""
    index = KnowledgeIndex()
    index.add_document("walls.md", "IfcWall entities are vertical elements")
    index.build()
    model = new_model(guid_seed=seed)
    walls = builders.create_wall_chain(model, [(0, 0), (8, 0), (8, 6), (0, 6)],
                                       3.0, 0.2, close=True)
    door, _opening = builders.create_door(model, wall_guid=walls[0],
                                          position_along_axis=2.0)
    return Session(model, knowledge=index), walls, door


_UNKNOWN_GUID = "0" * 22

# per tool: the layer function its handler calls (the search tool calls a
# method), one minimal valid call, and the properties its schema does not
# declare: a stray key, plus any parameter of the layer function it leaves out
_MINIMAL_CALLS = {
    "get_scene_info": ("scene.get_scene_info", lambda w, d: {"offset": 0}, {}),
    "get_object_info": ("scene.get_object_info", lambda w, d: {"guid": w[0]}, {}),
    "get_ifc_scene_overview": ("scene.get_ifc_scene_overview", lambda w, d: {}, {}),
    "get_door_properties": ("scene.get_door_properties",
                            lambda w, d: {"guid": d}, {}),
    "execute_ifc_query": ("dsl.eval_query",
                          lambda w, d: {"query": "walls | count"}, {}),
    "create_wall": ("builders.create_wall",
                    lambda w, d: {"start": [0, 10], "end": [5, 10], "height": 3,
                                  "thickness": 0.2}, {}),
    "create_wall_chain": ("builders.create_wall_chain",
                          lambda w, d: {"points": [[0, 10], [5, 10], [5, 14]],
                                        "height": 3, "thickness": 0.2}, {}),
    "create_slab": ("builders.create_slab",
                    lambda w, d: {"outline": [[0, 0], [8, 0], [8, 6]],
                                  "thickness": 0.2}, {"storey": _UNKNOWN_GUID}),
    "create_roof": ("builders.create_roof",
                    lambda w, d: {"outline": [[0, 0], [8, 0], [8, 6], [0, 6]]}, {}),
    "create_roof_over_walls": ("builders.create_roof_over_walls",
                               lambda w, d: {"wall_guids": w},
                               {"name": "Undeclared roof name"}),
    "create_door": ("builders.create_door",
                    lambda w, d: {"wall_guid": w[1], "position_along_axis": 2.0}, {}),
    "create_window": ("builders.create_window",
                      lambda w, d: {"wall_guid": w[2], "position_along_axis": 2.0}, {}),
    "create_stairs": ("builders.create_stairs",
                      lambda w, d: {"origin": [2, 2, 0], "total_rise": 3,
                                    "total_run": 4, "step_count": 10,
                                    "width": 1}, {}),
    "create_mesh_element": ("builders.create_mesh_element", lambda w, d: {
        "ifc_class": "IfcBuildingElementProxy", "name": "Box",
        "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "faces": [[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]]}, {}),
    "edit_attributes": ("model.edit_attributes",
                        lambda w, d: {"guid": w[0], "updates": {"Name": "N"}}, {}),
    "add_property_set": ("model.add_property_set",
                         lambda w, d: {"guid": w[0], "pset_name": "P",
                                       "properties": {"a": 1}}, {}),
    "add_classification": ("model.add_classification",
                           lambda w, d: {"guid": w[0], "system": "S",
                                         "code": "C"}, {}),
    "delete_element": ("model.delete_element", lambda w, d: {"guid": d}, {}),
    "set_owner_history": ("model.set_owner_history",
                          lambda w, d: {"guids": [w[0]], "user": "u",
                                        "timestamp": 1}, {}),
    "search_ifc_knowledge": (None, lambda w, d: {"query": "walls"}, {}),
    "capture_plan_view": ("snapshot.render_plan", lambda w, d: {},
                          {"storey_guid": _UNKNOWN_GUID}),
    "capture_elevation_view": ("snapshot.render_elevation",
                               lambda w, d: {"view": "south"}, {}),
}


def test_extra_unknown_properties_accepted():
    assert sorted(_MINIMAL_CALLS) == sorted(_tool_setup()[0].tools)
    for tool, (_label, arguments, undeclared) in _MINIMAL_CALLS.items():
        outcomes = []
        for extra in ({}, {"stray": "x", **undeclared}):
            session, walls, door = _tool_setup()
            response = call(session, tool, {**arguments(walls, door), **extra})
            assert "result" in response, (tool, response)
            assert not response["result"].get("isError"), (tool, response)
            outcomes.append((response, session.model.to_bytes()))
        assert outcomes[0] == outcomes[1], tool


def test_unknown_tool_in_band_error(session):
    response = call(session, "unknown_tool", {})
    assert_valid_frame(response, 1)
    assert response["result"]["isError"] is True
    payload = payload_of(response)
    assert payload["error"]["type"] == "UnknownTool"


def test_tool_error_in_band(session):
    response = call(session, "get_object_info", {"guid": "0" * 22})
    assert response["result"]["isError"] is True
    assert payload_of(response)["error"]["type"] == "UnknownGuid"


def test_parse_error(session):
    response = handle_request(session, "this is not json {")
    assert response["error"]["code"] == -32700
    assert response["id"] is None


def test_method_not_found(session):
    response = rpc(session, "resources/list")
    assert response["error"]["code"] == -32601


def test_notifications_get_no_response(session):
    assert handle_request(session, json.dumps(
        {"jsonrpc": "2.0", "method": "notifications/initialized"})) is None
    assert handle_request(session, json.dumps(
        {"jsonrpc": "2.0", "method": "tools/call",
         "params": {"name": "get_ifc_scene_overview", "arguments": {}}})) is None


def test_id_echo_including_string_ids(session):
    response = rpc(session, "ping", request_id="abc-1")
    assert response["id"] == "abc-1"
    assert response["result"] == {}


def test_handlers_look_layer_functions_up_at_call_time(monkeypatch):
    # a tracer patches layer functions on their modules; the table must see that
    called = []
    layer_calls = {tool: (label, arguments)
                   for tool, (label, arguments, _undeclared) in _MINIMAL_CALLS.items()
                   if label is not None}
    for label, _arguments in layer_calls.values():
        module_name, name = label.split(".")
        module = importlib.import_module(f"ifcmcp.{module_name}")

        def spy(*args, _label=label, _function=getattr(module, name), **kwargs):
            called.append(_label)
            return _function(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    for tool, (label, arguments) in layer_calls.items():
        session, walls, door = _tool_setup()
        called.clear()
        assert not call(session, tool, arguments(walls, door))["result"].get("isError")
        assert label in called, tool


ROOT = Path(__file__).resolve().parent.parent


def _load_tracer_module():
    """``bench/trace_spans.py``, the benchmark's per-layer tracer."""
    spec = importlib.util.spec_from_file_location(
        "trace_spans", ROOT / "bench" / "trace_spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_every_per_layer_span(tmp_path):
    # the benchmark reads per-layer metrics from spans its tracer patches in
    # by module attribute; a layer function bound elsewhere would lose its span
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "walls.md").write_text("IfcWall entities are vertical elements")
    tracer = _load_tracer_module().Tracer()
    tracer.install()
    try:
        index = knowledge_mod.index_corpus(tmp_path / "corpus")
        for number, (tool, (_label, arguments, _undeclared)) in enumerate(
                _MINIMAL_CALLS.items(), start=1):
            session, walls, door = _tool_setup()
            session.knowledge = index
            line = json.dumps({"jsonrpc": "2.0", "id": number, "method": "tools/call",
                               "params": {"name": tool, "arguments": arguments(walls, door)}})
            stdout = io.StringIO()
            service_mod.serve_stdio(session, stdin=io.StringIO(line + "\n"), stdout=stdout)
            assert not json.loads(stdout.getvalue())["result"].get("isError"), tool
        session.model.save(str(tmp_path / "saved.ifc"))
        reopened = model_mod.open_model(str(tmp_path / "saved.ifc"))
        model_mod.delete_element(reopened, walls[0])
    finally:
        tracer.uninstall()
    report = tracer.report()
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    labels = {metric["name"].rsplit(".", 1)[0] for metric in metrics
              if metric["name"].endswith((".calls", ".self_ms"))}
    assert labels, "BENCHMARK.json lists no span metrics"
    missing = sorted(label for label in labels
                     if report["layers"].get(label, {}).get("calls", 0) == 0)
    assert missing == []
    assert report["counts"]["model.delete_element.iter_refs_calls"] > 0
    assert service_mod.serve_stdio is serve_stdio  # no wrapper left behind


WIRE_FORMAT = Path(__file__).parent / "fixtures" / "tools_list.json"


@pytest.mark.parametrize("groups", [GROUPS, ("query",), ("query", "create")],
                         ids=["all", "query", "query,create"])
def test_tools_list_matches_recorded_wire_format(groups):
    recorded = json.loads(WIRE_FORMAT.read_text(encoding="utf-8"))[",".join(groups)]
    response = rpc(Session(new_model(guid_seed=1), groups=groups), "tools/list")
    assert json.dumps(response["result"]) == json.dumps(recorded)


def test_group_gating():
    session = Session(new_model(guid_seed=3), groups=("query",))
    names = [t["name"] for t in rpc(session, "tools/list")["result"]["tools"]]
    assert "create_wall" not in names
    assert "delete_element" not in names
    assert "get_scene_info" in names
    response = call(session, "create_wall",
                    {"start": [0, 0], "end": [1, 0], "height": 1,
                     "thickness": 0.1})
    assert payload_of(response)["error"]["type"] == "UnknownTool"


def test_mutation_query_needs_edit_group():
    session = Session(new_model(guid_seed=4), groups=("query", "create"))
    call(session, "create_wall", {"start": [0, 0], "end": [5, 0],
                                  "height": 3, "thickness": 0.2})
    response = call(session, "execute_ifc_query",
                    {"query": 'walls | rename("X")'}, 2)
    assert response["result"]["isError"] is True
    assert payload_of(response)["error"]["type"] == "InvalidParams"
    ok = call(session, "execute_ifc_query", {"query": "walls | count"}, 3)
    assert payload_of(ok) == {"result": 1,
                              "log": ["selector walls matched 1 element(s)",
                                      "count = 1"]}


def test_query_tool_returns_result_and_log(session):
    call(session, "create_wall", {"start": [0, 0], "end": [10, 0],
                                  "height": 3, "thickness": 0.2})
    payload = payload_of(call(session, "execute_ifc_query",
                              {"query": "walls | sum(length)"}, 2))
    assert payload["result"] == 10.0
    assert isinstance(payload["log"], list)


def test_search_tool_with_index():
    index = KnowledgeIndex()
    index.add_document("doc.md", "IfcWall entities are vertical elements")
    index.add_document("other.md", "slabs are horizontal")
    index.build()
    session = Session(new_model(guid_seed=5), knowledge=index)
    payload = payload_of(call(session, "search_ifc_knowledge",
                              {"query": "ifcwall"}))
    assert payload["results"][0]["doc_id"] == "doc.md"
    assert payload["results"][0]["score"] > 0


def test_search_payload_does_not_depend_on_the_corpus_location(tmp_path):
    corpus = Path(__file__).resolve().parent.parent / "docs" / "knowledge"
    replies = []
    for copy in ("a", "elsewhere/b"):
        root = tmp_path / copy / "corpus"
        (root / "nested").mkdir(parents=True)
        for path in corpus.glob("*.md"):
            (root / "nested" / path.name).write_bytes(path.read_bytes())
        session = Session(new_model(guid_seed=5),
                          knowledge=knowledge_mod.index_corpus(root))
        replies.append(json.dumps(call(session, "search_ifc_knowledge",
                                       {"query": "wall property set", "k": 20})))
    assert replies[0] == replies[1]
    results = json.loads(json.loads(replies[0])["result"]["content"][0]["text"])
    assert results["results"]
    assert all(r["source_path"].startswith("nested/") for r in results["results"])


def test_search_without_index_is_in_band_error(session, monkeypatch):
    monkeypatch.delenv("IFC_MCP_CORPUS", raising=False)
    response = call(session, "search_ifc_knowledge", {"query": "walls"})
    assert response["result"]["isError"] is True


def test_search_uses_corpus_env_var(monkeypatch, tmp_path):
    (tmp_path / "d.md").write_text("xylophone walls", encoding="utf-8")
    monkeypatch.setenv("IFC_MCP_CORPUS", str(tmp_path))
    session = Session(new_model(guid_seed=6))
    payload = payload_of(call(session, "search_ifc_knowledge",
                              {"query": "xylophone"}))
    assert payload["results"][0]["doc_id"] == "d.md"


def test_snapshot_tools(session):
    call(session, "create_wall", {"start": [0, 0], "end": [10, 0],
                                  "height": 3, "thickness": 0.2})
    plan = payload_of(call(session, "capture_plan_view", {}, 2))
    assert plan["svg"].startswith("<svg")
    elev = payload_of(call(session, "capture_elevation_view",
                           {"view": "south"}, 3))
    assert elev["svg"].startswith("<svg")
    bad = call(session, "capture_elevation_view", {"view": "up"}, 4)
    assert bad["error"]["code"] == -32602


def test_duplicate_tool_name_rejected():
    with pytest.raises(DuplicateName):
        tool_table([*TOOLS.values(), TOOLS["get_scene_info"]])


def test_sessions_share_the_table_entries_of_their_groups():
    first = Session(new_model(guid_seed=7))
    second = Session(new_model(guid_seed=7), groups=("snapshot", "query"))
    assert list(first.tools) == list(TOOLS)
    assert list(second.tools) == [name for name, d in TOOLS.items()
                                  if d.group in ("query", "snapshot")]
    for name, descriptor in second.tools.items():
        assert descriptor is first.tools[name] is TOOLS[name]


def _jsonschema_violations(reference, args) -> list[dict]:
    """The violation list built from a jsonschema validator, the oracle: each
    path segment escaped as RFC 6901 says, and the rejected value's ``repr``
    that opens a message cut after 200 characters."""
    def message(error) -> str:
        echoed = repr(error.instance)
        if len(echoed) > 200 and error.message.startswith(echoed):
            return echoed[:200] + "..." + error.message[len(echoed):]
        return error.message

    violations = [{"path": "/" + "/".join(str(p).replace("~", "~0").replace("/", "~1")
                                          for p in error.absolute_path),
                   "message": message(error)} for error in reference.iter_errors(args)]
    return sorted(violations, key=lambda v: (v["path"], v["message"]))


def test_validate_args_directly():
    compiled = CompiledSchema(
        {"type": "object",
         "properties": {"n": {"type": "number", "exclusiveMinimum": 0},
                        "items": {"type": "array", "minItems": 3}},
         "required": ["n"]})
    assert validate_args(compiled, {"n": 1.5}) == []
    assert validate_args(compiled, {"n": 0}) == [
        {"path": "/n", "message": "0 is less than or equal to the minimum of 0"}]
    assert validate_args(compiled, {}) == [
        {"path": "/", "message": "'n' is a required property"}]
    assert validate_args(compiled, {"n": 2, "items": [1, 2]}) == [
        {"path": "/items", "message": "[1, 2] is too short"}]
    # no coercion: a numeric string is not a number
    assert validate_args(compiled, {"n": "3"}) == [
        {"path": "/n", "message": "'3' is not of type 'number'"}]
    # sorted by path, then message; the root sorts as "/"
    assert validate_args(compiled, {"": 1, "items": 1}) == [
        {"path": "/", "message": "'n' is a required property"},
        {"path": "/items", "message": "1 is not of type 'array'"}]
    # a path is an RFC 6901 pointer, and an echoed repr is cut after 200 characters
    numbers = CompiledSchema({"type": "object", "additionalProperties": {"type": "number"}})
    assert validate_args(numbers, {"~/": "x" * 300}) == [
        {"path": "/~0~1", "message": "'" + "x" * 199 + "... is not of type 'number'"}]


def test_cached_validator_reports_like_a_fresh_one(session):
    descriptor = session.tools["create_wall"]
    assert descriptor.validator is descriptor.validator
    fresh = CompiledSchema(descriptor.input_schema)
    reference = jsonschema.Draft202012Validator(descriptor.input_schema)
    for args in ({"start": [0], "end": [1, 2, 3, 4], "height": -1},
                 {"start": [0, 0], "end": [1, 0], "height": 3, "thickness": 0.2},
                 {"start": "x", "thickness": "0.2", "extra": 1}):
        assert validate_args(descriptor.validator, args) == \
            validate_args(fresh, args) == _jsonschema_violations(reference, args)


# a value handle_request can be given in a message that is not JSON text:
# checked as the JSON class it derives from, else of no JSON type
@pytest.mark.parametrize("value, accepted_at", [
    ((1, 2), None), ({1, 2}, None), (b"ab", None), (Decimal("1.5"), None),
    (OrderedDict(), "o"), (OrderedDict(a=[1]), "o"),
    (IntEnum("Small", "ONE").ONE, "n"), (type("Text", (str,), {})("hip"), "s"),
])
def test_a_value_json_cannot_hold_is_checked_as_its_json_class(value, accepted_at):
    compiled = CompiledSchema({"type": "object", "properties": {
        "n": {"type": "integer", "minimum": 0},
        "s": {"type": "string", "enum": ["hip"]},
        "a": {"type": "array", "items": {"type": "integer"}},
        "o": {"type": "object", "additionalProperties": {"type": "array"}}}})
    for key in "nsao":
        violations = validate_args(compiled, {key: value})
        assert (violations == []) == (key == accepted_at), (key, violations)
        assert all(v["path"] == "/" + key for v in violations)


# --- the compiled argument check against jsonschema ---

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8)


def _types(schema: dict) -> list:
    types = schema.get("type", [])
    return [types] if isinstance(types, str) else list(types)


def _valid(schema: dict):
    """Values ``schema`` accepts, its boundary values among them."""
    options = []
    for kind in _types(schema):
        if kind in ("number", "integer"):
            low = max(schema.get("minimum", -1e6), schema.get("exclusiveMinimum", -1e6))
            high = schema.get("maximum", 1e6)
            integers = st.integers(math.ceil(low), math.floor(high)).filter(
                lambda v: v > schema.get("exclusiveMinimum", -math.inf))
            options += [integers, integers.map(float)]  # "integer" takes 2.0
            if kind == "number":
                options.append(st.floats(low, high,
                                         exclude_min="exclusiveMinimum" in schema))
        elif kind == "string" and "enum" in schema:
            options.append(st.sampled_from(schema["enum"]))
        elif kind == "string":
            shortest = schema.get("minLength", 0)
            longest = min(schema.get("maxLength", shortest + 3), shortest + 3)
            options.append(st.text("0Az_$ ", min_size=shortest, max_size=longest))
        elif kind == "array":
            shortest = schema.get("minItems", 0)
            longest = min(schema.get("maxItems", shortest + 2), shortest + 2)
            options.append(st.lists(_valid(schema.get("items", {})),
                                    min_size=shortest, max_size=longest))
        elif kind == "object":
            properties = {key: _valid(sub)
                          for key, sub in schema.get("properties", {}).items()}
            required = {key: properties.pop(key) for key in schema.get("required", ())}
            extras = st.dictionaries(
                st.sampled_from(["x", "Name", "k"]),
                _valid(schema["additionalProperties"]) if "additionalProperties" in schema
                else _JSON, min_size=schema.get("minProperties", 0), max_size=2)
            options.append(st.builds(lambda extra, own: {**extra, **own}, extras,
                                     st.fixed_dictionaries(required, optional=properties)))
        elif kind == "boolean":
            options.append(st.booleans())
        elif kind == "null":
            options.append(st.none())
    return st.one_of(options) if options else _JSON


def _replaced(container, key, value):
    copy = type(container)(container)
    copy[key] = value
    return copy


def _near(schema: dict):
    """Mostly values with at most one fault, placed at a boundary of one
    keyword of ``schema``, or any JSON value."""
    types = _types(schema)
    edges = [0, -1, 2.5, "2", True, False, None, [], {}, ["hip"]]
    for key in ("minimum", "maximum", "exclusiveMinimum"):
        if key in schema:
            edges += [schema[key] - 1, schema[key] - 0.5, schema[key], schema[key] + 0.5]
    for key in ("minLength", "maxLength"):
        if key in schema and schema[key] < 64:
            edges += ["a" * (schema[key] - 1), "b" * (schema[key] + 1)]
    options = [_valid(schema), _JSON, st.sampled_from(edges + schema.get("enum", []))]
    if {"number", "integer"} & set(types):
        # fractions at integer positions, and either side of each bound
        options.append(st.floats(schema.get("minimum", -10) - 2,
                                 schema.get("maximum", 10) + 2))
    if "array" in types:
        item = schema.get("items", {})
        options += [
            st.lists(_valid(item), min_size=1, max_size=4).flatmap(
                lambda v: st.builds(_replaced, st.just(v),
                                    st.integers(0, len(v) - 1), _near(item))),
            st.lists(_valid(item), max_size=schema.get("maxItems", 3) + 1),
        ]
    if "object" in types:
        properties = schema.get("properties", {})
        faults = [st.tuples(st.just(key), _near(sub)) for key, sub in properties.items()]
        if "additionalProperties" in schema:
            faults.append(st.tuples(st.just("extra"),
                                    _near(schema["additionalProperties"])))
        if faults:
            options.append(st.builds(lambda v, fault: _replaced(v, *fault),
                                     _valid(schema), st.one_of(faults)))
        options.append(_valid(schema).flatmap(
            lambda v: st.sampled_from(sorted(v)).map(
                lambda key: {k: x for k, x in v.items() if k != key}) if v else st.just(v)))
    return st.one_of(options)


_REFERENCES = {name: (jsonschema.Draft202012Validator(d.input_schema),
                       _near(d.input_schema)) for name, d in TOOLS.items()}


@pytest.mark.parametrize("name", list(TOOLS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_compiled_check_agrees_with_jsonschema(name, data):
    # JSON Schema 2020-12: a bool is not a number, "integer" takes 2.0, a
    # keyword constrains only values of its type, enum takes any value; and
    # every violation is worded as jsonschema words it
    reference, arguments = _REFERENCES[name]
    arguments = data.draw(arguments)
    assert validate_args(TOOLS[name].validator, arguments) == \
        _jsonschema_violations(reference, arguments)


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^a"},
    {"type": "object", "properties": {"when": {"type": "string", "format": "date"}}},
    {"type": "array", "items": {"type": "number", "multipleOf": 2}},
    {"type": "object", "additionalProperties": {"const": 1}},
    {"enum": [1, 2]},
])
def test_compiling_an_uncovered_keyword_raises(schema):
    with pytest.raises(ValueError):
        CompiledSchema(schema)


def test_a_tool_with_an_uncovered_keyword_cannot_be_declared():
    with pytest.raises(ValueError):
        ToolDescriptor("bad", "query", "Bad.", {"n": {"type": "number", "multipleOf": 2}},
                       [], lambda s, n: {})


# per tool: the same call with an integer argument given as an integer and
# as an integral float, which JSON Schema's "integer" also accepts
_INTEGRAL_FLOAT_CALLS = [
    ("get_scene_info", lambda w, number: {"offset": number, "limit": number}),
    ("search_ifc_knowledge", lambda w, number: {"query": "walls", "k": number}),
    ("create_stairs", lambda w, number: {"origin": [2, 2, 0], "total_rise": 3,
                                         "total_run": 4, "step_count": number,
                                         "width": 1}),
    ("set_owner_history", lambda w, number: {"guids": [w[0]], "user": "u",
                                             "timestamp": number}),
    ("create_mesh_element", lambda w, number: {
        "ifc_class": "IfcBuildingElementProxy", "name": "Box",
        "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "faces": [[0, number, 1], [0, 1, 3], [1, number, 3], [0, 3, number]]}),
]


@pytest.mark.parametrize("tool, arguments", _INTEGRAL_FLOAT_CALLS,
                         ids=[tool for tool, _ in _INTEGRAL_FLOAT_CALLS])
def test_integral_float_answers_like_the_integer(tool, arguments):
    replies, models = [], []
    for number in (2, 2.0):
        session, walls, _door = _tool_setup()
        replies.append(call(session, tool, arguments(walls, number)))
        models.append(session.model.to_bytes())
    assert "result" in replies[0] and not replies[0]["result"].get("isError")
    assert replies[1] == replies[0]
    assert models[1] == models[0]


# serves the lines in argv[2] on a fresh session, with jsonschema
# unimportable if argv[1] is "blocked"
_SERVE_WITHOUT_JSONSCHEMA = """
import io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["jsonschema"] = None  # any import of it raises ImportError
import ifcmcp.cli
from ifcmcp.model import new_model
from ifcmcp.service import Session, serve_stdio

lines = json.loads(sys.argv[2])
out = io.StringIO()
serve_stdio(Session(new_model(guid_seed=9)),
            stdin=io.StringIO("".join(line + "\\n" for line in lines)), stdout=out)
print(json.dumps({"replies": out.getvalue().splitlines(),
                  "loaded": sys.modules.get("jsonschema") is not None}))
"""


def _run_cold(script: str, *args: str) -> dict:
    """The JSON that ``script`` prints, run in a fresh interpreter on ``src``."""
    import subprocess
    import sys

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_serving_does_not_need_jsonschema():
    def line(number, tool, arguments):
        return json.dumps({"jsonrpc": "2.0", "id": number, "method": "tools/call",
                           "params": {"name": tool, "arguments": arguments}})
    bad_arguments = {"start": [0], "end": [1, "a"], "height": True, "thickness": 0}
    lines = [
        json.dumps({"jsonrpc": "2.0", "id": 1, "method": "initialize"}),
        line(2, "create_wall", {"start": [0, 0], "end": [6, 0], "height": 3.0,
                                "thickness": 0.2}),
        line(3, "create_wall", bad_arguments),
        line(4, "get_scene_info", {"offset": 1, "limit": 2.0}),
        line(5, "capture_elevation_view", {"view": 3}),
        line(6, "execute_ifc_query", {"query": "walls | count"}),
    ]
    blocked = _run_cold(_SERVE_WITHOUT_JSONSCHEMA, "blocked", json.dumps(lines))
    importable = _run_cold(_SERVE_WITHOUT_JSONSCHEMA, "importable", json.dumps(lines))
    assert not blocked["loaded"] and not importable["loaded"]
    assert blocked["replies"] == importable["replies"]
    replies = [json.loads(reply) for reply in blocked["replies"]]
    assert [reply["id"] for reply in replies] == [1, 2, 3, 4, 5, 6]
    for reply in (replies[1], replies[3], replies[5]):
        assert not reply["result"].get("isError"), reply
    for reply, (tool, arguments) in ((replies[2], ("create_wall", bad_arguments)),
                                     (replies[4], ("capture_elevation_view", {"view": 3}))):
        reference = jsonschema.Draft202012Validator(TOOLS[tool].input_schema)
        assert reply["error"] == {"code": -32602, "message": "invalid params", "data": {
            "violations": _jsonschema_violations(reference, arguments)}}


INVALID_PARAMS = Path(__file__).parent / "fixtures" / "invalid_params.json"


def test_invalid_params_replies_match_the_recorded_fixture():
    # faulty calls for every tool, each with the -32602 reply line recorded
    # when jsonschema worded every violation; replayed byte for byte
    records = json.loads(INVALID_PARAMS.read_text(encoding="utf-8"))
    assert {json.loads(r["request"])["params"]["name"] for r in records} == set(TOOLS)
    session = Session(new_model(guid_seed=1))
    for record in records:
        assert json.dumps(handle_request(session, record["request"])) == record["reply"]
        params = json.loads(record["request"])["params"]
        reference = jsonschema.Draft202012Validator(TOOLS[params["name"]].input_schema)
        assert json.loads(record["reply"])["error"]["data"]["violations"] == \
            _jsonschema_violations(reference, params["arguments"])


# what a server start-up must not import: each tool layer loads at the first
# call that needs it, socketserver only for a TCP listener, and no module
# read before the first reply needs dataclasses, secrets or datetime
LOADED_LATER = ["ifcmcp.builders", "ifcmcp.skeleton", "ifcmcp.dsl", "ifcmcp.scene",
                "ifcmcp.snapshot", "ifcmcp.measure", "ifcmcp.geometry", "socketserver",
                "dataclasses", "inspect", "secrets", "hashlib", "datetime"]

_LAYER_START = """
import io, json, sys
import ifcmcp.cli
from ifcmcp.model import new_model
from ifcmcp.service import Session, serve_stdio

watched = json.loads(sys.argv[1])
steps = [{"reply": None, "loaded": [m for m in watched if m in sys.modules]}]
session = Session(new_model(guid_seed=9))
for line in sys.argv[2:]:
    out = io.StringIO()
    serve_stdio(session, stdin=io.StringIO(line + "\\n"), stdout=out)
    steps.append({"reply": json.loads(out.getvalue()),
                  "loaded": [m for m in watched if m in sys.modules]})
print(json.dumps(steps))
"""


def test_tool_layers_are_imported_at_their_first_call():
    lines = [json.dumps({"jsonrpc": "2.0", "id": 1, "method": "initialize"}),
             json.dumps({"jsonrpc": "2.0", "id": 2, "method": "tools/list"}),
             json.dumps({"jsonrpc": "2.0", "id": 3, "method": "tools/call", "params": {
                 "name": "create_wall", "arguments": {
                     "start": [0, 0], "end": [6, 0], "height": 3.0, "thickness": 0.2}}}),
             json.dumps({"jsonrpc": "2.0", "id": 4, "method": "tools/call", "params": {
                 "name": "execute_ifc_query", "arguments": {"query": "walls | count"}}})]
    started, initialized, listed, created, queried = _run_cold(
        _LAYER_START, json.dumps(LOADED_LATER), *lines)
    assert started["loaded"] == initialized["loaded"] == listed["loaded"] == []
    recorded = json.loads(WIRE_FORMAT.read_text(encoding="utf-8"))[",".join(GROUPS)]
    assert json.dumps(listed["reply"]["result"]) == json.dumps(recorded)
    assert "ifcmcp.builders" in created["loaded"]
    assert "ifcmcp.geometry" in created["loaded"]
    assert "ifcmcp.dsl" not in created["loaded"]
    assert "ifcmcp.dsl" in queried["loaded"]
    assert "ifcmcp.snapshot" not in queried["loaded"]
    for step in (created, queried):
        assert not step["reply"]["result"].get("isError"), step["reply"]
    assert json.loads(queried["reply"]["result"]["content"][0]["text"])["result"] == 1


_THREADED_FIRST_CALLS = """
import json, sys, threading
import ifcmcp
from ifcmcp.model import new_model
from ifcmcp.service import Session, handle_request

lines = json.loads(sys.argv[1])
replies = [None] * 8
barrier = threading.Barrier(len(replies), timeout=30)

def first_call(number):
    session = Session(new_model(guid_seed=number))
    barrier.wait()
    replies[number] = handle_request(session, lines[number % len(lines)])

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=first_call, args=(n,)) for n in range(len(replies))]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
functions = {"builders": "create_wall", "dsl": "eval_query", "scene": "get_ifc_scene_overview"}
print(json.dumps({
    "alive": [thread.is_alive() for thread in threads], "replies": replies,
    "one_module": [getattr(getattr(ifcmcp, layer), name).__globals__
                   is vars(sys.modules["ifcmcp." + layer])
                   for layer, name in functions.items()]}))
"""


def test_first_calls_from_many_threads_share_one_import_of_each_layer():
    # serve_tcp runs one thread per connection, so first calls can race
    lines = [json.dumps({"jsonrpc": "2.0", "id": 1, "method": "tools/call",
                         "params": {"name": name, "arguments": arguments}})
             for name, arguments in [
                 ("create_wall", {"start": [0, 0], "end": [6, 0], "height": 3.0,
                                  "thickness": 0.2}),
                 ("execute_ifc_query", {"query": "walls | count"}),
                 ("get_ifc_scene_overview", {})]]
    report = _run_cold(_THREADED_FIRST_CALLS, json.dumps(lines))
    assert report["alive"] == [False] * 8
    for reply in report["replies"]:
        assert not reply["result"].get("isError"), reply
    assert report["one_module"] == [True] * 3


def test_tcp_sessions_are_independent():
    import socket
    import threading
    import time as time_mod

    from ifcmcp.service import serve_tcp

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]

    thread = threading.Thread(
        target=serve_tcp,
        args=(port, lambda: Session(new_model(guid_seed=77))),
        daemon=True,
    )
    thread.start()

    def exchange(messages):
        for _ in range(50):
            try:
                sock = socket.create_connection(("127.0.0.1", port), timeout=2)
                break
            except OSError:
                time_mod.sleep(0.02)
        else:
            raise AssertionError("server did not come up")
        responses = []
        with sock, sock.makefile("rwb") as stream:
            for message in messages:
                if not isinstance(message, bytes):
                    message = json.dumps(message).encode()
                stream.write(message + b"\n")
                stream.flush()
                responses.append(json.loads(stream.readline()))
        return responses

    create = {"jsonrpc": "2.0", "id": 1, "method": "tools/call",
              "params": {"name": "create_wall",
                         "arguments": {"start": [0, 0], "end": [5, 0],
                                       "height": 3.0, "thickness": 0.2}}}
    count = {"jsonrpc": "2.0", "id": 2, "method": "tools/call",
             "params": {"name": "execute_ifc_query",
                        "arguments": {"query": "walls | count"}}}
    first = exchange([create, count])
    assert json.loads(first[1]["result"]["content"][0]["text"])["result"] == 1
    # a second connection gets its own fresh model
    second = exchange([count])
    assert json.loads(second[0]["result"]["content"][0]["text"])["result"] == 0
    # a line that is not UTF-8 gets one parse error and the connection goes on
    third = exchange([b"\x80\xff not utf-8", count])
    assert third[0]["error"]["code"] == -32700
    assert json.loads(third[1]["result"]["content"][0]["text"])["result"] == 0


def test_stdio_loop_round_trip():
    session = Session(new_model(guid_seed=8))
    lines = [
        json.dumps({"jsonrpc": "2.0", "id": 1, "method": "initialize"}),
        json.dumps({"jsonrpc": "2.0", "method": "notifications/initialized"}),
        json.dumps({"jsonrpc": "2.0", "id": 2, "method": "tools/list"}),
        "",
        json.dumps({"jsonrpc": "2.0", "id": 3, "method": "tools/call",
                    "params": {"name": "get_ifc_scene_overview",
                               "arguments": {}}}),
    ]
    stdin = io.StringIO("\n".join(lines) + "\n")
    stdout = io.StringIO()
    assert serve_stdio(session, stdin=stdin, stdout=stdout) == 0
    responses = [json.loads(line) for line in
                 stdout.getvalue().strip().split("\n")]
    assert [r["id"] for r in responses] == [1, 2, 3]
    for r in responses:
        assert r["jsonrpc"] == "2.0"
        assert ("result" in r) != ("error" in r)


def test_malformed_params_rejected(session):
    response = handle_request(session, json.dumps(
        {"jsonrpc": "2.0", "id": 9, "method": "tools/call",
         "params": "not-an-object"}))
    assert response["error"]["code"] == -32602
    response = handle_request(session, json.dumps(
        {"jsonrpc": "2.0", "id": 10, "method": "tools/call",
         "params": {"name": ["bad"], "arguments": {}}}))
    assert response["result"]["isError"] is True


@pytest.mark.parametrize("member", [[], False, 0, "", [1], 1, "x"])
def test_only_an_absent_or_null_member_means_none(session, member):
    # arguments: a non-object is a violation at the root, even a falsy one
    response = call(session, "get_ifc_scene_overview", member)
    assert response["error"] == {"code": -32602, "message": "invalid params", "data": {
        "violations": [{"path": "/", "message": f"{member!r} is not of type 'object'"}]}}
    # params: a non-object is malformed, even a falsy one
    response = rpc(session, "tools/list", member)
    assert response["error"] == {"code": -32602, "message": "params must be an object"}
    # absent or null: no arguments, no params
    for arguments in (None, {}):
        assert not call(session, "get_ifc_scene_overview", arguments)["result"].get("isError")
    for message in ({"jsonrpc": "2.0", "id": 2, "method": "tools/list"},
                    {"jsonrpc": "2.0", "id": 2, "method": "tools/list", "params": None}):
        assert len(handle_request(session, json.dumps(message))["result"]["tools"]) == len(TOOLS)
    assert not rpc(session, "tools/call", {"name": "get_ifc_scene_overview"})["result"].get(
        "isError")


def test_deeply_nested_queries_get_one_parse_error_each():
    session = Session(new_model(guid_seed=8))
    queries = [
        "walls | filter(" + "!" * 8000 + "true) | count",
        "walls | filter(" + "(" * 3000 + "height > 1" + ")" * 3000 + ") | count",
        "walls | filter(" + "+".join(["1"] * 3000) + " > 0) | count",
        "walls | count",
    ]
    lines = [json.dumps({"jsonrpc": "2.0", "id": number, "method": "tools/call",
                         "params": {"name": "execute_ifc_query",
                                    "arguments": {"query": query}}})
             for number, query in enumerate(queries, start=1)]
    stdout = io.StringIO()
    assert serve_stdio(session, stdin=io.StringIO("\n".join(lines) + "\n"),
                       stdout=stdout) == 0
    responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
    assert [r["id"] for r in responses] == [1, 2, 3, 4]
    for response in responses[:3]:
        assert response["result"]["isError"] is True
        assert payload_of(response)["error"]["type"] == "ParseError"
    assert payload_of(responses[3])["result"] == 0


@pytest.mark.parametrize("height", ["1e309", "-1e309", "NaN", "Infinity",
                                    "-Infinity", "1" + "0" * 400],
                         ids=["1e309", "-1e309", "NaN", "Infinity", "-Infinity",
                              "401-digit-integer"])
def test_out_of_range_numbers_rejected_before_dispatch(session, tmp_path, height):
    entities = len(session.model.entities)
    line = ('{"jsonrpc": "2.0", "id": 1, "method": "tools/call", "params": '
            '{"name": "create_wall", "arguments": {"start": [0, 0], '
            f'"end": [5, 0], "height": {height}, "thickness": 0.2}}}}}}')
    response = handle_request(session, line)
    assert response["error"]["code"] == -32700
    assert len(session.model.entities) == entities
    session.model.save(str(tmp_path / "after.ifc"))


def _loads_with_hooks(raw):
    """How ``handle_request`` decoded a line before: ``json.loads`` with the hooks."""
    hook = service_mod._finite_number
    return json.loads(raw, parse_float=hook, parse_int=hook, parse_constant=hook)


# integers of 308, 309 and 400 digits: the first fit a double, some of
# the second and all of the third overflow to inf
_LONG_INTEGER = st.tuples(
    st.sampled_from(["", "-"]), st.sampled_from("123456789"),
    st.sampled_from([307, 308, 399]).flatmap(
        lambda rest: st.text("0123456789", min_size=rest, max_size=rest)),
).map("".join)
_NUMBER_TEXT = st.one_of(
    st.integers().map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["NaN", "-NaN", "Infinity", "-Infinity", "1e309", "-1e309",
                     "1.7976931348623157e308", "2.5E-400", "-0", "1.5e3"]),
    _LONG_INTEGER,
)


@st.composite
def _request_lines(draw):
    if draw(st.integers(0, 4)) == 0:
        line = draw(st.text(max_size=40))
    else:
        numbers = draw(st.lists(_NUMBER_TEXT, min_size=1, max_size=3))
        line = ('{"jsonrpc": "2.0", "id": %s, "method": "ping", "params": {"v": [%s]}}'
                % (numbers[0], ", ".join(numbers)))
        if draw(st.integers(0, 3)) == 0:
            line = line[:-1]
    if draw(st.integers(0, 3)) == 0:
        line = "\ufeff" + line
    encoding = draw(st.sampled_from([None, "utf-8", "utf-16", "utf-32-le"]))
    if encoding is None:
        return line
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=12))
    return line.encode(encoding, "surrogatepass")


@settings(max_examples=300, deadline=None)
@given(raw=_request_lines())
def test_prebuilt_decoder_replies_like_json_loads_with_hooks(raw):
    session = Session(new_model(guid_seed=5))
    reply = handle_request(session, raw)
    with mock.patch.object(service_mod, "_decode", _loads_with_hooks):
        expected = handle_request(session, raw)
    assert json.dumps(reply) == json.dumps(expected)


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_handler_fault_gets_internal_error_and_serving_goes_on():
    session = Session(new_model(guid_seed=8))

    def faulty(session):
        raise ValueError("unsupported profile class IFCCIRCLEPROFILEDEF")

    overview = session.tools["get_ifc_scene_overview"]
    session.tools[overview.name] = overview._replace(handler=faulty)
    lines = [json.dumps({"jsonrpc": "2.0", "id": 1, "method": "tools/call",
                         "params": {"name": "get_ifc_scene_overview", "arguments": {}}}),
             json.dumps({"jsonrpc": "2.0", "id": 2, "method": "ping"})]
    stdout = io.StringIO()
    assert serve_stdio(session, stdin=io.StringIO("\n".join(lines) + "\n"),
                       stdout=stdout) == 0
    responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
    assert [r["id"] for r in responses] == [1, 2]
    assert responses[0]["error"]["code"] == -32603
    assert "ValueError: unsupported profile class" in responses[0]["error"]["message"]
    assert responses[1]["result"] == {}
    # the entry was replaced in this session only
    assert TOOLS[overview.name] is overview


def _foreign_profile_session():
    """A door in a wall whose profile class the kit does not measure."""
    model = new_model(guid_seed=8)
    wall = builders.create_wall(model, (0, 0), (5, 0), 3.0, 0.2)
    builders.create_wall_chain(model, [(5, 0), (5, 4), (0, 4), (0, 0)], 3.0, 0.2)
    builders.create_door(model, wall_guid=wall, position_along_axis=1.0)
    data = model.to_bytes().replace(b"IFCRECTANGLEPROFILEDEF", b"IFCCIRCLEPROFILEDEF")
    session = Session(load_model(data))
    model = session.model
    walls = [model.guid_of(i) for i in sorted(model.by_class["IFCWALL"])]
    return session, walls


def test_foreign_profiles_degrade_in_band():
    session, walls = _foreign_profile_session()
    assert not call(session, "get_ifc_scene_overview", {})["result"].get("isError")
    info = call(session, "get_object_info", {"guid": walls[0]})
    assert not info["result"].get("isError")
    assert payload_of(info)["bounding_box"] is None
    in_band_errors = [
        ("create_door", {"wall_guid": walls[0], "position_along_axis": 2.0},
         "InvalidParams"),
        ("create_door", {"position": [2.5, 0]}, "InvalidParams"),
        ("create_window", {"wall_guid": walls[0], "position_along_axis": 2.0},
         "InvalidParams"),
        ("create_roof_over_walls", {"wall_guids": walls}, "InvalidParams"),
        ("capture_plan_view", {}, "EmptyModel"),
        ("capture_elevation_view", {"view": "south"}, "EmptyModel"),
        ("execute_ifc_query", {"query": "walls | sum(length)"}, "TypeMismatch"),
    ]
    for number, (tool, arguments, error_type) in enumerate(in_band_errors, start=2):
        response = call(session, tool, arguments, number)
        assert response["result"]["isError"] is True, tool
        assert payload_of(response)["error"]["type"] == error_type, tool
    # and the model can still be saved
    session.model.to_bytes()


def _shape(model, product_id):
    """The product's IFCPRODUCTDEFINITIONSHAPE."""
    return model.resolve(model.entities[product_id].attributes[6])


def _solid(model, product_id):
    """First item of a product's Body representation."""
    return model.resolve(model.resolve(_shape(model, product_id).attributes[2][0])
                         .attributes[3][0])


def _first_brep_point(model, product_id):
    face = model.resolve(model.resolve(_solid(model, product_id).attributes[0]).attributes[0][0])
    return model.resolve(model.resolve(model.resolve(face.attributes[0][0]).attributes[0])
                         .attributes[0][0])


def _profile(model, product_id):
    return model.resolve(_solid(model, product_id).attributes[0])


# product, the body record edited, its attribute index and name, and the
# value written there (None is an unset attribute, $)
_MALFORMED_BODIES = [
    pytest.param("wall", _profile, 3, "XDim", None, id="rectangle-xdim-unset"),
    pytest.param("wall", _solid, 2, "ExtrudedDirection", None, id="extrusion-direction-unset"),
    pytest.param("wall", _solid, 3, "Depth", None, id="extrusion-depth-unset"),
    pytest.param("wall", _solid, 3, "Depth", "x", id="extrusion-depth-string"),
    pytest.param("wall", _solid, 3, "Depth", 10 ** 399, id="extrusion-depth-400-digits"),
    pytest.param("slab", _profile, 2, "OuterCurve", None, id="polygon-curve-unset"),
    pytest.param("wall", lambda m, p: m.resolve(_solid(m, p).attributes[2]), 0,
                 "DirectionRatios", (0.0, 0.0), id="extrusion-direction-2-ratios"),
    pytest.param("table", _first_brep_point, 0, "Coordinates", (1.0, 1.0),
                 id="brep-point-2-coordinates"),
    pytest.param("slab", lambda m, p: m.resolve(_profile(m, p).attributes[2]), 0, "Points",
                 (1.0, 2.0), id="polyline-points-not-references"),
    pytest.param("wall", _shape, 2, "Representations", (1.0,),
                 id="shape-representations-not-references"),
]


@pytest.mark.parametrize("product, record_of, index, attribute, value", _MALFORMED_BODIES)
def test_malformed_body_records_are_in_band_errors(product, record_of, index, attribute,
                                                   value):
    model = new_model(guid_seed=9)
    guids = {
        "wall": builders.create_wall(model, (0, 0), (5, 0), 3.0, 0.2),
        "slab": builders.create_slab(model, [(0, 0), (5, 0), (5, 4), (2, 4), (0, 2)], 0.2),
        "table": builders.create_mesh_element(
            model, "IFCFURNISHINGELEMENT",
            prism_mesh(checked_polygon([(1, 1), (2.5, 1), (2, 2), (1, 1.5)]), 0.8), "Table"),
    }
    record = record_of(model, model.by_guid[guids[product]])
    record.attributes = model_mod._replaced(record.attributes, index, value)
    data = model.to_bytes()
    session = Session(load_model(data))
    calls = [("get_ifc_scene_overview", {}), ("capture_plan_view", {}),
             ("capture_elevation_view", {"view": "south"}),
             ("execute_ifc_query", {"query": "all | list(area)"}),
             ("execute_ifc_query", {"query": "all | list(height)"}),
             ("get_object_info", {"guid": guids[product]})]
    for number, (tool, arguments) in enumerate(calls, start=1):
        response = call(session, tool, arguments, number)
        assert response["result"]["isError"] is True, (tool, response)
        error = payload_of(response)["error"]
        assert error["type"] == "InvalidBody", tool
        assert f"#{record.id} " in error["message"] and attribute in error["message"]
    assert session.model.to_bytes() == data


# XDim, YDim and Depth are IfcPositiveLengthMeasure: the product, the record
# edited, the attribute's index and name, and the value written there
_NON_POSITIVE_LENGTHS = [
    # the area and the floor area read -12.0, while the plan drew a rectangle
    pytest.param("slab", _profile, 3, "XDim", -4.0, id="rectangle-xdim-negative"),
    # the area read 0, while the plan and the elevation were DegeneratePolygon
    pytest.param("slab", _profile, 3, "XDim", 0.0, id="rectangle-xdim-zero"),
    # the height read -3 and the area -12, while the elevation was NonPositiveDepth
    pytest.param("wall", _solid, 3, "Depth", -3.0, id="extrusion-depth-negative"),
]


@pytest.mark.parametrize("product, record_of, index, attribute, value", _NON_POSITIVE_LENGTHS)
def test_a_body_length_that_is_not_positive_is_invalid_body(product, record_of, index,
                                                              attribute, value):
    model = new_model(guid_seed=9)
    guids = {"wall": builders.create_wall(model, (0, 0), (5, 0), 3.0, 0.2),
             "slab": builders.create_slab(model, [(0, 0), (4, 0), (4, 3), (0, 3)], 0.2)}
    record = record_of(model, model.by_guid[guids[product]])
    assert record.class_name in ("IFCRECTANGLEPROFILEDEF", "IFCEXTRUDEDAREASOLID")
    record.attributes = model_mod._replaced(record.attributes, index, value)
    data = model.to_bytes()
    session = Session(load_model(data))
    calls = [("get_ifc_scene_overview", {}), ("capture_plan_view", {}),
             ("capture_elevation_view", {"view": "south"}),
             ("execute_ifc_query", {"query": f"{product}s | sum(area)"}),
             ("execute_ifc_query", {"query": f"{product}s | list(height)"}),
             ("get_object_info", {"guid": guids[product]})]
    for number, (tool, arguments) in enumerate(calls, start=1):
        response = call(session, tool, arguments, number)
        assert payload_of(response).get("error") == {
            "type": "InvalidBody",
            "message": f"{record.class_name} #{record.id} of a body needs a positive number "
                       f"as its {attribute}"}, (tool, response)
    assert session.model.to_bytes() == data


_EAR = [[0, 0], [2e-6, 0], [2e-6, 1e-6], [1.05e-6, 1e-6], [0, 1e-6]]  # an ear of 9.75e-13 m2


@pytest.mark.parametrize("tool, arguments", [
    ("create_wall", {"start": [0, 0], "end": [5, 0], "height": 2e-12, "thickness": 0.2}),
    ("create_slab", {"outline": _EAR, "thickness": 0.2}),
    ("create_roof", {"outline": _EAR, "style": "flat"}),
    ("create_door", {"position_along_axis": 2.0, "height": 1e-12}),
], ids=["wall-end-2e-13-m2", "slab-ear", "flat-roof-ear", "door-side-1e-13-m2"])
def test_degenerate_extrusions_are_refused_before_any_write(tool, arguments):
    # the prism an elevation builds from the extrusion would have a face of
    # at most MIN_FACE_AREA: the call is refused and the model stays renderable
    model = new_model(guid_seed=9)
    wall = builders.create_wall(model, (0, 0), (5, 0), 3.0, 0.2)
    session = Session(model)
    data = model.to_bytes()
    if tool == "create_door":
        arguments = {**arguments, "wall_guid": wall}
    response = call(session, tool, arguments)
    assert response["result"]["isError"] is True, response
    error = payload_of(response)["error"]
    assert error["type"] == "DegenerateFace" and error["message"].endswith("is degenerate")
    assert session.model.to_bytes() == data
    assert "svg" in payload_of(call(session, "capture_elevation_view", {"view": "south"}, 2))


def test_overflowing_world_box_is_an_in_band_error():
    # an extrusion of finite Depth and Position whose box overflows: its top
    # is 1.7e308 above a Position that stands 1.7e308 up
    model = new_model(guid_seed=9)
    wall = builders.create_wall(model, (0, 0), (5, 0), 3.0, 0.2)
    solid = _solid(model, model.by_guid[wall])
    solid.attributes = model_mod._replaced(solid.attributes, 3, 1.7e308)
    position = model.resolve(solid.attributes[1])
    point = model.add("IFCCARTESIANPOINT", [(0.0, 0.0, 1.7e308)])
    position.attributes = model_mod._replaced(position.attributes, 0, EntityRef(point))
    data = model.to_bytes()
    session = Session(load_model(data))
    calls = [("get_object_info", {"guid": wall}), ("get_ifc_scene_overview", {}),
             ("capture_plan_view", {})]
    for number, (tool, arguments) in enumerate(calls, start=1):
        response = call(session, tool, arguments, number)
        assert response["result"]["isError"] is True, (tool, response)
        error = payload_of(response)["error"]
        assert error == {"type": "InvalidBody",
                         "message": "a body's world bounding box is not finite"}, tool
    assert session.model.to_bytes() == data


@pytest.mark.parametrize("tool", ["create_slab", "create_roof"])
@pytest.mark.parametrize("outline", [
    # one coordinate product is inf and another -inf: fsum raised ValueError
    [[1e6, -1], [3, -1], [-1e300, 0.5], [1e-12, 1e300], [-1e300, -1]],
    # the doubled area is inf: the slab was accepted, and every overview
    # after it answered -32603
    [[0, 0], [1e200, 0], [1e200, 1e200], [0, 1e200]],
], ids=["inf-minus-inf", "area-overflows"])
def test_an_outline_whose_area_overflows_is_a_degenerate_polygon(session, tool, outline):
    data = session.model.to_bytes()
    arguments = {"outline": outline, "thickness": 0.2} if tool == "create_slab" \
        else {"outline": outline}
    response = call(session, tool, arguments)
    assert response["result"]["isError"] is True, response
    assert payload_of(response)["error"] == {
        "type": "DegeneratePolygon", "message": "polygon area is too large for a double"}
    assert session.model.to_bytes() == data
    assert "error" not in payload_of(call(session, "get_ifc_scene_overview", {}, 2))


def test_a_file_polygon_whose_area_overflows_is_an_in_band_error():
    # a kit slab's five polyline points rewritten to finite values whose
    # shoelace sum overflows: fsum raised OverflowError in four read tools
    model = new_model(guid_seed=9)
    builders.create_wall(model, (0, -2), (5, -2), 3.0, 0.2)
    slab = builders.create_slab(model, [(0, 0), (4, 0), (4, 3), (2, 5), (0, 3)], 0.2)
    (polyline,) = model.by_class["IFCPOLYLINE"]
    points = [model.resolve(ref) for ref in model.entities[polyline].attributes[0][:-1]]
    huge = [(1e308, -1.0), (3.0, -1.0), (-1e308, 0.5), (1e-12, 1e308), (-1e308, -1.0)]
    for point, coordinates in zip(points, huge):
        point.attributes = (coordinates,)
    data = model.to_bytes()
    session = Session(load_model(data))
    calls = [("get_object_info", {"guid": slab}), ("get_ifc_scene_overview", {}),
             ("capture_plan_view", {}), ("execute_ifc_query", {"query": "slabs | sum(area)"})]
    for number, (tool, arguments) in enumerate(calls, start=1):
        response = call(session, tool, arguments, number)
        assert response["result"]["isError"] is True, (tool, response)
        error = payload_of(response)["error"]
        assert error == {"type": "DegeneratePolygon",
                         "message": "polygon area is too large for a double"}, tool
    assert session.model.to_bytes() == data


def _slab_with_rectangle(xdim, ydim, location=None, turn=None) -> tuple[Session, str, bytes]:
    """A session on a saved and reloaded kit slab whose rectangle profile
    reads ``xdim`` by ``ydim``, centred on ``location`` and turned by the 2D
    RefDirection ``turn`` where given; its GlobalId and the file's bytes."""
    model = new_model(guid_seed=9)
    slab = builders.create_slab(model, [(0, 0), (4, 0), (4, 3), (0, 3)], 0.2)
    profile = _profile(model, model.by_guid[slab])
    profile.attributes = profile.attributes[:3] + (xdim, ydim)
    position = model.resolve(profile.attributes[2])
    if location is not None:
        point = EntityRef(model.add("IFCCARTESIANPOINT", [location]))
        position.attributes = model_mod._replaced(position.attributes, 0, point)
    if turn is not None:
        direction = EntityRef(model.add("IFCDIRECTION", [turn]))
        position.attributes = model_mod._replaced(position.attributes, 1, direction)
    data = model.to_bytes()
    return Session(load_model(data)), slab, data


# the verdict was the rotation's: unturned, a thin rectangle read as drawable
# in the overview, get_object_info and the area, a far-off one was InvalidBody
# in three tools, and one whose area overflows made the overview answer -32603
@pytest.mark.parametrize("xdim, ydim, location, turn, message", [
    (1e-7, 3.0, None, None, "polygon needs at least 3 distinct vertices"),
    (1e-7, 3.0, None, (0.0, 1.0), "polygon needs at least 3 distinct vertices"),
    (1.7e308, 3.0, (1.7e308, 0.0), None, "polygon has non-finite coordinates"),
    # turned, its 1.7e308 side runs along y and its 3 m one is lost at x 1.7e308
    (1.7e308, 3.0, (1.7e308, 0.0), (0.0, 1.0), "polygon needs at least 3 distinct vertices"),
    (1e200, 1e200, None, None, "polygon area is too large for a double"),
], ids=["thin", "thin-turned", "far-off", "far-off-turned", "area-overflows"])
def test_a_degenerate_rectangle_is_refused_by_every_read_tool(xdim, ydim, location, turn,
                                                              message):
    session, slab, data = _slab_with_rectangle(xdim, ydim, location, turn)
    calls = [("get_ifc_scene_overview", {}), ("get_object_info", {"guid": slab}),
             ("execute_ifc_query", {"query": "slabs | sum(area)"}), ("capture_plan_view", {}),
             ("capture_elevation_view", {"view": "south"})]
    for number, (tool, arguments) in enumerate(calls, start=1):
        response = call(session, tool, arguments, number)
        assert payload_of(response).get("error") == {
            "type": "DegeneratePolygon", "message": message}, (tool, response)
    assert session.model.to_bytes() == data


def test_a_door_by_position_on_a_wall_too_long_to_square_is_placed(session):
    # a position was projected by dividing by the squared axis length, which
    # overflowed: the call answered -32603
    wall = {"start": [0, 0], "end": [1e300, 0], "height": 3.0, "thickness": 0.2}
    assert "error" not in payload_of(call(session, "create_wall", wall))
    response = call(session, "create_door", {"position": [5, 0]}, 2)
    assert "error" not in response, response
    door = payload_of(response)
    assert "error" not in door, door
    assert payload_of(call(session, "get_door_properties", {"guid": door["door"]}, 3))["width"] == 0.9


def test_overflowing_payload_gets_internal_error_in_strict_json(session, monkeypatch):
    # a layer result that is not finite, as a file's overflowing profile
    # area once was: refused before it reaches the wire as Infinity
    monkeypatch.setattr(scene, "get_ifc_scene_overview",
                        lambda model: {"total_floor_area": math.inf})
    lines = [json.dumps({"jsonrpc": "2.0", "id": 7, "method": "tools/call",
                         "params": {"name": "get_ifc_scene_overview", "arguments": {}}})]
    stdout = io.StringIO()
    serve_stdio(session, stdin=io.StringIO(lines[0] + "\n"), stdout=stdout)
    (line,) = stdout.getvalue().splitlines()
    response = json.loads(line, parse_constant=_reject_constant)
    assert response["id"] == 7
    assert response["error"]["code"] == -32603
