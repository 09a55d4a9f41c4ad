"""MCP server core: the tool table, argument validation, JSON-RPC dispatch.

The tools are one table, ``TOOLS``, built once at import; a session keeps
the entries of its groups. Each entry declares its properties, and
dispatch calls ``handler(session, **arguments)`` with only the declared
ones, so undeclared properties are ignored. Where the tool does not give
a property, the layer function's own default applies.

Transport is newline-delimited JSON-RPC 2.0 over stdio (or a local TCP
listener for test harnesses). Tool failures are reported in-band via
``isError`` results so a client LLM can read them and try again;
protocol-level errors (-32700/-32601/-32602) are reserved for malformed
traffic, and -32603 for a fault of the server itself (an unexpected
exception in a handler, or a result that is not finite JSON).
"""

from __future__ import annotations

import codecs
import json
import math
import operator
import os
import sys
from collections import namedtuple
from functools import cached_property
from typing import Callable

import ifcmcp

from . import model as model_mod
from .errors import MAX_QUERY_BYTES, DuplicateName, IfcError, InvalidParams
from .knowledge import KnowledgeIndex, index_corpus
from .model import IfcModel, PropertySpec

PROTOCOL_VERSION = "2024-11-05"
SERVER_NAME = "ifcmcp"
SERVER_VERSION = "0.1.0"

GROUPS = ("query", "create", "edit", "knowledge", "snapshot")
GROUP_SHORTHAND = {"q": "query", "c": "create", "e": "edit",
                   "k": "knowledge", "s": "snapshot"}

CORPUS_ENV_VAR = "IFC_MCP_CORPUS"

_POINT2_OR_3 = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 3}
_POINT3 = {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3}
_GUID = {"type": "string", "minLength": 22, "maxLength": 22}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}


# --- argument checks compiled from the tool schemas ---
#
# JSON Schema 2020-12 validation semantics
# (https://json-schema.org/draft/2020-12/json-schema-validation) for the
# keywords the tool table uses: each keyword constrains only values of its
# own kind, a bool is not a number, "integer" accepts an integral float, and
# "enum" applies to a value of any type. A violation is worded as jsonschema
# 4.26 words it, so a client reads the same -32602 list it always has.

def _at_least(v, bound) -> bool:
    return len(v) >= bound


def _at_most(v, bound) -> bool:
    return len(v) <= bound


def _echo(v) -> str:
    """``repr(v)`` as a violation echoes it: at most 200 characters, then ``...``."""
    text = repr(v)
    return text if len(text) <= 200 else text[:200] + "..."


def _too_few(noun_for_more: str) -> Callable:
    return lambda v, bound: f"{_echo(v)} {'should be non-empty' if bound == 1 else noun_for_more}"


def _too_many(v, bound) -> str:
    return f"{_echo(v)} {'is expected to be empty' if bound == 0 else 'is too long'}"


def _integral(v, types) -> bool:
    # only a class that none of ``types`` takes whole gets here (_class_check)
    return isinstance(v, float) and "integer" in types and v.is_integer()


# keyword: (the kind of value it constrains, or None for every kind; whether
# a value meets it, given the keyword's value b; the violation's wording).
# A required key is a rule of its own, with the key as b. properties,
# additionalProperties and items only descend.
_RULES: dict[str, tuple] = {
    "type": (None, _integral,
             lambda v, b: f"{_echo(v)} is not of type {', '.join(map(repr, b))}"),
    "enum": (None, lambda v, b: v in b, lambda v, b: f"{_echo(v)} is not one of {b!r}"),
    "minimum": ("number", operator.ge,
                lambda v, b: f"{_echo(v)} is less than the minimum of {b!r}"),
    "maximum": ("number", operator.le,
                lambda v, b: f"{_echo(v)} is greater than the maximum of {b!r}"),
    "exclusiveMinimum": ("number", operator.gt,
                         lambda v, b: f"{_echo(v)} is less than or equal to the minimum of {b!r}"),
    "minLength": ("string", _at_least, _too_few("is too short")),
    "maxLength": ("string", _at_most, _too_many),
    "minItems": ("array", _at_least, _too_few("is too short")),
    "maxItems": ("array", _at_most, _too_many),
    "minProperties": ("object", _at_least, _too_few("does not have enough properties")),
    "required": ("object", operator.contains, lambda v, b: f"{b!r} is a required property"),
    "properties": ("object", None, None),
    "additionalProperties": ("object", None, None),
    "items": ("array", None, None),
}

# the kinds of each class json.loads produces; bool first for __missing__
_KINDS = {bool: {"boolean"}, int: {"number", "integer"}, float: {"number"},
          str: {"string"}, list: {"array"}, dict: {"object"}, type(None): {"null"}}


def _types(schema: dict) -> list[str]:
    types = schema.get("type", [])
    return [types] if isinstance(types, str) else list(types)


def _no_violations(_value) -> tuple:
    return ()


def _int_of_float(v):
    return int(v) if v.__class__ is float else v


class CompiledSchema(dict):
    """A schema compiled with the schemas below it: value class -> the check
    of a value of that class, compiled at the first such value, which gives
    its violations as (path below the value, message) pairs. A keyword
    outside ``_RULES`` raises ``ValueError`` at construction."""

    def __init__(self, schema: dict):
        unknown = schema.keys() - _RULES.keys()
        if unknown:
            raise ValueError(f"no compiled check for JSON Schema keyword(s) {sorted(unknown)}")
        if not all(isinstance(member, str) for member in schema.get("enum", ())):
            raise ValueError("a compiled enum lists strings only")
        self.schema = schema
        self.properties = {key: CompiledSchema(sub)
                           for key, sub in schema.get("properties", {}).items()}
        self.items = CompiledSchema(schema["items"]) if "items" in schema else None
        self.extra = CompiledSchema(schema.get("additionalProperties", {})) \
            if {"properties", "additionalProperties"} & schema.keys() else None

    def __missing__(self, cls):
        # a class json.loads does not produce: as its JSON base, or of no kind
        base = next((json_class for json_class in _KINDS if issubclass(cls, json_class)), cls)
        self[cls] = check = _class_check(self, cls) if base is cls else self[base]
        return check

    @cached_property
    def int_cast(self) -> Callable | None:
        """A function that gives a valid value with the floats at the
        integer-only positions of this schema, its items and properties, as
        ``int``; ``None`` where there is no such position."""
        types = _types(self.schema)
        if "integer" in types and "number" not in types:
            return _int_of_float
        item = self.items.int_cast if self.items is not None else None
        if item is not None:
            return lambda v: [item(x) for x in v] if v.__class__ is list else v
        casts = {key: node.int_cast for key, node in self.properties.items()
                 if node.int_cast is not None}
        if casts:
            return lambda v: {key: casts[key](value) if key in casts else value
                              for key, value in v.items()} if v.__class__ is dict else v
        return None


def _class_check(node: CompiledSchema, cls: type) -> Callable:
    """``check(value)`` for the values of class ``cls``: the rules that can
    fail for such a value, then the descent into its items or properties."""
    schema, kinds = node.schema, _KINDS.get(cls, set())
    rules = []
    for keyword, bound in schema.items():
        applies_to, meets, wording = _RULES[keyword]
        if meets is None or applies_to not in (None, *kinds):
            continue
        if keyword == "type":
            bound = _types(schema)
            if not kinds.isdisjoint(bound):
                continue  # every value of the class has one of the types
        rules += [(meets, key, wording) for key in bound] if keyword == "required" \
            else [(meets, bound, wording)]

    def broken(v):
        for meets, bound, _wording in rules:
            if not meets(v, bound):
                return [("", wording(v, bound)) for meets, bound, wording in rules
                        if not meets(v, bound)]
        return []

    if "array" in kinds and node.items is not None:
        members, properties, other = enumerate, {}, node.items
    elif "object" in kinds and node.extra is not None:
        members, properties, other = dict.items, node.properties, node.extra
    else:
        return broken if rules else _no_violations

    def check(v):
        found = broken(v)
        for key, value in members(v):
            inner = properties.get(key, other)[value.__class__](value)
            if inner:
                token = str(key).replace("~", "~0").replace("/", "~1")  # RFC 6901
                found += [(f"/{token}{path}", message) for path, message in inner]
        return found
    return check


class ToolDescriptor(namedtuple("ToolDescriptor", "name group description properties "
                                "required handler read_only destructive validator")):
    """A tool shared by all sessions: its wire format and ``handler(session, **args)``.

    ``validator`` is compiled from the other fields when the descriptor is
    built, so an uncovered schema keyword fails the import of the table.
    """

    __slots__ = ()

    def __new__(cls, name: str, group: str, description: str, properties: dict,
                required: list[str], handler: Callable, read_only: bool = False,
                destructive: bool = False):
        tool = super().__new__(cls, name, group, description, properties, required,
                               handler, read_only, destructive, None)
        return tool._replace(validator=CompiledSchema(tool.input_schema))

    @property
    def input_schema(self) -> dict:
        return {"type": "object", "properties": self.properties,
                "required": self.required}

    def wire_format(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "inputSchema": self.input_schema,
            "annotations": {
                "readOnlyHint": self.read_only,
                "destructiveHint": self.destructive,
            },
        }


def validate_args(schema: CompiledSchema, args) -> list[dict]:
    """Schema violations as (JSON pointer, message) pairs, sorted; no coercion.
    A message echoes the rejected value's ``repr``, cut after 200 characters."""
    found = schema[args.__class__](args)
    return [{"path": path, "message": message} for path, message in
            sorted((path or "/", message) for path, message in found)] if found else []


class Session:
    """One client connection: one model, strictly serial tool calls."""

    def __init__(self, model: IfcModel, groups: tuple[str, ...] = GROUPS,
                 knowledge: KnowledgeIndex | None = None):
        self.model = model
        self.groups = groups
        self.knowledge = knowledge

    @cached_property
    def tools(self) -> dict[str, ToolDescriptor]:
        """The table entries of this session's groups, in ``tools/list`` order."""
        return {name: d for name, d in TOOLS.items() if d.group in self.groups}

    def require_knowledge(self) -> KnowledgeIndex:
        if self.knowledge is None:
            corpus = os.environ.get(CORPUS_ENV_VAR)
            if corpus:
                self.knowledge = index_corpus(corpus)
            else:
                raise InvalidParams(
                    "no knowledge index loaded; start the server with "
                    f"serve --corpus DIR or set {CORPUS_ENV_VAR}"
                )
        return self.knowledge


def _guids_payload(guids: list[str]) -> dict:
    return {"guids": guids, "count": len(guids)}


def _roof_payload(result: tuple[str, list[str]]) -> dict:
    guid, warnings = result
    payload = {"guid": guid}
    if warnings:
        payload["warnings"] = warnings
    return payload


def _filled_payload(kind: str, result: tuple[str, str]) -> dict:
    filler, opening = result
    return {kind: filler, "opening": opening, "guid": filler}


def _run_query(session: Session, query: str) -> dict:
    program = ifcmcp.dsl.parse_query(query)
    if program.is_mutation and "edit" not in session.groups:
        raise InvalidParams("mutation queries require the edit tool group")
    result, log, _changed = ifcmcp.dsl.eval_query(session.model, program)
    return {"result": result, "log": log}


def _search_payload(session: Session, query: str, k: int) -> dict:
    index = session.require_knowledge()
    results = [
        {
            "doc_id": chunk.doc_id,
            "chunk_index": chunk.chunk_index,
            "score": round(score, 6),
            "text": chunk.text,
            "source_path": chunk.source_path,
            "tags": chunk.tags,
        }
        for chunk, score in index.search(query, k=k)
    ]
    return {"results": results}


def tool_table(descriptors) -> dict[str, ToolDescriptor]:
    """Descriptors by name in ``tools/list`` order: group, then name."""
    table: dict[str, ToolDescriptor] = {}
    for descriptor in sorted(descriptors,
                             key=lambda d: (GROUPS.index(d.group), d.name)):
        if descriptor.name in table:
            raise DuplicateName(f"duplicate tool name {descriptor.name!r}")
        table[descriptor.name] = descriptor
    return table


# Handlers name their layer function at call time
# (``ifcmcp.scene.get_object_info``, not a stored function object), so a
# function patched on its module is called, and a layer module is imported
# at the first call that reads it (``ifcmcp.LAYERS``).
TOOLS = tool_table([
    # --- query ---
    ToolDescriptor(
        "get_scene_info", "query",
        "List scene objects (spatial containers, building elements and type "
        "objects) with name, type, location, visibility and GUID. Paginated.",
        {"offset": {"type": "integer", "minimum": 0},
         "limit": {"type": "integer", "minimum": 1}},
        [],
        lambda s, **a: ifcmcp.scene.get_scene_info(s.model, **a),
        read_only=True,
    ),
    ToolDescriptor(
        "get_object_info", "query",
        "Full record of one object by GUID: class, placement, bounding box, "
        "property sets, classifications and relationships.",
        {"guid": _GUID}, ["guid"],
        lambda s, guid: ifcmcp.scene.get_object_info(s.model, guid),
        read_only=True,
    ),
    ToolDescriptor(
        "get_ifc_scene_overview", "query",
        "Aggregate model statistics: per-class counts, storeys with "
        "elevations, total floor area and overall bounding box.",
        {}, [],
        lambda s: ifcmcp.scene.get_ifc_scene_overview(s.model),
        read_only=True,
    ),
    ToolDescriptor(
        "get_door_properties", "query",
        "Dimensions, sill height and host wall of a door by GUID.",
        {"guid": _GUID}, ["guid"],
        lambda s, guid: ifcmcp.scene.get_door_properties(s.model, guid),
        read_only=True,
    ),
    ToolDescriptor(
        "execute_ifc_query", "query",
        "Run a query pipeline over the model, e.g. 'walls | count', "
        "'slabs | sum(area)', 'walls | filter(height > 3) | list(name)' or "
        "a batch mutation such as 'walls | rename(\"Wall-{height}m\")'.",
        {"query": {"type": "string", "maxLength": MAX_QUERY_BYTES}},
        ["query"],
        _run_query,
    ),

    # --- create ---
    ToolDescriptor(
        "create_wall", "create",
        "Create a wall from start/end points (metres), height and thickness. "
        "Returns the new GUID.",
        {"start": _POINT2_OR_3, "end": _POINT2_OR_3, "height": _POSITIVE,
         "thickness": _POSITIVE, "storey": _GUID, "name": {"type": "string"}},
        ["start", "end", "height", "thickness"],
        lambda s, start, end, **a: {"guid": ifcmcp.builders.create_wall(
            s.model, start[:2], end[:2], **a)},
    ),
    ToolDescriptor(
        "create_wall_chain", "create",
        "Create a chain of walls through a list of points; set close=true "
        "to add the closing segment. Returns the GUIDs in order.",
        {"points": {"type": "array", "items": _POINT2_OR_3, "minItems": 2},
         "height": _POSITIVE, "thickness": _POSITIVE,
         "close": {"type": "boolean"}, "storey": _GUID},
        ["points", "height", "thickness"],
        lambda s, points, **a: _guids_payload(ifcmcp.builders.create_wall_chain(
            s.model, [p[:2] for p in points], **a)),
    ),
    ToolDescriptor(
        "create_slab", "create",
        "Create a floor slab from a closed polygon outline; the top face "
        "sits at the given elevation and the slab extrudes downward.",
        {"outline": {"type": "array", "items": _POINT2_OR_3, "minItems": 3},
         "thickness": _POSITIVE, "elevation": {"type": "number"},
         "name": {"type": "string"}},
        ["outline", "thickness"],
        lambda s, outline, **a: {"guid": ifcmcp.builders.create_slab(
            s.model, [p[:2] for p in outline], **a)},
    ),
    ToolDescriptor(
        "create_roof", "create",
        "Create a roof over a 2D outline. Styles: hip (straight-skeleton), "
        "gable (rectangular outlines) or flat.",
        {"outline": {"type": "array", "items": _POINT2_OR_3, "minItems": 3},
         "style": {"type": "string", "enum": ["hip", "gable", "flat"]},
         "slope_deg": {"type": "number", "minimum": 5, "maximum": 85},
         "base_z": {"type": "number"}, "name": {"type": "string"}},
        ["outline"],
        lambda s, outline, **a: _roof_payload(ifcmcp.builders.create_roof(
            s.model, [p[:2] for p in outline], **a)),
    ),
    ToolDescriptor(
        "create_roof_over_walls", "create",
        "Create a roof on top of a closed circuit of walls; the outline is "
        "reconstructed from the wall axes and the base sits on the tallest wall.",
        {"wall_guids": {"type": "array", "items": _GUID, "minItems": 3},
         "style": {"type": "string", "enum": ["hip", "gable", "flat"]},
         "slope_deg": {"type": "number", "minimum": 5, "maximum": 85}},
        ["wall_guids"],
        lambda s, **a: _roof_payload(ifcmcp.builders.create_roof_over_walls(s.model, **a)),
    ),
    ToolDescriptor(
        "create_door", "create",
        "Insert a door into a wall. Give wall_guid plus position_along_axis, "
        "or just a position point to pick the nearest wall. Defaults 0.9 x 2.1 m.",
        {"wall_guid": _GUID, "position": _POINT2_OR_3,
         "position_along_axis": {"type": "number", "minimum": 0},
         "width": _POSITIVE, "height": _POSITIVE, "name": {"type": "string"}},
        [],
        lambda s, **a: _filled_payload("door", ifcmcp.builders.create_door(s.model, **a)),
    ),
    ToolDescriptor(
        "create_window", "create",
        "Insert a window into a wall; sill_height sets the bottom of the "
        "opening. Defaults 1.2 x 1.4 m with a 0.9 m sill.",
        {"wall_guid": _GUID, "position": _POINT2_OR_3,
         "position_along_axis": {"type": "number", "minimum": 0},
         "width": _POSITIVE, "height": _POSITIVE,
         "sill_height": {"type": "number", "minimum": 0},
         "name": {"type": "string"}},
        [],
        lambda s, **a: _filled_payload("window", ifcmcp.builders.create_window(s.model, **a)),
    ),
    ToolDescriptor(
        "create_stairs", "create",
        "Create a straight stair flight from an origin point: total rise and "
        "run are split into equal steps of the given count.",
        {"origin": _POINT3, "direction_deg": {"type": "number"},
         "total_rise": _POSITIVE, "total_run": _POSITIVE,
         "step_count": {"type": "integer", "minimum": 2}, "width": _POSITIVE,
         "name": {"type": "string"}},
        ["origin", "total_rise", "total_run", "step_count", "width"],
        lambda s, direction_deg=0.0, **a: {"guid": ifcmcp.builders.create_stairs(
            s.model, direction_deg=direction_deg, **a)},
    ),
    ToolDescriptor(
        "create_mesh_element", "create",
        "Create an element from a triangle mesh (vertices in metres, faces "
        "as vertex-index triples). The IFC class must come from the allowed set.",
        {"ifc_class": {"type": "string"},
         "vertices": {"type": "array", "items": _POINT3, "minItems": 3},
         "faces": {"type": "array", "minItems": 1,
                   "items": {"type": "array", "items": {"type": "integer", "minimum": 0},
                             "minItems": 3, "maxItems": 3}},
         "name": {"type": "string"}, "storey": _GUID},
        ["ifc_class", "vertices", "faces", "name"],
        lambda s, vertices, faces, **a: {"guid": ifcmcp.builders.create_mesh_element(
            s.model, mesh=ifcmcp.geometry.checked_mesh(vertices, faces), **a)},
    ),

    # --- edit ---
    ToolDescriptor(
        "edit_attributes", "edit",
        "Edit direct attributes (Name, Description, ObjectType, LongName, "
        "Tag) of an element by GUID. Returns old/new pairs.",
        {"guid": _GUID,
         "updates": {"type": "object",
                     "additionalProperties": {"type": ["string", "number", "boolean", "null"]}}},
        ["guid", "updates"],
        lambda s, guid, updates: {"guid": guid, "changed": model_mod.edit_attributes(
            s.model, guid, dict(updates))},
    ),
    ToolDescriptor(
        "add_property_set", "edit",
        "Attach a named property set to an element; merges into an existing "
        "set of the same name. Values are scalars (string, number, boolean).",
        {"guid": _GUID, "pset_name": {"type": "string", "minLength": 1},
         "properties": {"type": "object",
                        "additionalProperties": {"type": ["string", "number", "boolean"]},
                        "minProperties": 1}},
        ["guid", "pset_name", "properties"],
        lambda s, guid, pset_name, properties: {"pset_guid": model_mod.add_property_set(
            s.model, guid, PropertySpec(pset_name, list(properties.items())))},
    ),
    ToolDescriptor(
        "add_classification", "edit",
        "Classify an element under a classification system code, e.g. "
        "Uniclass 2015 Ss_25_10_20.",
        {"guid": _GUID, "system": {"type": "string", "minLength": 1},
         "code": {"type": "string", "minLength": 1}},
        ["guid", "system", "code"],
        lambda s, **a: {"association_guid": model_mod.add_classification(s.model, **a)},
    ),
    ToolDescriptor(
        "delete_element", "edit",
        "Delete a building element and everything only it owns (placement, "
        "geometry, openings, fillings). Spatial containers cannot be deleted.",
        {"guid": _GUID}, ["guid"],
        lambda s, guid: {"removed": model_mod.delete_element(s.model, guid)},
        destructive=True,
    ),
    ToolDescriptor(
        "set_owner_history", "edit",
        "Attach an owner history (user plus unix timestamp) to the listed "
        "elements; all-or-nothing on unknown GUIDs.",
        {"guids": {"type": "array", "items": _GUID},
         "user": {"type": "string", "minLength": 1},
         "timestamp": {"type": "integer"}},
        ["guids", "user", "timestamp"],
        lambda s, **a: {"updated": model_mod.set_owner_history(s.model, **a)},
    ),

    # --- knowledge ---
    ToolDescriptor(
        "search_ifc_knowledge", "knowledge",
        "Search the local IFC/BIM documentation store; returns the top-k "
        "chunks ranked lexically.",
        {"query": {"type": "string", "minLength": 1},
         "k": {"type": "integer", "minimum": 1}},
        ["query"],
        lambda s, query, k=5: _search_payload(s, query, k),
        read_only=True,
    ),

    # --- snapshot ---
    ToolDescriptor(
        "capture_plan_view", "snapshot",
        "Render a top-down plan section of a storey as SVG (50 px per metre, "
        "walls filled, door/window glyphs, element GUIDs as ids).",
        {"storey": _GUID,
         "cut_height": {"type": "number", "exclusiveMinimum": 0}},
        [],
        lambda s, storey=None, **a: {"svg": ifcmcp.snapshot.render_plan(
            s.model, storey_guid=storey, **a)},
        read_only=True,
    ),
    ToolDescriptor(
        "capture_elevation_view", "snapshot",
        "Render an orthographic elevation (north, south, east or west) as SVG.",
        {"view": {"type": "string", "enum": ["north", "south", "east", "west"]}},
        ["view"],
        lambda s, view: {"svg": ifcmcp.snapshot.render_elevation(s.model, view)},
        read_only=True,
    ),
])


# --- JSON-RPC plumbing ---

def _error(request_id, code: int, message: str, data=None) -> dict:
    error: dict = {"code": code, "message": message}
    if data is not None:
        error["data"] = data
    return {"jsonrpc": "2.0", "id": request_id, "error": error}


def _result(request_id, result) -> dict:
    return {"jsonrpc": "2.0", "id": request_id, "result": result}


def _finite_number(text: str) -> int | float:
    """A JSON number, or a NaN/Infinity literal, that must be a finite double."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text[:24]} is out of range")
    return int(text) if text.lstrip("-").isdigit() else value


# the model can only store finite reals, so NaN, Infinity and numbers
# beyond the double range are malformed traffic
_DECODER = json.JSONDecoder(parse_float=_finite_number, parse_int=_finite_number,
                            parse_constant=_finite_number)


def _decode(raw: str | bytes):
    """``json.loads(raw)`` with the finite-number hooks, on one prebuilt decoder
    (``json.loads`` with hooks builds a decoder and scanner per call)."""
    if isinstance(raw, bytes):
        raw = raw.decode(json.detect_encoding(raw), "surrogatepass")
    elif raw.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", raw, 0)
    return _DECODER.decode(raw)


def handle_request(session: Session, raw) -> dict | None:
    """One JSON-RPC message in, one response (or None for notifications)."""
    if isinstance(raw, (str, bytes)):
        try:
            message = _decode(raw)
        except ValueError as exc:  # a json.JSONDecodeError or an out-of-range number
            return _error(None, -32700, f"parse error: {getattr(exc, 'msg', exc)}")
    else:
        message = raw
    if not isinstance(message, dict):
        return _error(None, -32600, "request must be a JSON object")

    request_id = message.get("id")
    is_notification = "id" not in message
    method = message.get("method")
    # only an absent or null member means none, here and for arguments
    params = {} if message.get("params") is None else message["params"]
    if not isinstance(params, dict):
        return None if is_notification else _error(
            request_id, -32602, "params must be an object")

    def reply(result):
        return None if is_notification else _result(request_id, result)

    if method == "initialize":
        return reply({
            "protocolVersion": PROTOCOL_VERSION,
            "capabilities": {"tools": {}},
            "serverInfo": {"name": SERVER_NAME, "version": SERVER_VERSION},
        })
    if method in ("notifications/initialized", "ping"):
        return reply({})
    if method == "tools/list":
        return reply({"tools": [d.wire_format() for d in session.tools.values()]})
    if method == "tools/call":
        name = params.get("name")
        arguments = {} if params.get("arguments") is None else params["arguments"]
        descriptor = session.tools.get(name) if isinstance(name, str) else None
        if descriptor is None:
            payload = {"error": {"type": "UnknownTool",
                                 "message": f"unknown tool {name!r}"}}
            return reply({
                "content": [{"type": "text", "text": json.dumps(payload)}],
                "isError": True,
            })
        violations = validate_args(descriptor.validator, arguments)
        if violations:
            if is_notification:
                return None
            return _error(request_id, -32602, "invalid params",
                          data={"violations": violations})
        cast = descriptor.validator.int_cast
        declared = {key: value for key, value in (cast(arguments) if cast else arguments).items()
                    if key in descriptor.properties}
        flags = {}
        try:
            try:
                payload = descriptor.handler(session, **declared)
            except IfcError as exc:
                payload = {"error": {"type": exc.type_name, "message": str(exc)}}
                flags["isError"] = True
            # a derived quantity can overflow to inf, which is not JSON
            text = json.dumps(payload, allow_nan=False)
        except Exception as exc:  # a fault of the server, not of the request
            import traceback
            traceback.print_exc(file=sys.stderr)
            return None if is_notification else _error(
                request_id, -32603, f"internal error: {type(exc).__name__}: {exc}")
        return reply({"content": [{"type": "text", "text": text}], **flags})
    return None if is_notification else _error(
        request_id, -32601, f"method not found: {method}")


def _serve_lines(session: Session, lines, out) -> None:
    """Answer each non-blank line with one reply line, flushed at once."""
    for line in lines:
        line = line.strip()
        if not line:
            continue
        response = handle_request(session, line)
        if response is not None:
            out.write(json.dumps(response) + "\n")
            out.flush()


def serve_stdio(session: Session, stdin=None, stdout=None) -> int:
    """Newline-delimited JSON-RPC loop; returns when stdin closes."""
    _serve_lines(session, stdin if stdin is not None else sys.stdin,
                 stdout if stdout is not None else sys.stdout)
    return 0


def serve_tcp(port: int, session_factory: Callable[[], Session]) -> None:
    """One session per connection; each owns an independent model."""
    import socketserver

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            _serve_lines(session_factory(), self.rfile,
                         codecs.getwriter("utf-8")(self.wfile))

    class Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

    with Server(("127.0.0.1", port), Handler) as server:
        server.serve_forever()
