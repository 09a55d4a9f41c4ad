"""The query tool end to end: ``execute_ifc_query`` through ``handle_request``."""

from __future__ import annotations

import hashlib
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifcmcp import builders, dsl
from ifcmcp.geometry import checked_mesh
from ifcmcp.model import (add_storey, edit_attributes, load_model, new_model, psets_of,
                          set_pset_property)
from ifcmcp.service import Session, handle_request, serve_stdio

from conftest import two_wall_step

DSL_QUERIES = Path(__file__).parent / "fixtures" / "dsl_queries.json"

_TETRA = ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
          [(0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3)])


def query_session() -> Session:
    """A seeded model with one or more elements of every selector's classes,
    two storeys, descriptions and property sets of each value kind."""
    model = new_model("Query Project", guid_seed=1515)
    upper = add_storey(model, "Level 2", 3.0)
    upper_guid = model.guid_of(upper)
    outline = [(0, 0), (9, 0), (9, 6), (0, 6)]
    walls = builders.create_wall_chain(model, outline, 3.0, 0.2, close=True)
    walls.append(builders.create_wall(model, (0, 8), (4.25, 8), 2.5, 0.15))
    walls.append(builders.create_wall(model, (12, 0), (12, 3.5), 4.0, 0.3,
                                      storey=upper_guid))
    builders.create_slab(model, [(0, 0), (9, 0), (9, 6), (0, 6)], 0.25)
    builders.create_slab(model, [(0, 0), (9, 0), (9, 6)], 0.2, storey=upper_guid)
    builders.create_door(model, wall_guid=walls[0], position_along_axis=2.0)
    builders.create_door(model, position=(9, 3, 0))
    builders.create_window(model, wall_guid=walls[2], position_along_axis=4.5)
    builders.create_roof_over_walls(model, walls[:4])
    builders.create_stairs(model, (2, 2, 0), 90.0, 3.0, 4.0, 12, 1.0)
    for index, ifc_class in enumerate(("IfcColumn", "IfcBeam", "IfcMember",
                                       "IfcBuildingElementProxy",
                                       "IfcFurnishingElement", "IfcColumn")):
        vertices, faces = _TETRA
        mesh = checked_mesh([(x + 2.0 * index, y + 10.0, z) for x, y, z in vertices], faces)
        builders.create_mesh_element(model, ifc_class, mesh, f"Mesh {index}")
    # enough proxies, without placement or shape, that a long query runs out
    # of expression steps
    for index in range(140):
        proxy = model.add("IFCBUILDINGELEMENTPROXY", [
            model.guids.fresh(), None, f"Bare {index}", None, None, None, None,
            None, None])
        model.contain_in_storey(proxy, upper)
    edit_attributes(model, walls[0], {"Description": "north", "Tag": "W-1"})
    edit_attributes(model, walls[1], {"Description": 'say "hi"', "ObjectType": "Partition"})
    set_pset_property(model, walls[0], "Pset_WallCommon", "IsExternal", True)
    set_pset_property(model, walls[0], "Pset_WallCommon", "FireRating", "EI60")
    set_pset_property(model, walls[1], "Pset_WallCommon", "IsExternal", False)
    set_pset_property(model, walls[1], "Cost", "Unit Cost", 120.5)
    set_pset_property(model, walls[2], "Cost", "Unit Cost", 80)
    set_pset_property(model, walls[2], "Cost", "Count", 3)
    return Session(model)


def step_sha256(session: Session) -> str:
    return hashlib.sha256(session.model.to_bytes()).hexdigest()


def query_request(request_id: int, query: str) -> str:
    return json.dumps({"jsonrpc": "2.0", "id": request_id, "method": "tools/call",
                       "params": {"name": "execute_ifc_query",
                                  "arguments": {"query": query}}})


def test_query_replies_match_the_recorded_fixture():
    # queries over every stage, operator, field, selector kind and error
    # type, each with its reply line and the STEP sha256 after it, recorded
    # in order on one session; replayed byte for byte
    records = json.loads(DSL_QUERIES.read_text(encoding="utf-8"))
    assert len(records) >= 300
    session = query_session()
    for record in records:
        query = json.loads(record["request"])["params"]["arguments"]["query"]
        assert json.dumps(handle_request(session, record["request"])) == record["reply"], query
        assert step_sha256(session) == record["step_sha256"], query


def ask(session: Session, query: str) -> dict:
    """The decoded payload of one query; -32603 or any other JSON-RPC error fails."""
    reply = handle_request(session, query_request(1, query))
    assert "error" not in reply, reply
    return json.loads(reply["result"]["content"][0]["text"])


def assert_every_wall_answers(session: Session):
    for guid in ask(session, "walls | list(guid)")["result"]:
        reply = handle_request(session, json.dumps({
            "jsonrpc": "2.0", "id": 2, "method": "tools/call",
            "params": {"name": "get_object_info", "arguments": {"guid": guid}}}))
        assert "isError" not in reply["result"], reply


_TOO_LARGE = "parse error at position {}: expected a number literal that fits a double"
_INFINITE = "inf is not a finite number"


@pytest.mark.parametrize("query,error,message", [
    pytest.param('walls | set_pset("P", "x", 1e999)', "ParseError", _TOO_LARGE.format(27),
                 id="set_pset-literal"),
    pytest.param("walls | set(Description, 1e999)", "ParseError", _TOO_LARGE.format(25),
                 id="set-literal"),
    pytest.param("walls | sum(" + "9" * 400 + ")", "ParseError", _TOO_LARGE.format(12),
                 id="400-digit-literal"),
    pytest.param("walls | sum(length * 1e308 * 10)", "TypeMismatch", _INFINITE,
                 id="sum-of-products"),
    pytest.param('walls | set_pset("P", "x", length * 1e308 * 10)', "TypeMismatch",
                 _INFINITE, id="set_pset-product"),
    pytest.param("walls | set(Description, -1e308 * 10)", "TypeMismatch", "-" + _INFINITE,
                 id="set-product"),
    pytest.param("walls | sum(1e308)", "TypeMismatch", _INFINITE, id="sum-overflows"),
    pytest.param("walls | avg(1e308 + length)", "TypeMismatch", _INFINITE,
                 id="avg-overflows"),
    pytest.param("walls | select(name, 1e308 * 10 - 1e308 * 10)", "TypeMismatch",
                 _INFINITE, id="select-difference"),
    pytest.param("walls | filter(1e308 / 1e-308 > 0) | count", "TypeMismatch", _INFINITE,
                 id="filter-quotient"),
])
def test_a_non_finite_number_is_an_in_band_error_and_the_model_still_saves(
        query, error, message):
    session = query_session()
    before = session.model.to_bytes()
    payload = ask(session, query)
    assert payload["error"] == {"type": error, "message": message}
    assert session.model.to_bytes() == before
    assert_every_wall_answers(session)


def test_a_non_finite_field_value_is_a_type_mismatch(monkeypatch):
    session = query_session()
    before = session.model.to_bytes()
    monkeypatch.setitem(dsl.FIELDS, "length", lambda model, entity_id: math.inf)
    for query in ("walls | list(length)", "walls | filter(length > 0) | count",
                  'walls | rename("W-{length}")', 'walls | set_pset("P", "x", length)'):
        assert ask(session, query)["error"] == {
            "type": "TypeMismatch", "message": "inf is not a finite number"}, query
    assert session.model.to_bytes() == before


def test_a_template_renders_the_largest_field_values():
    model = new_model(guid_seed=8)
    builders.create_wall(model, (0, 0), (1e29, 0), 3.0, 0.2)
    session = Session(model)
    assert ask(session, 'walls | rename("W-{length}")')["result"]["count"] == 1
    assert ask(session, "walls | list(name)")["result"] == ["W-1" + "0" * 29 + ".0"]
    assert dsl.format_decimal(1.7976931348623157e308) == "17976931348623157" + "0" * 292 + ".0"
    model.to_bytes()


def test_set_pset_writes_every_selected_product_one_without_a_global_id_too():
    # the pset was written by GlobalId: the second wall answered UnknownGuid
    # after the first had its pset
    model = load_model(two_wall_step())
    first, second = sorted(model.by_class["IFCWALL"])
    data = model.to_bytes().replace(f"'{model.guid_of(second)}'".encode(), b"$", 1)
    session = Session(load_model(data))
    reply = ask(session, 'walls | set_pset("P", "x", 1)')
    assert reply["result"] == {"changed": [session.model.guid_of(first), None], "count": 2}
    assert ask(session, 'walls | list(pset("P").x)')["result"] == [1, 1]
    assert psets_of(load_model(session.model.to_bytes()), second) == {"P": {"x": 1}}


def test_an_integer_beyond_the_double_range_is_a_type_mismatch():
    # a file may hold an integer no double holds; max keeps it exact, and
    # every computation on doubles refuses it in-band
    model = new_model(guid_seed=8)
    wall = builders.create_wall(model, (0, 0), (4, 0), 3.0, 0.2)
    set_pset_property(model, wall, "P", "x", 7)
    huge = int("9" * 400)
    session = Session(load_model(
        model.to_bytes().replace(b"IFCINTEGER(7)", b"IFCINTEGER(%d)" % huge)))
    before = session.model.to_bytes()
    message = "an integer of 1329 bits is too large for a double"
    for query in ('walls | sum(pset("P").x)', 'walls | avg(pset("P").x)',
                  'walls | list(pset("P").x * 1.5)', 'walls | list(pset("P").x / 3)',
                  'walls | filter(pset("P").x + length > 0) | count',
                  'walls | set_pset("P", "y", pset("P").x - 0.5)'):
        assert ask(session, query)["error"] == {"type": "TypeMismatch",
                                                "message": message}, query
    assert ask(session, 'walls | max(pset("P").x)')["result"] == huge
    assert ask(session, 'walls | list(-pset("P").x)')["result"] == [-huge]
    assert session.model.to_bytes() == before


def test_an_integer_too_long_to_write_is_a_type_mismatch():
    # integer products stay exact, so 12 factors of a loaded 400-digit
    # integer pass the digits that str() and json write (4,300 by default)
    model = new_model(guid_seed=8)
    wall = builders.create_wall(model, (0, 0), (4, 0), 3.0, 0.2)
    set_pset_property(model, wall, "P", "x", 7)
    session = Session(load_model(
        model.to_bytes().replace(b"IFCINTEGER(7)", b"IFCINTEGER(%s)" % (b"9" * 400))))
    before = session.model.to_bytes()
    factor = 'pset("P").x'
    product = " * ".join([factor] * 12)
    for query in (f"walls | list({product})", f"walls | max({product})",
                  f'walls | set_pset("P", "y", {product})'):
        error = ask(session, query)["error"]
        assert error["type"] == "TypeMismatch", query
        assert error["message"].endswith("bits has too many digits to write"), query
    ten = " * ".join([factor] * 10)
    assert ask(session, f"walls | list({ten})")["result"] == [int("9" * 400) ** 10]
    assert session.model.to_bytes() == before


def test_the_deepest_queries_the_parser_accepts_are_evaluated():
    # parsing at the nesting limit is tested on its own; these go through
    # the server and must give results, not a RecursionError
    session = query_session()
    inner = dsl.MAX_EXPR_DEPTH - 1
    parens = "walls | filter(" + "(" * inner + "height > 1" + ")" * inner + ") | count"
    negations = "walls | sum(" + "(-" * inner + "length" + ")" * inner + ")"
    assert ask(session, parens)["result"] == 6
    total = ask(session, "walls | sum(length)")["result"]
    assert ask(session, negations)["result"] == -total
    deeper = inner + 1
    for query in ("walls | filter(" + "(" * deeper + "height > 1" + ")" * deeper + ") | count",
                  "walls | sum(" + "(-" * deeper + "length" + ")" * deeper + ")"):
        error = ask(session, query)["error"]
        assert error["type"] == "ParseError"
        assert error["message"].endswith(f"nested at most {dsl.MAX_EXPR_DEPTH} deep")


# --- fuzzing: queries built from the grammar, some corrupted ---

# most leaves are numbers, and half of the number kinds have exponents near
# or past the range of a double
_NUMBERS = st.one_of(
    st.integers(0, 10 ** 6).map(str),
    st.floats(0, 1e6).map(repr),
    st.builds("{}.{}e{}{}".format, st.integers(0, 99), st.integers(0, 9),
              st.sampled_from(["", "+", "-"]), st.integers(290, 999)),
    st.builds("{}e{}".format, st.integers(1, 9), st.integers(300, 310)),
)
_LITERALS = st.one_of(
    _NUMBERS, _NUMBERS, _NUMBERS,
    st.text(alphabet="ab _\"'\\", max_size=4).map(json.dumps),
    st.sampled_from(["true", "false", *dsl.FIELDS, ".Name", ".Description",
                     ".Tag", ".PredefinedType", ".Bogus", 'pset("Cost")["Unit Cost"]',
                     'pset("Cost").Count', 'pset("P").x']),
)
_OPERATORS = ["||", "&&", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/"]
_EXPRESSIONS = st.recursive(_LITERALS, lambda inner: st.one_of(
    st.builds("{}{}".format, st.sampled_from(["-", "!"]), inner),
    inner.map("({})".format),
    st.builds("{} {} {}".format, inner, st.sampled_from(_OPERATORS), inner),
), max_leaves=10)
_TERMINALS = st.one_of(
    st.just("count"),
    st.builds("{}({})".format, st.sampled_from(["sum", "min", "max", "avg", "list"]),
              _EXPRESSIONS),
    st.lists(_EXPRESSIONS, min_size=1, max_size=3).map(
        lambda exprs: f"select({', '.join(exprs)})"),
    st.sampled_from(['rename("W-{length}")', 'rename("{name}/{storey}/{area}")',
                     'rename("{bogus}")']),
    st.builds("set({}, {})".format, st.sampled_from(["Description", "Name", "Tag", "LongName"]),
              _EXPRESSIONS),
    _EXPRESSIONS.map('set_pset("P", "x", {})'.format),
)
_QUERIES = st.builds(
    lambda selector, filters, terminal: " | ".join([selector, *filters, terminal]),
    st.sampled_from(["walls", "all", "doors", "slabs", "storeys", "IfcWall", "bogus"]),
    st.lists(_EXPRESSIONS.map("filter({})".format), max_size=2),
    _TERMINALS)


@st.composite
def _fuzzed_queries(draw) -> str:
    text = draw(_QUERIES)
    at = draw(st.integers(0, len(text)))
    corruption = draw(st.sampled_from(["none", "none", "none", "drop", "insert", "truncate"]))
    if corruption == "drop":
        return text[:at] + text[at + 1:]
    if corruption == "insert":
        return text[:at] + draw(st.sampled_from(list("|().,[]<>=!&-+*/\"'#e9 "))) + text[at:]
    return text[:at] if corruption == "truncate" else text


def _fuzz_session() -> Session:
    model = new_model(guid_seed=31)
    walls = builders.create_wall_chain(model, [(0, 0), (6, 0), (6, 4)], 3.0, 0.2)
    builders.create_door(model, wall_guid=walls[0], position_along_axis=2.0)
    builders.create_slab(model, [(0, 0), (6, 0), (6, 4)], 0.2)
    set_pset_property(model, walls[1], "Cost", "Unit Cost", 120.5)
    set_pset_property(model, walls[1], "Cost", "Count", 3)
    return Session(model)


@settings(deadline=None)
@given(query=_fuzzed_queries())
def test_every_query_gets_one_reply_and_leaves_a_saveable_model(query):
    session = _fuzz_session()
    out = io.StringIO()
    serve_stdio(session, stdin=io.StringIO(query_request(1, query) + "\n"), stdout=out)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]).get("error", {}).get("code") != -32603, lines[0]
    session.model.to_bytes()
