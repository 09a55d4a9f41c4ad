from __future__ import annotations

import functools
import operator
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifcmcp import builders, step
from ifcmcp.errors import DanglingRef, DuplicateId, StepSyntaxError
from ifcmcp.model import new_model, set_pset_property
from ifcmcp.step import (
    DERIVED,
    MAX_LIST_DEPTH,
    EntityInstance,
    EntityRef,
    EnumToken,
    StepHeader,
    TypedValue,
    format_real,
    parse_step,
    write_step,
)

MINIMAL = (
    "ISO-10303-21;HEADER;FILE_DESCRIPTION((''),'2;1');"
    "FILE_NAME('','',(''),(''),'','','');FILE_SCHEMA(('IFC4'));ENDSEC;"
    "DATA;#1=IFCWALL($,$,'W',$,$,$,$,$,$);ENDSEC;END-ISO-10303-21;"
)


def count_records_oracle(data: bytes) -> int:
    """Independent entity-count oracle: regex over the DATA section."""
    text = data.decode("iso-8859-1")
    body = text.split("DATA;", 1)[1].rsplit("ENDSEC;", 1)[0]
    return len(re.findall(r"#\d+=", body))


def test_minimal_file_single_wall():
    header, entities = parse_step(MINIMAL)
    assert header.file_schema == ["IFC4"]
    assert set(entities) == {1}
    wall = entities[1]
    assert wall.class_name == "IFCWALL"
    assert wall.attributes[2] == "W"
    assert wall.attributes[0] is None


def test_cartesian_point_record():
    text = MINIMAL.replace(
        "#1=IFCWALL($,$,'W',$,$,$,$,$,$);",
        "#2=IFCCARTESIANPOINT((0.,0.,0.));",
    )
    _header, entities = parse_step(text)
    point = entities[2]
    assert point.class_name == "IFCCARTESIANPOINT"
    assert point.attributes == ((0.0, 0.0, 0.0),)


def test_value_variants_round_trip():
    text = MINIMAL.replace(
        "#1=IFCWALL($,$,'W',$,$,$,$,$,$);",
        "#1=IFCWALL($,#2,'W',.ELEMENT.,*, -3,4.5,(1,(2,3)),IFCLABEL('x'));"
        "#2=IFCOWNERHISTORY($,$,$,.ADDED.,$,$,$,1700000000);",
    )
    _header, entities = parse_step(text)
    wall = entities[1]
    assert wall.attributes[1] == EntityRef(2)
    assert wall.attributes[3] == EnumToken("ELEMENT")
    assert wall.attributes[4] is DERIVED
    assert wall.attributes[5] == -3
    assert wall.attributes[6] == 4.5
    assert wall.attributes[7] == (1, (2, 3))
    assert wall.attributes[8] == TypedValue("IFCLABEL", "x")
    again = parse_step(write_step(*parse_step(text)))[1]
    assert again[1].attributes == wall.attributes


def test_comments_and_whitespace_ignored():
    text = MINIMAL.replace(
        "DATA;", "DATA; /* a comment \n spanning lines */ "
    ).replace("#1=", "\n  #1 = ")
    _header, entities = parse_step(text)
    assert entities[1].attributes[2] == "W"


def test_quote_escape():
    model = new_model(guid_seed=3)
    guid = builders.create_wall(model, (0, 0), (1, 0), 1.0, 0.1,
                                name="O'Brien")
    data = model.to_bytes()
    assert b"'O''Brien'" in data
    reparsed = parse_step(data)[1]
    wall_id = [i for i, e in reparsed.items() if e.class_name == "IFCWALL"][0]
    assert reparsed[wall_id].attributes[2] == "O'Brien"
    assert reparsed[wall_id].attributes[0] == guid


def test_unicode_escape_round_trip():
    model = new_model(guid_seed=4)
    builders.create_wall(model, (0, 0), (1, 0), 1.0, 0.1, name="Stahlüre ☃")
    data = model.to_bytes()
    assert b"\\X2\\" in data
    assert max(data) < 128  # pure ASCII after escaping
    reparsed = parse_step(data)[1]
    names = [e.attributes[2] for e in reparsed.values() if e.class_name == "IFCWALL"]
    assert names == ["Stahlüre ☃"]


def test_origin_point_formatting():
    model = new_model(guid_seed=5)
    assert b"IFCCARTESIANPOINT((0.,0.,0.))" in model.to_bytes()


@pytest.mark.parametrize("value,expected", [
    (0.0, "0."),
    (1.0, "1."),
    (3.5, "3.5"),
    (-2.25, "-2.25"),
    (1e-05, "1.E-5"),
    (75.0, "75."),
    (1234567.0, "1234567."),
])
def test_format_real(value, expected):
    assert format_real(value) == expected
    assert float(format_real(value)) == value


def test_format_real_largest_finite_stays_finite():
    # 16 significant digits round up to inf when cut to 15: round down instead
    text = format_real(sys.float_info.max)
    assert text == "1.79769313486231E308"
    assert format_real(-sys.float_info.max) == "-" + text
    assert format_real(float(text)) == text


def test_format_real_round_trips_random_values():
    import random

    rng = random.Random(99)
    for _ in range(2000):
        value = rng.uniform(-1e6, 1e6)
        text = format_real(value)
        # second pass is a fixpoint even when 15 digits lose the last ulp
        second = float(text)
        assert format_real(second) == text


def _format_real_by_trial(x: float) -> str:
    """The first ``%g`` precision from 1 to 15 that reads back as ``x``,
    else ``x`` cut to 15 digits: how reals were once written, kept as an
    oracle."""
    for prec in range(1, 16):
        text = f"{x:.{prec}g}"
        if float(text) == x:
            break
    else:
        truncated = float(f"{x:.15g}")
        if truncated in (float("inf"), float("-inf")):
            truncated = 1.79769313486231e308 if x > 0 else -1.79769313486231e308
        return _format_real_by_trial(truncated)
    mantissa, _, exponent = text.partition("e")
    if "." not in mantissa:
        mantissa += "."
    return f"{mantissa}E{int(exponent)}" if exponent else mantissa


_REALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e15, 1e16, 1e17,
                     9.999999999999999e15, 123456789012345.67, 0.1 + 0.2]),
    st.floats(min_value=1e15, max_value=1e17),
    st.floats(min_value=-1e17, max_value=-1e15),
    # subnormals
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    # short decimals, and values that need 16 or 17 digits
    st.integers(-10**6, 10**6).map(lambda n: n / 1000),
    st.integers(10**15, 10**17).map(lambda n: n / 10**16),
)


@settings(deadline=None)
@given(_REALS)
def test_format_real_matches_formatting_by_trial(x):
    assert format_real(x) == _format_real_by_trial(x)


def test_format_real_matches_formatting_by_trial_at_every_power_of_two():
    # the only reals whose rounding interval is not centred on them
    for exponent in range(-1074, 1024):
        for x in (2.0 ** exponent, -(2.0 ** exponent)):
            assert format_real(x) == _format_real_by_trial(x), x


def test_write_parse_write_fixpoint_fresh_model():
    model = new_model(guid_seed=6)
    first = model.to_bytes()
    second = write_step(*parse_step(first))
    assert first == second
    assert count_records_oracle(first) == len(parse_step(first)[1])


def test_write_determinism():
    model = new_model(guid_seed=7)
    assert model.to_bytes() == model.to_bytes()


def test_entities_written_in_ascending_id_order():
    data = new_model(guid_seed=8).to_bytes().decode()
    ids = [int(m) for m in re.findall(r"^#(\d+)=", data, flags=re.M)]
    assert ids == sorted(ids)


def test_duplicate_id_rejected():
    text = MINIMAL.replace(
        "#1=IFCWALL($,$,'W',$,$,$,$,$,$);",
        "#1=IFCWALL($,$,'W',$,$,$,$,$,$);#1=IFCWALL($,$,'X',$,$,$,$,$,$);",
    )
    with pytest.raises(DuplicateId):
        parse_step(text)


def test_dangling_ref_reported_after_parse():
    text = MINIMAL.replace("'W'", "#99")
    with pytest.raises(DanglingRef) as excinfo:
        parse_step(text)
    assert excinfo.value.ids == [99]


def test_forward_reference_allowed():
    text = MINIMAL.replace(
        "#1=IFCWALL($,$,'W',$,$,$,$,$,$);",
        "#1=IFCWALL(#2,$,'W',$,$,$,$,$,$);#2=IFCCARTESIANPOINT((1.,2.));",
    )
    _header, entities = parse_step(text)
    assert entities[1].attributes[0] == EntityRef(2)


def test_syntax_error_carries_position():
    with pytest.raises(StepSyntaxError) as excinfo:
        parse_step("ISO-10303-21;\nHEADER;\n@bad")
    assert excinfo.value.line == 3
    assert excinfo.value.col == 1


def test_write_rejects_dangling_refs():
    header, entities = parse_step(MINIMAL)
    entities[1].attributes = (EntityRef(42),) + entities[1].attributes[1:]
    with pytest.raises(DanglingRef):
        write_step(header, entities)


def _write_per_record(header: StepHeader, entities: dict) -> bytes:
    """The file as one ``"\\n".join`` of every line, kept as a reference."""
    lines = [step.ISO_OPEN, "HEADER;",
             "FILE_DESCRIPTION(%s,%s);" % (step.format_value(tuple(header.file_description) or ("",)),
                                           step.format_value(header.implementation_level)),
             "FILE_NAME(%s);" % ",".join(step.format_value(v) for v in (
                 header.name, header.timestamp, tuple(header.author) or ("",),
                 tuple(header.organization) or ("",), header.preprocessor_version,
                 header.originating_system, header.authorization)),
             "FILE_SCHEMA(%s);" % step.format_value(tuple(header.file_schema)),
             "ENDSEC;", "DATA;"]
    for entity_id in sorted(entities):
        inst = entities[entity_id]
        args = ",".join(step.format_value(v) for v in inst.attributes)
        lines.append(f"#{inst.id}={inst.class_name}({args});")
    lines += ["ENDSEC;", step.ISO_CLOSE, ""]
    return "\n".join(lines).encode("iso-8859-1")


def test_write_spanning_several_chunks_matches_a_per_record_join():
    count = 2 * step._WRITE_CHUNK + 3
    values = [(1.5, -2), "Wand \u00fc'\\", EnumToken("ELEMENT"), None, DERIVED,
              TypedValue("IFCLABEL", "x"), True]
    # ids out of order; each record refers to the one before, across a
    # chunk boundary too
    entities = {i: EntityInstance(i, "IFCX", (values[i % len(values)], i / 7,
                                              EntityRef(max(1, i - 1))))
                for i in sorted(range(1, count + 1), key=lambda i: (i % 3, -i))}
    header = StepHeader(name="chunks", author=["a", "b"])
    data = write_step(header, entities)
    assert data == _write_per_record(header, entities)
    assert data.count(b"\n#") == count
    assert write_step(*parse_step(data)) == data


def test_write_sorts_only_a_dict_out_of_id_order(monkeypatch):
    header, entities = parse_step(new_model(guid_seed=9).to_bytes())
    sorts = []
    monkeypatch.setattr(step, "sorted", lambda ids: sorts.append(1) or sorted(ids),
                        raising=False)
    ascending = write_step(header, entities)
    assert sorts == []
    ids = list(entities)
    # one pair swapped, the order reversed, and the last id moved first
    for order in (ids[:3] + [ids[4], ids[3]] + ids[5:], ids[::-1], ids[-1:] + ids[:-1]):
        assert write_step(header, {i: entities[i] for i in order}) == ascending
    assert len(sorts) == 3


def test_header_round_trip():
    header = StepHeader(name="house", timestamp="2024-05-05T01:02:03",
                        author=["a"], organization=["o"],
                        authorization="auth", file_schema=["IFC4"])
    data = write_step(header, {})
    parsed = parse_step(data)[0]
    assert parsed.name == "house"
    assert parsed.timestamp == "2024-05-05T01:02:03"
    assert parsed.author == ["a"]
    assert parsed.organization == ["o"]
    assert parsed.authorization == "auth"
    assert parsed.file_schema == ["IFC4"]


def test_zero_entity_ref_rejected():
    with pytest.raises(StepSyntaxError):
        parse_step(MINIMAL.replace("'W'", "#0"))


# every line ends in "\n": the DATA section starts on line 8
_HEAD = (
    "ISO-10303-21;\nHEADER;\nFILE_DESCRIPTION((''),'2;1');\n"
    "FILE_NAME('','',(''),(''),'','','');\nFILE_SCHEMA(('IFC4'));\nENDSEC;\nDATA;\n"
)
_TAIL = "ENDSEC;\nEND-ISO-10303-21;\n"


@pytest.mark.parametrize("text,line,col,message", [
    pytest.param(_HEAD + "/* a comment\n spanning\n three lines */ #1=IFCWALL(@);\n"
                 + _TAIL, 10, 28, "unexpected character '@'",
                 id="after-multiline-comment"),
    pytest.param(_HEAD + "#1=IFCWALL('two\nlines', @);\n" + _TAIL, 9, 9,
                 "unexpected character '@'", id="after-string-with-newline"),
    pytest.param(_HEAD.replace("ISO-10303-21;", "ISO-10303-21 @;") + _TAIL, 1, 14,
                 "unexpected character '@'", id="first-line"),
    pytest.param(_HEAD + _TAIL + "@", 10, 1, "unexpected character '@'",
                 id="last-line"),
    pytest.param(_HEAD + "#1=IFCWALL($);\nENDSEC;\nEND-ISO-10303-21 X", 10, 19,
                 "expected ';', got 'X'", id="last-line-parser-error"),
    pytest.param(_HEAD + "#1=IFCWALL(#x);\n" + _TAIL, 8, 12,
                 "malformed entity reference", id="malformed-ref"),
    pytest.param(_HEAD + "#1=IFCWALL(#0);\n" + _TAIL, 8, 12,
                 "entity ids must be positive", id="zero-ref"),
    pytest.param(_HEAD + "#1=IFCWALL(.x.);\n" + _TAIL, 8, 12,
                 "malformed enumeration token", id="malformed-enum"),
    pytest.param(_HEAD + "#1=IFCWALL(+);\n" + _TAIL, 8, 12,
                 "malformed number", id="lone-plus"),
    pytest.param(_HEAD + "  /* never closed\n" + _TAIL, 8, 3,
                 "unterminated comment", id="unterminated-comment"),
    pytest.param(_HEAD + "#1=IFCWALL('open\n" + _TAIL, 8, 12,
                 "unterminated string literal", id="unterminated-string"),
    pytest.param(_HEAD + "#1=IFCWALL($ $);\n" + _TAIL, 8, 15,
                 "expected ')', got '$'", id="parser-error-after-token"),
    # float() reads these as infinity, which no STEP file can hold
    *(pytest.param(_HEAD + f"#1=IFCCARTESIANPOINT(({real},0.,0.));\n" + _TAIL, 8, 23,
                   f"real {real} does not fit a double", id=f"real-overflow-{name}")
      for name, real in (("1.E400", "1.E400"), ("negative", "-1.E400"),
                         ("2.5E+308", "2.5E+308"), ("400-digits", "1" * 400 + "."))),
    # int() reads at most sys.get_int_max_str_digits() digits, 4,300 by default
    pytest.param(_HEAD + "#1=IFCX(" + "9" * 5000 + ");\n" + _TAIL, 8, 9,
                 "integer of 5000 digits is too long", id="5000-digit-integer"),
    pytest.param(_HEAD + "#" + "1" * 5000 + "=IFCX(1);\n" + _TAIL, 8, 1,
                 "entity id of 5000 digits is too long", id="5000-digit-id"),
    pytest.param(_HEAD + "#1=IFCX(#" + "1" * 5000 + ");\n" + _TAIL, 8, 9,
                 "entity id of 5000 digits is too long", id="5000-digit-reference"),
    # a malformed escape is reported at the string that holds it
    pytest.param(_HEAD + "#1=IFCX('\\X2\\00G0\\X0\\');\n" + _TAIL, 8, 9,
                 "\\X2\\ escape '00G0' holds a character that is not a hex digit",
                 id="x2-escape-not-hex"),
    pytest.param(_HEAD + "#1=IFCX('\\X\\G1');\n" + _TAIL, 8, 9,
                 "\\X\\ escape 'G1' holds a character that is not a hex digit",
                 id="x-escape-not-hex"),
    pytest.param(_HEAD + "#1=IFCX('\\X4\\FFFFFFFF\\X0\\');\n" + _TAIL, 8, 9,
                 "\\X4\\ escape codes FFFFFFFF, above 10FFFF", id="x4-escape-too-high"),
    pytest.param(_HEAD + "#1=IFCX(1,\n ('a', '\\X4\\00110000\\X0\\'));\n" + _TAIL, 9, 8,
                 "\\X4\\ escape codes 110000, above 10FFFF", id="x4-escape-in-a-list"),
    pytest.param(_HEAD + "#1=IFCX('\\S\\\U0010ffff');\n" + _TAIL, 8, 9,
                 "\\S\\ escape codes 11007F, above 10FFFF", id="s-escape-too-high"),
    # each character of a \X2\ or \X4\ run is exactly 4 or 8 hex digits
    *(pytest.param(_HEAD + f"#1=IFCX('{escape}{digits}\\X0\\');\n" + _TAIL, 8, 9,
                   f"{escape} escape '{digits}' is not a run of {width}-digit codes",
                   id=f"short-{name}-run-{digits}")
      for name, escape, width, digits in (("x2", "\\X2\\", 4, "41"), ("x2", "\\X2\\", 4, "00410"),
                                          ("x4", "\\X4\\", 8, "41"))),
])
def test_syntax_error_positions(text, line, col, message):
    with pytest.raises(StepSyntaxError) as excinfo:
        parse_step(text)
    assert (excinfo.value.line, excinfo.value.col) == (line, col)
    assert str(excinfo.value) == f"line {line}, col {col}: {message}"


@pytest.mark.parametrize("opener", ["(", "IFCLABEL("])
def test_deep_nesting_is_a_syntax_error(opener):
    # the record's own argument list is the first level
    value = opener * 5000 + "1" + ")" * 5000
    with pytest.raises(StepSyntaxError) as excinfo:
        parse_step(_HEAD + f"#1=IFCWALL({value});\n" + _TAIL)
    assert str(excinfo.value).endswith("lists nested too deeply")
    # the MAX_LIST_DEPTH-th opener in the value is one level too deep; like
    # every parser error, the position is just past the current token, its '('
    col = len("#1=IFCWALL(") + len(opener) * MAX_LIST_DEPTH + 1
    assert (excinfo.value.line, excinfo.value.col) == (8, col)


def test_nesting_at_the_limit_parses():
    value = "(" * (MAX_LIST_DEPTH - 1) + "1" + ")" * (MAX_LIST_DEPTH - 1)
    data = write_step(*parse_step(_HEAD + f"#1=IFCWALL({value});\n" + _TAIL))
    assert write_step(*parse_step(data)) == data


_TEXT = st.text(alphabet=st.one_of(st.sampled_from("'\\\n\r\t"), st.characters()),
                max_size=12)
_UPPER = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_NAME = st.builds(operator.add, st.sampled_from(_UPPER),
                  st.text(alphabet=_UPPER + "0123456789_", max_size=6))


def _attribute_values():
    scalars = st.one_of(
        st.none(),
        st.just(DERIVED),
        st.booleans(),
        st.integers(min_value=-10**18, max_value=10**18),
        st.floats(allow_nan=False, allow_infinity=False),
        _TEXT,
        st.builds(EnumToken, st.sampled_from(["_", "T", "F", "ELEMENT"]) | _NAME),
        st.integers(min_value=1, max_value=2).map(EntityRef),  # the two entities
    )
    return st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(tuple),
        st.builds(TypedValue, _NAME, inner),
    ), max_leaves=12)


_HEADERS = st.builds(StepHeader, file_description=st.lists(_TEXT, max_size=2),
                     name=_TEXT, author=st.lists(_TEXT, max_size=2),
                     file_schema=st.lists(_TEXT, max_size=2))


@settings(deadline=None)
@given(header=_HEADERS, classes=st.tuples(_NAME, _NAME),
       attributes=st.tuples(st.lists(_attribute_values(), max_size=6),
                            st.lists(_attribute_values(), max_size=6)))
def test_write_parse_write_round_trip_property(header, classes, attributes):
    entities = {i + 1: EntityInstance(i + 1, cls, tuple(attrs))
                for i, (cls, attrs) in enumerate(zip(classes, attributes))}
    data = write_step(header, entities)
    assert write_step(*parse_step(data)) == data


# --- record path: a record the scanner matches is read from its body, the
# rest by the token path ---

def _outcome(text):
    try:
        header, entities = parse_step(text)
    except Exception as exc:  # the outcome is compared, not handled
        return type(exc).__name__, str(exc)
    return "ok", repr(header), repr(entities)


def _token_path(text):
    # a comment at the end of the line before each record sends that record
    # to the token path without moving any record's line or column; it goes
    # only between the quotes' strings (the even pieces), so no string that
    # spans lines gains one
    pieces = text.split("'")
    pieces[::2] = [piece.replace("\n#", "/**/\n#") for piece in pieces[::2]]
    return "'".join(pieces)


def test_well_formed_records_skip_the_token_path(monkeypatch):
    model = new_model(guid_seed=9)
    builders.create_wall(model, (0, 0), (4, 0), 2.5, 0.2, name="O'Brien;)")
    builders.create_wall(model, (0, 2), (4, 2), 2.5, 0.2, name="Wall, (ext.) O'Brien;)")
    data = model.to_bytes()
    assert b"'Wall, (ext.) O''Brien;)'" in data
    calls = []
    original = step._Parser.parse_record
    monkeypatch.setattr(step._Parser, "parse_record",
                        lambda self: calls.append(1) or original(self))
    parse_step(data)
    assert len(calls) == 3  # the three header records
    calls.clear()
    parse_step(_token_path(data.decode("iso-8859-1")))
    assert len(calls) == 3 + len(parse_step(data)[1])


@pytest.mark.parametrize("record,expected", [
    pytest.param("#1=IFCWALL('a;b)c''d');", ("a;b)c'd",), id="string-with-semicolon-paren-quote"),
    pytest.param("#1=IFCWALL('\\X2\\00FC\\X0\\');", ("ü",), id="x2-escape"),
    pytest.param("#1=IFCWALL(#0);", "line 8, col 12: entity ids must be positive",
                 id="zero-ref"),
    pytest.param("#0=IFCWALL();", "line 8, col 1: entity ids must be positive",
                 id="zero-id"),
    pytest.param("#1=IFCWALL(IFCLABEL ('x'));", (TypedValue("IFCLABEL", "x"),),
                 id="typed-value-with-space"),
    pytest.param("#1=IFCWALL(IFCX(()));", (TypedValue("IFCX", ()),), id="empty-typed-value"),
    pytest.param("#1 = IFCWALL ( 1 ,\t.T. ,\r\n-2.5E1 ) ;", (1, True, -25.0),
                 id="whitespace-between-tokens"),
    pytest.param("#1=IFCWALL(1,);", "line 8, col 15: expected a value, got ')'",
                 id="trailing-comma"),
    pytest.param("#1=IFCWALL((1,2);", "line 8, col 18: expected ')', got ';'",
                 id="unbalanced-parens"),
    pytest.param("#1=IFCWALL IFCX;", "line 8, col 16: expected '(', got 'IFCX'",
                 id="keyword-without-paren"),
    pytest.param("#1=IFCWALL(ISO-10303-21(1));", (TypedValue("ISO-10303-21", 1),),
                 id="file-marker-as-keyword"),
    # the token path reads one token past a record before it checks the id
    pytest.param("#1=IFCWALL();#1=IFCWALL();@", "line 8, col 27: unexpected character '@'",
                 id="duplicate-id-then-stray-character"),
    # a comma splits the body, so the items of a string are joined again
    pytest.param("#1=IFCWALL('a,b(c)d''e;f',',',')','(',(',;'),IFCLABEL('(,)'));",
                 ("a,b(c)d'e;f", ",", ")", "(", (",;",), TypedValue("IFCLABEL", "(,)")),
                 id="strings-with-commas-parens-quotes-semicolons"),
    pytest.param("#1=IFCWALL( 1, ( 2 ,\t3 ) , IFCLABEL ( 'x' ) ,$ ,( ( ) ) );",
                 (1, (2, 3), TypedValue("IFCLABEL", "x"), None, ((),)),
                 id="blanks-after-commas-and-inside-parens"),
    pytest.param("#1=IFCWALL(#007,(+1.5E-3,-0.),#01);#7=IFCX();",
                 (EntityRef(7), (0.0015, -0.0), EntityRef(1)), id="leading-zeros-and-signs"),
    pytest.param("#1=IFCWALL((IFCLABEL('a'),IFCREAL(2.5)),1);",
                 ((TypedValue("IFCLABEL", "a"), TypedValue("IFCREAL", 2.5)), 1),
                 id="typed-values-in-a-list"),
    pytest.param("#1=IFCWALL(IFCX((1,2)));", (TypedValue("IFCX", (1, 2)),),
                 id="typed-list"),
    pytest.param("#1=IFCWALL((),1);", ((), 1), id="empty-list-first"),
    pytest.param("#1=IFCWALL(1,(),2);", (1, (), 2), id="empty-list-between"),
    pytest.param("#1=IFCWALL(1,(()));", (1, ((),)), id="empty-list-last"),
    pytest.param("#1=IFCWALL( \t\r\n );", (), id="blank-body"),
    pytest.param("#1=IFCWALL(1,,2);", "line 8, col 15: expected a value, got ','",
                 id="missing-value"),
    pytest.param("#1=IFCWALL((1)2);", "line 8, col 16: expected ')', got 2",
                 id="value-after-a-list"),
    pytest.param("#1=IFCWALL(IFCX());", (TypedValue("IFCX", ()),), id="typed-nothing"),
])
def test_record_path_matches_token_path(record, expected):
    text = _HEAD + record + "\n" + _TAIL
    outcome = _outcome(text)
    assert outcome == _outcome(_token_path(text))
    if isinstance(expected, str):
        assert outcome == ("StepSyntaxError", expected)
    else:
        assert parse_step(text)[1][1].attributes == expected


@pytest.mark.parametrize("record,message", [
    # without the (?!') in the string pattern each of these backtracks
    # exponentially in the number of quotes before failing
    pytest.param("#1=IFCWALL(" + "'" * 10000, "line 9, col 7: expected ')', got 'ENDSEC'",
                 id="10000-quotes"),
    pytest.param("#1=IFCWALL(" + "'a'," * 5000, "line 9, col 8: expected '(', got ';'",
                 id="5000-items-unclosed"),
])
def test_unclosed_quote_runs_fail_in_linear_time(record, message):
    with pytest.raises(StepSyntaxError) as excinfo:
        parse_step(_HEAD + record + "\n" + _TAIL)
    assert str(excinfo.value) == message


_BLANKS = st.sampled_from([" ", "\n", "\t", "\r\n", "  \n\t"])


def _spaced(text: str, draw_blank) -> str:
    """Put whitespace between the tokens of the DATA section."""
    head, data = text.split("DATA;\n", 1)
    tok = step._Tokenizer(data)
    pieces = []
    while tok.pos < len(data):
        start = tok.pos
        if tok.next()[0] == "eof":
            break
        pieces.append(data[start:tok.pos].strip(" \t\r\n"))
        pieces.append(draw_blank())
    return head + "DATA;\n" + "".join(pieces)


@settings(deadline=None)
@given(header=_HEADERS, classes=st.tuples(_NAME, _NAME),
       attributes=st.tuples(st.lists(_attribute_values(), max_size=6),
                            st.lists(_attribute_values(), max_size=6)),
       data=st.data())
def test_record_path_equals_token_path_property(header, classes, attributes, data):
    entities = {i + 1: EntityInstance(i + 1, cls, tuple(attrs))
                for i, (cls, attrs) in enumerate(zip(classes, attributes))}
    text = write_step(header, entities).decode("iso-8859-1")
    expected = _outcome(_token_path(text))
    assert _outcome(text) == expected
    assert _outcome(_spaced(text, lambda: data.draw(_BLANKS))) == expected


# escapes, hex digits and other characters, in any order
_ESCAPE_PIECES = st.one_of(
    st.sampled_from(["\\X2\\", "\\X4\\", "\\X\\", "\\S\\", "\\\\", "\\X0\\", "\\"]),
    st.text(alphabet="0123456789ABCDEFabcdef", min_size=1, max_size=8),
    st.characters(),
)


@settings(deadline=None)
@given(st.lists(_ESCAPE_PIECES, max_size=8).map("".join))
def test_escapes_read_alike_on_both_paths_or_fail_as_syntax_errors_property(body):
    literal = "'" + body.replace("'", "''") + "'"
    text = _HEAD + f"#1=IFCX({literal},(1,{literal}));\n" + _TAIL
    outcome = _outcome(text)
    assert outcome == _outcome(_token_path(text))
    assert outcome[0] in ("ok", "StepSyntaxError")
    if outcome[0] == "ok":
        value = step.decode_step_string(body)
        assert parse_step(text)[1][1].attributes == (value, (1, value))


@pytest.mark.parametrize("body", [
    "'x)',(1)", "('a)b',1)", "('a,b'),2", "'(',#2,1", "(1),'y)z'", "(1,2", ",(1)", "(1),",
    "( 1 , 2 ) , 3", "$,(#2,#2),.T.", "#2,'a,(',(3)", "()", "(,)", "(1,)", "IFCX(1)",
    "'a''(b',(1)", "(#2),'''),(x'"])
@pytest.mark.parametrize("class_name", ["IFCX", "IFCDIRECTION"])
def test_a_body_with_one_list_reads_alike_on_both_paths(body, class_name):
    text = _HEAD + f"#1={class_name}({body});\n#2=IFCX($);\n" + _TAIL
    assert _outcome(text) == _outcome(_token_path(text))


@functools.lru_cache(maxsize=None)
def _kit_records() -> tuple[str, tuple[str, ...], str]:
    """A small kit file as the text before its records, its DATA records
    (one a line) and the text after them. Its strings hold commas,
    parentheses, quotes and escapes, and its lists, typed values and
    references come from walls, a door, a slab, a roof and properties."""
    model = new_model(guid_seed=9)
    wall = builders.create_wall(model, (0, 0), (4, 0), 2.5, 0.2, name="Wall, (ext.) O'Brien;)")
    builders.create_door(model, wall, position_along_axis=1.0)
    builders.create_slab(model, [(0, 0), (4, 0), (4, 3)], 0.2, name="Dalle \u00e9")
    builders.create_roof(model, [(0, 0), (4, 0), (4, 3), (0, 3)], base_z=2.5)
    for prop, value in (("n", 7), ("ok", True), ("label", "a,b"), ("k", -0.5)):
        set_pset_property(model, wall, "P", prop, value)
    head, data = model.to_bytes().decode("iso-8859-1").split("DATA;\n", 1)
    records, tail = data.split("\nENDSEC;")
    return head + "DATA;\n", tuple(records.split("\n")), "\nENDSEC;" + tail


# STEP punctuation, quotes, digits, keywords, blanks and escapes; no '/',
# which could open a comment that _token_path's comments would close
_EDIT_PIECES = st.sampled_from([*"(),;=#$*.+-", "'", "''", *"0123456789", "E", "T",
                                "IFCLABEL", "IFCX(", "ENDSEC", " ", "\t", "\n", "\r\n",
                                "\\X2\\", "\\X0\\", "#0"])


@settings(deadline=None)
@given(edits=st.lists(st.tuples(st.integers(min_value=0), st.integers(min_value=0),
                                st.sampled_from(["insert", "delete", "replace"]),
                                _EDIT_PIECES), min_size=1, max_size=3))
def test_edited_records_read_alike_on_both_paths_property(edits):
    head, records, tail = _kit_records()
    records = list(records)
    for index, at, kind, piece in edits:
        index %= len(records)
        record = records[index]
        at %= len(record) + 1
        if kind == "insert":
            record = record[:at] + piece + record[at:]
        elif kind == "delete":
            record = record[:at] + record[at + 1:]
        else:
            record = record[:at] + piece + record[at + len(piece):]
        records[index] = record
    text = head + "\n".join(records) + tail
    assert _outcome(text) == _outcome(_token_path(text))
