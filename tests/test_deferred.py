"""Records that open leaves as their file text: the first read decodes them,
and an untouched one saves as its own bytes."""

from __future__ import annotations

import copy
import functools
import gc
import importlib.util
import pickle
import re
import sys
import tempfile
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifcmcp import builders, schema, step
from ifcmcp.errors import DanglingRef
from ifcmcp.geometry import checked_mesh
from ifcmcp.model import (add_classification, delete_element, load_model, new_model,
                          open_model, set_pset_property)
from ifcmcp.step import EntityRef, iter_refs, parse_step, write_step

from conftest import two_wall_step
from test_step import _token_path

ROOT = Path(__file__).resolve().parent.parent


def _outcome(load):
    """What a load gives: its error's class and message (which holds the
    line and column of a syntax error), or every record as it reads."""
    try:
        model = load()
    except Exception as exc:  # the outcome is compared, not handled
        return type(exc).__name__, str(exc)
    return "ok", {i: (inst.class_name, inst.attributes) for i, inst in model.entities.items()}


def _open_text(text: str):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "model.ifc"
        path.write_bytes(text.encode("iso-8859-1"))
        return _outcome(lambda: open_model(str(path)))


@functools.lru_cache(maxsize=None)
def _kit_text() -> str:
    model = new_model(guid_seed=9)
    wall = builders.create_wall(model, (0, 0), (4, 0), 2.5, 0.2)
    builders.create_door(model, wall, position_along_axis=1.0)
    builders.create_roof(model, [(0, 0), (4, 0), (4, 3), (0, 3)], base_z=2.5)
    set_pset_property(model, wall, "P", "n", 7)
    return model.to_bytes().decode("iso-8859-1")


def _deferred_lines(text: str) -> list[int]:
    """Indexes of the lines of ``text`` that hold a deferrable class's record."""
    return [n for n, line in enumerate(text.split("\n")) if line.startswith("#")
            and line[line.index("=") + 1:line.index("(")] in step._DEFERRED]


def _decodes(monkeypatch) -> list[str]:
    """The record bodies decoded from now on."""
    decoded = []
    read_body = step._read_body
    monkeypatch.setattr(step, "_read_body",
                        lambda body, values: decoded.append(body) or read_body(body, values))
    return decoded


def test_open_decodes_no_deferred_record_and_a_read_decodes_it_once(monkeypatch):
    data = two_wall_step()
    model = load_model(data)
    kept = [inst for inst in model.entities.values() if isinstance(inst, step._Deferred)]
    assert len(kept) > len(model.entities) / 2
    assert {inst.class_name for inst in kept} <= step._DEFERRED
    # the attributes slot of each still holds the table its file was read with
    assert {id(step._ATTRIBUTES.__get__(inst)) for inst in kept} == \
        {id(step._ATTRIBUTES.__get__(kept[0]))}
    assert isinstance(step._ATTRIBUTES.__get__(kept[0]), step._Values)
    # each body with references decodes once per record, any other at most once
    texts = [inst.text for inst in kept]
    eager = parse_step(_token_path(data.decode("iso-8859-1")))[1]
    decoded = _decodes(monkeypatch)
    for _ in range(2):
        assert {i: inst.attributes for i, inst in model.entities.items()} == \
            {i: inst.attributes for i, inst in eager.items()}
    assert sorted(body for body in decoded if "#" in body) == \
        sorted(text for text in texts if "#" in text)
    others = [body for body in decoded if "#" not in body]
    assert len(others) == len(set(others)) and len(decoded) < len(kept)
    assert not any(isinstance(inst, step._Deferred) for inst in model.entities.values())


def _every_kind_text() -> str:
    """A kit file with every element kind, a property set and a classification."""
    model = new_model(guid_seed=13)
    wall = builders.create_wall(model, (0, 0), (6, 0), 3.0, 0.2)
    builders.create_door(model, wall, position_along_axis=1.0)
    builders.create_window(model, wall, position_along_axis=4.0)
    builders.create_slab(model, [(0, 0), (6, 0), (6, 4), (0, 4)], 0.2)
    builders.create_roof(model, [(0, 0), (6, 0), (6, 4), (0, 4)], base_z=3.0)
    builders.create_stairs(model, (1, 1, 0), 30.0, 3.0, 4.0, 12, 1.2)
    builders.create_mesh_element(
        model, "IFCBUILDINGELEMENTPROXY",
        checked_mesh([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)],
                     [(0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)]), "Proxy")
    set_pset_property(model, wall, "P", "n", 7)
    add_classification(model, wall, "Uniclass", "EF_25_10")
    return model.to_bytes().decode("iso-8859-1")


def test_open_decodes_no_record_of_a_known_class_without_a_globalid(monkeypatch):
    text = _every_kind_text()
    records = re.findall(r"^#\d+=([A-Z0-9_]+)\((.*)\);$", text, re.M)  # class, body
    classes = {class_name for class_name, _ in records}
    assert {"IFCPRODUCTDEFINITIONSHAPE", "IFCPROPERTYSINGLEVALUE", "IFCSIUNIT",
            "IFCCLASSIFICATION", "IFCDOOR", "IFCWINDOW", "IFCSTAIR"} <= classes
    # bodies of the records open reads: rooted, relationship and unknown classes
    read = {body for class_name, body in records if schema.is_rooted(class_name) is not False}
    decoded = _decodes(monkeypatch)
    model = load_model(text)
    assert decoded and set(decoded) <= read
    kept = [inst for inst in model.entities.values() if schema.is_rooted(inst.class_name) is False]
    assert kept and all(isinstance(inst, step._Deferred) for inst in kept)


def test_a_first_read_holds_each_entity_s_own_id_and_no_entity_in_the_table():
    model = new_model(guid_seed=71)
    for row in range(40):
        builders.create_wall(model, (0, row), (4, row), 3.0, 0.2)
    model = load_model(model.to_bytes())
    kept = [inst for inst in model.entities.values() if isinstance(inst, step._Deferred)]
    values = step._ATTRIBUTES.__get__(kept[0])
    assert type(values.entities) is weakref.ProxyType
    assert not any(isinstance(v, step.EntityInstance) for v in gc.get_referents(values))
    keys = {key: key for key in model.entities}
    refs = [ref for inst in kept for ref in iter_refs(inst.attributes)]
    assert sum(ref.id > 256 for ref in refs) > 10
    assert all(ref.id is keys[ref.id] for ref in refs)
    # once the entities are gone, a record that outlives them still reads
    data = two_wall_step()
    inst = next(inst for inst in parse_step(data)[1].values()
                if isinstance(inst, step._Deferred) and "#" in inst.text)
    gc.collect()
    assert inst.attributes == parse_step(_token_path(data.decode("iso-8859-1")))[1][inst.id].attributes


def test_a_copied_or_pickled_model_reads_and_saves_as_the_original():
    data = two_wall_step()
    model = load_model(data)
    for copied in [copy.deepcopy(model), pickle.loads(pickle.dumps(model))]:
        assert copied.to_bytes() == data
        assert {i: inst.attributes for i, inst in copied.entities.items()} == \
            {i: inst.attributes for i, inst in model.entities.items()}


def test_a_delete_decodes_only_the_records_it_writes_or_removes(monkeypatch):
    model = load_model(two_wall_step())
    decoded = _decodes(monkeypatch)
    before = set(model.entities)
    first = min(model.by_class["IFCWALL"])
    delete_element(model, model.guid_of(first))
    removed = before - set(model.entities)
    assert len(decoded) <= len(removed) < len(before) / 2


# --- parity with the token path ---

# values a deferred record may not hold, or holds only as other paths read
# them, and values it may hold
_ITEMS = st.sampled_from([
    "#0", "#01", "#1", "#3", "#99999", "1" * 21, "9" * 400, "1E999", "1E99", "+1", "1..2",
    "-0.", "0.", "1.5E-7", "12E5", "7", "-12", "1" * 18 + ".5", " 1", "1 ", "\t$",
    "'\\X2\\00FC\\X0\\'", "'#'", "'a''b'", "'a,(b);'", "''", "'x'", "IFCLABEL('x')",
    "IFCX((1,2))", "", "()", "(())", "((1),2)", "(,)", "(1,)", ".T.", ".F.", ".AREA.",
    ".a.", "$", "*", "#2 ", "( #1)", "IFCLABEL('a,b')", "IFCX(#1)", "IFCX(#0)", "IFCX($)",
    "IFCX()", "IFCX(1,2)", "IFCX(IFCY(1))", "IFCLABEL('#')", "IFCX (1)", "ifcx(1)"])
_LISTS = st.lists(_ITEMS, max_size=3).map(lambda items: "(" + ",".join(items) + ")")
_BODIES = st.lists(st.one_of(_ITEMS, _LISTS), max_size=4).map(",".join)


@settings(deadline=None)
@given(data=st.data(), body=_BODIES)
def test_a_rewritten_deferrable_record_opens_as_the_token_path_reads_it_property(data, body):
    text = _kit_text()
    lines = text.split("\n")
    index = data.draw(st.sampled_from(_deferred_lines(text)))
    head = lines[index][:lines[index].index("(")]
    lines[index] = f"{head}({body});"
    text = "\n".join(lines)
    expected = _outcome(lambda: load_model(_token_path(text)))
    assert _open_text(text) == expected


def test_a_dangling_reference_is_found_in_deferred_and_read_records_alike():
    text = _kit_text()
    lines = text.split("\n")
    first, second = _deferred_lines(text)[:2]
    lines[first] = lines[first][:lines[first].index("(")] + "(#9001,$,$);"
    lines[second] = lines[second][:lines[second].index("(")] + "((#9002),$,$) ;"
    with pytest.raises(DanglingRef) as excinfo:
        load_model("\n".join(lines))
    assert excinfo.value.ids == [9001, 9002]


# --- runs of records in the grammar ---

# records a run's scanner does not match: the one already at that place with
# a blank after its '=', or a new record with a nested list or an escape
_OUT_OF_GRAMMAR = {"blank": None, "nested list": "#9000=IFCX((1,(2.,'a')));",
                   "escape": "#9000=IFCPROPERTYSINGLEVALUE('\\X2\\00FC\\X0\\',$,IFCLABEL('x'),$);"}


def _record_line(lines: list[str], where: str) -> int:
    """Index of the first, the middle or the last DATA record of ``lines``."""
    data = [n for n, line in enumerate(lines) if line.startswith("#")]
    return {"start": data[0], "middle": data[len(data) // 2], "end": data[-1]}[where]


@pytest.mark.parametrize("where", ["start", "middle", "end"])
@pytest.mark.parametrize("kind", sorted(_OUT_OF_GRAMMAR))
def test_a_record_out_of_the_grammar_ends_a_run_and_opens_as_the_token_path_reads_it(kind, where):
    lines = _kit_text().split("\n")
    index = _record_line(lines, where)
    if _OUT_OF_GRAMMAR[kind] is None:
        lines[index] = lines[index].replace("=", "= ", 1)
    else:
        index += where == "end"
        lines.insert(index, _OUT_OF_GRAMMAR[kind])
    text = "\n".join(lines)
    outcome = _open_text(text)
    assert outcome[0] == "ok" and outcome == _outcome(lambda: load_model(_token_path(text)))
    # the record is decoded at open, and the runs around it keep the others
    model = load_model(text)
    for entity_id, inst in model.entities.items():
        out = lines[index].startswith(f"#{entity_id}=")
        assert isinstance(inst, step._Deferred) is (inst.class_name in step._DEFERRED and not out)


@pytest.mark.parametrize("where", ["start", "middle", "end"])
@pytest.mark.parametrize("record", [
    "copy", "copy@", "#9000=IFCX(1,);", "#9000=IFCX('a);", "#9000=IFCX(1)", "#0=IFCX(1);",
    "#9000=ifcx(1);", "#9000=IFCX(1.E400);", "#9000=IFCX(1);@"])
def test_an_error_in_or_after_a_run_is_the_token_path_s_error(record, where):
    lines = _kit_text().split("\n")
    index = _record_line(lines, where)
    if record.startswith("copy"):
        # a copy of the record before it: a DuplicateId inside a run, or,
        # with a bad token after it, the syntax error of that token
        record = lines[index] + record[4:]
    lines.insert(index + 1, record)
    text = "\n".join(lines)
    outcome = _open_text(text)
    assert outcome[0] in ("DuplicateId", "StepSyntaxError")
    assert outcome == _outcome(lambda: load_model(_token_path(text)))


# --- saving ---

def _replace_record(text: str, entity_id: int, body: str) -> str:
    head, rest = text.split(f"\n#{entity_id}=", 1)
    class_name, rest = rest.split("(", 1)
    return f"{head}\n#{entity_id}={class_name}({body});{rest.split(';', 1)[1]}"


def test_a_deferred_record_no_write_replaced_saves_as_its_own_bytes():
    model = load_model(two_wall_step())
    first, second, third = sorted(model.by_class["IFCCARTESIANPOINT"])[:3]
    text = two_wall_step().decode("iso-8859-1")
    for point in (first, second, third):
        text = _replace_record(text, point, "(1.50,2.0E0,-0.)")
    data = text.encode("iso-8859-1")
    model = load_model(data)
    assert model.to_bytes() == data
    # a read keeps the text; a write, even of equal values, drops it
    assert model.entities[second].attributes == ((1.5, 2.0, -0.0),)
    assert model.to_bytes() == data
    assert copy.copy(model.entities[second]) == model.entities[second]
    model.set_attr(model.entities[third], "Coordinates", (1.5, 2.0, -0.0))
    assert type(model.entities[third]) is step.EntityInstance
    saved = model.to_bytes().decode("iso-8859-1")
    for point in (first, second):
        assert f"\n#{point}=IFCCARTESIANPOINT((1.50,2.0E0,-0.));" in saved
    assert f"\n#{third}=IFCCARTESIANPOINT((1.5,2.,-0.));" in saved


def test_a_record_each_writer_replaces_is_formatted_and_read_back():
    model = new_model(guid_seed=9)
    wall = builders.create_wall(model, (0, 0), (4, 0), 2.5, 0.2)
    other = builders.create_wall(model, (0, 2), (4, 2), 2.5, 0.2)
    units = model.entities[model.by_class["IFCUNITASSIGNMENT"][0]]
    unit_ids = [ref.id for ref in units.attributes[0]]
    wall_id = model.require_guid(wall).id
    # a deferred record that lists the wall loses it, and survives, in the delete
    model.set_attr(units, "Units", units.attributes[0] + (EntityRef(wall_id),))
    point = model.by_class["IFCCARTESIANPOINT"][0]
    text = _replace_record(model.to_bytes().decode("iso-8859-1"), point, "(0.0,0.0,0.0)")
    model = load_model(text)
    units = model.entities[units.id]
    assert isinstance(units, step._Deferred) and isinstance(model.entities[point], step._Deferred)
    model.set_attr(model.entities[point], "Coordinates", (1.0, 0.0, 0.0))
    assert model.entities[point].attributes == ((1.0, 0.0, 0.0),)
    storey = model.storey_of(model.require_guid(other).id)
    door, _opening = builders.create_door(model, other, position_along_axis=1.0)
    assert model.storey_of(model.require_guid(door).id) == storey
    delete_element(model, wall)
    assert [ref.id for ref in units.attributes[0]] == unit_ids
    reloaded = load_model(model.to_bytes())
    saved = model.to_bytes().decode("iso-8859-1")
    assert f"\n#{point}=IFCCARTESIANPOINT((1.,0.,0.));" in saved
    assert f"#{wall_id})" not in saved.split(f"\n#{units.id}=", 1)[1].split("\n", 1)[0]
    assert {i: inst.attributes for i, inst in reloaded.entities.items()} == \
        {i: inst.attributes for i, inst in model.entities.items()}
    assert reloaded.storey_of(reloaded.require_guid(door).id) == storey


def _bench_module(name: str):
    """``bench/<name>.py``, registered as ``bench_<name>``."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["author", "browse", "revise"])
def test_the_benchmark_start_files_save_as_they_were_read(workload, tmp_path):
    workloads, client = _bench_module("workloads"), _bench_module("client")
    path = tmp_path / "start.ifc"
    client.build_start_file(workloads.start_file(workload, 1, workloads.TINY), path)
    data = path.read_bytes()
    assert write_step(*parse_step(data)) == data
    assert open_model(str(path)).to_bytes() == data
