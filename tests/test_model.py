from __future__ import annotations

import ast
import gc
import json
import re
import sys
import threading
import tracemalloc
import weakref
from copy import deepcopy
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ifcmcp
from ifcmcp import builders, scene, schema, step
from ifcmcp import model as model_mod
from ifcmcp.cli import run_trace
from ifcmcp.errors import (
    CannotDeleteSpatial,
    DanglingRef,
    DuplicateGuid,
    DuplicateId,
    EmptySpec,
    IfcError,
    InvalidPlacement,
    PlacementCycle,
    StepSyntaxError,
    StillReferenced,
    UnknownAttribute,
    UnknownGuid,
    ZeroLengthAxis,
)
from ifcmcp.guid import GuidGenerator
from ifcmcp.model import (
    RELATED,
    RELATING,
    IfcModel,
    PropertySpec,
    add_classification,
    add_property_set,
    classifications_of,
    delete_element,
    edit_attributes,
    load_model,
    new_model,
    open_model,
    owner_of,
    psets_of,
    set_owner_history,
)
from ifcmcp.service import Session, handle_request
from ifcmcp.step import EntityRef, EnumToken, iter_refs, parse_step, write_step

from conftest import shared_guid_step, two_wall_step

TRACES = Path(__file__).resolve().parent.parent / "traces"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def dangling_refs(model: IfcModel) -> list[int]:
    """Referenced ids that no entity has, ascending: the ids for which
    ``to_bytes`` raises :class:`DanglingRef`, found by the same walk."""
    try:
        model.to_bytes()
    except DanglingRef as exc:
        return exc.ids
    return []


def add_bare_wall(model) -> str:
    """Wall without builder extras (no type object), for low-level tests."""
    guid = model.guids.fresh()
    point = model.add("IFCCARTESIANPOINT", [(0.0, 0.0, 0.0)])
    a2p = model.add("IFCAXIS2PLACEMENT3D", [EntityRef(point), None, None])
    lp = model.add("IFCLOCALPLACEMENT", [None, EntityRef(a2p)])
    wall = model.add("IFCWALL", [guid, None, "Wall_X", None, None,
                                 EntityRef(lp), None, None, None])
    model.contain_in_storey(wall, model.default_storey())
    return guid


def test_new_model_spatial_chain(fresh_model):
    info = scene.get_scene_info(fresh_model)
    assert info["total"] == 4
    classes = [o["ifc_class"] for o in info["objects"]]
    assert classes == ["IfcProject", "IfcSite", "IfcBuilding", "IfcBuildingStorey"]
    names = [o["name"] for o in info["objects"]]
    assert names == ["IfcProject/My Project", "IfcSite/My Site",
                     "IfcBuilding/My Building", "IfcBuildingStorey/My Storey"]


def test_new_model_guids_distinct(fresh_model):
    assert len(fresh_model.by_guid) == 4
    assert len(set(fresh_model.by_guid)) == 4


def test_round_trip_preserves_overview(fresh_model):
    reloaded = load_model(fresh_model.to_bytes())
    assert scene.get_scene_info(reloaded) == scene.get_scene_info(fresh_model)
    assert scene.get_ifc_scene_overview(reloaded) == \
        scene.get_ifc_scene_overview(fresh_model)


def test_load_seeds_name_counters_past_existing_names():
    model = new_model(guid_seed=12)
    for number in range(3):
        builders.create_wall(model, (number, 0), (number, 2), 2.5, 0.2)
    builders.create_wall(model, (5, 0), (5, 2), 2.5, 0.2, name="Wall_041")
    # '\S\2' decodes to a superscript two, a digit that int() rejects
    builders.create_wall(model, (6, 0), (6, 2), 2.5, 0.2, name="Wall_X")
    data = model.to_bytes().replace(b"'Wall_X'", b"'Wall_\\S\\2'")
    reloaded = load_model(data)
    assert reloaded._name_counters == {"Wall": 41}
    assert reloaded.next_name("IFCWALL") == "Wall_042"


def test_edit_attributes_description(fresh_model):
    building = fresh_model.guid_of(fresh_model.building_id)
    changes = edit_attributes(fresh_model, building,
                              {"Description": "High-rise residential tower"})
    assert changes == [{"attribute": "Description", "old": None,
                        "new": "High-rise residential tower"}]
    info = scene.get_object_info(fresh_model, building)
    assert info["description"] == "High-rise residential tower"


def test_edit_attributes_idempotent_value_still_dirty(fresh_model):
    building = fresh_model.guid_of(fresh_model.building_id)
    changes = edit_attributes(fresh_model, building, {"Name": "My Building"})
    assert changes[0]["old"] == changes[0]["new"] == "My Building"


def test_edit_attributes_errors(fresh_model):
    with pytest.raises(UnknownGuid):
        edit_attributes(fresh_model, "0" * 22, {"Name": "x"})
    building = fresh_model.guid_of(fresh_model.building_id)
    with pytest.raises(UnknownAttribute):
        edit_attributes(fresh_model, building, {"GlobalId": "nope"})
    with pytest.raises(UnknownAttribute):
        edit_attributes(fresh_model, building, {"Tag": "T1"})  # no Tag on buildings


def test_rename_walls_by_measured_height(four_wall_model):
    from ifcmcp import measure

    model = four_wall_model
    for wall_id in sorted(model.by_class["IFCWALL"]):
        height = measure.element_height(model, wall_id)  # extrusion depth
        edit_attributes(model, model.guid_of(wall_id),
                        {"Name": f"Wall-{height:.1f}m"})
    names = [model.entities[w].attributes[2]
             for w in sorted(model.by_class["IFCWALL"])]
    assert names == ["Wall-3.0m"] * 4


def test_property_set_merge_idempotent(four_wall_model):
    model = four_wall_model
    wall = sorted(model.by_class["IFCWALL"])[0]
    guid = model.guid_of(wall)
    spec = PropertySpec("Thermal_Properties",
                        [("U-value", 0.25),
                         ("Insulation_Type", "Mineral Wool")])
    add_property_set(model, guid, spec)
    first = psets_of(model, wall)
    add_property_set(model, guid, spec)
    assert psets_of(model, wall) == first
    assert len(first["Thermal_Properties"]) == 2
    assert first["Thermal_Properties"]["U-value"] == 0.25


def test_property_set_merge_overwrites_and_appends(four_wall_model):
    model = four_wall_model
    guid = model.guid_of(sorted(model.by_class["IFCWALL"])[0])
    add_property_set(model, guid, PropertySpec("P", [("a", 1.0)]))
    add_property_set(model, guid, PropertySpec("P", [("a", 2.0),
                                                     ("b", "x")]))
    props = psets_of(model, model.by_guid[guid])["P"]
    assert props == {"a": 2.0, "b": "x"}


def test_property_set_on_all_slabs(l_building):
    model, handles = l_building
    for slab_id in sorted(model.by_class["IFCSLAB"]):
        add_property_set(model, model.guid_of(slab_id),
                         PropertySpec("Pset_SlabCommon",
                                      [("Fire_Rating", "2HR")]))
    for slab_id in sorted(model.by_class["IFCSLAB"]):
        assert psets_of(model, slab_id)["Pset_SlabCommon"]["Fire_Rating"] == "2HR"


def test_property_set_empty_spec(fresh_model):
    building = fresh_model.guid_of(fresh_model.building_id)
    with pytest.raises(EmptySpec):
        add_property_set(fresh_model, building, PropertySpec("X", []))


def test_classification_reuse(four_wall_model):
    model = four_wall_model
    walls = sorted(model.by_class["IFCWALL"])
    for wall in walls[:2]:
        add_classification(model, model.guid_of(wall), "Uniclass 2015",
                           "Ss_25_10_20")
    assert len(model.by_class["IFCCLASSIFICATION"]) == 1
    assert len(model.by_class["IFCCLASSIFICATIONREFERENCE"]) == 1
    assert classifications_of(model, walls[0]) == \
        [{"system": "Uniclass 2015", "code": "Ss_25_10_20"}]


def test_classification_removed_with_last_element(four_wall_model):
    model = four_wall_model
    wall = sorted(model.by_class["IFCWALL"])[0]
    guid = model.guid_of(wall)
    add_classification(model, guid, "Uniclass 2015", "Ss_25_10_20")
    delete_element(model, guid)
    assert dangling_refs(model) == []
    assert not model.by_class.get("IFCRELASSOCIATESCLASSIFICATION")
    assert not model.by_class.get("IFCCLASSIFICATION")


def test_delete_bare_wall_returns_to_spatial_only(fresh_model):
    guid = add_bare_wall(fresh_model)
    assert scene.get_scene_info(fresh_model)["total"] == 5
    delete_element(fresh_model, guid)
    assert scene.get_scene_info(fresh_model)["total"] == 4
    assert dangling_refs(fresh_model) == []


def test_delete_wall_cascades_door_and_opening(four_wall_model):
    model = four_wall_model
    wall_guid = model.guid_of(sorted(model.by_class["IFCWALL"])[0])
    door, opening = builders.create_door(model, wall_guid=wall_guid,
                                         position_along_axis=5.0)
    delete_element(model, wall_guid)
    assert dangling_refs(model) == []
    assert door not in model.by_guid
    assert opening not in model.by_guid
    assert not model.by_class.get("IFCRELVOIDSELEMENT")
    assert not model.by_class.get("IFCRELFILLSELEMENT")
    assert len(model.by_class["IFCWALL"]) == 3


def test_delete_door_removes_opening(four_wall_model):
    model = four_wall_model
    wall_guid = model.guid_of(sorted(model.by_class["IFCWALL"])[0])
    door, opening = builders.create_door(model, wall_guid=wall_guid,
                                         position_along_axis=5.0)
    delete_element(model, door)
    assert dangling_refs(model) == []
    assert opening not in model.by_guid
    assert not model.by_class.get("IFCOPENINGELEMENT")
    assert len(model.by_class["IFCWALL"]) == 4  # host survives


def test_delete_unknown_and_spatial(fresh_model):
    with pytest.raises(UnknownGuid):
        delete_element(fresh_model, "0" * 22)
    with pytest.raises(CannotDeleteSpatial):
        delete_element(fresh_model, fresh_model.guid_of(fresh_model.building_id))


def test_delete_keeps_shared_resources(four_wall_model):
    model = four_wall_model
    context_count = len(model.by_class["IFCGEOMETRICREPRESENTATIONCONTEXT"])
    delete_element(model, model.guid_of(sorted(model.by_class["IFCWALL"])[0]))
    assert len(model.by_class["IFCGEOMETRICREPRESENTATIONCONTEXT"]) == context_count
    assert model.project_id in model.entities


def test_owner_history_shared_instance(four_wall_model):
    model = four_wall_model
    walls = sorted(model.by_class["IFCWALL"])
    guids = [model.guid_of(w) for w in walls[:2]]
    assert set_owner_history(model, guids, "BIM Manager", 1700000000) == 2
    refs = {model.entities[w].attributes[1].id for w in walls[:2]}
    assert len(refs) == 1  # ref-equality: one shared history instance
    assert owner_of(model, walls[0]) == {"user": "BIM Manager",
                                         "created": 1700000000}


def test_owner_history_empty_and_atomic(four_wall_model):
    model = four_wall_model
    assert set_owner_history(model, [], "X", 0) == 0
    wall_guid = model.guid_of(sorted(model.by_class["IFCWALL"])[0])
    histories_before = len(model.by_class.get("IFCOWNERHISTORY", ()))
    with pytest.raises(UnknownGuid):
        set_owner_history(model, [wall_guid, "0" * 22], "X", 0)
    assert len(model.by_class.get("IFCOWNERHISTORY", ())) == histories_before
    assert model.entities[model.by_guid[wall_guid]].attributes[1] is None


def test_indexes_agree_with_scratch_rebuild(l_building):
    model, _ = l_building
    by_class = {k: list(v) for k, v in model.by_class.items()}
    by_guid = dict(model.by_guid)
    model.rebuild_indexes()
    assert model.by_class == by_class
    assert model.by_guid == by_guid


def assert_indexes_fresh(model):
    """The incrementally kept indexes equal a rebuild from the entities alone."""
    scratch = IfcModel()
    scratch.entities = model.entities
    scratch.rebuild_indexes()
    assert model.rel_index == scratch.rel_index
    assert model.by_class == scratch.by_class
    assert model.by_guid == scratch.by_guid
    for ids in model.by_class.values():
        assert all(a < b for a, b in zip(ids, ids[1:])), ids


def _checked(model, handler):
    def checked(session, **args):
        try:
            return handler(session, **args)
        finally:
            assert_indexes_fresh(model)
    return checked


_EDIT_TOOLS = ["create_wall", "create_door", "add_property_set",
               "add_classification", "delete_element"]


@given(trace=st.sampled_from(["l_building", "semantic_edits"]),
       steps=st.lists(st.tuples(st.sampled_from(_EDIT_TOOLS),
                                st.integers(0, 40), st.integers(0, 2)),
                      max_size=12))
@example(trace="l_building", steps=[])
@example(trace="semantic_edits", steps=[])
@settings(max_examples=40, deadline=None)
def test_rel_index_matches_rebuild_after_every_step(trace, steps):
    session = Session(new_model(guid_seed=31))
    model = session.model
    for name, descriptor in session.tools.items():
        session.tools[name] = descriptor._replace(
            handler=_checked(model, descriptor.handler))
    run_trace(session, json.loads((TRACES / f"{trace}.json").read_text()))
    for number, (tool, pick, variant) in enumerate(steps, start=1):
        targets = scene.spatial_in_order(model) + scene.products_in_order(model)
        guid = model.guid_of(targets[pick % len(targets)])
        arguments = {
            "create_wall": {"start": [pick, variant], "end": [pick + 3, variant + 1],
                            "height": 3.0, "thickness": 0.2},
            "create_door": {"position": [pick % 12, variant * 5]},
            "add_property_set": {"guid": guid, "pset_name": f"P{variant}",
                                 "properties": {f"p{pick % 3}": pick}},
            "add_classification": {"guid": guid, "system": "S", "code": f"C{variant}"},
            "delete_element": {"guid": guid},
        }[tool]
        response = handle_request(session, {
            "jsonrpc": "2.0", "id": number, "method": "tools/call",
            "params": {"name": tool, "arguments": arguments}})
        assert "result" in response


def _reference_rebuild(model):
    """``rebuild_indexes`` as it was, one ``_index`` call per entity, kept as
    an oracle."""
    model.by_class = {}
    model.by_guid = {}
    model.rel_index = {name: ({}, {}) for name in schema.REL_SIDES}
    for inst in model.entities.values():
        model._index(inst)


def assert_rebuild_matches_reference(entities):
    rebuilt, reference = IfcModel(), IfcModel()
    rebuilt.entities = reference.entities = entities
    rebuilt.rebuild_indexes()
    _reference_rebuild(reference)
    assert rebuilt.by_class == reference.by_class
    assert rebuilt.by_guid == reference.by_guid
    assert rebuilt.rel_index == reference.rel_index


_BUILDER_STEPS = ["create_wall", "create_door", "create_slab", "add_property_set",
                  "add_classification"]
# records of classes the kit does not write, or writes in other shapes
_FOREIGN_STEPS = ["unknown_with_guid", "unknown_without_guid", "unknown_empty",
                  "rooted_without_guid", "rel_aggregates", "rel_voids", "rel_unknown",
                  "rel_short"]


def _add_foreign(model, kind: str, pick: int):
    ids = sorted(model.entities)
    one, other = EntityRef(ids[pick % len(ids)]), EntityRef(ids[-1 - pick % len(ids)])
    guid = model.guids.fresh()
    model.add(*{
        "unknown_with_guid": ("IFCFOREIGNELEMENT", [guid, None, "F", one]),
        "unknown_without_guid": ("IFCFOREIGNELEMENT", [f"not a guid {pick}", one]),
        "unknown_empty": ("IFCFOREIGNRESOURCE", []),
        "rooted_without_guid": ("IFCWALL", [None, None, "W", None, None, one, None,
                                            None, None]),
        # the same member twice on a side is indexed once
        "rel_aggregates": ("IFCRELAGGREGATES", [guid, None, None, None, one,
                                                (other, one, other)]),
        "rel_voids": ("IFCRELVOIDSELEMENT", [guid, None, None, None, one, other]),
        "rel_unknown": ("IFCRELCONNECTSELEMENTS", [guid, None, None, None, None, one,
                                                   other]),
        "rel_short": ("IFCRELDEFINESBYPROPERTIES", [guid, None, None, None, (one,)]),
    }[kind])


@given(steps=st.lists(st.tuples(st.sampled_from(_BUILDER_STEPS + _FOREIGN_STEPS),
                                st.integers(0, 40), st.integers(0, 2)),
                      max_size=12))
@example(steps=[(kind, pick, 0) for pick, kind in enumerate(_FOREIGN_STEPS)])
@settings(deadline=None)
def test_rebuild_matches_the_per_entity_index_loop(steps):
    session = Session(new_model(guid_seed=83))
    model = session.model
    builders.create_wall(model, (0, 0), (12, 0), 3.0, 0.2)
    for number, (tool, pick, variant) in enumerate(steps, start=1):
        if tool in _FOREIGN_STEPS:
            _add_foreign(model, tool, pick)
            continue
        # the foreign walls without a GlobalId cannot be addressed
        guids = [guid for guid in map(model.guid_of, scene.products_in_order(model))
                 if guid is not None] or ["0" * 22]
        guid = guids[pick % len(guids)]
        arguments = {
            "create_wall": {"start": [pick, variant], "end": [pick + 3, variant + 1],
                            "height": 3.0, "thickness": 0.2},
            "create_door": {"position": [pick % 12, 0]},
            "create_slab": {"outline": [[0, 0], [pick + 1, 0], [pick + 1, variant + 1]],
                            "thickness": 0.2},
            "add_property_set": {"guid": guid, "pset_name": f"P{variant}",
                                 "properties": {f"p{pick % 3}": pick}},
            "add_classification": {"guid": guid, "system": "S", "code": f"C{variant}"},
        }[tool]
        response = handle_request(session, {
            "jsonrpc": "2.0", "id": number, "method": "tools/call",
            "params": {"name": tool, "arguments": arguments}})
        assert "result" in response
    assert_rebuild_matches_reference(model.entities)
    assert_rebuild_matches_reference(load_model(model.to_bytes()).entities)


def test_shared_global_id_is_an_error_on_load():
    data, guid, (first, second) = shared_guid_step()
    with pytest.raises(DuplicateGuid) as excinfo:
        load_model(data)
    assert excinfo.value.guid == guid
    assert excinfo.value.entity_ids == (first, second)
    assert str(excinfo.value) == f"duplicate GlobalId {guid!r} on #{first} and #{second}"


def _step_file(records: list[bytes]) -> bytes:
    """A STEP file whose DATA section holds ``records`` in the order given."""
    head, _, rest = two_wall_step().partition(b"DATA;\n")
    tail = rest[rest.index(b"ENDSEC;"):]
    return head + b"DATA;\n" + b"\n".join(records) + b"\n" + tail


def test_records_out_of_id_order_load_in_id_order():
    guids = GuidGenerator(5)
    shared = guids.fresh()
    records = [
        b"#40=IFCBUILDINGSTOREY('%s',$,'S40',$,$,$,$,$,.ELEMENT.,6.);" % guids.fresh().encode(),
        b"#12=IFCPROJECT('%s',$,'P12',$,$,$,$,$,$);" % guids.fresh().encode(),
        b"#30=IFCBUILDINGSTOREY('%s',$,'S30',$,$,$,$,$,.ELEMENT.,3.);" % guids.fresh().encode(),
        b"#5=IFCPROJECT('%s',$,'P5',$,$,$,$,$,$);" % guids.fresh().encode(),
        b"#20=IFCBUILDINGSTOREY('%s',$,'S20',$,$,$,$,$,.ELEMENT.,0.);" % guids.fresh().encode(),
    ]
    model = load_model(_step_file(records))
    assert model.by_class["IFCPROJECT"] == [5, 12]
    assert model.by_class["IFCBUILDINGSTOREY"] == [20, 30, 40]
    assert model.project_id == 5
    assert model.storey_ids == [20, 30, 40]
    model.storey_ids.append(99)  # a copy: the index is untouched
    assert_indexes_fresh(model)

    # three walls with one GlobalId, read highest first: the error names
    # the two lowest, whatever order a hash table would visit them in
    walls = [b"#%d=IFCWALL('%s',$,'W',$,$,$,$,$,$);" % (i, shared.encode())
             for i in (16, 13, 9)]
    with pytest.raises(DuplicateGuid) as excinfo:
        load_model(_step_file(records[1:2] + walls))
    assert excinfo.value.entity_ids == (9, 13)


@given(data=st.data())
@settings(deadline=None)
def test_index_is_the_same_whatever_the_record_order(data):
    model = new_model(guid_seed=47)
    model_mod.add_storey(model, "Upper", 3.0)
    builders.create_wall(model, (0, 0), (4, 0), 3.0, 0.2)
    builders.create_door(model, position=(2, 0, 0))
    add_classification(model, model.guid_of(model.storey_ids[0]), "S", "C")
    written = model.to_bytes()
    records = list(_records(written).values())
    shuffled = load_model(_step_file(data.draw(st.permutations(records))))
    assert shuffled.by_class == model.by_class
    assert shuffled.rel_index == model.rel_index
    assert shuffled.by_guid == model.by_guid
    assert (shuffled.project_id, shuffled.storey_ids) == (model.project_id, model.storey_ids)
    assert_indexes_fresh(shuffled)
    assert shuffled.to_bytes() == written


def test_open_peaks_under_one_and_a_half_file_sizes_above_the_model(tmp_path):
    model = new_model(guid_seed=61)
    for row in range(200):
        builders.create_wall(model, (0, row), (4, row), 3.0, 0.2)
    path = tmp_path / "walls.ifc"
    model.save(str(path))
    size = path.stat().st_size
    open_model(str(path))  # first-call imports stay out of the measure
    gc.collect()
    tracemalloc.start()
    try:
        loaded = open_model(str(path))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded.entities) == len(model.entities)
    assert peak - held < 1.5 * size, (peak - held) / size


def test_save_peaks_under_one_point_six_file_sizes(fresh_model):
    model = fresh_model
    row = 0
    # many chunks, so one chunk's temporaries are a small share of the file
    while len(model.entities) < 16 * step._WRITE_CHUNK:
        builders.create_wall(model, (0, row), (4, row), 3.0, 0.2)
        row += 1
    size = len(model.to_bytes())
    gc.collect()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        data = model.to_bytes()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(data) == size
    assert peak - held < 1.6 * size, (peak - held) / size


class _Text(str):
    """A str that can be watched through a weak reference."""


def test_open_frees_its_text_before_the_indexes_are_built(monkeypatch, tmp_path):
    # on every CPython version: open_model never passes its text as an
    # argument of a call that spans the index build
    texts, alive_at_rebuild = [], []
    rebuild = IfcModel.rebuild_indexes

    def watched(model):
        alive_at_rebuild.append(texts[0]() is not None)
        rebuild(model)

    class Raw(bytes):
        def decode(self, *args):
            value = _Text(bytes.decode(self, *args))
            texts.append(weakref.ref(value))
            return value

    class WatchedPath(type(tmp_path)):
        def read_bytes(self):
            return Raw(super().read_bytes())

    path = tmp_path / "walls.ifc"
    path.write_bytes(two_wall_step())
    monkeypatch.setattr(model_mod, "Path", WatchedPath)
    monkeypatch.setattr(IfcModel, "rebuild_indexes", watched)
    model = open_model(str(path))
    assert alive_at_rebuild == [False]
    assert model.to_bytes() == two_wall_step()


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before CPython 3.11 a caller keeps its arguments for the whole call")
def test_a_load_frees_text_nobody_else_holds_before_the_indexes_are_built(monkeypatch):
    texts, alive_at_rebuild = [], []
    rebuild = IfcModel.rebuild_indexes

    def watched(model):
        alive_at_rebuild.append(texts[0]() is not None)
        rebuild(model)

    def text() -> _Text:
        value = _Text(two_wall_step().decode("iso-8859-1"))
        texts.append(weakref.ref(value))
        return value

    monkeypatch.setattr(IfcModel, "rebuild_indexes", watched)
    model = load_model(text())
    assert alive_at_rebuild == [False]
    assert model.to_bytes() == two_wall_step()


def _records(data: bytes) -> dict[int, bytes]:
    return {int(line[1:line.index(b"=")]): line
            for line in data.splitlines() if line.startswith(b"#")}


def test_records_with_one_body_share_one_tuple():
    data = two_wall_step()
    model = load_model(data)
    entities = model.entities
    first, second = [i for i in sorted(model.by_class["IFCCARTESIANPOINT"])
                     if entities[i].attributes == ((2.0, 0.0),)]
    a, b = entities[first], entities[second]
    assert {type(inst.attributes) for inst in entities.values()} == {tuple}
    assert a.attributes is b.attributes
    assert a.attributes[0] is b.attributes[0]
    model.set_attr(b, "Coordinates", (3.0, 0.0))
    assert a.attributes == ((2.0, 0.0),)
    before, after = _records(data), _records(model.to_bytes())
    assert after[second] == b"#%d=IFCCARTESIANPOINT((3.,0.));" % second
    assert {i: line for i, line in after.items() if i != second} == \
        {i: line for i, line in before.items() if i != second}


def test_loaded_entities_share_class_names_and_equal_values():
    model = load_model(two_wall_step())
    entities = model.entities
    for ids in model.by_class.values():
        assert len({id(entities[i].class_name) for i in ids}) == 1
    # records with references share their number and enumeration values
    walls = [entities[i] for i in sorted(model.by_class["IFCWALL"])]
    assert walls[0].attributes[8] is walls[1].attributes[8]  # .STANDARD.
    profiles = [entities[i] for i in sorted(model.by_class["IFCRECTANGLEPROFILEDEF"])]
    for index in (0, 3, 4):  # .AREA., 4., 0.2
        assert profiles[0].attributes[index] is profiles[1].attributes[index]
    # but never a reference
    refs = [ref for inst in entities.values() for ref in iter_refs(inst.attributes)]
    assert len({id(ref) for ref in refs}) == len(refs)
    # equal bodies without references share every value
    seen: dict = {}
    for inst in entities.values():
        if not any(iter_refs(inst.attributes)):
            key = (inst.class_name, repr(inst.attributes))
            for mine, theirs in zip(inst.attributes, seen.setdefault(key, inst.attributes)):
                assert mine is theirs


def test_built_records_with_equal_plain_values_share_one_tuple():
    model = new_model("My Project", guid_seed=71)
    builders.create_wall(model, (0, 0), (4, 0), 3.0, 0.2)
    builders.create_wall(model, (0, 2), (4, 2), 3.0, 0.2)
    entities = model.entities
    first, second = [i for i in sorted(model.by_class["IFCCARTESIANPOINT"])
                     if entities[i].attributes == ((2.0, 0.0),)]
    a, b = entities[first], entities[second]
    assert a.attributes is b.attributes
    data = model.to_bytes()
    model.set_attr(b, "Coordinates", (3.0, 0.0))
    assert a.attributes == ((2.0, 0.0),)
    before, after = _records(data), _records(model.to_bytes())
    assert after[second] == b"#%d=IFCCARTESIANPOINT((3.,0.));" % second
    assert {i: line for i, line in after.items() if i != second} == \
        {i: line for i, line in before.items() if i != second}
    # a later equal add shares the tuple the edit left alone
    third = model.add("IFCCARTESIANPOINT", [(2.0, 0.0)])
    assert entities[third].attributes is a.attributes


def test_add_keeps_values_that_compare_equal_apart():
    model = IfcModel()
    passed = [("IFCCARTESIANPOINT", [(0.0, 0.0)]), ("IFCCARTESIANPOINT", [(-0.0, 0.0)]),
              ("IFCDIRECTION", [(1, 0.0, 0.0)]), ("IFCDIRECTION", [(1.0, 0.0, 0.0)]),
              ("IFCDIRECTION", [(True, 0.0, 0.0)])]
    ids = [model.add(class_name, attributes) for class_name, attributes in passed]
    stored = [model.entities[i].attributes for i in ids]
    assert [repr(attributes) for attributes in stored] == \
        [repr(tuple(attributes)) for _, attributes in passed]
    assert len({id(attributes) for attributes in stored}) == len(stored)
    assert model.to_bytes().endswith(
        b"DATA;\n#1=IFCCARTESIANPOINT((0.,0.));\n#2=IFCCARTESIANPOINT((-0.,0.));\n"
        b"#3=IFCDIRECTION((1,0.,0.));\n#4=IFCDIRECTION((1.,0.,0.));\n"
        b"#5=IFCDIRECTION((.T.,0.,0.));\nENDSEC;\nEND-ISO-10303-21;\n")


# few values, so that values == conflates (0.0 and -0.0; 0, 0.0 and False;
# 1, 1.0 and True) often meet in one sequence
_PLAIN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0, False, 1, 1.0, True, None, "", "a"]),
    st.integers(-2, 2), st.floats(allow_nan=False), st.text(max_size=1))
_POINTS = st.lists(_PLAIN_VALUES, max_size=3).map(lambda values: [tuple(values)])


@settings(deadline=None)
@given(st.lists(st.one_of(_POINTS, st.lists(_PLAIN_VALUES, max_size=2)), max_size=12))
@example([[(0.0,)], [(-0.0,)], [(0,)], [(False,)], [(1,)], [(1.0,)], [(True,)],
          [(1, 0.0)], [(True, -0.0)], [(1, 0.0)]])
def test_add_shares_exactly_the_tuples_of_equal_plain_values(sequence):
    model = IfcModel()
    ids = [model.add("IFCCARTESIANPOINT", attributes) for attributes in sequence]
    stored = [model.entities[i].attributes for i in ids]
    # every stored tuple reads back as what was passed, type for type
    assert [repr(attributes) for attributes in stored] == \
        [repr(tuple(attributes)) for attributes in sequence]
    # and two records of one tuple attribute share their attribute tuple
    # exactly when they read back alike
    points = [attributes for attributes in stored
              if len(attributes) == 1 and type(attributes[0]) is tuple]
    for mine in points:
        for theirs in points:
            assert (mine is theirs) == (repr(mine) == repr(theirs))


def test_a_reference_to_a_record_already_read_holds_its_id():
    model = new_model("My Project", guid_seed=71)
    for row in range(40):
        builders.create_wall(model, (0, row), (4, row), 3.0, 0.2)
    entities = load_model(model.to_bytes()).entities
    keys = {key: key for key in entities}  # each id to the dict's own key object
    refs = [(inst.id, ref) for inst in entities.values() for ref in iter_refs(inst.attributes)]
    # past the small-int cache, both before and after their record
    assert sum(ref.id > 256 for referrer, ref in refs if ref.id < referrer) > 100
    assert sum(ref.id > 256 for referrer, ref in refs if ref.id > referrer) > 10
    for referrer, ref in refs:
        assert ref.id is keys[ref.id], (referrer, ref)
    # and so does each reference that the token path reads
    text = model.to_bytes().decode("iso-8859-1").replace("\n#", "/**/\n#")
    entities = load_model(text.encode("iso-8859-1")).entities
    keys = {key: key for key in entities}
    for inst in entities.values():
        for ref in iter_refs(inst.attributes):
            assert ref.id is keys[ref.id], (inst.id, ref)
    # a forward reference may dangle, whichever path read its record
    text = ("ISO-10303-21;HEADER;FILE_DESCRIPTION((''),'2;1');"
            "FILE_NAME('','',(''),(''),'','','');FILE_SCHEMA(('IFC4'));ENDSEC;DATA;\n"
            "#1=IFCX(#2,#900,(#901,#1));\n#2=IFCX(#1,#899);\n#3=IFCX(/**/#902,#2);\n"
            "#1000=IFCX(#950,#2);\nENDSEC;END-ISO-10303-21;")
    with pytest.raises(DanglingRef) as excinfo:
        parse_step(text)
    assert excinfo.value.ids == [899, 900, 901, 902, 950]


def test_containment_is_a_tree(l_building):
    model, _ = l_building
    containments: dict[int, int] = {}
    for rel_id in model.by_class["IFCRELCONTAINEDINSPATIALSTRUCTURE"]:
        rel = model.entities[rel_id]
        for ref in rel.attributes[4]:
            assert ref.id not in containments, "product contained twice"
            containments[ref.id] = rel.attributes[5].id
    products = set(scene.products_in_order(model))
    assert products <= set(containments)


def test_dangling_scan_clean_after_operation_mix(l_building):
    model, handles = l_building
    add_property_set(model, handles["walls"][0],
                     PropertySpec("P", [("a", 1.0)]))
    add_classification(model, handles["walls"][1], "S", "C1")
    delete_element(model, handles["walls"][2])
    delete_element(model, handles["door"])
    assert dangling_refs(model) == []


def test_storey_selection_by_elevation(fresh_model):
    from ifcmcp.model import add_storey

    upper = add_storey(fresh_model, "Level 2", 3.5)
    assert fresh_model.storey_for_elevation(0.0) == fresh_model.storeys()[0]
    assert fresh_model.storey_for_elevation(3.5) == upper
    assert fresh_model.storey_for_elevation(10.0) == upper
    assert fresh_model.storey_for_elevation(-5.0) == fresh_model.storeys()[0]
    assert dangling_refs(fresh_model) == []



# the only functions that may write instance attributes: (class, function)
ATTRIBUTE_WRITERS = {("IfcModel", "add"), ("IfcModel", "set_attr"),
                     ("IfcModel", "relate"), (None, "delete_element")}
# the constructor fills in a new entity; it writes no existing one
CONSTRUCTOR = ("step.py", ("EntityInstance", "__init__"))
_LIST_MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}


def _assigned(target):
    """What a target expression stores into, with subscripts stripped."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _assigned(element)
    elif isinstance(target, ast.Starred):
        yield from _assigned(target.value)
    else:
        while isinstance(target, ast.Subscript):
            target = target.value
        yield target


def _is_attributes(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "attributes"


def _attribute_writes(node, scope=(None, None)):
    """(scope, line) of each assignment to or list mutation of ``<x>.attributes``."""
    if isinstance(node, ast.ClassDef):
        scope = (node.name, None)
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = (scope[0], node.name)
    targets = []
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in _LIST_MUTATORS:
        targets = [node.func.value]
    if any(_is_attributes(t) for target in targets for t in _assigned(target)):
        yield scope, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _attribute_writes(child, scope)


def test_only_the_listed_writers_write_instance_attributes():
    source = Path(ifcmcp.__file__).parent
    stray = []
    for path in sorted(source.glob("*.py")):
        for scope, line in _attribute_writes(ast.parse(path.read_text(encoding="utf-8"))):
            if (path.name, scope) == CONSTRUCTOR:
                continue
            if path.name != "model.py" or scope not in ATTRIBUTE_WRITERS:
                stray.append(f"{path.name}:{line} in {scope}")
    assert stray == []


# the only scopes that may read an attribute by its position: the index
# layer reads attribute 0 as a possible GlobalId of any class, known to the
# schema or not
INDEX_LAYER = {("IfcModel", "_index"), ("IfcModel", "_drop"), ("IfcModel", "rebuild_indexes"),
               ("IfcModel", "guid_of"), (None, "_is_rooted"), (None, "_build")}


def _literal_reads(node, scope=(None, None)):
    """(scope, line) of each load of ``<x>.attributes[<integer literal>]``."""
    if isinstance(node, ast.ClassDef):
        scope = (node.name, None)
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = (scope[0], node.name)
    elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load) \
            and _is_attributes(node.value):
        index = node.slice
        if isinstance(index, ast.UnaryOp) and isinstance(index.op, (ast.USub, ast.UAdd)):
            index = index.operand
        if isinstance(index, ast.Constant) and type(index.value) is int:
            yield scope, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _literal_reads(child, scope)


def test_no_module_reads_an_attribute_by_a_literal_position():
    # every other read names its attribute, and model.read finds the
    # position in schema.POSITIONS
    source = Path(ifcmcp.__file__).parent
    stray = [f"{path.name}:{line} in {scope}" for path in sorted(source.glob("*.py"))
             for scope, line in _literal_reads(ast.parse(path.read_text(encoding="utf-8")))
             if path.name != "model.py" or scope not in INDEX_LAYER]
    assert stray == []


def test_literal_position_read_scan_sees_each_form():
    forms = ["y = x.attributes[2]", "f(x.attributes[0])", "x.y.attributes[1] is None",
             "y = x.attributes[-1]", "d[x.attributes[0]] = v", "y = x.attributes[4][0]",
             "y = [a for a in f().attributes[3]]"]
    for form in forms:
        assert list(_literal_reads(ast.parse(form))) == [((None, None), 1)], form
    for form in ["y = x.attributes[i]", "y = x.attributes[:2]", "y = attributes[0]",
                 "y = x.attrs[0]", "y = x.attributes['a']", "y = x.attributes"]:
        assert list(_literal_reads(ast.parse(form))) == [], form
    method = "class C:\n    def f(self):\n        return self.attributes[5]"
    assert list(_literal_reads(ast.parse(method))) == [(("C", "f"), 3)]


def test_attribute_write_scan_sees_each_form():
    forms = ["x.attributes[2] = v", "x.attributes = []", "a, x.attributes[0] = v",
             "x.attributes[1] += 1", "del x.attributes[0]", "x.attributes.append(v)",
             "x.attributes[4][0] = v"]
    for form in forms:
        assert list(_attribute_writes(ast.parse(form))) == [((None, None), 1)], form
    for form in ["y = x.attributes[2]", "d[x.attributes[0]] = v", "x.attrs[0] = v"]:
        assert list(_attribute_writes(ast.parse(form))) == [], form


def _reference_delete(model, guid: str) -> int:
    """``delete_element`` as it was with the whole-graph sweep, kept as an oracle."""
    inst = model.require_guid(guid)
    if inst.class_name in schema.SPATIAL_CLASSES:
        raise CannotDeleteSpatial(f"cannot delete spatial element {inst.class_name}")
    if inst.class_name not in schema.PRODUCT_CLASSES:
        raise CannotDeleteSpatial(f"{inst.class_name} is not a deletable product")

    cascade = model_mod._cascade_set(model, inst.id)
    dead = set(cascade)
    touched = {rel_id for entity_id in cascade for class_name in schema.REL_SIDES
               for side in (RELATING, RELATED)
               for rel_id in model.rels(entity_id, class_name, side)}
    for rel_id in touched:
        rel = model.entities[rel_id]
        index = schema.REL_SIDES[rel.class_name][RELATED]
        related = rel.attributes[index]
        if not cascade.intersection(model.rel_side(rel_id, RELATING)) \
                and isinstance(related, tuple):
            kept = tuple(r for r in related
                         if not (isinstance(r, EntityRef) and r.id in cascade))
            if kept:
                rel.attributes = model_mod._replaced(rel.attributes, index, kept)
                continue
        dead.add(rel_id)

    candidates: set[int] = set()
    queue = list(dead)
    while queue:
        entity_id = queue.pop()
        for ref in iter_refs(model.entities[entity_id].attributes):
            if ref.id in dead or ref.id in candidates:
                continue
            target = model.entities[ref.id]
            if model_mod._is_rooted(target) \
                    and target.class_name not in model_mod._GC_SAFE_ROOTED:
                continue
            candidates.add(ref.id)
            queue.append(ref.id)

    while True:
        live_refs: set[int] = set()
        for entity_id, entity in model.entities.items():
            if entity_id not in dead:
                live_refs.update(r.id for r in iter_refs(entity.attributes))
        swept = {c for c in candidates if c not in dead and c not in live_refs}
        if not swept:
            break
        dead.update(swept)

    for entity_id in dead:
        model.entities.pop(entity_id, None)
    model.rebuild_indexes()
    return len(dead)


def assert_delete_matches_reference(model, guid: str):
    expected = deepcopy(model)
    try:
        removed = _reference_delete(expected, guid)
    except IfcError as exc:
        with pytest.raises(type(exc)):
            delete_element(model, guid)
        return
    assert delete_element(model, guid) == removed
    assert sorted(model.entities) == sorted(expected.entities)
    assert model.to_bytes() == expected.to_bytes()
    assert_indexes_fresh(model)


_GROWTH_STEPS = ["create_wall", "create_door", "add_property_set",
                 "add_classification", "set_owner_history", "delete_element"]


@given(trace=st.sampled_from(["l_building", "semantic_edits"]),
       steps=st.lists(st.tuples(st.sampled_from(_GROWTH_STEPS),
                                st.integers(0, 40), st.integers(0, 2)),
                      max_size=14))
@example(trace="l_building", steps=[("delete_element", pick, 0) for pick in range(8)])
@example(trace="semantic_edits",
         steps=[("set_owner_history", 4, 0), ("add_property_set", 4, 1),
                ("delete_element", 4, 0), ("delete_element", 0, 0)])
@settings(deadline=None)
def test_delete_matches_the_whole_graph_sweep(trace, steps):
    session = Session(new_model(guid_seed=47))
    model = session.model
    run_trace(session, json.loads((TRACES / f"{trace}.json").read_text()))
    for number, (tool, pick, variant) in enumerate(steps, start=1):
        products = scene.products_in_order(model)
        if not products:
            break
        guid = model.guid_of(products[pick % len(products)])
        if tool == "delete_element":
            assert_delete_matches_reference(model, guid)
            continue
        arguments = {
            "create_wall": {"start": [pick, variant], "end": [pick + 3, variant + 1],
                            "height": 3.0, "thickness": 0.2},
            "create_door": {"position": [pick % 12, variant * 5]},
            "add_property_set": {"guid": guid, "pset_name": f"P{variant}",
                                 "properties": {f"p{pick % 3}": pick}},
            "add_classification": {"guid": guid, "system": "S", "code": f"C{variant}"},
            "set_owner_history": {"guids": [guid, model.guid_of(products[0])],
                                  "user": f"u{variant}", "timestamp": pick},
        }[tool]
        response = handle_request(session, {
            "jsonrpc": "2.0", "id": number, "method": "tools/call",
            "params": {"name": tool, "arguments": arguments}})
        assert "result" in response


def test_delete_keeps_a_placement_cycle_only_the_wall_reached(fresh_model):
    model = fresh_model
    point = model.add("IFCCARTESIANPOINT", [(0.0, 0.0, 0.0)])
    a2p = model.add("IFCAXIS2PLACEMENT3D", [EntityRef(point), None, None])
    first = model.add("IFCLOCALPLACEMENT", [None, EntityRef(a2p)])
    second = model.add("IFCLOCALPLACEMENT", [EntityRef(first), EntityRef(a2p)])
    model.set_attr(model.entities[first], "PlacementRelTo", EntityRef(second))
    guid = model.guids.fresh()
    wall = model.add("IFCWALL", [guid, None, "Wall_X", None, None,
                                 EntityRef(first), None, None, None])
    model.contain_in_storey(wall, model.default_storey())
    assert_delete_matches_reference(model, guid)
    assert wall not in model.entities
    assert {first, second, a2p, point} <= set(model.entities)


# --- deletes next to records this kit does not write ---

def _path_connection(model, relating: int, related: int) -> int:
    return model.add("IFCRELCONNECTSPATHELEMENTS", [
        model.guids.fresh(), None, None, None, None, EntityRef(relating),
        EntityRef(related), (), (), EnumToken("ATEND"), EnumToken("ATSTART")])


def _foreign_group(model, relating: int, members) -> int:
    return model.add("IFCRELAGGREGATES", [model.guids.fresh(), None, None, None,
                                          EntityRef(relating),
                                          tuple(EntityRef(i) for i in members)])


def test_delete_removes_foreign_records_that_refer_to_the_element():
    model = new_model(guid_seed=11)
    guids = [builders.create_wall(model, (0, 0), (4, 0), 3.0, 0.2),
             builders.create_wall(model, (4, 0), (4, 4), 3.0, 0.2),
             builders.create_wall(model, (4, 4), (0, 4), 3.0, 0.2)]
    first, second, third = (model.require_guid(g).id for g in guids)
    plain = model.to_bytes()
    path = _path_connection(model, first, second)
    # records listing a relationship record: one loses its only member,
    # the other keeps the third wall
    lone = _foreign_group(model, second, [path])
    mixed = _foreign_group(model, third, [path, second])
    model = load_model(model.to_bytes())
    expected = load_model(plain)

    removed = delete_element(model, guids[0])
    assert removed == delete_element(expected, guids[0]) + 2
    assert {path, lone} & set(model.entities) == set()
    assert model.entities[mixed].attributes[5] == (EntityRef(second),)
    assert model.rels(second, "IFCRELAGGREGATES", RELATED) == [mixed]
    assert dangling_refs(model) == []
    data = model.to_bytes()
    assert write_step(*parse_step(data)) == data
    assert_indexes_fresh(model)


@pytest.mark.parametrize("links", [1, 2, 3, 4])
def test_delete_removes_a_referrer_without_a_global_id(links):
    model = new_model(guid_seed=12)
    guid = builders.create_wall(model, (0, 0), (4, 0), 3.0, 0.2)
    wall = model.require_guid(guid).id
    # a chain of notes without a GlobalId back to the wall: the first refers
    # to it by a single value, the next lists the first, and so on in turn
    chain = [wall]
    for link in range(links):
        ref = EntityRef(chain[-1])
        chain.append(model.add("IFCXNOTE", [f"link {link}", (ref,) if link % 2 else ref]))
    kept = model.add("IFCXNOTE", ["refers to nothing deleted", EntityRef(model.project_id)])
    delete_element(model, guid)
    assert set(chain) & set(model.entities) == set()
    assert kept in model.entities
    assert dangling_refs(model) == []


def test_delete_fails_before_any_write_while_a_rooted_record_holds_the_element():
    model = new_model(guid_seed=13)
    guid = builders.create_wall(model, (0, 0), (4, 0), 3.0, 0.2)
    wall = model.require_guid(guid).id
    path = _path_connection(model, wall, wall)
    tag = model.add("IFCXTAG", [model.guids.fresh(), EntityRef(wall)])
    model = load_model(model.to_bytes())
    before = model.to_bytes()
    with pytest.raises(StillReferenced) as excinfo:
        delete_element(model, guid)
    assert excinfo.value.referrer_id == tag
    assert path in model.entities
    assert model.to_bytes() == before
    assert _call(Session(model), "delete_element", {"guid": guid})["error"]["type"] == \
        "StillReferenced"


_FOREIGN = ["path", "group", "note", "material"]


@given(steps=st.lists(st.tuples(st.sampled_from(_FOREIGN + ["delete"]),
                                st.integers(0, 40), st.integers(0, 40)),
                      max_size=12))
@settings(deadline=None)
def test_deletes_among_foreign_records_leave_a_saveable_model(steps):
    session = Session(new_model(guid_seed=48))
    run_trace(session, json.loads((TRACES / "l_building.json").read_text()))
    model = session.model
    for kind, pick, other in steps:
        products = scene.products_in_order(model)
        rels = sorted(i for name, ids in model.by_class.items()
                      if name.startswith("IFCREL") for i in ids)
        if not products:
            break
        product = products[pick % len(products)]
        if kind == "delete":
            delete_element(model, model.guid_of(product))
            assert dangling_refs(model) == []
            data = model.to_bytes()
            assert write_step(*parse_step(data)) == data
            assert_indexes_fresh(model)
        elif kind == "path":
            _path_connection(model, product, products[other % len(products)])
        elif kind == "group":
            _foreign_group(model, product, [rels[other % len(rels)], rels[pick % len(rels)]])
        elif kind == "note":
            # a product, or an earlier note, which dies only after what it names
            notes = model.by_class.get("IFCXNOTE", ())
            target = notes[other // 2 % len(notes)] if notes and other % 2 else product
            model.add("IFCXNOTE", [str(other), EntityRef(target)])
        else:
            material = model.add("IFCMATERIAL", [f"M{other}", None, None])
            model.add("IFCRELASSOCIATESMATERIAL", [
                model.guids.fresh(), None, None, None,
                (EntityRef(product), EntityRef(products[other % len(products)])),
                EntityRef(material)])


# --- placement chains from files this kit did not write ---

def _wall_with_placement(seed: int = 3):
    """A kit wall and the id of its IFCLOCALPLACEMENT."""
    model = new_model(guid_seed=seed)
    guid = builders.create_wall(model, (0, 0), (5, 0), 3.0, 0.2)
    return model, guid, model.require_guid(guid).attributes[5].id


def _call(session, tool: str, arguments: dict) -> dict:
    """Payload of one tool call, which must not fail at the protocol level."""
    response = handle_request(session, {
        "jsonrpc": "2.0", "id": 1, "method": "tools/call",
        "params": {"name": tool, "arguments": arguments}})
    assert "result" in response, response
    return json.loads(response["result"]["content"][0]["text"])


def _tool_error(model, tool: str, arguments: dict):
    """In-band error of a tool call on a reopened copy of ``model``."""
    return _call(Session(load_model(model.to_bytes())), tool, arguments).get("error")


@pytest.mark.parametrize("tool", ["get_object_info", "get_ifc_scene_overview",
                                  "capture_plan_view"])
@pytest.mark.parametrize("length", [1, 3])
def test_placement_cycle_is_an_in_band_error(tool, length):
    model, guid, lp = _wall_with_placement()
    a2p = model.entities[lp].attributes[1]
    chain = [lp] + [model.add("IFCLOCALPLACEMENT", [None, a2p])
                    for _ in range(length - 1)]
    for child, parent in zip(chain, chain[1:] + chain[:1]):
        inst = model.entities[child]
        inst.attributes = model_mod._replaced(inst.attributes, 0, EntityRef(parent))
    with pytest.raises(PlacementCycle):
        load_model(model.to_bytes()).placement_of(model.require_guid(guid).id)
    arguments = {"guid": guid} if tool == "get_object_info" else {}
    assert _tool_error(model, tool, arguments)["type"] == "PlacementCycle"


def test_long_placement_chain_resolves_like_a_short_one():
    model, guid, lp = _wall_with_placement()
    expected = model.placement_of(model.require_guid(guid).id)
    parent, a2p = model.entities[lp].attributes
    # identity frames between the wall and its storey, far past the
    # interpreter's recursion limit
    for _ in range(5000):
        parent = EntityRef(model.add("IFCLOCALPLACEMENT", [parent, a2p]))
        a2p = EntityRef(model.add("IFCAXIS2PLACEMENT3D", [
            EntityRef(model.add("IFCCARTESIANPOINT", [(0.0, 0.0, 0.0)])), None, None]))
    model.entities[lp].attributes = (parent, a2p)
    placement = model.placement_of(model.require_guid(guid).id)
    assert placement == expected
    assert _tool_error(model, "get_object_info", {"guid": guid}) is None


@pytest.mark.parametrize("slot", [1, 2])
def test_zero_length_direction_is_an_in_band_error(slot):
    model, guid, lp = _wall_with_placement()
    a2p = model.entities[model.entities[lp].attributes[1].id]
    a2p.attributes = model_mod._replaced(
        a2p.attributes, slot, EntityRef(model.add("IFCDIRECTION", [(0.0, 0.0, 0.0)])))
    with pytest.raises(ZeroLengthAxis):
        model.placement_of(model.require_guid(guid).id)
    assert _tool_error(model, "get_object_info", {"guid": guid})["type"] == \
        "ZeroLengthAxis"



def _set_axes(model, lp: int, axis, ref_direction):
    """Point the wall placement's Axis and RefDirection at new IFCDIRECTIONs
    (``None`` leaves the attribute unset)."""
    a2p = model.entities[model.entities[lp].attributes[1].id]
    for slot, ratios in ((1, axis), (2, ref_direction)):
        a2p.attributes = model_mod._replaced(a2p.attributes, slot, None if ratios is None
                                             else EntityRef(model.add("IFCDIRECTION", [ratios])))


def test_ref_direction_is_projected_normal_to_the_axis():
    model, guid, lp = _wall_with_placement()
    session = Session(load_model(model.to_bytes()))
    expected = _call(session, "get_object_info", {"guid": guid})
    _set_axes(model, lp, None, (1.0, 0.0, 1.0))
    placement = model.placement_of(model.require_guid(guid).id)
    assert placement.x_axis == (1.0, 0.0, 0.0)
    assert _call(Session(load_model(model.to_bytes())), "get_object_info",
                 {"guid": guid}) == expected


def test_axis_along_x_without_ref_direction_takes_y():
    # valid IFC: IfcFirstProjAxis falls back to (0,1,0) for this axis
    model, guid, lp = _wall_with_placement()
    _set_axes(model, lp, (1.0, 0.0, 0.0), None)
    placement = model.placement_of(model.require_guid(guid).id)
    assert placement.z_axis == (1.0, 0.0, 0.0)
    assert placement.x_axis == (0.0, 1.0, 0.0)
    assert _tool_error(model, "get_object_info", {"guid": guid}) is None


def test_ref_direction_parallel_to_the_axis_is_an_in_band_error():
    model, guid, lp = _wall_with_placement()
    _set_axes(model, lp, (0.0, 1.0, 1.0), (0.0, -2.0, -2.0))
    with pytest.raises(ZeroLengthAxis):
        model.placement_of(model.require_guid(guid).id)
    assert _tool_error(model, "get_object_info", {"guid": guid})["type"] == \
        "ZeroLengthAxis"


def test_ref_direction_nearly_parallel_to_a_slanted_axis_is_an_in_band_error():
    # 1e-8 rad apart: the projection is too short to be normal to the axis
    # to within the frame's tolerance once normalised
    model, guid, lp = _wall_with_placement()
    _set_axes(model, lp, (-0.8133531280381473, 0.5738018711060714, 0.09595885485838479),
              (-0.8133531325241078, 0.5738018781406922, 0.09595885999922568))
    with pytest.raises(ZeroLengthAxis):
        model.placement_of(model.require_guid(guid).id)
    assert _tool_error(model, "get_object_info", {"guid": guid})["type"] == \
        "ZeroLengthAxis"


_HUGE = int("9" * 400)  # an integer past the double range


@pytest.mark.parametrize("slot, value", [
    ("axis", (1.0, 0.0)), ("ref_direction", (1.0, 0.0)),
    ("ref_direction", ("a", 0.0, 0.0)), ("location", (1.0, 2.0, 3.0, 4.0)),
    ("location", ("a", 2.0, 3.0)),
    pytest.param("location", (_HUGE, 0.0, 0.0), id="location-400-digits"),
    pytest.param("ref_direction", (_HUGE, 0.0, 0.0), id="ref_direction-400-digits"),
    pytest.param("RelativePlacement", None, id="relative-placement-unset"),
    pytest.param("Location", None, id="location-unset"),
    pytest.param("Location", (1.0, 2.0, 3.0), id="location-not-a-reference"),
    pytest.param("Elevation", _HUGE, id="storey-elevation-400-digits")])
def test_malformed_placement_is_an_in_band_error(slot, value):
    model, guid, lp = _wall_with_placement()
    wall = model.require_guid(guid).id
    a2p = model.entities[model.entities[lp].attributes[1].id]
    # the record the value goes into, the attribute's index and name, and
    # the product whose info reads it
    record, index, attribute, product = {
        "location": (model.entities[a2p.attributes[0].id], 0, "Coordinates", guid),
        "Location": (a2p, 0, "Location", guid),
        "RelativePlacement": (model.entities[lp], 1, "RelativePlacement", guid),
        "Elevation": (model.entities[model.storey_of(wall)], 9, "Elevation",
                      model.guid_of(model.storey_of(wall))),
    }.get(slot, (None, 0, "DirectionRatios", guid))
    if record is None:
        _set_axes(model, lp, **{"axis": None, "ref_direction": None, slot: value})
        record = model.resolve(a2p.attributes[1 if slot == "axis" else 2])
    else:
        record.attributes = model_mod._replaced(record.attributes, index, value)
    if slot != "Elevation":
        with pytest.raises(InvalidPlacement):
            model.placement_of(wall)
    session = Session(load_model(model.to_bytes()))
    before = session.model.to_bytes()
    for tool, arguments in [("get_object_info", {"guid": product}),
                            ("get_ifc_scene_overview", {}), ("capture_plan_view", {})]:
        error = _call(session, tool, arguments)["error"]
        assert error["type"] == "InvalidPlacement", tool
        assert f"{record.class_name} #{record.id} of a placement needs " in error["message"]
        assert error["message"].endswith(f" as its {attribute}"), error["message"]
    assert session.model.to_bytes() == before


def test_finite_origins_that_add_up_past_the_double_range_are_an_in_band_error():
    # the wall's and its storey's points are finite, their sum is not
    model, guid, lp = _wall_with_placement()
    storey_lp = model.entities[model.storey_of(model.require_guid(guid).id)].attributes[5].id
    for placement in (lp, storey_lp):
        frame = model.resolve(model.entities[placement].attributes[1])
        frame.attributes = model_mod._replaced(frame.attributes, 0, EntityRef(
            model.add("IFCCARTESIANPOINT", [(1e308, 0.0, 0.0)])))
    session = Session(load_model(model.to_bytes()))
    before = session.model.to_bytes()
    for tool, arguments in [("get_object_info", {"guid": guid}), ("get_ifc_scene_overview", {}),
                            ("capture_plan_view", {}), ("capture_elevation_view", {"view": "south"})]:
        assert _call(session, tool, arguments)["error"] == {
            "type": "InvalidPlacement",
            "message": f"IFCLOCALPLACEMENT #{lp} of a placement has a world origin that is not "
                       "finite"}, tool
    assert session.model.to_bytes() == before


# a STEP value a foreign file may hold where a placement wants a reference
# or numbers: unset, text, integers past the double range, reals of any
# size, tuples of any length, a reference to an existing entity of any class
# ("entity", pick) or to a new IFCDIRECTION of any ratios ("record", ratios)
_NUMBER = st.one_of(st.integers(-_HUGE, _HUGE), st.floats(allow_nan=False,
                                                          allow_infinity=False))
_STEP_VALUES = st.deferred(lambda: st.one_of(
    st.none(), st.text(max_size=3), _NUMBER,
    st.lists(_STEP_VALUES, max_size=4).map(tuple),
    st.tuples(st.just("entity"), st.integers(0, 10 ** 6)),
    st.tuples(st.just("record"), st.lists(_NUMBER, max_size=4).map(tuple))))
_PLACEMENT_SLOTS = {  # slot -> (record of the wall's placement, attribute index)
    "RelativePlacement": (lambda model, lp: lp, 1),
    "PlacementRelTo": (lambda model, lp: lp, 0),
    "Location": (lambda model, lp: model.resolve(lp.attributes[1]), 0),
    "Axis": (lambda model, lp: model.resolve(lp.attributes[1]), 1),
    "RefDirection": (lambda model, lp: model.resolve(lp.attributes[1]), 2),
    "Coordinates": (lambda model, lp: model.resolve(
        model.resolve(lp.attributes[1]).attributes[0]), 0),
}


@given(edits=st.lists(st.tuples(st.sampled_from(sorted(_PLACEMENT_SLOTS)), _STEP_VALUES),
                      min_size=1, max_size=4))
@settings(deadline=None)
@example(edits=[("Axis", ("record", (1e300, -1e300, 0.0)))])
@example(edits=[("RefDirection", ("record", (1e-160, 0.0, 0.0)))])
def test_any_value_in_a_placement_slot_is_a_frame_or_an_in_band_error(edits):
    model, guid, lp = _wall_with_placement()
    ids = sorted(model.entities)

    def stored(value):
        if type(value) is not tuple:
            return value
        if value[:1] == ("entity",):
            return EntityRef(ids[value[1] % len(ids)])
        if value[:1] == ("record",):
            return EntityRef(model.add("IFCDIRECTION", [value[1]]))
        return tuple(map(stored, value))

    for slot, value in edits:
        record_of, index = _PLACEMENT_SLOTS[slot]
        try:
            record = record_of(model, model.entities[lp])
        except (AttributeError, IndexError, KeyError, TypeError):
            continue  # an earlier edit took away the path to this slot
        if index < len(record.attributes):
            record.attributes = model_mod._replaced(record.attributes, index, stored(value))
    try:
        placement = model.placement_of(model.require_guid(guid).id)
    except (InvalidPlacement, ZeroLengthAxis, PlacementCycle):
        return
    assert isinstance(placement, ifcmcp.geometry.Placement)


@pytest.mark.parametrize("tool, sill", [("create_door", 0.0), ("create_window", 0.9)])
def test_an_opening_in_a_wall_without_a_placement_is_placed_in_the_world(tool, sill):
    model, guid, _lp = _wall_with_placement()
    wall = model.require_guid(guid)
    wall.attributes = model_mod._replaced(wall.attributes, 5, None)
    session = Session(load_model(model.to_bytes()))
    result = _call(session, tool, {"wall_guid": guid, "position_along_axis": 2.0})
    assert "error" not in result, result
    # an unset ObjectPlacement is the world frame, so the opening is placed
    # in it, as placement_of reads the wall
    opening = session.model.require_guid(result["opening"]).id
    assert session.model.placement_of(opening).origin == (2.0, 0.0, sill)
    assert load_model(session.model.to_bytes()).to_bytes() == session.model.to_bytes()


# --- file records outside geometry ---

def _wall_with_pset():
    """A kit wall with one property set of one property."""
    model, guid, _lp = _wall_with_placement()
    add_property_set(model, guid, PropertySpec("Pset_Wall", [("Rating", "A")]))
    return model, guid


# the record a reference is written into, by the wall, the position and name
# of the text attribute that gets it, and what that attribute may hold: an
# edit may store a number or a boolean in a wall's Description
_TEXT_SLOTS = [
    pytest.param(lambda model, wall: wall, 3, "Description", "a string, number or boolean",
                 id="wall-description"),
    pytest.param(lambda model, wall: model.entities[model.by_class["IFCPROPERTYSINGLEVALUE"][0]],
                 0, "Name", "a string", id="property-name"),
    pytest.param(lambda model, wall: model.entities[model.by_class["IFCPROPERTYSET"][0]],
                 2, "Name", "a string", id="pset-name"),
]


@pytest.mark.parametrize("record_of, index, attribute, kind", _TEXT_SLOTS)
def test_a_reference_where_a_tool_reads_text_is_an_in_band_error(record_of, index, attribute,
                                                                  kind):
    # each once reached the JSON encoder and answered -32603
    model, guid = _wall_with_pset()
    wall = model.require_guid(guid)
    record = record_of(model, wall)
    record.attributes = model_mod._replaced(record.attributes, index, EntityRef(wall.id))
    session = Session(load_model(model.to_bytes()))
    before = session.model.to_bytes()
    assert _call(session, "get_object_info", {"guid": guid})["error"] == {
        "type": "InvalidRecord",
        "message": f"{record.class_name} #{record.id} of a record needs {kind} as its "
                   f"{attribute}"}
    assert session.model.to_bytes() == before


def test_an_owner_history_of_another_class_reads_as_no_user():
    # IFCCARTESIANPOINT has no OwningUser or CreationDate: both read as unset
    model, guid, _lp = _wall_with_placement()
    wall = model.require_guid(guid)
    point = model.add("IFCCARTESIANPOINT", [(0.0, 0.0, 0.0)])
    wall.attributes = model_mod._replaced(wall.attributes, 1, EntityRef(point))
    session = Session(load_model(model.to_bytes()))
    assert _call(session, "get_object_info", {"guid": guid})["owner"] == {
        "user": None, "created": None}


def test_a_containment_that_holds_one_reference_takes_a_new_wall():
    # the related side is one reference, not a list: it reads as a list of
    # one, where create_wall once failed after it had added 13 entities
    model, guid, _lp = _wall_with_placement()
    wall = model.require_guid(guid).id
    storey = model.storey_of(wall)
    (rel_id,) = model.rels(wall, "IFCRELCONTAINEDINSPATIALSTRUCTURE", RELATED)
    rel = model.entities[rel_id]
    rel.attributes = model_mod._replaced(rel.attributes, 4, EntityRef(wall))
    session = Session(load_model(model.to_bytes()))
    result = _call(session, "create_wall", {"start": [0, 5], "end": [5, 5],
                                            "height": 3.0, "thickness": 0.2})
    assert "error" not in result, result
    reloaded = load_model(session.model.to_bytes())
    assert reloaded.to_bytes() == session.model.to_bytes()
    for check in (session.model, reloaded):
        walls = [wall, check.require_guid(result["guid"]).id]
        assert [check.storey_of(w) for w in walls] == [storey, storey]
        assert check.rel_side(rel_id, RELATED) == walls


def test_a_classification_joining_an_association_without_a_string_global_id_writes_nothing():
    # the association's GlobalId is read before the element joins it, where
    # the error once came after the write
    model = new_model(guid_seed=3)
    first = builders.create_wall(model, (0, 0), (5, 0), 3.0, 0.2)
    second = builders.create_wall(model, (0, 5), (5, 5), 3.0, 0.2)
    association = add_classification(model, first, "Uniclass", "EF_25_10")
    (rel_id,) = model.by_class["IFCRELASSOCIATESCLASSIFICATION"]
    rel = model.entities[rel_id]
    assert rel.attributes[0] == association == \
        add_classification(model, first, "Uniclass", "EF_25_10")
    rel.attributes = model_mod._replaced(rel.attributes, 0, EntityRef(model.by_guid[first]))
    session = Session(load_model(model.to_bytes()))
    before = session.model.to_bytes()
    assert _call(session, "add_classification", {
        "guid": second, "system": "Uniclass", "code": "EF_25_10"})["error"] == {
        "type": "InvalidRecord",
        "message": f"IFCRELASSOCIATESCLASSIFICATION #{rel_id} of a record needs a string "
                   "as its GlobalId"}
    assert session.model.to_bytes() == before


def _edit_by_tool(session, guid):
    result = _call(session, "edit_attributes", {
        "guid": guid, "updates": {"Name": 5, "Description": 5, "Tag": True}})
    assert "error" not in result, result


def _edit_by_query(session, guid):
    for attribute, value in (("Name", "5"), ("Description", "5"), ("Tag", "true")):
        result = _call(session, "execute_ifc_query",
                       {"query": f"walls | set({attribute}, {value})"})
        assert "error" not in result, result


@pytest.mark.parametrize("edit", [_edit_by_tool, _edit_by_query], ids=["tool", "query"])
def test_a_number_an_edit_stores_in_a_text_attribute_reads_back(edit):
    # edit_attributes and the query language's set store numbers and booleans
    # as they are: a name that is not a string reads as "Unnamed", a
    # description and an old value as stored, before and after a reload
    model, guid, _lp = _wall_with_placement()
    session = Session(model)
    edit(session, guid)
    for current in (session, Session(load_model(session.model.to_bytes()))):
        for tool, arguments in (("capture_plan_view", {}),
                                ("capture_elevation_view", {"view": "south"}),
                                ("get_ifc_scene_overview", {})):
            result = _call(current, tool, arguments)
            assert "error" not in result, (tool, result)
        info = _call(current, "get_object_info", {"guid": guid})
        assert (info["name"], info["description"]) == ("Unnamed", 5)
        names = [summary["name"] for summary in _call(current, "get_scene_info", {})["objects"]]
        assert "IfcWall/Unnamed" in names
        assert _call(current, "execute_ifc_query", {
            "query": "walls | select(name, .Name, .Tag)"})["result"] == [["Unnamed", 5, True]]
        assert _call(current, "edit_attributes", {"guid": guid, "updates": {
            "Name": "W", "Description": "d", "Tag": "t"}})["changed"] == [
            {"attribute": "Name", "old": 5, "new": "W"},
            {"attribute": "Description", "old": 5, "new": "d"},
            {"attribute": "Tag", "old": True, "new": "t"}]


def test_an_edit_naming_an_attribute_a_record_lacks_writes_nothing():
    # the second wall is cut to 7 attributes, so it has no Tag: each edit is
    # refused before its first write, by the tool and by the query language
    model, first, _lp = _wall_with_placement()
    second = builders.create_wall(model, (0, 5), (5, 5), 3.0, 0.2)
    wall = model.require_guid(second)
    wall.attributes = wall.attributes[:7]
    session = Session(load_model(model.to_bytes()))
    before = session.model.to_bytes()
    assert _call(session, "edit_attributes", {
        "guid": second, "updates": {"Name": "x", "Tag": "y"}})["error"]["type"] == \
        "UnknownAttribute"
    assert _call(session, "execute_ifc_query", {
        "query": 'walls | set(Tag, "y")'})["error"]["type"] == "UnknownAttribute"
    assert session.model.to_bytes() == before


@pytest.mark.parametrize("pattern, replacement", [
    (r"IFCFACEOUTERBOUND\(", "IFCFACEBOUND("),
    (r"IFCFACE\(\((#\d+)\)\)", r"IFCFACESURFACE((\1),$,.T.)"),
], ids=["face-bound", "face-surface"])
def test_a_brep_of_the_face_classes_other_tools_write_reads_as_the_kit_s(pattern, replacement):
    # IfcFaceBound (a face's inner loops, or every loop for some exporters)
    # and IfcFaceSurface hold Bound and Bounds where the kit's classes do
    model = new_model(guid_seed=3)
    guid = builders.create_stairs(model, (0, 0, 0), 0.0, 3.0, 4.0, 12, 1.0)
    kit = model.to_bytes().decode()
    other, count = re.subn(pattern, replacement, kit)
    assert count > 1
    sessions = [Session(load_model(text.encode())) for text in (kit, other)]
    for tool, arguments in (("get_object_info", {"guid": guid}), ("capture_plan_view", {}),
                            ("capture_elevation_view", {"view": "south"})):
        results = [_call(session, tool, arguments) for session in sessions]
        assert "error" not in results[0] and results[1] == results[0], tool


# --- the collector during and after a load ---

def _step_variant(kind: str) -> bytes:
    data = new_model(guid_seed=5).to_bytes()
    head, tail = data.rsplit(b"ENDSEC;", 1)
    first = next(line for line in data.splitlines() if line.startswith(b"#1="))
    return {
        "ok": data,
        "syntax": head + b"#900=IFCWALL(@);\nENDSEC;" + tail,
        "duplicate": head + first + b"\nENDSEC;" + tail,
        "dangling": head + b"#900=IFCWALL(#901);\nENDSEC;" + tail,
        "shared_guid": shared_guid_step()[0],
    }[kind]


@pytest.fixture
def collector_state():
    """Switch the collector back on after a test that turns it off."""
    yield
    gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("kind,error", [
    ("ok", None), ("syntax", StepSyntaxError), ("duplicate", DuplicateId),
    ("dangling", DanglingRef), ("shared_guid", DuplicateGuid)])
def test_load_restores_the_collector_state(collector_state, kind, error, enabled):
    data = _step_variant(kind)
    (gc.enable if enabled else gc.disable)()
    frozen = gc.get_freeze_count()
    if error is None:
        assert load_model(data).entities
    else:
        with pytest.raises(error):
            load_model(data)
        # a failed load freezes nothing
        assert gc.get_freeze_count() <= frozen
    assert gc.isenabled() is enabled


def test_concurrent_loads_leave_the_collector_on(collector_state):
    data = _step_variant("ok")
    failures = []

    def worker():
        try:
            for _ in range(25):
                load_model(data)
        except Exception as exc:  # reported below; a thread cannot raise into the test
            failures.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert gc.isenabled()


def _trace_bytes(trace: str) -> bytes:
    session = Session(new_model(guid_seed=59))
    run_trace(session, json.loads((TRACES / f"{trace}.json").read_text()))
    return session.model.to_bytes()


@pytest.mark.parametrize("source", ["tricky", "l_building", "semantic_edits"])
def test_loaded_graph_is_acyclic(collector_state, source):
    data = (FIXTURES / "tricky.ifc").read_bytes() if source == "tricky" \
        else _trace_bytes(source)
    gc.unfreeze()
    gc.collect()
    gc.disable()  # no automatic pass may free a cycle before the check
    model = load_model(data)
    gc.unfreeze()  # hand the frozen graph back to the collector
    dropped = weakref.ref(model)
    del model
    assert dropped() is None, "reference counting alone frees the model"
    assert gc.collect() == 0


def test_freezing_keeps_nothing_across_sessions(tmp_path):
    path = str(tmp_path / "model.ifc")
    load_model(_trace_bytes("l_building")).save(path)

    counts, sizes = [], []
    for cycle in range(20):
        session = Session(open_model(path))
        guid = _call(session, "create_wall", {"start": [0, cycle], "end": [4, cycle],
                                              "height": 3.0, "thickness": 0.2})["guid"]
        _call(session, "add_property_set", {"guid": guid, "pset_name": "P",
                                            "properties": {"cycle": cycle}})
        # delete the newest wall but the one just made: from the second
        # cycle on, every saved file has the same number of entities
        walls = sorted(session.model.by_class["IFCWALL"])
        assert "removed" in _call(session, "delete_element",
                                  {"guid": session.model.guid_of(walls[-2])})
        session.model.save(path)
        counts.append(gc.get_freeze_count())
        sizes.append(len(session.model.entities))
    assert sizes[1:] == [sizes[1]] * 19
    # each loaded model here freezes about a thousand objects, so keeping
    # one alive per cycle would exceed the slack many times over
    slack = 20
    assert counts[19] <= counts[1] + slack, counts
