from __future__ import annotations

import json

import pytest

from ifcmcp import builders, scene
from ifcmcp.errors import NotADoor, UnknownGuid
from ifcmcp.model import IfcModel, delete_element, edit_attributes


def test_listing_shape_fresh_plus_four_walls(four_wall_model):
    info = scene.get_scene_info(four_wall_model)
    assert list(info.keys()) == ["count", "total", "offset", "limit", "objects"]
    assert info["count"] == 9
    assert info["total"] == 9
    assert info["offset"] == 0
    assert info["limit"] == 9
    first = info["objects"][0]
    assert list(first.keys()) == ["name", "type", "location", "visible",
                                  "selected", "guid", "ifc_class"]
    assert first["ifc_class"] == "IfcProject"
    assert first["name"] == "IfcProject/My Project"
    assert first["type"] == "EMPTY"
    assert first["location"] == [0.0, 0.0, 0.0]
    assert first["visible"] is True
    assert first["selected"] is False
    # spatial chain first, then walls in creation order, then the type object
    classes = [o["ifc_class"] for o in info["objects"]]
    assert classes == ["IfcProject", "IfcSite", "IfcBuilding",
                       "IfcBuildingStorey", "IfcWall", "IfcWall", "IfcWall",
                       "IfcWall", "IfcWallType"]
    walls = [o for o in info["objects"] if o["ifc_class"] == "IfcWall"]
    assert [w["location"] for w in walls] == [
        [0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [10.0, 10.0, 0.0], [0.0, 10.0, 0.0]]
    assert all(w["type"] == "MESH" for w in walls)
    wall_type = info["objects"][-1]
    assert wall_type["name"] == "IfcWallType/wall"
    assert wall_type["visible"] is False
    assert wall_type["type"] == "EMPTY"


def test_pagination_arithmetic(four_wall_model):
    page = scene.get_scene_info(four_wall_model, offset=7, limit=5)
    assert page["count"] == 2
    assert page["total"] == 9
    assert page["offset"] == 7
    assert page["limit"] == 5
    assert page["count"] == min(page["limit"], page["total"] - page["offset"])


def test_pagination_concat_equals_full(four_wall_model):
    full = scene.get_scene_info(four_wall_model)["objects"]
    pieces = []
    for offset in range(0, 9, 2):
        pieces.extend(scene.get_scene_info(four_wall_model, offset=offset,
                                           limit=2)["objects"])
    assert pieces == full


def test_pagination_out_of_range(four_wall_model):
    page = scene.get_scene_info(four_wall_model, offset=99, limit=5)
    assert page["count"] == 0
    assert page["objects"] == []


def test_empty_fresh_model_total_four(fresh_model):
    assert scene.get_scene_info(fresh_model)["total"] == 4


def test_object_info_wall_bbox(fresh_model):
    guid = builders.create_wall(fresh_model, (0, 0), (10, 0), 3.5, 0.25)
    info = scene.get_object_info(fresh_model, guid)
    assert info["bounding_box"]["size"] == [10.0, 0.25, 3.5]


def test_object_info_unknown(fresh_model):
    with pytest.raises(UnknownGuid):
        scene.get_object_info(fresh_model, "0" * 22)


def test_object_info_building_description(fresh_model):
    guid = fresh_model.guid_of(fresh_model.building_id)
    edit_attributes(fresh_model, guid,
                    {"Description": "High-rise residential tower"})
    assert scene.get_object_info(fresh_model, guid)["description"] == \
        "High-rise residential tower"


def test_overview_counts_l_building(l_building):
    model, _ = l_building
    overview = scene.get_ifc_scene_overview(model)
    assert overview["class_counts"]["IfcWall"] == 6
    assert overview["class_counts"]["IfcSlab"] == 2
    assert overview["class_counts"]["IfcDoor"] == 1
    assert overview["class_counts"]["IfcRoof"] == 1
    assert overview["total_floor_area"] == pytest.approx(150.0)
    assert overview["storeys"][0]["elevation"] == 0.0
    assert overview["spatial"]["project"]["name"] == "My Project"


def test_overview_empty_model(fresh_model):
    overview = scene.get_ifc_scene_overview(fresh_model)
    assert overview["class_counts"] == {}
    assert overview["product_count"] == 0
    assert overview["total_floor_area"] == 0.0
    assert overview["bounding_box"] is None
    assert overview["guid_count"] == 4


def test_door_properties_defaults(l_building):
    model, handles = l_building
    props = scene.get_door_properties(model, handles["door"])
    assert props["width"] == pytest.approx(0.9)
    assert props["height"] == pytest.approx(2.1)
    assert props["host_wall"] == handles["walls"][0]
    assert props["storey"] == "My Storey"
    assert props["swing"] is None


def test_door_properties_not_a_door(four_wall_model):
    model = four_wall_model
    wall_guid = model.guid_of(sorted(model.by_class["IFCWALL"])[0])
    window, _ = builders.create_window(model, wall_guid=wall_guid,
                                       position_along_axis=5.0)
    with pytest.raises(NotADoor):
        scene.get_door_properties(model, window)


def test_door_gone_after_host_deleted(l_building):
    model, handles = l_building
    delete_element(model, handles["walls"][0])
    with pytest.raises(UnknownGuid):
        scene.get_door_properties(model, handles["door"])


def test_queries_are_pure(l_building):
    model, _ = l_building
    before = model.to_bytes()
    a = json.dumps(scene.get_scene_info(model))
    b = json.dumps(scene.get_scene_info(model))
    assert a == b
    c = json.dumps(scene.get_ifc_scene_overview(model))
    d = json.dumps(scene.get_ifc_scene_overview(model))
    assert c == d
    assert model.to_bytes() == before


def test_object_info_resolves_its_products_placement_once(four_wall_model, monkeypatch):
    resolved = []
    resolve = IfcModel.resolve_placement

    def counted(model, placement_id):
        resolved.append(placement_id)
        return resolve(model, placement_id)

    monkeypatch.setattr(IfcModel, "resolve_placement", counted)
    wall = four_wall_model.by_class["IFCWALL"][0]
    info = scene.get_object_info(four_wall_model, four_wall_model.guid_of(wall))
    assert info["bounding_box"]["size"] == [10.0, 0.25, 3.0]
    assert len(resolved) == 1
