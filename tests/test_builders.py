from __future__ import annotations

import math

import pytest

from ifcmcp import builders, measure, scene, schema, skeleton
from ifcmcp.dsl import eval_query, parse_query
from ifcmcp.errors import (
    ClassNotAllowed,
    DegeneratePolygon,
    InvalidParams,
    OpeningOutOfBounds,
    SkeletonFailure,
    UnknownStorey,
    WallsNotClosed,
)
from ifcmcp.geometry import checked_mesh, checked_polygon
from ifcmcp.model import add_storey, load_model, new_model

from conftest import L_OUTLINE, SQUARE_WALLS, signed_volume, world_box


def test_create_wall_basic(fresh_model):
    guid = builders.create_wall(fresh_model, (0, 0), (10, 0), 3.5, 0.25)
    info = scene.get_object_info(fresh_model, guid)
    assert info["placement"]["origin"] == [0.0, 0.0, 0.0]
    assert info["bounding_box"]["size"] == [10.0, 0.25, 3.5]
    assert info["relationships"]["contained_in"]["name"] == "My Storey"
    assert info["relationships"]["type"]["name"] == "wall"


def test_four_walls_reproduce_reference_locations(four_wall_model):
    info = scene.get_scene_info(four_wall_model)
    walls = [o for o in info["objects"] if o["ifc_class"] == "IfcWall"]
    assert [w["location"] for w in walls] == [
        [0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [10.0, 10.0, 0.0], [0.0, 10.0, 0.0]]
    assert [w["name"] for w in walls] == [
        "IfcWall/Wall_001", "IfcWall/Wall_002", "IfcWall/Wall_003",
        "IfcWall/Wall_004"]


def test_wall_invalid_params(fresh_model):
    with pytest.raises(InvalidParams):
        builders.create_wall(fresh_model, (0, 0), (10, 0), 0.0, 0.25)
    with pytest.raises(InvalidParams):
        builders.create_wall(fresh_model, (0, 0), (10, 0), 3.0, -1.0)
    with pytest.raises(InvalidParams):
        builders.create_wall(fresh_model, (1, 1), (1, 1), 3.0, 0.25)
    with pytest.raises(UnknownStorey):
        builders.create_wall(fresh_model, (0, 0), (1, 0), 1.0, 0.1,
                             storey="0" * 22)


def test_wall_chain_l_outline(fresh_model):
    guids = builders.create_wall_chain(fresh_model, L_OUTLINE, 3.5, 0.25,
                                       close=True)
    assert len(guids) == 6
    total = sum(
        measure.wall_axis(fresh_model, fresh_model.by_guid[g]).length
        for g in guids
    )
    perimeter = sum(math.dist(a, b) for a, b in checked_polygon(L_OUTLINE).edges())
    assert abs(total - perimeter) < 1e-9


def test_wall_chain_two_points(fresh_model):
    assert len(builders.create_wall_chain(fresh_model, [(0, 0), (5, 0)],
                                          3.0, 0.2)) == 1


def test_wall_chain_square_perimeter(fresh_model):
    pts = [(0, 0), (10, 0), (10, 10), (0, 10)]
    guids = builders.create_wall_chain(fresh_model, pts, 3.0, 0.25, close=True)
    total = sum(
        measure.wall_axis(fresh_model, fresh_model.by_guid[g]).length
        for g in guids
    )
    assert abs(total - 40.0) < 1e-9


def test_wall_chain_invalid(fresh_model):
    with pytest.raises(InvalidParams):
        builders.create_wall_chain(fresh_model, [(0, 0)], 3.0, 0.2)
    with pytest.raises(InvalidParams):
        builders.create_wall_chain(fresh_model, [(0, 0), (0, 0)], 3.0, 0.2)
    with pytest.raises(InvalidParams):
        builders.create_wall_chain(fresh_model, [(0, 0), (5, 0)], 3.0, 0.2,
                                   close=True)


def test_slab_area_and_elevation(fresh_model):
    guid = builders.create_slab(fresh_model, L_OUTLINE, 0.25, elevation=0.0)
    slab_id = fresh_model.by_guid[guid]
    assert measure.element_area(fresh_model, slab_id) == pytest.approx(75.0)
    box = world_box(fresh_model, slab_id)
    assert box[1].z == pytest.approx(0.0)   # top face at elevation
    assert box[0].z == pytest.approx(-0.25)


def test_second_storey_slab_contained_below(fresh_model):
    guid = builders.create_slab(fresh_model, L_OUTLINE, 0.25, elevation=3.5)
    info = scene.get_object_info(fresh_model, guid)
    assert info["relationships"]["contained_in"]["name"] == "My Storey"
    assert info["placement"]["origin"][2] == 3.5


def test_slab_upper_storey_when_present(fresh_model):
    add_storey(fresh_model, "Level 2", 3.5)
    guid = builders.create_slab(fresh_model, L_OUTLINE, 0.25, elevation=3.5)
    info = scene.get_object_info(fresh_model, guid)
    assert info["relationships"]["contained_in"]["name"] == "Level 2"
    box = world_box(fresh_model, fresh_model.by_guid[guid])
    assert box[1].z == pytest.approx(3.5)


def test_slab_degenerate_outline(fresh_model):
    with pytest.raises(DegeneratePolygon):
        builders.create_slab(fresh_model, [(0, 0), (1, 0)], 0.25)


def test_roof_hip_watertight(fresh_model):
    guid, warnings = builders.create_roof(fresh_model, L_OUTLINE, style="hip",
                                          slope_deg=30.0, base_z=7.0)
    assert warnings == []
    mesh = measure.world_mesh(fresh_model, fresh_model.by_guid[guid])
    assert mesh.is_watertight()
    assert min(v.z for v in mesh.vertices) == pytest.approx(7.0)


def test_roof_gable_on_rectangle(fresh_model):
    guid, warnings = builders.create_roof(fresh_model,
                                          [(0, 0), (10, 0), (10, 8), (0, 8)],
                                          style="gable", slope_deg=30.0,
                                          base_z=3.0)
    assert warnings == []
    inst = fresh_model.entities[fresh_model.by_guid[guid]]
    assert inst.attributes[8].name == "GABLE_ROOF"


def test_roof_gable_falls_back_to_hip(fresh_model):
    guid, warnings = builders.create_roof(fresh_model, L_OUTLINE,
                                          style="gable", slope_deg=30.0)
    assert any("hip" in w for w in warnings)
    inst = fresh_model.entities[fresh_model.by_guid[guid]]
    assert inst.attributes[8].name == "HIP_ROOF"


def test_roof_flat_volume(fresh_model):
    guid, _ = builders.create_roof(fresh_model, L_OUTLINE, style="flat")
    mesh = measure.world_mesh(fresh_model, fresh_model.by_guid[guid])
    assert signed_volume(mesh) == pytest.approx(75.0 * builders.FLAT_ROOF_THICKNESS)


def test_roof_hip_failure_falls_back_flat(fresh_model, monkeypatch):
    def boom(*args, **kwargs):
        raise SkeletonFailure("forced failure")

    monkeypatch.setattr(builders, "hip_roof_solid", boom)
    guid, warnings = builders.create_roof(fresh_model, L_OUTLINE, style="hip")
    assert any("flat" in w for w in warnings)
    inst = fresh_model.entities[fresh_model.by_guid[guid]]
    assert inst.attributes[8].name == "FLAT_ROOF"


def test_roof_over_walls_matches_direct_outline(four_wall_model):
    model = four_wall_model
    wall_guids = [model.guid_of(w) for w in sorted(model.by_class["IFCWALL"])]
    guid, _ = builders.create_roof_over_walls(model, wall_guids, style="hip",
                                              slope_deg=45.0)
    mesh = measure.world_mesh(model, model.by_guid[guid])
    direct = skeleton.hip_roof_solid(
        checked_polygon([(0, 0), (10, 0), (10, 10), (0, 10)]), 45.0, 3.0)
    assert min(v.z for v in mesh.vertices) == pytest.approx(3.0)  # wall top
    assert max(v.z for v in mesh.vertices) == pytest.approx(
        max(v.z for v in direct.vertices))
    assert signed_volume(mesh) == pytest.approx(signed_volume(direct))


def test_roof_over_walls_open_circuit(fresh_model):
    guids = [
        builders.create_wall(fresh_model, a, b, 3.0, 0.25)
        for a, b in SQUARE_WALLS[:3]
    ]
    with pytest.raises(WallsNotClosed):
        builders.create_roof_over_walls(fresh_model, guids)
    with pytest.raises(WallsNotClosed):
        builders.create_roof_over_walls(fresh_model, guids[:2])


def test_roof_over_walls_uses_tallest(fresh_model):
    guids = [builders.create_wall(fresh_model, a, b, h, 0.25)
             for (a, b), h in zip(SQUARE_WALLS, (3.0, 3.0, 4.0, 3.0))]
    guid, _ = builders.create_roof_over_walls(fresh_model, guids, style="flat")
    mesh = measure.world_mesh(fresh_model, fresh_model.by_guid[guid])
    assert min(v.z for v in mesh.vertices) == pytest.approx(4.0)


def test_door_defaults_and_relationships(four_wall_model):
    model = four_wall_model
    wall_guid = model.guid_of(sorted(model.by_class["IFCWALL"])[0])
    door, opening = builders.create_door(model, wall_guid=wall_guid,
                                         position_along_axis=2.0)
    props = scene.get_door_properties(model, door)
    assert props["width"] == pytest.approx(builders.DOOR_WIDTH)
    assert props["height"] == pytest.approx(builders.DOOR_HEIGHT)
    assert props["sill_height"] == pytest.approx(0.0)
    assert props["host_wall"] == wall_guid
    wall_info = scene.get_object_info(model, wall_guid)
    assert wall_info["relationships"]["openings"] == [opening]


def test_door_by_position_picks_nearest_wall(l_building):
    model, handles = l_building
    info = scene.get_object_info(model, handles["door"])
    assert info["relationships"]["host_wall"] == handles["walls"][0]
    # placed 2 m along the south wall
    assert info["placement"]["origin"][0] == pytest.approx(2.0)
    assert info["placement"]["origin"][1] == pytest.approx(0.0)


def test_door_by_position_in_a_wall_without_axis_is_invalid(fresh_model):
    # a mesh wall has no axis to project the position onto
    mesh = checked_mesh([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
                   [(0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3)])
    wall = builders.create_mesh_element(fresh_model, "IfcWall", mesh, "Mesh wall")
    before = fresh_model.to_bytes()
    for where in ({"position": (0.5, 0, 0)}, {"position_along_axis": 0.5}):
        with pytest.raises(InvalidParams, match="host wall has no axis profile"):
            builders.create_door(fresh_model, wall_guid=wall, **where)
    assert fresh_model.to_bytes() == before


def test_opening_out_of_bounds(four_wall_model):
    model = four_wall_model
    wall_guid = model.guid_of(sorted(model.by_class["IFCWALL"])[0])
    with pytest.raises(OpeningOutOfBounds):
        builders.create_door(model, wall_guid=wall_guid,
                             position_along_axis=9.9)  # 0.45 m past the end
    with pytest.raises(OpeningOutOfBounds):
        builders.create_window(model, wall_guid=wall_guid,
                               position_along_axis=5.0, sill_height=2.0)


def test_opening_inside_host_bbox(four_wall_model):
    model = four_wall_model
    wall_guid = model.guid_of(sorted(model.by_class["IFCWALL"])[0])
    door, opening = builders.create_door(model, wall_guid=wall_guid,
                                         position_along_axis=3.0)
    wall_box = world_box(model, model.by_guid[wall_guid])
    open_box = world_box(model, model.by_guid[opening])
    for axis in range(3):
        assert open_box[0][axis] >= wall_box[0][axis] - 1e-9
        assert open_box[1][axis] <= wall_box[1][axis] + 1e-9


def test_window_sill_honored(four_wall_model):
    model = four_wall_model
    wall_guid = model.guid_of(sorted(model.by_class["IFCWALL"])[0])
    window, opening = builders.create_window(model, wall_guid=wall_guid,
                                             position_along_axis=4.0)
    box = world_box(model, model.by_guid[opening])
    assert box[0].z == pytest.approx(builders.WINDOW_SILL)
    assert box[1].z == pytest.approx(builders.WINDOW_SILL + builders.WINDOW_HEIGHT)
    assert len(model.by_class["IFCWINDOW"]) == 1


def test_three_windows_counted(four_wall_model):
    model = four_wall_model
    wall_guid = model.guid_of(sorted(model.by_class["IFCWALL"])[0])
    for pos in (2.0, 5.0, 8.0):
        builders.create_window(model, wall_guid=wall_guid,
                               position_along_axis=pos)
    assert len(model.by_class["IFCWINDOW"]) == 3


def test_stairs_dimensions(fresh_model):
    guid = builders.create_stairs(fresh_model, (0, 0, 0), 0.0, total_rise=3.0,
                                  total_run=4.0, step_count=15, width=1.0)
    mesh = measure.world_mesh(fresh_model, fresh_model.by_guid[guid])
    assert mesh.is_watertight()
    lo, hi = mesh.bounds()
    assert hi.z - lo.z == pytest.approx(3.0)
    assert hi.x - lo.x == pytest.approx(4.0)
    assert hi.y - lo.y == pytest.approx(1.0)
    # riser 0.2 m: lowest tread top sits exactly one riser up
    zs = sorted({round(v.z, 9) for v in mesh.vertices})
    assert zs[1] == pytest.approx(3.0 / 15)


def test_stairs_rotated(fresh_model):
    guid = builders.create_stairs(fresh_model, (1, 1, 0), 90.0, total_rise=3.0,
                                  total_run=4.0, step_count=10, width=1.0)
    lo, hi = world_box(fresh_model, fresh_model.by_guid[guid])
    assert hi.y - lo.y == pytest.approx(4.0)  # run now along +y
    assert hi.x - lo.x == pytest.approx(1.0)


def test_stairs_invalid(fresh_model):
    with pytest.raises(InvalidParams):
        builders.create_stairs(fresh_model, (0, 0, 0), 0.0, 3.0, 4.0, 1, 1.0)
    with pytest.raises(InvalidParams):
        builders.create_stairs(fresh_model, (0, 0, 0), 0.0, -3.0, 4.0, 5, 1.0)


def test_mesh_element_allowlist(fresh_model):
    tetra = checked_mesh(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)],
    )
    guid = builders.create_mesh_element(fresh_model, "IfcFurnishingElement",
                                        tetra, "Table")
    info = scene.get_scene_info(fresh_model)
    row = [o for o in info["objects"] if o["guid"] == guid][0]
    assert row["type"] == "MESH"
    assert row["ifc_class"] == "IfcFurnishingElement"
    with pytest.raises(ClassNotAllowed):
        builders.create_mesh_element(fresh_model, "IFCPROJECT", tetra, "X")


def test_mesh_element_round_trips(fresh_model):
    tetra = checked_mesh(
        [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)],
        [(0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)],
    )
    guid = builders.create_mesh_element(fresh_model, "IFCBUILDINGELEMENTPROXY",
                                        tetra, "Arch")
    reloaded = load_model(fresh_model.to_bytes())
    mesh = measure.world_mesh(reloaded, reloaded.by_guid[guid])
    assert signed_volume(mesh) == pytest.approx(signed_volume(tetra))


def test_creation_ops_round_trip_scene(l_building):
    model, _ = l_building
    reloaded = load_model(model.to_bytes())
    assert scene.get_scene_info(reloaded) == scene.get_scene_info(model)


def test_every_guid_resolvable(l_building):
    model, handles = l_building
    builders.create_window(model, wall_guid=handles["walls"][1],
                           position_along_axis=2.0)
    builders.create_stairs(model, (1, 1, 0), 0.0, 3.0, 4.0, 10, 1.0)
    builders.create_mesh_element(
        model, "IFCFURNISHINGELEMENT",
        checked_mesh([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
                [(0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)]),
        "Table")
    info = scene.get_scene_info(model)
    for row in info["objects"]:
        assert scene.get_object_info(model, row["guid"])["guid"] == row["guid"]


def test_auto_naming_sequence(fresh_model):
    g1 = builders.create_wall(fresh_model, (0, 0), (1, 0), 1.0, 0.1)
    g2 = builders.create_wall(fresh_model, (0, 1), (1, 1), 1.0, 0.1)
    names = [scene.get_object_info(fresh_model, g)["name"] for g in (g1, g2)]
    assert names == ["Wall_001", "Wall_002"]
    reloaded = load_model(fresh_model.to_bytes())
    g3 = builders.create_wall(reloaded, (0, 2), (1, 2), 1.0, 0.1)
    assert scene.get_object_info(reloaded, g3)["name"] == "Wall_003"


def test_every_product_class_has_an_attribute_layout():
    assert schema.PRODUCT_CLASSES <= schema.ATTRIBUTES.keys()
    assert set(schema.WALL_CLASSES) <= schema.PRODUCT_CLASSES


def _standard_case_walls():
    """A kit wall read back as IfcWallStandardCase, the usual IFC2x3 wall."""
    model = new_model(guid_seed=12)
    builders.create_wall(model, (2, 1), (8, 1), 3.0, 0.2, name="South")
    data = model.to_bytes().replace(b"=IFCWALL(", b"=IFCWALLSTANDARDCASE(")
    model = load_model(data, guid_seed=13)
    assert not model.by_class.get("IFCWALL")
    (wall_id,) = model.by_class["IFCWALLSTANDARDCASE"]
    return model, model.guid_of(wall_id)


def test_wall_standard_case_reads_like_a_wall():
    model, wall = _standard_case_walls()
    info = scene.get_object_info(model, wall)
    assert info["ifc_class"] == "IfcWallStandardCase"
    assert info["name"] == "South"
    assert info["placement"]["origin"] == [2.0, 1.0, 0.0]
    assert info["bounding_box"]["size"] == [6.0, 0.2, 3.0]
    result, _log, _changed = eval_query(model, parse_query("walls | list(length)"))
    assert result == [6.0]


@pytest.mark.parametrize("placement", [{"position": (5, 1)}, "wall_guid"])
def test_door_in_wall_standard_case(placement):
    model, wall = _standard_case_walls()
    if placement == "wall_guid":
        placement = {"wall_guid": wall, "position_along_axis": 3.0}
    door, _opening = builders.create_door(model, **placement)
    props = scene.get_door_properties(model, door)
    assert props["host_wall"] == wall
    assert scene.get_object_info(model, door)["placement"]["origin"] == [5.0, 1.0, 0.0]
