from __future__ import annotations

import gc
import hashlib
import json
import re
import tracemalloc
from xml.etree import ElementTree

import pytest

from ifcmcp import builders, measure, scene, snapshot
from ifcmcp.errors import EmptyModel, UnknownGuid
from ifcmcp.geometry import checked_polygon, prism_mesh
from ifcmcp.model import IfcModel, add_storey, new_model
from ifcmcp.service import Session, handle_request

from conftest import SQUARE_WALLS, build_l_building


SVG = "{http://www.w3.org/2000/svg}"


def ids_in_svg(svg: str) -> list[str]:
    return re.findall(r'id="([^"]+)"', svg)


def test_four_wall_plan_viewbox_and_rects(four_wall_model):
    svg = snapshot.render_plan(four_wall_model)
    # walls trace a 10x10 square; 1 m margin both sides at 50 px/m
    assert 'viewBox="0 0 600.00 600.00"' in svg
    wall_guids = {four_wall_model.guid_of(w)
                  for w in four_wall_model.by_class["IFCWALL"]}
    assert set(ids_in_svg(svg)) == wall_guids
    assert svg.count(f'fill="{snapshot._WALL_FILL}"') == 4


def test_plan_deterministic(l_building):
    model, _ = l_building
    assert snapshot.render_plan(model) == snapshot.render_plan(model)


def test_plan_one_id_per_cut_product(l_building):
    model, handles = l_building
    svg = snapshot.render_plan(model)
    ids = ids_in_svg(svg)
    assert len(ids) == len(set(ids))
    for wall in handles["walls"]:
        assert ids.count(wall) == 1
    # door glyph present once; roof sits above the cut plane
    assert ids.count(handles["door"]) == 1
    assert handles["roof"] not in ids
    # ground slab belongs to the storey and is outlined
    assert ids.count(handles["slab_ground"]) == 1


def test_plan_door_leaves_gap_glyph(l_building):
    model, _ = l_building
    svg = snapshot.render_plan(model)
    assert svg.count('fill="#ffffff"') == 1  # one opening gap
    assert " A" in svg  # door swing arc


def test_plan_window_glyph(four_wall_model):
    model = four_wall_model
    wall_guid = model.guid_of(sorted(model.by_class["IFCWALL"])[0])
    window, _ = builders.create_window(model, wall_guid=wall_guid,
                                       position_along_axis=5.0)
    svg = snapshot.render_plan(model)
    assert ids_in_svg(svg).count(window) == 1
    assert svg.count("<line") >= 3


def test_plan_empty_model(fresh_model):
    with pytest.raises(EmptyModel):
        snapshot.render_plan(fresh_model)


def test_plan_cut_height_excludes_low_walls(fresh_model):
    builders.create_wall(fresh_model, (0, 0), (5, 0), 1.0, 0.2)  # 1 m parapet
    svg = snapshot.render_plan(fresh_model, cut_height=0.5)
    assert len(ids_in_svg(svg)) == 1
    with pytest.raises(EmptyModel):
        snapshot.render_plan(fresh_model, cut_height=1.5)


def test_elevation_single_wall_rect(fresh_model):
    guid = builders.create_wall(fresh_model, (0, 0), (10, 0), 3.5, 0.25)
    svg = snapshot.render_elevation(fresh_model, "south")
    assert ids_in_svg(svg) == [guid]
    # 10 m x 3.5 m face at 50 px/m inside a 1 m margin
    assert 'viewBox="0 0 600.00 275.00"' in svg
    xs = [float(x) for x in re.findall(r"M([\d.]+),", svg)]
    assert xs  # face paths exist
    numbers = [float(v) for pair in
               re.findall(r"([\d.]+),([\d.]+)", svg) for v in pair]
    assert max(numbers) <= 600.0


def test_elevation_painter_order(fresh_model):
    near = builders.create_wall(fresh_model, (0, 1), (10, 1), 3.0, 0.25)
    far = builders.create_wall(fresh_model, (0, 8), (10, 8), 3.0, 0.25)
    svg = snapshot.render_elevation(fresh_model, "south")
    assert svg.index(f'id="{far}"') < svg.index(f'id="{near}"')
    svg_north = snapshot.render_elevation(fresh_model, "north")
    assert svg_north.index(f'id="{near}"') < svg_north.index(f'id="{far}"')


def test_elevation_includes_roof_silhouette(l_building):
    model, handles = l_building
    svg = snapshot.render_elevation(model, "south")
    assert handles["roof"] in ids_in_svg(svg)


def test_elevation_deterministic(l_building):
    model, _ = l_building
    for view in ("north", "south", "east", "west"):
        assert snapshot.render_elevation(model, view) == \
            snapshot.render_elevation(model, view)


# sha256 of each view of _every_body_kind_model(), recorded before the
# renderer worked one product at a time
_ELEVATION_SHA256 = {
    "north": "10aae3bbbd503015568d1471a01fe440d0bd9c481379a5100b7c1b0ab82dd931",
    "south": "c2862f4f56412028ac27e307c9697ce3fe5e85ea01d8d57a81e66f30c5bf60c5",
    "east": "99870ac83fbfbc60de449f7118a0f6d58789242b21390804a4e8bb09cf208849",
    "west": "137889b8ba238faf053c3ce22e069222f89fa1a7075f74bc23e265e8a3e3970f",
}


def _every_body_kind_model():
    """The L building (rectangle walls, polygon slabs extruded downward, a
    brep roof, a door) plus a window, a triangular slab and a mesh element."""
    model, handles = build_l_building()
    builders.create_window(model, wall_guid=handles["walls"][1], position_along_axis=2.0)
    builders.create_slab(model, [(6, 6), (9, 6), (8, 9)], 0.2, elevation=1.0)
    table = prism_mesh(checked_polygon([(1, 1), (2.5, 1), (2, 2), (1, 1.5)]), 0.8)
    builders.create_mesh_element(model, "IFCFURNISHINGELEMENT", table, "Table")
    return model


def test_elevation_bytes_are_pinned():
    model = _every_body_kind_model()
    digests = {view: hashlib.sha256(snapshot.render_elevation(model, view).encode()).hexdigest()
               for view in _ELEVATION_SHA256}
    assert digests == _ELEVATION_SHA256


def _four_walls_and_rect_slab():
    """Four kit walls round a square and a slab whose outline is an
    axis-aligned rectangle, so it is written as IFCRECTANGLEPROFILEDEF."""
    model = new_model("My Project", guid_seed=1234)
    for start, end in SQUARE_WALLS:
        builders.create_wall(model, start, end, 3.0, 0.25)
    builders.create_slab(model, [(1, 2), (9, 2), (9, 8), (1, 8)], 0.2)
    return model


# sha256 of render_plan for each model, recorded before the plan's slab
# outline was read the same way for rectangle and polygon profiles
_PLAN_SHA256 = {
    "every_body_kind": "c0e33387502bae160a8d39d5fa2753c07998b5ec0ae294810eaee596aa04cb4c",
    "four_walls_and_rect_slab": "6763802e63cd02388820f60d33e1091d22e3657bfdc622ed59bf8d6939bfbe93",
}


def test_plan_bytes_are_pinned():
    models = {"every_body_kind": _every_body_kind_model(),
              "four_walls_and_rect_slab": _four_walls_and_rect_slab()}
    assert models["four_walls_and_rect_slab"].by_class["IFCRECTANGLEPROFILEDEF"]
    digests = {name: hashlib.sha256(snapshot.render_plan(model).encode()).hexdigest()
               for name, model in models.items()}
    assert digests == _PLAN_SHA256


def _every_body_kind_model_with_level_2():
    """``_every_body_kind_model()`` plus a storey at 3.5 m holding a wall
    and a slab of its own."""
    model = _every_body_kind_model()
    level_2 = model.guid_of(add_storey(model, "Level 2", 3.5))
    builders.create_wall(model, (0, 0), (10, 0), 3.0, 0.25, storey=level_2)
    builders.create_slab(model, [(0, 0), (10, 0), (10, 5), (0, 5)], 0.2,
                         elevation=3.5, storey=level_2)
    return model, level_2


# sha256 of the render_plan branches that the pins above leave out, recorded
# before meshes were built unchecked: an explicit storey, and a cut at 0.5 m
# that crosses the 0.8 m mesh-element table (a generic product)
_PLAN_BRANCH_SHA256 = {
    "level_2": "e212edff9a81265d4806c4078236a9b0a801b632482cd6d6cd4af883d9838f58",
    "cut_at_half_a_metre": "6ef8606d06a742f1ae99078a37e4da2a46def510322df82ec2875db9daddacf8",
}


def test_plan_branches_are_pinned():
    model, level_2 = _every_body_kind_model_with_level_2()
    svgs = {"level_2": snapshot.render_plan(model, storey_guid=level_2),
            "cut_at_half_a_metre": snapshot.render_plan(_every_body_kind_model(),
                                                        cut_height=0.5)}
    assert svgs["cut_at_half_a_metre"].count('stroke="#808080" stroke-width="1.00"') == 1
    digests = {name: hashlib.sha256(svg.encode()).hexdigest() for name, svg in svgs.items()}
    assert digests == _PLAN_BRANCH_SHA256
    with pytest.raises(UnknownGuid):
        snapshot.render_plan(model, storey_guid=model.guid_of(model.by_class["IFCWALL"][0]))


def test_plan_and_overview_read_each_product_once(four_wall_model, monkeypatch):
    model = four_wall_model
    builders.create_door(model, wall_guid=model.guid_of(model.by_class["IFCWALL"][0]),
                         position_along_axis=5.0)
    builders.create_slab(model, [(0, 0), (10, 0), (10, 10), (0, 10)], 0.2)
    builders.create_mesh_element(model, "IFCCOLUMN",
                                 prism_mesh(checked_polygon([(4, 4), (5, 4), (5, 5), (4, 5)]), 3.0),
                                 "Column")
    counts = {"body_of": 0, "resolve_placement": 0}

    def counted(name, function):
        def wrapper(*args):
            counts[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(measure, "body_of", counted("body_of", measure.body_of))
    monkeypatch.setattr(IfcModel, "resolve_placement",
                        counted("resolve_placement", IfcModel.resolve_placement))
    svg = snapshot.render_plan(model)
    assert 'fill="#ffffff"' in svg and "Column" in svg  # the door's gap; the generic box
    # 4 walls, the storey's slab, the column and the door's opening; the
    # door itself is drawn from its opening
    assert counts == {"body_of": 7, "resolve_placement": 7}
    counts.update(body_of=0, resolve_placement=0)
    overview = scene.get_ifc_scene_overview(model)
    assert overview["total_floor_area"] == 100.0
    # every product: 4 walls, the door, the slab and the column
    assert overview["product_count"] == 7
    assert counts == {"body_of": 7, "resolve_placement": 7}


def test_elevation_memory_stays_near_the_size_of_its_svg():
    # 200 kit walls, half of them askew. Each product's mesh is dropped once
    # read and each painted face kept as six floats, which measures 5.4x the
    # SVG; holding every mesh until the last face is painted measures 13.5x
    model = new_model("My Project", guid_seed=5)
    for i in range(20):
        for j in range(10):
            skew = 0.5 if (i + j) % 2 else 0.0
            builders.create_wall(model, (i * 3.0, j * 2.0), (i * 3.0 + 2.5, j * 2.0 + skew),
                                 3.0, 0.2)
    snapshot.render_elevation(model, "south")  # one-time allocations stay outside the trace
    gc.collect()
    tracemalloc.start()
    try:
        svg = snapshot.render_elevation(model, "south")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * len(svg)


def test_names_and_ids_are_escaped_in_both_views():
    # a raw "<" or "&" in a <title> made the SVG not well-formed XML, and so
    # did U+0001, which XML 1.0 forbids even escaped; a product without a
    # GlobalId was written as id="None"
    model = new_model(guid_seed=5)
    wall = builders.create_wall(model, (0, 0), (5, 0), 3.0, 0.2, name='Wall <A> & "B"')
    control = builders.create_wall(model, (0, 2), (5, 2), 3.0, 0.2, name="a\u0001b")
    door, _opening = builders.create_door(model, wall_guid=wall, position_along_axis=1.0,
                                          name="D&1")
    builders.create_slab(model, [(0, 0), (5, 0), (5, 4), (0, 4)], 0.2, name="<slab>")
    bare = builders.create_wall(model, (0, 4), (5, 4), 3.0, 0.2, name="bare")
    bare_wall = model.require_guid(bare)
    bare_wall.attributes = (None,) + bare_wall.attributes[1:]
    session = Session(model)
    for number, (tool, arguments) in enumerate(
            [("capture_plan_view", {}), ("capture_elevation_view", {"view": "south"})]):
        reply = handle_request(session, json.dumps({
            "jsonrpc": "2.0", "id": number, "method": "tools/call",
            "params": {"name": tool, "arguments": arguments}}))
        svg = json.loads(reply["result"]["content"][0]["text"])["svg"]
        root = ElementTree.fromstring(svg)
        titles = {}
        for parent in root.iter():
            title = parent.find(f"{SVG}title")
            if title is not None:
                titles[title.text] = parent.get("id") or parent.find(f"{SVG}path").get("id")
        assert titles['Wall <A> & "B"'] == wall
        assert titles["a\ufffdb"] == control
        assert titles["D&1"] == door
        assert titles["bare"] is None
        assert "None" not in svg
        assert titles["<slab>"] is not None


def test_elevation_empty(fresh_model):
    with pytest.raises(EmptyModel):
        snapshot.render_elevation(fresh_model, "south")


def test_svg_subset_only(l_building):
    model, _ = l_building
    for svg in (snapshot.render_plan(model),
                snapshot.render_elevation(model, "east")):
        tags = set(re.findall(r"<([a-zA-Z]+)[ >]", svg))
        assert tags <= {"svg", "g", "path", "line", "rect", "title"}
