from __future__ import annotations

import pytest
from hypothesis import settings

from ifcmcp import builders, measure
from ifcmcp.model import IfcModel, load_model, new_model

# more examples in CI (--hypothesis-profile=ci) for the properties that
# leave max_examples to the profile: the STEP round trip, record path and
# real formatting properties, the edited-records property
# (test_edited_records_read_alike_on_both_paths_property), the escape
# property (test_escapes_read_alike_on_both_paths_or_fail_as_syntax_errors_property), the index
# rebuild property, the record order property, the shared attribute tuple
# property, the query fuzzing property
# (test_every_query_gets_one_reply_and_leaves_a_saveable_model), the two
# delete properties (test_delete_matches_the_whole_graph_sweep and
# test_deletes_among_foreign_records_leave_a_saveable_model), the
# placement-slot property
# (test_any_value_in_a_placement_slot_is_a_frame_or_an_in_band_error) and the
# mesh parity properties (test_checked_mesh_answers_as_every_mesh_was_checked,
# test_prism_mesh_answers_as_every_mesh_was_checked and
# test_tools_answer_as_when_every_mesh_was_checked), the frame parity property
# (test_world_frames_equal_the_checked_composition), the body frame property
# (test_a_rotation_in_the_solids_measures_as_one_in_the_placements), the wall
# frame property (test_a_door_is_placed_and_drawn_where_its_walls_axis_frame_puts_it),
# the polygon property (test_any_finite_points_give_a_polygon_or_a_degenerate_polygon),
# the rectangle parity property
# (test_a_rectangle_decodes_to_the_checked_polygons_verdict) and the
# create-tool admission property
# (test_a_create_call_is_refused_unwritten_or_reads_back_as_admitted) and the
# deferred-record parity property
# (test_a_rewritten_deferrable_record_opens_as_the_token_path_reads_it_property);
# the others fix their own count
settings.register_profile("ci", max_examples=500)

SQUARE_WALLS = [
    ((0, 0), (10, 0)),
    ((10, 0), (10, 10)),
    ((10, 10), (0, 10)),
    ((0, 10), (0, 0)),
]

L_OUTLINE = [(0, 0), (10, 0), (10, 5), (5, 5), (5, 10), (0, 10)]


def world_box(model, entity_id):
    """``measure.world_bbox`` of a product at its own ``placement_of``."""
    return measure.world_bbox(model, entity_id, model.placement_of(entity_id))


def signed_volume(mesh) -> float:
    """Volume a closed mesh encloses, by the divergence theorem; positive
    when its faces wind outward."""
    total = 0.0
    for a, b, c in mesh.faces:
        p, q, r = mesh.vertices[a], mesh.vertices[b], mesh.vertices[c]
        total += (p.x * (q.y * r.z - q.z * r.y)
                  - p.y * (q.x * r.z - q.z * r.x)
                  + p.z * (q.x * r.y - q.y * r.x))
    return total / 6.0


def two_wall_step() -> bytes:
    """STEP text of two kit walls of one size on the default storey."""
    model = new_model("My Project", guid_seed=71)
    builders.create_wall(model, (0, 0), (4, 0), 3.0, 0.2)
    builders.create_wall(model, (0, 2), (4, 2), 3.0, 0.2)
    return model.to_bytes()


def shared_guid_step() -> tuple[bytes, str, tuple[int, int]]:
    """``two_wall_step`` with the second wall given the first's GlobalId;
    also returns that GlobalId and the two wall ids."""
    model = load_model(two_wall_step())
    first, second = sorted(model.by_class["IFCWALL"])
    guid, other = model.guid_of(first), model.guid_of(second)
    data = model.to_bytes()
    assert data.count(other.encode()) == 1
    return data.replace(other.encode(), guid.encode()), guid, (first, second)


@pytest.fixture
def fresh_model() -> IfcModel:
    return new_model("My Project", guid_seed=1234)


@pytest.fixture
def four_wall_model() -> IfcModel:
    model = new_model("My Project", guid_seed=1234)
    for start, end in SQUARE_WALLS:
        builders.create_wall(model, start, end, 3.0, 0.25)
    return model


def build_l_building(seed: int = 77) -> tuple[IfcModel, dict]:
    """The multi-step L-shaped building: slabs, walls, door, hip roof."""
    model = new_model("My Project", guid_seed=seed)
    handles: dict = {}
    handles["slab_ground"] = builders.create_slab(model, L_OUTLINE, 0.25,
                                                  elevation=0.0)
    handles["walls"] = builders.create_wall_chain(model, L_OUTLINE, 3.5, 0.25,
                                                  close=True)
    handles["door"], handles["opening"] = builders.create_door(
        model, position=(2, 0, 0))
    handles["slab_upper"] = builders.create_slab(model, L_OUTLINE, 0.25,
                                                 elevation=3.5)
    handles["roof"], handles["roof_warnings"] = builders.create_roof(
        model, L_OUTLINE, style="hip", slope_deg=30.0, base_z=7.0)
    return model, handles


@pytest.fixture
def l_building() -> tuple[IfcModel, dict]:
    return build_l_building()
