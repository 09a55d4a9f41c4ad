from __future__ import annotations

import pytest
from hypothesis import settings

from ifcmcp import builders
from ifcmcp.model import IfcModel, load_model, new_model

# more examples in CI (--hypothesis-profile=ci) for the properties that
# leave max_examples to the profile: the STEP round trip, record path and
# real formatting properties, the index rebuild property, the record order
# property, the shared attribute tuple property and the query fuzzing
# property (test_every_query_gets_one_reply_and_leaves_a_saveable_model);
# the others fix their own count
settings.register_profile("ci", max_examples=500)

SQUARE_WALLS = [
    ((0, 0), (10, 0)),
    ((10, 0), (10, 10)),
    ((10, 10), (0, 10)),
    ((0, 10), (0, 0)),
]

L_OUTLINE = [(0, 0), (10, 0), (10, 5), (5, 5), (5, 10), (0, 10)]


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
