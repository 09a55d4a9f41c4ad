"""Seeded generator for the three benchmark workloads.

Everything here is pure Python and never imports ``ifcmcp``: a workload is
a list of tool calls, each carrying the outcome the generator expects, plus
the recipe of the IFC file the workload starts from.

A call is a dict::

    {"tool": "create_door", "args": {...}, "group": "create",
     "expect": "ok", "checks": [["eq", "guid", "$3.guids.0"], ...]}

``expect`` is ``"ok"``, ``"invalid_params"`` (JSON-RPC -32602) or the type
name of an in-band ``isError`` result such as ``"UnknownGuid"``. String
arguments and check values of the form ``$N.path`` refer to field ``path``
of the result of call ``N`` (1-based) of the same session, as the replay
traces of ``ifcmcp replay`` do. ``group`` is the latency bucket: the
service's tool group, except that a mutating ``execute_ifc_query`` counts
as ``edit``.

Check kinds (all evaluated on the decoded result payload):

- ``["eq", path, value]``: equal after reference substitution;
- ``["approx", path, number]``: equal within 1e-6 relative;
- ``["len", path, n]``: a list or string of length ``n``;
- ``["gt", path, number]``: strictly greater;
- ``["plan_walls", guids]``: the plan SVG has exactly one wall group per
  GUID in ``guids`` (a list of GUIDs or ``$N.guids`` references);
- ``["svg_groups", n]``: the SVG has ``n`` element groups.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

STOREY_HEIGHT = 3.0
WALL_HEIGHT = 3.0
WALL_THICKNESS = 0.2
SLAB_THICKNESS = 0.2
ROOM_PITCH = 6.0
DOOR_WIDTH = 0.9
CLASSIFICATION_SYSTEM = "Uniclass 2015"
CLASS_CODES = ("Ss_25_10_20", "Ss_25_10_30", "Ss_30_10_30", "Pr_20_85_08")
FIRE_RATINGS = ("EI30", "EI60", "EI90", "REI120")
WALL_PSET = "Pset_WallCommon"
STOREY_NAMES = ("Level 1", "Level 2", "Level 3", "Level 4")
COST_QUERY = (f'walls | filter(pset("{WALL_PSET}").Cost > 0) '
              f'| sum(pset("{WALL_PSET}").Cost)')

# Questions an LLM client asks the documentation store while it works, with
# the document of docs/knowledge that answers each one.
KNOWLEDGE_QUERIES = {
    "how do I create a hip roof over walls": "tool_usage.md",
    "Pset_WallCommon FireRating property": "property_sets.md",
    "IfcDoor opening in a wall": "ifc_classes.md",
    "STEP file entity instance syntax": "step_format.md",
    "slab elevation thickness extrude": "tool_usage.md",
    "classification reference Uniclass": "property_sets.md",
    "execute_ifc_query filter count sum": "tool_usage.md",
    "window sill height default": "tool_usage.md",
    "IfcRelContainedInSpatialStructure storey": "ifc_classes.md",
    "property set merge existing values": "property_sets.md",
}

WORKLOADS = ("author", "browse", "revise")

# Each workload sends the call kinds its description in README.md names. No
# measured client traffic gives their shares, so each named kind gets an
# equal one.
# point lookups of a browse pass
BROWSE_LOOKUPS = ("info", "door", "page", "count", "search")
# edits of a revise session; each pset merge is read back, as author reads
# back each room it builds
REVISE_EDITS = ("describe", "new_pset", "merge_pset", "classify", "owner")
# a schema-invalid call before one room in seven: about 2% of author's calls
INVALID_EVERY = 7
# edit calls naming an unknown GUID, per revise edit: about 2% of its calls
UNKNOWN_GUID_SHARE = 0.02


@dataclass(frozen=True)
class Scale:
    """Sizes of one workload run; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    storeys: int
    author_rooms: int          # rooms per storey grown by ``author``
    start_rooms: int           # rooms per storey in the browse/revise start file
    browse_pass_lookups: int   # point lookups per browse pass
    revise_sessions: int       # edit sessions per revise run
    revise_edits: int          # edit calls per revise session
    setup_repeats: int         # extra fresh-process set-ups measured per run


FULL = Scale(storeys=4, author_rooms=100, start_rooms=25, browse_pass_lookups=300,
             revise_sessions=4, revise_edits=130, setup_repeats=4)
TINY = Scale(storeys=1, author_rooms=3, start_rooms=3, browse_pass_lookups=10,
             revise_sessions=2, revise_edits=10, setup_repeats=1)


@dataclass
class Room:
    storey: int
    x: float
    y: float
    w: float
    d: float
    cost: int
    fire: str
    code: str
    slope: float

    @property
    def outline(self) -> list[list[float]]:
        x, y, w, d = self.x, self.y, self.w, self.d
        return [[x, y], [x + w, y], [x + w, y + d], [x, y + d]]

    @property
    def wall_lengths(self) -> list[float]:
        return [self.w, self.d, self.w, self.d]

    @property
    def area(self) -> float:
        return self.w * self.d


def call(tool: str, args: dict, group: str, checks: list | None = None,
         expect: str = "ok") -> dict:
    return {"tool": tool, "args": args, "group": group, "expect": expect,
            "checks": checks or []}


class Stream:
    """Append-only call list that hands out ``$N`` references."""

    def __init__(self):
        self.calls: list[dict] = []

    def add(self, *args, **kwargs) -> int:
        return self.append(call(*args, **kwargs))

    def append(self, entry: dict) -> int:
        self.calls.append(entry)
        return len(self.calls)


def ref(number: int, path: str) -> str:
    return f"${number}.{path}"


def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{part}")


def mix(rng: random.Random, counts: dict[str, int]) -> list[str]:
    """Exactly ``counts[kind]`` of each call kind, in seeded order.

    Every seed sends the same number of calls of each kind, so a percentile
    over the mix moves with the program, not with the seed.
    """
    kinds = [kind for kind, number in counts.items() for _ in range(number)]
    rng.shuffle(kinds)
    return kinds


def make_rooms(rng: random.Random, storeys: int, per_storey: int) -> list[Room]:
    """A grid of detached rectangular rooms per storey, dimensions seeded."""
    cols = max(1, round(per_storey ** 0.5))
    rooms = []
    for storey in range(storeys):
        for index in range(per_storey):
            row, col = divmod(index, cols)
            rooms.append(Room(
                storey=storey,
                x=col * ROOM_PITCH, y=row * ROOM_PITCH,
                w=rng.randint(36, 54) / 10, d=rng.randint(36, 54) / 10,
                cost=rng.randint(800, 4000),
                fire=rng.choice(FIRE_RATINGS),
                code=rng.choice(CLASS_CODES),
                slope=float(rng.randint(25, 40)),
            ))
    return rooms


def storey_names(storeys: int) -> list[str]:
    return list(STOREY_NAMES[:storeys])


# --- malformed traffic a client realistically sends -------------------------

def _invalid_call(number: int, room: Room) -> tuple[str, dict, str]:
    """The ``number``-th call that breaks a tool's input schema (expects -32602)."""
    kind = number % 5
    if kind == 0:
        return "create_wall", {"start": [room.x, room.y], "end": [room.x + 1, room.y],
                               "height": WALL_HEIGHT, "thickness": -WALL_THICKNESS}, "create"
    if kind == 1:
        return "get_object_info", {"guid": "not-a-guid"}, "query"
    if kind == 2:
        return "add_property_set", {"guid": "0" * 22, "pset_name": WALL_PSET}, "edit"
    if kind == 3:
        return "create_slab", {"outline": room.outline[:2], "thickness": SLAB_THICKNESS}, "create"
    return "create_door", {"wall_guid": "0" * 22, "width": "wide"}, "create"


def unknown_guid(rng: random.Random) -> str:
    """A well-formed GlobalId no model in this benchmark contains."""
    alphabet = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$"
    return "3" + "".join(rng.choice(alphabet) for _ in range(20)) + "Z"


def knowledge_call(query: str) -> dict:
    return call("search_ifc_knowledge", {"query": query, "k": 3}, "knowledge",
                [["eq", "results.0.doc_id", KNOWLEDGE_QUERIES[query]]])


# --- building a model through tools -----------------------------------------

def build_calls(stream: Stream, rooms: list[Room], storeys: int,
                invalid_every: int = 0, read_back: bool = False) -> list[dict]:
    """Grow the building room by room; returns per-room ``$N`` handles.

    Every ``invalid_every``-th room is preceded by a schema-invalid call
    (0: never). Call 1 of the stream must be ``get_ifc_scene_overview`` so
    storey GUIDs can be referenced as ``$1.storeys.K.guid``.
    """
    names = storey_names(storeys)
    handles = []
    for index, room in enumerate(rooms):
        storey_guid = ref(1, f"storeys.{room.storey}.guid")
        elevation = room.storey * STOREY_HEIGHT
        if invalid_every and index % invalid_every == 1:
            tool, args, group = _invalid_call(index // invalid_every, room)
            stream.add(tool, args, group, expect="invalid_params")
        slab = stream.add("create_slab", {"outline": room.outline, "thickness": SLAB_THICKNESS,
                                          "elevation": elevation}, "create",
                          checks=[["len", "guid", 22]])
        chain = stream.add("create_wall_chain", {
            "points": room.outline, "height": WALL_HEIGHT, "thickness": WALL_THICKNESS,
            "close": True, "storey": storey_guid}, "create", checks=[["eq", "count", 4]])
        door = stream.add("create_door", {"wall_guid": ref(chain, "guids.0"),
                                          "position_along_axis": room.w / 2}, "create",
                          checks=[["len", "door", 22]])
        window = stream.add("create_window", {"wall_guid": ref(chain, "guids.2"),
                                              "position_along_axis": room.w / 2}, "create",
                            checks=[["len", "window", 22]])
        stream.add("add_property_set", {
            "guid": ref(chain, "guids.0"), "pset_name": WALL_PSET,
            "properties": {"IsExternal": room.y == 0.0, "FireRating": room.fire,
                           "Cost": room.cost}}, "edit", checks=[["len", "pset_guid", 22]])
        stream.add("add_classification", {"guid": ref(slab, "guid"),
                                          "system": CLASSIFICATION_SYSTEM, "code": room.code},
                   "edit", checks=[["len", "association_guid", 22]])
        if read_back:
            stream.add("get_object_info", {"guid": ref(chain, "guids.0")}, "query", checks=[
                ["eq", "guid", ref(chain, "guids.0")],
                ["eq", "ifc_class", "IfcWall"],
                ["eq", "property_sets.Pset_WallCommon.Cost", room.cost],
                ["eq", "relationships.contained_in.name", names[room.storey]],
                ["eq", "relationships.openings", [ref(door, "opening")]],
            ])
        roof = None
        if room.storey == storeys - 1:
            roof = stream.add("create_roof_over_walls", {
                "wall_guids": ref(chain, "guids"), "style": "hip",
                "slope_deg": room.slope}, "create", checks=[["len", "guid", 22]])
        handles.append({"slab": ref(slab, "guid"), "walls": ref(chain, "guids"),
                        "door": ref(door, "door"), "window": ref(window, "window"),
                        "roof": ref(roof, "guid") if roof else None})
    return handles


def building_totals(rooms: list[Room], storeys: int) -> dict:
    top = [r for r in rooms if r.storey == storeys - 1]
    return {"walls": 4 * len(rooms), "doors": len(rooms), "windows": len(rooms),
            "slabs": len(rooms), "roofs": len(top),
            "products": 7 * len(rooms) + len(top)}


def start_file(workload: str, seed: int, scale: Scale) -> dict:
    """Recipe of the file a workload opens at set-up.

    ``author`` starts from an empty building with named storeys; ``browse``
    and ``revise`` start from a furnished building grown with the same
    per-room calls as ``author`` (no read-backs, no malformed calls).
    """
    storeys = scale.storeys
    recipe = {"storeys": storey_names(storeys), "storey_height": STOREY_HEIGHT,
              "guid_seed": seed * 1000 + 1, "build": None}
    if workload == "author":
        return recipe
    rooms = make_rooms(_rng("start", seed, "rooms"), storeys, scale.start_rooms)
    stream = Stream()
    stream.add("get_ifc_scene_overview", {}, "query")
    handles = build_calls(stream, rooms, storeys)
    recipe["build"] = {"calls": stream.calls, "handles": handles,
                       "guid_seed": seed * 1000 + 2}
    recipe["rooms"] = [vars(r) for r in rooms]
    return recipe


# --- the three workloads ------------------------------------------------------

def author(seed: int, scale: Scale) -> dict:
    """Grow a fresh building to full size; the client then saves and reopens it."""
    rng = _rng("author", seed, "rooms")
    storeys = scale.storeys
    names = storey_names(storeys)
    rooms = make_rooms(rng, storeys, scale.author_rooms)
    stream = Stream()
    stream.add("get_ifc_scene_overview", {}, "query",
               checks=[["eq", "product_count", 0], ["len", "storeys", storeys]])
    for storey in range(storeys):
        on_storey = [r for r in rooms if r.storey == storey]
        build_calls(stream, on_storey, storeys, invalid_every=INVALID_EVERY, read_back=True)
        done = [r for r in rooms if r.storey <= storey]
        stream.add("execute_ifc_query", {"query": "walls | count"}, "query",
                   checks=[["eq", "result", 4 * len(done)]])
        stream.add("execute_ifc_query",
                   {"query": f'walls | filter(storey == "{names[storey]}") | sum(length)'},
                   "query", checks=[["approx", "result",
                                     sum(sum(r.wall_lengths) for r in on_storey)]])
    totals = building_totals(rooms, storeys)
    stream.add("execute_ifc_query", {"query": "slabs | sum(area)"}, "query",
               checks=[["approx", "result", sum(r.area for r in rooms)]])
    stream.add("get_ifc_scene_overview", {}, "query",
               checks=[["eq", "product_count", totals["products"]],
                       ["eq", "class_counts.IfcWall", totals["walls"]]])
    return {"workload": "author", "seed": seed, "edits": True,
            "sessions": [{"guid_seed": seed * 1000 + 3, "calls": stream.calls,
                          "totals": totals}]}


def browse_pass(seed: int, scale: Scale, catalog: dict) -> list[dict]:
    """One pass of read-only traffic over the start file.

    Mostly point lookups; every pass also runs each whole-model call once,
    so every pass has the same mix.
    """
    rng = _rng("browse", seed, "calls")
    rooms = [Room(**r) for r in catalog["rooms"]]
    handles = catalog["handles"]
    storeys = scale.storeys
    names = storey_names(storeys)
    totals = building_totals(rooms, storeys)
    spatial = 3 + storeys
    roster = spatial + totals["products"] + 1   # + the shared wall type
    stream = Stream()

    lookups = []
    each = scale.browse_pass_lookups // len(BROWSE_LOOKUPS)
    for kind in mix(rng, {kind: each for kind in BROWSE_LOOKUPS}):
        i = rng.randrange(len(rooms))
        room, h = rooms[i], handles[i]
        if kind == "info":
            target = rng.randrange(6)   # one of the four walls, the slab or the window
            guid = h["walls"][target] if target < 4 else h["slab" if target == 4 else "window"]
            lookups.append(call("get_object_info", {"guid": guid}, "query", [
                ["eq", "relationships.contained_in.name", names[room.storey]]]
                + ([["eq", "property_sets.Pset_WallCommon.Cost", room.cost]]
                   if target == 0 else [])))
        elif kind == "door":
            lookups.append(call("get_door_properties", {"guid": h["door"]}, "query", [
                ["approx", "width", DOOR_WIDTH], ["eq", "host_wall", h["walls"][0]],
                ["eq", "storey", names[room.storey]]]))
        elif kind == "page":
            offset = rng.randrange(0, roster, 50)
            lookups.append(call("get_scene_info", {"offset": offset, "limit": 50}, "query", [
                ["eq", "total", roster], ["eq", "count", min(50, roster - offset)]]))
        elif kind == "count":
            s = rng.randrange(storeys)
            per = sum(1 for r in rooms if r.storey == s)
            lookups.append(call("execute_ifc_query",
                                {"query": f'doors | filter(storey == "{names[s]}") | count'},
                                "query", [["eq", "result", per]]))
        else:
            lookups.append(knowledge_call(rng.choice(sorted(KNOWLEDGE_QUERIES))))

    threshold = rng.randint(40, 50) / 10
    long_walls = sum(1 for r in rooms for length in r.wall_lengths if length > threshold)
    whole = [
        call("execute_ifc_query", {"query": f"walls | filter(length > {threshold}) | count"},
             "query", [["eq", "result", long_walls]]),
        call("execute_ifc_query", {"query": "slabs | filter(area > 20) | sum(area)"}, "query",
             [["approx", "result", sum(r.area for r in rooms if r.area > 20)]]),
        call("execute_ifc_query", {"query": "doors | list(storey)"}, "query",
             [["eq", "result", [names[r.storey] for r in rooms]]]),
        call("execute_ifc_query", {"query": COST_QUERY}, "query",
             [["approx", "result", sum(r.cost for r in rooms)]]),
        call("get_ifc_scene_overview", {}, "query",
             [["eq", "product_count", totals["products"]],
              ["approx", "total_floor_area", sum(r.area for r in rooms)]]),
    ]
    for s in range(storeys):
        walls = [w for r, h in zip(rooms, handles) if r.storey == s for w in h["walls"]]
        whole.append(call("capture_plan_view", {"storey": catalog["storey_guids"][s]},
                          "snapshot", [["plan_walls", walls]]))
    for view in ("north", "south", "east", "west"):
        whole.append(call("capture_elevation_view", {"view": view}, "snapshot",
                          [["svg_groups", totals["products"]]]))

    # spread the whole-model calls evenly through the lookups
    step = max(1, len(lookups) // len(whole))
    for i, entry in enumerate(lookups):
        stream.append(entry)
        if i % step == step - 1 and whole:
            stream.append(whole.pop(0))
    for entry in whole:
        stream.append(entry)
    return stream.calls


def browse(seed: int, scale: Scale, catalog: dict) -> dict:
    """Read-only lookups and whole-model reads over the start file."""
    totals = building_totals([Room(**r) for r in catalog["rooms"]], scale.storeys)
    return {"workload": "browse", "seed": seed, "edits": False,
            "sessions": [{"guid_seed": seed * 1000 + 3,
                          "calls": browse_pass(seed, scale, catalog), "totals": totals}]}


def revise(seed: int, scale: Scale, catalog: dict) -> dict:
    """Edit sessions in a row: open the previous file, edit, save; repeat."""
    rng = _rng("revise", seed, "calls")
    rooms = [Room(**r) for r in catalog["rooms"]]
    handles = catalog["handles"]
    storeys = scale.storeys
    names = storey_names(storeys)
    costs = [r.cost for r in rooms]
    windows_alive = [True] * len(rooms)
    each = scale.revise_edits // len(REVISE_EDITS)
    counts = {kind: each for kind in REVISE_EDITS}
    counts["unknown"] = max(1, round(UNKNOWN_GUID_SHARE * scale.revise_edits))
    sessions = []
    for number in range(scale.revise_sessions):
        stream = Stream()
        for kind in mix(rng, counts):
            i = rng.randrange(len(rooms))
            room, h = rooms[i], handles[i]
            if kind == "unknown":
                stream.add("edit_attributes", {"guid": unknown_guid(rng),
                                               "updates": {"Name": "x"}},
                           "edit", expect="UnknownGuid")
            elif kind == "describe":
                target = rng.choice([h["walls"][rng.randrange(4)], h["door"], h["slab"]])
                text = f"revision {number}.{len(stream.calls) + 1}"
                stream.add("edit_attributes", {"guid": target, "updates": {"Description": text}},
                           "edit", checks=[["eq", "changed.0.new", text]])
            elif kind == "new_pset":
                stream.add("add_property_set", {
                    "guid": h["door"], "pset_name": f"Pset_Revision{number}",
                    "properties": {"Session": number, "Checked": rng.random() < 0.5}},
                    "edit", checks=[["len", "pset_guid", 22]])
            elif kind == "merge_pset":
                costs[i] = rng.randint(800, 4000)
                stream.add("add_property_set", {
                    "guid": h["walls"][0], "pset_name": WALL_PSET,
                    "properties": {"Cost": costs[i], "Reviewed": True}},
                    "edit", checks=[["len", "pset_guid", 22]])
                stream.add("get_object_info", {"guid": h["walls"][0]}, "query", checks=[
                    ["eq", "property_sets.Pset_WallCommon.Cost", costs[i]],
                    ["eq", "relationships.contained_in.name", names[room.storey]]])
            elif kind == "classify":
                stream.add("add_classification", {
                    "guid": h["walls"][rng.randrange(4)], "system": CLASSIFICATION_SYSTEM,
                    "code": rng.choice(CLASS_CODES)}, "edit",
                    checks=[["len", "association_guid", 22]])
            else:
                batch = [h2["walls"][1] for h2 in rng.sample(handles, min(20, len(handles)))]
                stream.add("set_owner_history", {"guids": batch, "user": f"reviewer{number}",
                                                 "timestamp": 1700000000 + number},
                           "edit", checks=[["eq", "updated", len(batch)]])
        # batch DSL edits over filtered sets
        s = number % storeys
        per = sum(1 for r in rooms if r.storey == s)
        threshold = rng.randint(40, 50) / 10
        long_on_storey = sum(1 for r in rooms if r.storey == s
                             for length in r.wall_lengths if length > threshold)
        stream.add("execute_ifc_query", {
            "query": f'walls | filter(storey == "{names[s]}" && length > {threshold}) '
                     f'| rename("W{number}-{{storey}}-{{length}}")'},
            "edit", checks=[["eq", "result.count", long_on_storey]])
        stream.add("execute_ifc_query", {
            "query": f'doors | filter(storey == "{names[s]}") '
                     f'| set_pset("Pset_DoorCommon", "FireRating", "{rng.choice(FIRE_RATINGS)}")'},
            "edit", checks=[["eq", "result.count", per]])
        # a few deletions; deleted windows are never referenced again
        for _ in range(2):
            alive = [k for k, ok in enumerate(windows_alive) if ok]
            if not alive:
                break
            k = rng.choice(alive)
            windows_alive[k] = False
            stream.add("delete_element", {"guid": handles[k]["window"]}, "edit",
                       checks=[["gt", "removed", 1]])
        # the session's results, checked before it saves
        stream.add("execute_ifc_query", {"query": "windows | count"}, "query",
                   checks=[["eq", "result", sum(windows_alive)]])
        stream.add("get_ifc_scene_overview", {}, "query", checks=[
            ["eq", "product_count",
             building_totals(rooms, storeys)["products"] - windows_alive.count(False)]])
        stream.add("execute_ifc_query", {"query": COST_QUERY}, "query",
                   checks=[["approx", "result", sum(costs)]])
        totals = building_totals(rooms, storeys)
        totals["windows"] = sum(windows_alive)
        sessions.append({"guid_seed": seed * 1000 + 10 + number, "calls": stream.calls,
                         "totals": totals})
    return {"workload": "revise", "seed": seed, "edits": True, "sessions": sessions}


def generate(workload: str, seed: int, scale: Scale, catalog: dict | None = None) -> dict:
    """The call plan of ``workload``; browse and revise need their start file's catalog."""
    if workload == "author":
        return author(seed, scale)
    if catalog is None:
        raise ValueError(f"{workload} needs the catalog of its start file")
    if workload == "browse":
        return browse(seed, scale, catalog)
    return revise(seed, scale, catalog)
