"""Typed model layer over the STEP entity graph.

Owns the spatial hierarchy, relationship management, property sets,
classifications, attribute edits and deletion with reference-counted
resource cleanup. The model keeps no state it can derive: the spatial
handles (``project_id``, ``storey_ids``, ...) are read from ``by_class``.
``by_class`` maps each class to the ascending list of its ids, with no
duplicates and no empty list, so a reader of one class needs no sort.

An entity's attributes are one immutable tuple, written only by
``IfcModel.add``, ``IfcModel.set_attr``, ``IfcModel.relate`` and
``delete_element``, each of which gives the entity a new tuple (the last
three through ``step.set_attributes``).
A load is one index pass over the records and decodes only those the
indexes read (see ``step``): the others hold their file text, and the first
read of their ``attributes``, by ``read``, a writer or the query language,
decodes them once. A record that no writer has given a new tuple saves as
its own text, read or not. ``delete_element`` reads an undecoded record's
references from its text, so a delete decodes only the records it writes.
A class's auto-names (``IfcModel.next_name``) count past the names its
records hold from the first one issued, not from the load.
Relationship records (the classes in ``schema.REL_SIDES``) are written
only through ``add``, ``relate`` and ``delete_element``, and read through
the relationship index (``IfcModel.rels``, ``IfcModel.rel_side`` and
``IfcModel.linked``), never by scanning a relationship class;
``delete_element`` takes only the deleted entities out of the indexes, and
a load rebuilds them per class (``IfcModel.rebuild_indexes``).

Equal values are held once. Loaded entities with equal bodies share one
tuple (see ``step``), and so do added entities whose one attribute is a
tuple of equal plain values (numbers, strings, booleans, ``None``): the
points and directions of built geometry. ``IfcModel.add`` looks each such
attribute tuple up in one dict on the model. The tuple type keeps an edit
of one entity from reaching the others.

``delete_element`` builds one referrer map per call and applies one rule
to every entity that references a deleted one, whatever its class.

Every attribute a tool reads goes through ``read`` by name, at its class's
position in ``schema.POSITIONS``; a value of the wrong kind is the in-band
error of the record's part. Only the index layer reads a position, attribute
0, as a possible GlobalId of any class.

The graph is acyclic: an entity refers to another only by id
(``EntityRef``), and no index holds an object that points back at its
holder. ``load_model`` relies on this: it runs with the cyclic garbage
collector paused and freezes what it built, and reference counting alone
frees a dropped model. A ``PlacementRelTo`` cycle in a file is a cycle of
ids, not of objects; ``resolve_placement`` reports it as ``PlacementCycle``.
The placement code reads :mod:`ifcmcp.geometry` as a package attribute, so
the module loads at the first placement resolved, not with the model.
"""

from __future__ import annotations

import bisect
import gc
import marshal
import math
from collections import namedtuple
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import ifcmcp

from . import schema
from .errors import (
    CannotDeleteSpatial,
    DuplicateGuid,
    EmptySpec,
    InvalidBody,
    InvalidParams,
    InvalidPlacement,
    InvalidRecord,
    PlacementCycle,
    StillReferenced,
    UnknownAttribute,
    UnknownGuid,
)
from .guid import GuidGenerator, is_guid
from .step import (
    DERIVED,
    EntityInstance,
    EntityRef,
    EnumToken,
    StepHeader,
    TypedValue,
    iter_refs,
    parse_step,
    ref_ids,
    set_attributes,
    write_step,
)

if TYPE_CHECKING:
    from .geometry import Placement

EDITABLE_ATTRIBUTES = ("Name", "Description", "ObjectType", "LongName", "Tag")

_FIXED_TIMESTAMP = "2024-01-01T00:00:00"


class PropertySpec(namedtuple("PropertySpec", "pset_name properties")):
    """A property set to add: its name and its ``(name, value)`` pairs."""

    __slots__ = ()

    def validate(self):
        if not self.pset_name:
            raise EmptySpec("property set name is empty")
        if not self.properties:
            raise EmptySpec(f"property set {self.pset_name!r} has no properties")
        seen = set()
        for name, value in self.properties:
            if not name:
                raise InvalidParams("property name is empty")
            if name in seen:
                raise InvalidParams(f"duplicate property name {name!r}")
            if not isinstance(value, (str, int, float, bool)):
                raise InvalidParams(f"property {name!r} value must be a scalar")
            seen.add(name)


# sides of a relationship record, as indexes into a ``schema.REL_SIDES`` pair
RELATING, RELATED = 0, 1


# types of the plain values in an attribute tuple ``IfcModel.add`` shares
_PLAIN = frozenset((int, float, str, bool, type(None)))


def _is_rooted(inst: EntityInstance) -> bool:
    """Whether an entity carries a GlobalId; unknown classes sniff attribute 0."""
    rooted = schema.is_rooted(inst.class_name)
    if rooted is None:
        rooted = bool(inst.attributes) and is_guid(inst.attributes[0])
    return rooted


def _replaced(attributes: tuple, index: int, value) -> tuple:
    """``attributes`` with the value at ``index`` replaced by ``value``."""
    return attributes[:index] + (value,) + attributes[index + 1:]


def _insert(ids: list[int], rel_id: int):
    """Add ``rel_id`` to an ascending list of ids unless it is there already."""
    at = bisect.bisect_left(ids, rel_id)
    if at == len(ids) or ids[at] != rel_id:
        ids.insert(at, rel_id)


def _lowest(class_name: str) -> property:
    """Read-only spatial handle: the lowest id of ``class_name``, or None."""
    return property(lambda model: model.by_class.get(class_name, (None,))[0])


class IfcModel:
    """Entity graph plus its indexes and GlobalId/name generators."""

    project_id = _lowest("IFCPROJECT")
    site_id = _lowest("IFCSITE")
    building_id = _lowest("IFCBUILDING")
    context_id = _lowest("IFCGEOMETRICREPRESENTATIONCONTEXT")

    def __init__(self, header: StepHeader | None = None,
                 guid_seed: int | None = None):
        self.header = header or StepHeader()
        self.entities: dict[int, EntityInstance] = {}
        self.next_id = 1
        # class name -> ascending ids of its entities; no class maps to an
        # empty list
        self.by_class: dict[str, list[int]] = {}
        self.by_guid: dict[str, int] = {}
        # relationship class -> per side, entity id -> ascending ids of the
        # records of that class that hold the entity on that side
        self.rel_index: dict[str, tuple[dict[int, list[int]], ...]] = {
            name: ({}, {}) for name in schema.REL_SIDES}
        self.guids = GuidGenerator(guid_seed)
        self._name_counters: dict[str, int] = {}
        # marshal key -> the first attribute tuple ``add`` stored with it
        self._plain: dict[bytes, tuple] = {}

    # --- low-level graph access ---

    def add(self, class_name: str, attributes: list) -> int:
        """Add an entity; returns its id. One attribute that is a tuple of
        plain values is stored as the attribute tuple an equal earlier
        ``add`` stored."""
        entity_id = self.next_id
        self.next_id += 1
        attributes = tuple(attributes)
        if len(attributes) == 1 and type(attributes[0]) is tuple \
                and _PLAIN.issuperset(map(type, attributes[0])):
            # a test per record, not per value, keeps this cheap; marshal
            # tells apart what == and the STEP text conflate (0.0 and -0.0;
            # 1, 1.0 and True), and its version 2 writes no back-references
            # or interning marks, so equal values give one key whoever else
            # holds them
            attributes = self._plain.setdefault(marshal.dumps(attributes, 2), attributes)
        inst = EntityInstance(entity_id, class_name, attributes)
        self.entities[entity_id] = inst
        self._index(inst)
        return entity_id

    def _index(self, inst: EntityInstance):
        # ids are issued in increasing order, so appending keeps the order
        self.by_class.setdefault(inst.class_name, []).append(inst.id)
        # relationship records carry GlobalIds too but are not addressable
        # objects; keeping them out of by_guid matches the tool surface.
        # The cheapest test comes first: most records (points, directions,
        # placements, shapes) start with no string
        if inst.attributes and isinstance(inst.attributes[0], str) \
                and not inst.class_name.startswith("IFCREL") and _is_rooted(inst):
            self.by_guid[inst.attributes[0]] = inst.id
        if inst.class_name in schema.REL_SIDES:
            for side, by_entity in enumerate(self.rel_index[inst.class_name]):
                for entity_id in self.rel_side(inst.id, side):
                    _insert(by_entity.setdefault(entity_id, []), inst.id)

    def _drop(self, dead: set[int]):
        """Remove the entities ``dead`` and their index entries.

        The indexes are left as a rebuild would make them: no empty class
        or rel lists.
        """
        for entity_id in dead:
            inst = self.entities[entity_id]
            ids = self.by_class[inst.class_name]
            del ids[bisect.bisect_left(ids, entity_id)]
            if not ids:
                del self.by_class[inst.class_name]
            guid = self.guid_of(entity_id) if _is_rooted(inst) else None
            if guid is not None:
                del self.by_guid[guid]
            for sides in self.rel_index.values():
                for by_entity in sides:
                    by_entity.pop(entity_id, None)
            if inst.class_name in schema.REL_SIDES:
                for side, by_entity in enumerate(self.rel_index[inst.class_name]):
                    for member in set(self.rel_side(entity_id, side)) - dead:
                        rel_ids = by_entity[member]
                        rel_ids.remove(entity_id)
                        if not rel_ids:
                            del by_entity[member]
        for entity_id in dead:
            del self.entities[entity_id]

    def rebuild_indexes(self):
        """Index every entity, deciding per class what each one needs.

        One pass fills ``by_class``, and each class's ids are sorted once
        (in linear time when the entities come in id order, as in every file
        this kit writes). The rest is fixed per class: the
        records of a ``schema.REL_SIDES`` class go into ``rel_index``, in
        ascending id order; the entities of a class that can carry a
        GlobalId go into ``by_guid`` (an unknown class, only where
        attribute 0 is GlobalId-shaped); other relationship classes and
        known classes without one, such as points, directions and
        placements, need nothing more. Raises :class:`DuplicateGuid` when
        two entities hold one GlobalId.
        """
        entities = self.entities
        by_class: dict[str, list[int]] = {}
        for inst in entities.values():
            ids = by_class.get(inst.class_name)
            if ids is None:
                ids = by_class[inst.class_name] = []
            ids.append(inst.id)
        for ids in by_class.values():
            ids.sort()
        by_guid: dict[str, int] = {}
        self.by_class, self.by_guid = by_class, by_guid
        self.rel_index = {name: ({}, {}) for name in schema.REL_SIDES}
        for class_name, ids in by_class.items():
            sides = self.rel_index.get(class_name)
            if sides is not None:
                for rel_id in ids:
                    for side, by_entity in enumerate(sides):
                        for entity_id in self.rel_side(rel_id, side):
                            rel_ids = by_entity.get(entity_id)
                            if rel_ids is None:
                                by_entity[entity_id] = [rel_id]
                            elif rel_ids[-1] != rel_id:
                                rel_ids.append(rel_id)
                continue
            rooted = schema.is_rooted(class_name)
            # relationship records carry GlobalIds too but are not
            # addressable objects, as in _index
            if rooted is False or class_name.startswith("IFCREL"):
                continue
            for entity_id in ids:
                attributes = entities[entity_id].attributes
                guid = attributes[0] if attributes else None
                if isinstance(guid, str) and (rooted or is_guid(guid)):
                    held = by_guid.setdefault(guid, entity_id)
                    if held != entity_id:
                        raise DuplicateGuid(guid, *sorted((held, entity_id)))

    # --- relationships ---

    def rels(self, entity_id: int, class_name: str, side: int) -> list[int]:
        """Ids of ``class_name`` records holding ``entity_id`` on ``side``,
        ascending; the list belongs to the index and must not be changed."""
        return self.rel_index[class_name][side].get(entity_id, [])

    def rel_side(self, rel_id: int, side: int) -> list[int]:
        """Entity ids on one side of a relationship record, in attribute order."""
        rel = self.entities[rel_id]
        index = schema.REL_SIDES[rel.class_name][side]
        value = rel.attributes[index] if index < len(rel.attributes) else None
        members = value if isinstance(value, tuple) else (value,)
        return [ref.id for ref in members if isinstance(ref, EntityRef)]

    def linked(self, entity_id: int, class_name: str, side: int) -> list[int]:
        """Entities on the other side of the ``class_name`` records holding
        ``entity_id`` on ``side``, ordered by rel id."""
        return [other for rel_id in self.rels(entity_id, class_name, side)
                for other in self.rel_side(rel_id, 1 - side)]

    def relate(self, class_name: str, relating_id: int, related_id: int) -> int:
        """Put ``related_id`` on the related side of a ``class_name`` record.

        The entity joins the lowest-id record whose relating side is
        ``relating_id`` (once: relating it again changes nothing); without
        one, or for classes whose related side is a single reference, a new
        record is added. Returns the record id. A related side that is not a
        list reads as in ``rel_side``: one reference is a list of one.
        """
        relating_index, related_index = schema.REL_SIDES[class_name]
        single = class_name in schema.SINGLE_RELATED
        if not single:
            for rel_id in self.rels(relating_id, class_name, RELATING):
                if rel_id not in self.rels(related_id, class_name, RELATED):
                    rel = self.entities[rel_id]
                    members = rel.attributes[related_index] \
                        if related_index < len(rel.attributes) else ()
                    if type(members) is not tuple:  # one reference, or no list
                        members = tuple(map(EntityRef, self.rel_side(rel_id, RELATED)))
                    set_attributes(rel, _replaced(rel.attributes, related_index,
                                                  members + (EntityRef(related_id),)))
                    _insert(self.rel_index[class_name][RELATED].setdefault(related_id, []),
                            rel_id)
                return rel_id
        attributes = [self.guids.fresh(), None, None, None, None, None]
        attributes[relating_index] = EntityRef(relating_id)
        attributes[related_index] = EntityRef(related_id) if single \
            else (EntityRef(related_id),)
        return self.add(class_name, attributes)

    def ids_of(self, wanted: Callable[[str], bool]) -> list[int]:
        """Ascending ids of the entities whose class name ``wanted`` accepts."""
        chosen = (ids for name, ids in self.by_class.items() if wanted(name))
        return sorted(chain.from_iterable(chosen))

    def resolve(self, ref: EntityRef | int) -> EntityInstance:
        entity_id = ref.id if isinstance(ref, EntityRef) else ref
        return self.entities[entity_id]

    def require_guid(self, guid: str) -> EntityInstance:
        entity_id = self.by_guid.get(guid)
        if entity_id is None:
            raise UnknownGuid(guid)
        return self.entities[entity_id]

    def guid_of(self, entity_id: int) -> str | None:
        inst = self.entities[entity_id]
        first = inst.attributes[0] if inst.attributes else None
        if isinstance(first, str) and self.by_guid.get(first) == entity_id:
            return first
        return None

    def set_attr(self, inst: EntityInstance, name: str, value):
        index = schema.attribute_index(inst.class_name, name)
        if index is None or index >= len(inst.attributes):
            raise UnknownAttribute(name, inst.class_name)
        set_attributes(inst, _replaced(inst.attributes, index, value))

    def next_name(self, class_name: str) -> str:
        """``<Class>_NNN``, one past the last such name given. The first call
        for a class counts past every such name its records hold."""
        short = schema.short_name(class_name)
        count = self._name_counters.get(short)
        if count is None:
            count = 0
            index = schema.attribute_index(class_name, "Name")
            prefix = short + "_"
            for entity_id in self.by_class.get(class_name, ()) if index is not None else ():
                attributes = self.entities[entity_id].attributes
                name = attributes[index] if index < len(attributes) else None
                if isinstance(name, str) and name.startswith(prefix):
                    suffix = name[len(prefix):]
                    # isdecimal, not isdigit: int() rejects digits such as '²'
                    if suffix.isdecimal():
                        count = max(count, int(suffix))
        count += 1
        self._name_counters[short] = count
        return f"{short}_{count:03d}"

    # --- spatial structure ---

    @property
    def storey_ids(self) -> list[int]:
        """Storey ids, ascending; a copy the caller may change."""
        return list(self.by_class.get("IFCBUILDINGSTOREY", ()))

    def storeys(self) -> list[int]:
        """Storey ids ordered by elevation, then id."""
        return sorted(self.storey_ids, key=lambda i: (self.storey_elevation(i), i))

    def storey_elevation(self, storey_id: int) -> float:
        """A storey's ``Elevation``; 0.0 when unset."""
        return read(self, self.entities[storey_id], "Elevation", NUMBER, InvalidPlacement, 0.0)

    def default_storey(self) -> int:
        storeys = self.storeys()
        if not storeys:
            raise InvalidParams("model has no building storey")
        return storeys[0]

    def storey_for_elevation(self, z: float) -> int:
        """Nearest storey at or below ``z``; the lowest one as a fallback."""
        storeys = self.storeys()
        if not storeys:
            raise InvalidParams("model has no building storey")
        best = storeys[0]
        for storey_id in storeys:
            if self.storey_elevation(storey_id) <= z + 1e-9:
                best = storey_id
        return best

    def storey_of(self, entity_id: int) -> int | None:
        for storey_id in self.linked(entity_id, "IFCRELCONTAINEDINSPATIALSTRUCTURE", RELATED):
            return storey_id
        return None

    def contain_in_storey(self, entity_id: int, storey_id: int):
        self.relate("IFCRELCONTAINEDINSPATIALSTRUCTURE", storey_id, entity_id)

    # --- placement resolution ---

    def resolve_placement(self, placement_id: int | None) -> Placement:
        """World frame of a placement: each level's ``geometry.read_axes``,
        composed down its ``PlacementRelTo`` chain; an unset one is the root.
        A chain that returns to a placement raises PlacementCycle, and finite
        origins that add up to one that is not InvalidPlacement."""
        if placement_id is None:
            return ifcmcp.geometry.WORLD
        chain: list[Placement] = []  # local frames, innermost first
        seen: set[int] = set()
        inst = self.entities[placement_id]
        while True:
            if inst.id in seen:
                raise PlacementCycle(inst.id)
            seen.add(inst.id)
            if inst.class_name != "IFCLOCALPLACEMENT":
                chain.append(ifcmcp.geometry.read_axes(self, inst, InvalidPlacement))
                break
            chain.append(ifcmcp.geometry.read_axes(
                self, read(self, inst, "RelativePlacement", REF, InvalidPlacement),
                InvalidPlacement))
            inst = read(self, inst, "PlacementRelTo", REF, InvalidPlacement, None)
            if inst is None:
                break
        world = chain.pop()
        while chain:
            world = world.compose(chain.pop())
        if not all(map(math.isfinite, world.origin)):
            inst = self.entities[placement_id]
            raise InvalidPlacement(f"{inst.class_name} #{inst.id} of a placement "
                                   "has a world origin that is not finite")
        return world

    def placement_of(self, entity_id: int) -> Placement:
        """World frame of an entity's ``ObjectPlacement``; WORLD when unset."""
        placement = placement_id(self, entity_id)
        return ifcmcp.geometry.WORLD if placement is None else self.resolve_placement(placement)

    # --- persistence ---

    def to_bytes(self) -> bytes:
        return write_step(self.header, self.entities)

    def save(self, path: str):
        data = self.to_bytes()
        with open(path, "wb") as fh:
            fh.write(data)


# what ``read`` takes an attribute to be, besides a tuple of allowed lengths
REF = "a reference"
REFS = "a list of references"
NUMBER = "a number"
POSITIVE = "a positive number"
TEXT = "a string"
SCALAR = "a string, number or boolean"
INTEGER = "an integer"
VALUE = "a single value"

_REALS = frozenset((int, float))
_FLOATS = frozenset((float,))
_SCALARS = frozenset((str, int, float, bool))
_REQUIRED = object()  # ``read``'s default: the attribute must be set
_POSITIONS = schema.POSITIONS


def read(model: IfcModel, record: EntityInstance, name: str, kind,
         error: type[InvalidRecord | InvalidBody | InvalidPlacement], default=_REQUIRED):
    """Attribute ``name`` of a file record, at its class's position in
    ``schema.POSITIONS``: the entity a REF names, the entities of REFS, a
    NUMBER or POSITIVE number as a float, a TEXT, a SCALAR (what an edit may
    store in a text attribute), an INTEGER, a property's VALUE as a scalar or
    a tuple of them, or for a tuple of lengths that many floats. Unset, or
    lacking in the record's class or tuple, it is ``default``, and required
    without one. Anything else raises ``error``, the in-band error of the
    record's part, naming its class, ``#id`` and ``name``. Reals are finite,
    so only a huge integer fails for size."""
    try:
        value = record.attributes[_POSITIONS[record.class_name][name]]
    except (KeyError, IndexError):
        value = None
    try:
        if value is None:
            if default is not _REQUIRED:
                return default
        elif kind is REF:
            if type(value) is EntityRef:
                return model.entities[value.id]
        elif type(kind) is tuple:  # allowed lengths; the common case: floats, no copy
            if type(value) is tuple and len(value) in kind:
                if _FLOATS.issuperset(map(type, value)):
                    return value
                if _REALS.issuperset(map(type, value)):
                    return tuple(map(float, value))
        elif kind is REFS:
            if type(value) is tuple:
                return [model.entities[v.id] for v in value]
        elif kind is NUMBER:
            if type(value) in _REALS:
                return float(value)
        elif kind is POSITIVE:
            if type(value) in _REALS and value > 0:
                return float(value)
        elif kind is TEXT:
            if type(value) is str:
                return value
        elif kind is SCALAR:
            if type(value) in _SCALARS:
                return value
        elif kind is INTEGER:
            if type(value) is int:
                return value
        elif kind is VALUE:  # a property's value, unwrapped
            while type(value) is TypedValue:
                value = value.value
            value = value.name if type(value) is EnumToken else value
            if type(value) in _SCALARS or (
                    type(value) is tuple and _SCALARS.issuperset(map(type, value))):
                return value
    except (AttributeError, OverflowError):  # a listed non-reference; a huge integer
        pass
    if type(kind) is tuple:
        kind = " or ".join(map(str, kind)) + " numbers"
    raise error(f"{record.class_name} #{record.id} of a {error.part} needs {kind} "
                f"as its {name}")


def placement_id(model: IfcModel, entity_id: int) -> int | None:
    """Id of an entity's ``ObjectPlacement``; None, the world frame, when unset."""
    placement = read(model, model.entities[entity_id], "ObjectPlacement", REF, InvalidPlacement,
                     None)
    return None if placement is None else placement.id


def _timestamp(deterministic: bool) -> str:
    if deterministic:
        return _FIXED_TIMESTAMP
    import datetime  # only an unseeded new model reads the clock
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")


def _local_placement(model: IfcModel, parent: int | None, z: float = 0.0) -> int:
    point = model.add("IFCCARTESIANPOINT", [(0.0, 0.0, z)])
    a2p = model.add("IFCAXIS2PLACEMENT3D", [EntityRef(point), None, None])
    return model.add("IFCLOCALPLACEMENT", [parent and EntityRef(parent), EntityRef(a2p)])


def new_model(project_name: str = "My Project",
              guid_seed: int | None = None) -> IfcModel:
    """Fresh IFC4 model: project, site, building, one storey at 0, SI units."""
    model = IfcModel(guid_seed=guid_seed)
    model.header = StepHeader(
        name=project_name,
        timestamp=_timestamp(deterministic=guid_seed is not None),
        file_schema=["IFC4"],
    )

    origin = model.add("IFCCARTESIANPOINT", [(0.0, 0.0, 0.0)])
    world = model.add("IFCAXIS2PLACEMENT3D", [EntityRef(origin), None, None])
    context = model.add("IFCGEOMETRICREPRESENTATIONCONTEXT",
                        [None, "Model", 3, 1e-05, EntityRef(world), None])

    units = [
        model.add("IFCSIUNIT", [DERIVED, EnumToken("LENGTHUNIT"), None, EnumToken("METRE")]),
        model.add("IFCSIUNIT", [DERIVED, EnumToken("AREAUNIT"), None, EnumToken("SQUARE_METRE")]),
        model.add("IFCSIUNIT", [DERIVED, EnumToken("VOLUMEUNIT"), None, EnumToken("CUBIC_METRE")]),
        model.add("IFCSIUNIT", [DERIVED, EnumToken("PLANEANGLEUNIT"), None, EnumToken("RADIAN")]),
    ]
    unit_assignment = model.add("IFCUNITASSIGNMENT",
                                [tuple(EntityRef(u) for u in units)])

    project = model.add("IFCPROJECT", [
        model.guids.fresh(), None, project_name, None, None, None, None,
        (EntityRef(context),), EntityRef(unit_assignment),
    ])

    site_lp = _local_placement(model, None)
    site = model.add("IFCSITE", [
        model.guids.fresh(), None, "My Site", None, None, EntityRef(site_lp),
        None, None, EnumToken("ELEMENT"), None, None, None, None, None,
    ])
    building_lp = _local_placement(model, site_lp)
    building = model.add("IFCBUILDING", [
        model.guids.fresh(), None, "My Building", None, None, EntityRef(building_lp),
        None, None, EnumToken("ELEMENT"), None, None, None,
    ])
    storey_lp = _local_placement(model, building_lp)
    storey = model.add("IFCBUILDINGSTOREY", [
        model.guids.fresh(), None, "My Storey", None, None, EntityRef(storey_lp),
        None, None, EnumToken("ELEMENT"), 0.0,
    ])

    model.relate("IFCRELAGGREGATES", project, site)
    model.relate("IFCRELAGGREGATES", site, building)
    model.relate("IFCRELAGGREGATES", building, storey)
    return model


def add_storey(model: IfcModel, name: str, elevation: float) -> int:
    """Additional storey aggregated under the building."""
    if model.building_id is None:
        raise InvalidParams("model has no building")
    lp = _local_placement(model, placement_id(model, model.building_id), float(elevation))
    storey = model.add("IFCBUILDINGSTOREY", [
        model.guids.fresh(), None, name, None, None, EntityRef(lp),
        None, None, EnumToken("ELEMENT"), float(elevation),
    ])
    model.relate("IFCRELAGGREGATES", model.building_id, storey)
    return storey


def load_model(data: bytes | str | Callable[[], bytes | str],
               guid_seed: int | None = None) -> IfcModel:
    """Rebuild an IfcModel (indexes, name counters) from STEP text, or from
    a function that returns the text.

    The cyclic collector is paused for the load: the graph it builds is
    acyclic, so no collection could free any of it. On success
    ``gc.freeze()`` moves the graph to the permanent generation, where
    later full collections do not rescan it. Freezing leaks nothing,
    because reference counting alone frees an acyclic model once it is
    dropped. A load switches the collector back on only if it found it on,
    so concurrent loads (one per TCP connection) cannot leave it off.

    The text is dropped once parsed, so it is freed before the indexes are
    built unless someone else holds it. Text passed in is also held by the
    caller, for the whole call before CPython 3.11; text a function returns
    is a temporary of the ``parse_step`` call alone, on every version, which
    is how ``open_model`` passes a file.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        header, entities = parse_step(data() if callable(data) else data)
        del data
        model = _build(header, entities, guid_seed)
    finally:
        if enabled:
            gc.enable()
    gc.freeze()
    return model


def _build(header: StepHeader, entities: dict, guid_seed: int | None) -> IfcModel:
    model = IfcModel(header=header, guid_seed=guid_seed)
    model.entities = entities
    model.next_id = max(entities) + 1 if entities else 1
    model.rebuild_indexes()
    # a seeded stream replayed over its own output would issue the file's
    # GlobalIds again, relationship records' included
    model.guids.reserve(model.by_guid)
    for class_name, ids in model.by_class.items():
        if class_name.startswith("IFCREL"):
            model.guids.reserve(entities[i].attributes[0] for i in ids
                                if entities[i].attributes
                                and isinstance(entities[i].attributes[0], str))
    return model


def open_model(path: str, guid_seed: int | None = None) -> IfcModel:
    """Load the STEP file at ``path``. Its bytes are freed once decoded and
    its text once parsed, both before the graph is built."""
    return load_model(lambda: Path(path).read_bytes().decode("iso-8859-1"),
                      guid_seed=guid_seed)


# --- semantic operations ---

def check_editable(inst: EntityInstance, name: str):
    """Refuse ``name`` unless it is editable and ``inst``'s class and tuple hold it."""
    index = schema.attribute_index(inst.class_name, name)
    if name not in EDITABLE_ATTRIBUTES or index is None or index >= len(inst.attributes):
        raise UnknownAttribute(name, inst.class_name)


def edit_attributes(model: IfcModel, guid: str, updates: dict[str, object]) -> list[dict]:
    """Replace direct attributes; returns old/new pairs in update order.
    Every name is checked, and every old value read, before the first write."""
    inst = model.require_guid(guid)
    for name in updates:
        check_editable(inst, name)
    changes = [{"attribute": name, "old": read(model, inst, name, SCALAR, InvalidRecord, None),
                "new": value} for name, value in updates.items()]
    for name, value in updates.items():
        model.set_attr(inst, name, value)
    return changes


def _nominal_value(value) -> TypedValue:
    if isinstance(value, bool):
        return TypedValue("IFCBOOLEAN", value)
    if isinstance(value, int):
        return TypedValue("IFCINTEGER", value)
    if isinstance(value, float):
        return TypedValue("IFCREAL", value)
    return TypedValue("IFCLABEL", str(value))


def _psets(model: IfcModel, entity_id: int):
    """(rel, pset) pairs defining an element's property sets, by rel id."""
    for rel_id in model.rels(entity_id, "IFCRELDEFINESBYPROPERTIES", RELATED):
        for pset_id in model.rel_side(rel_id, RELATING):
            pset = model.entities[pset_id]
            if pset.class_name == "IFCPROPERTYSET":
                yield model.entities[rel_id], pset


def find_pset_rel(model: IfcModel, entity_id: int, pset_name: str):
    """(rel, pset) pair for a named pset on an element, or (None, None)."""
    for rel, pset in _psets(model, entity_id):
        if read(model, pset, "Name", TEXT, InvalidRecord, None) == pset_name:
            return rel, pset
    return None, None


def _properties(model: IfcModel, pset: EntityInstance) -> dict[str | None, EntityInstance]:
    """A property set's single-value properties by name."""
    return {read(model, prop, "Name", TEXT, InvalidRecord, None): prop
            for prop in read(model, pset, "HasProperties", REFS, InvalidRecord, ())
            if prop.class_name == "IFCPROPERTYSINGLEVALUE"}


def psets_of(model: IfcModel, entity_id: int) -> dict[str, dict[str, object]]:
    return {read(model, pset, "Name", TEXT, InvalidRecord, None): {
                name: read(model, prop, "NominalValue", VALUE, InvalidRecord, None)
                for name, prop in _properties(model, pset).items()}
            for _rel, pset in _psets(model, entity_id)}


def add_property_set(model: IfcModel, guid: str, spec: PropertySpec) -> str:
    """Attach or merge a property set on the product ``guid``; returns the
    pset GlobalId."""
    return write_property_set(model, model.require_guid(guid), spec)


def read_property_set(model: IfcModel, inst: EntityInstance, spec: PropertySpec):
    """Every read a merge of ``spec`` into ``inst`` makes, before its first
    write: the existing set named by ``spec`` with its GlobalId, its
    single-value properties by name and references to all its properties;
    None when ``inst`` has no such set."""
    spec.validate()
    _rel, pset = find_pset_rel(model, inst.id, spec.pset_name)
    if pset is None:
        return None
    return (pset, read(model, pset, "GlobalId", TEXT, InvalidRecord), _properties(model, pset),
            [EntityRef(prop.id)
             for prop in read(model, pset, "HasProperties", REFS, InvalidRecord, ())])


def write_property_set(model: IfcModel, inst: EntityInstance, spec: PropertySpec) -> str:
    """Attach or merge a property set on ``inst``, which need not have a
    GlobalId; returns the pset GlobalId."""
    merge = read_property_set(model, inst, spec)
    if merge is None:
        prop_ids = [
            model.add("IFCPROPERTYSINGLEVALUE",
                      [name, None, _nominal_value(value), None])
            for name, value in spec.properties
        ]
        pset_guid = model.guids.fresh()
        pset_id = model.add("IFCPROPERTYSET", [
            pset_guid, None, spec.pset_name, None,
            tuple(EntityRef(i) for i in prop_ids),
        ])
        model.relate("IFCRELDEFINESBYPROPERTIES", pset_id, inst.id)
        return pset_guid

    # merge: overwrite existing names, append new ones
    pset, pset_guid, existing, appended = merge
    for name, value in spec.properties:
        if name in existing:
            model.set_attr(existing[name], "NominalValue", _nominal_value(value))
        else:
            appended.append(EntityRef(model.add(
                "IFCPROPERTYSINGLEVALUE", [name, None, _nominal_value(value), None]
            )))
    model.set_attr(pset, "HasProperties", tuple(appended))
    return pset_guid


def set_pset_property(model: IfcModel, guid: str, pset_name: str,
                      prop_name: str, value) -> str:
    return add_property_set(
        model, guid, PropertySpec(pset_name, [(prop_name, value)])
    )


def add_classification(model: IfcModel, guid: str, system: str, code: str) -> str:
    """Classify an element; returns the association GlobalId.

    One IFCCLASSIFICATION per system and one reference per (system, code)
    are created and reused across calls.
    """
    inst = model.require_guid(guid)

    classification_id = next((cid for cid in model.by_class.get("IFCCLASSIFICATION", ())
                              if read(model, model.entities[cid], "Name", TEXT, InvalidRecord,
                                      None) == system), None)
    reference_id = None
    for rid in model.by_class.get("IFCCLASSIFICATIONREFERENCE", ()):
        ref = model.entities[rid]
        source = read(model, ref, "ReferencedSource", REF, InvalidRecord, None)
        if read(model, ref, "Identification", TEXT, InvalidRecord, None) == code \
                and source is not None and source.id == classification_id:
            reference_id = rid
            break
    # the GlobalId of the association relate joins is read before any write
    joined = () if reference_id is None else \
        model.rels(reference_id, "IFCRELASSOCIATESCLASSIFICATION", RELATING)[:1]
    rel_guid = next((read(model, model.entities[rel_id], "GlobalId", TEXT, InvalidRecord)
                     for rel_id in joined), None)
    if classification_id is None:
        classification_id = model.add("IFCCLASSIFICATION",
                                      [None, None, None, system, None, None, None])
    if reference_id is None:
        reference_id = model.add("IFCCLASSIFICATIONREFERENCE", [
            None, code, None, EntityRef(classification_id), None, None,
        ])
    rel_id = model.relate("IFCRELASSOCIATESCLASSIFICATION", reference_id, inst.id)
    return rel_guid or read(model, model.entities[rel_id], "GlobalId", TEXT, InvalidRecord)


def classifications_of(model: IfcModel, entity_id: int) -> list[dict[str, str]]:
    found = []
    for reference_id in model.linked(entity_id, "IFCRELASSOCIATESCLASSIFICATION", RELATED):
        ref = model.entities[reference_id]
        source = read(model, ref, "ReferencedSource", REF, InvalidRecord, None)
        system = None if source is None else read(model, source, "Name", TEXT, InvalidRecord, None)
        found.append({"system": system or "",
                      "code": read(model, ref, "Identification", TEXT, InvalidRecord, None) or ""})
    return found


def set_owner_history(model: IfcModel, guids: list[str], user: str,
                      timestamp: int) -> int:
    """Attach one shared IFCOWNERHISTORY to every listed element."""
    instances = [model.require_guid(g) for g in guids]  # all-or-nothing
    if not instances:
        return 0
    person = model.add("IFCPERSON",
                       [user, user, None, None, None, None, None, None])
    organization = model.add("IFCORGANIZATION", [None, "ifcmcp", None, None, None])
    person_org = model.add("IFCPERSONANDORGANIZATION",
                           [EntityRef(person), EntityRef(organization), None])
    application = model.add("IFCAPPLICATION", [
        EntityRef(organization), "0.1.0", "ifcmcp", "ifcmcp",
    ])
    history = model.add("IFCOWNERHISTORY", [
        EntityRef(person_org), EntityRef(application), None, EnumToken("ADDED"),
        None, None, None, int(timestamp),
    ])
    for inst in instances:
        model.set_attr(inst, "OwnerHistory", EntityRef(history))
    return len(instances)


def owner_of(model: IfcModel, entity_id: int) -> dict | None:
    """The user (the owning person's ``Identification``) and creation time of
    an entity's ``OwnerHistory``, None without one; each record by its class."""
    history = read(model, model.entities[entity_id], "OwnerHistory", REF, InvalidRecord, None)
    if history is None:
        return None
    owner = read(model, history, "OwningUser", REF, InvalidRecord, None)
    person = owner and read(model, owner, "ThePerson", REF, InvalidRecord, None)
    user = person and read(model, person, "Identification", TEXT, InvalidRecord, None)
    return {"user": user,
            "created": read(model, history, "CreationDate", INTEGER, InvalidRecord, None)}


# --- deletion ---

_GC_SAFE_ROOTED = {"IFCPROPERTYSET"}  # rooted but owned via their rel


def _cascade_set(model: IfcModel, start_id: int) -> set[int]:
    """Element plus the openings/fillers that cannot outlive it."""
    result: set[int] = set()
    queue = [start_id]
    while queue:
        entity_id = queue.pop()
        if entity_id in result or entity_id not in model.entities:
            continue
        result.add(entity_id)
        # an opening dies with its host, a filler with its opening and an
        # opening with its filler
        queue.extend(model.linked(entity_id, "IFCRELVOIDSELEMENT", RELATING))
        queue.extend(model.linked(entity_id, "IFCRELFILLSELEMENT", RELATING))
        queue.extend(model.linked(entity_id, "IFCRELFILLSELEMENT", RELATED))
    return result


def _pruned(attributes: tuple, dead: set[int]) -> tuple[tuple, bool, bool]:
    """``attributes`` less each reference into ``dead`` that an aggregate
    lists; whether a reference into ``dead`` is left (a single-valued one);
    and whether an aggregate was left empty."""
    values = []
    emptied = False
    for value in attributes:
        if isinstance(value, tuple):
            kept = tuple(v for v in value if not (isinstance(v, EntityRef) and v.id in dead))
            if len(kept) < len(value):
                value = kept
                emptied = emptied or not kept
        values.append(value)
    single = any(ref.id in dead for ref in iter_refs(values))
    return tuple(values), single, emptied


def delete_element(model: IfcModel, guid: str) -> int:
    """Delete a product and its exclusively-owned subgraph.

    One pass over the entities builds one referrer map per call (id -> ids
    of the entities that refer to it). Every entity that references a
    deleted one follows one rule. A reference an aggregate lists is dropped
    from it. A relationship record, or an entity without a GlobalId, dies
    too when a single-valued attribute, or an aggregate now empty, pointed
    into the deleted set; each death re-examines its referrers. Any other
    entity with a single-valued reference into the set fails the delete
    with :class:`StillReferenced`, and nothing is written. Shared resources
    (profiles, owner histories, ...) survive while anything else uses them.
    """
    inst = model.require_guid(guid)
    if inst.class_name in schema.SPATIAL_CLASSES:
        raise CannotDeleteSpatial(f"cannot delete spatial element {inst.class_name}")
    if inst.class_name not in schema.PRODUCT_CLASSES:
        raise CannotDeleteSpatial(f"{inst.class_name} is not a deletable product")

    entities = model.entities
    referrers: dict[int, list[int]] = {}
    for entity_id, entity in entities.items():
        for ref_id in ref_ids(entity):
            referrers.setdefault(ref_id, []).append(entity_id)
    dead = _cascade_set(model, inst.id)
    queue = [r for entity_id in dead for r in referrers.get(entity_id, ())]
    while queue:
        entity_id = queue.pop()
        if entity_id in dead:
            continue
        entity = entities[entity_id]
        _, single, emptied = _pruned(entity.attributes, dead)
        if (single or emptied) and (entity.class_name.startswith("IFCREL")
                                    or not _is_rooted(entity)):
            dead.add(entity_id)
            queue.extend(referrers.get(entity_id, ()))

    # resource cleanup counts references to what the dead set reaches: a
    # candidate no live entity refers to dies and releases what it
    # references (cycles among candidates stay)
    candidates: set[int] = set()
    queue = list(dead)
    while queue:
        for ref_id in ref_ids(entities[queue.pop()]):
            if ref_id in dead or ref_id in candidates:
                continue
            target = entities[ref_id]
            if _is_rooted(target) and target.class_name not in _GC_SAFE_ROOTED:
                continue  # never sweep spatial/product/type entities
            candidates.add(ref_id)
            queue.append(ref_id)
    counts = {c: sum(r not in dead for r in referrers[c]) for c in candidates}
    free = [c for c, count in counts.items() if count == 0]
    while free:
        entity_id = free.pop()
        dead.add(entity_id)
        for ref_id in ref_ids(entities[entity_id]):
            if ref_id in counts:
                counts[ref_id] -= 1
                if counts[ref_id] == 0:
                    free.append(ref_id)

    # every check passes before the first write
    survivors = sorted({r for entity_id in dead for r in referrers.get(entity_id, ())
                        if r not in dead})
    pruned = []
    for entity_id in survivors:
        entity = entities[entity_id]
        attributes, single, _ = _pruned(entity.attributes, dead)
        if single:
            raise StillReferenced(entity_id, entity.class_name)
        pruned.append((entity, attributes))
    for entity, attributes in pruned:
        set_attributes(entity, attributes)
    model._drop(dead)
    return len(dead)
