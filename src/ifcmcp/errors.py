"""Exception types shared across the toolkit.

Every tool-facing failure derives from :class:`IfcError` so the service
layer can map it to an in-band error payload with a stable ``type`` name.
``MAX_QUERY_BYTES`` lives here too, so the tool table reads it without
importing the DSL.
"""

from __future__ import annotations


class IfcError(Exception):
    """Base class for all domain errors surfaced through the tool API."""

    @property
    def type_name(self) -> str:
        return type(self).__name__


# --- STEP serialization ---

class StepSyntaxError(IfcError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class DuplicateId(IfcError):
    def __init__(self, entity_id: int):
        super().__init__(f"duplicate entity id #{entity_id}")
        self.entity_id = entity_id


class DanglingRef(IfcError):
    def __init__(self, ids: list[int]):
        ids = sorted(ids)
        super().__init__(f"unresolved entity reference(s): {', '.join('#%d' % i for i in ids)}")
        self.ids = ids


class GuidError(IfcError):
    pass


class DuplicateGuid(IfcError):
    def __init__(self, guid: str, first_id: int, second_id: int):
        super().__init__(f"duplicate GlobalId {guid!r} on #{first_id} and #{second_id}")
        self.guid = guid
        self.entity_ids = (first_id, second_id)


# --- model layer ---

class UnknownGuid(IfcError):
    def __init__(self, guid: str):
        super().__init__(f"no entity with GlobalId {guid!r}")
        self.guid = guid


class UnknownAttribute(IfcError):
    def __init__(self, name: str, class_name: str = ""):
        detail = f" on {class_name}" if class_name else ""
        super().__init__(f"unknown or non-editable attribute {name!r}{detail}")
        self.name = name


class UnknownStorey(IfcError):
    pass


class CannotDeleteSpatial(IfcError):
    pass


class StillReferenced(IfcError):
    def __init__(self, referrer_id: int, class_name: str):
        super().__init__(f"#{referrer_id} ({class_name}) holds a single-valued reference "
                         "to an entity the delete would remove")
        self.referrer_id = referrer_id


class InvalidRecord(IfcError):
    part = "record"  # what ``model.read`` names a malformed record a part of


class InvalidPlacement(IfcError):
    part = "placement"


class PlacementCycle(IfcError):
    def __init__(self, placement_id: int):
        super().__init__(f"placement #{placement_id} is its own ancestor "
                         "through PlacementRelTo")
        self.placement_id = placement_id


class EmptySpec(IfcError):
    pass


# --- geometry ---

class DegeneratePolygon(IfcError):
    pass


class NonPositiveDepth(IfcError):
    pass


class ZeroLengthAxis(IfcError):
    pass


class EmptyMesh(IfcError):
    pass


class InvalidBody(IfcError):
    part = "body"


class DegenerateFace(IfcError):
    def __init__(self, index: int, message: str = ""):
        super().__init__(message or f"degenerate or invalid face at index {index}")
        self.index = index


class SlopeOutOfRange(IfcError):
    pass


class SkeletonFailure(IfcError):
    pass


# --- element builders ---

class InvalidParams(IfcError):
    pass


class OpeningOutOfBounds(IfcError):
    pass


class WallsNotClosed(IfcError):
    pass


class ClassNotAllowed(IfcError):
    pass


class NotADoor(IfcError):
    pass


# --- queries / DSL ---

# longest query text, in UTF-8 bytes: the execute_ifc_query schema's
# maxLength, and the bound past which dsl.parse_query raises ParseError
MAX_QUERY_BYTES = 8192


class ParseError(IfcError):
    def __init__(self, pos: int, expected: str):
        super().__init__(f"parse error at position {pos}: expected {expected}")
        self.pos = pos
        self.expected = expected


class BudgetExceeded(IfcError):
    pass


class TypeMismatch(IfcError):
    pass


class UnknownField(IfcError):
    def __init__(self, name: str):
        super().__init__(f"unknown field {name!r}")
        self.name = name


# --- knowledge store ---

class IoError(IfcError):
    def __init__(self, path: str, message: str = ""):
        super().__init__(f"{path}: {message}" if message else str(path))
        self.path = path


class EmptyIndex(IfcError):
    pass


# --- service / snapshot ---

class EmptyModel(IfcError):
    pass


class DuplicateName(IfcError):
    pass


class StepFailed(IfcError):
    def __init__(self, index: int, reason: str):
        super().__init__(f"step {index} failed: {reason}")
        self.index = index
        self.reason = reason
