"""ISO 10303-21 (STEP physical file) reader and writer.

Entity attributes are held as plain Python values where the mapping is
unambiguous (int, float, str, bool, None for ``$``) plus small wrapper
types for the STEP-specific variants (entity references, enumeration
tokens, typed values, ``*``). Lists are stored as tuples so nesting is
preserved exactly on round-trip.

Open decodes only the records that the model's indexes read: those of
rooted (a GlobalId at attribute 0), relationship and unknown classes. A
record of any other class whose text is in a grammar that always decodes
(see ``_DEFERRABLE_RE``) is kept as its body text, a ``_Deferred`` record
(the deferred path). Its references are checked with every other after the
pass, so open rejects what it would reject if it decoded every record. The
first read of its ``attributes`` decodes the text once, with the record
path's body reader and the values the pass built, and keeps the text: a
record that no writer has replaced saves as its own bytes, and only
``set_attributes``, through which every writer gives a record a new tuple,
drops the text.

Open reads the DATA section as runs of records in that grammar, each run
with one scanner of ``_DEFERRABLE_RE``; every record this kit writes is in
it. A record of a run is kept, or decoded from the body the scanner
matched. A record out of the grammar ends the run and is decoded on one of
two paths, and the next run starts after it. A well-formed record is
matched whole by a second pattern, and its body is cut once at its commas
(the record path). A body without lists maps each item to its value in one
C call, and a body with one list each run of items before, in and after
it; any other body is read item by item, as openers, one value and
closers, with the items of a string that holds a comma joined again.
Comments, the header, typed lists and every error take the token path
(``_Tokenizer``/``_Parser``): a record the record path does not fully
accept is read again from its start by the token path, which parses it or
raises, so syntax errors and their line and column come from one place.

An entity's attributes are one immutable tuple. Values that repeat across
a file are built once per ``parse_step`` call and shared between the
entities that hold them: class names, number and enumeration tokens, and
the attribute tuple of each distinct record body without references, which
every record with that body holds. References and strings elsewhere are
built per record, and every reference holds its entity's own id ``int``:
one to an entity already read at once, any other after the pass, and one
in a deferred record at its first read. The pass's table of values
(``_Values``) stays with the file's deferred records for their first
reads; it refers to the file's entities weakly, so the graph stays
acyclic. An edit gives the entity a new tuple, so a shared value is never
changed in place. Nothing is cached between calls.

Writing formats and encodes the records about a thousand at a time and
writes each encoded chunk into one buffer, whose bytes are returned without
a copy, so no list of every line, no list of chunks and no whole file as one
string is built next to the bytes. A record that still holds its text, read
or not, is written as that text. Each other reference is checked as it is
formatted, so no separate pass looks for dangling ones; a record's text was
checked at open, and a delete reads the references of an unread record
from its text to drop or refuse every reference to what it removes.
"""

from __future__ import annotations

import io
import math
import operator
import re
import weakref
from collections import deque
from itertools import chain, filterfalse, islice

from . import schema
from .errors import DanglingRef, DuplicateId, StepSyntaxError

ISO_OPEN = "ISO-10303-21;"
ISO_CLOSE = "END-ISO-10303-21;"

# deepest list nesting in one record (its argument list counts as one level);
# keeps parse_step far below the interpreter's recursion limit
MAX_LIST_DEPTH = 256

_KEYWORD_RE = re.compile(r"[A-Z][A-Z0-9_]*")


class EntityRef:
    """Reference to another entity instance (``#123``)."""

    __slots__ = ("id",)

    def __init__(self, entity_id: int):
        if entity_id <= 0:
            raise ValueError("entity ids are positive")
        self.id = entity_id

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EntityRef) and other.id == self.id

    def __hash__(self) -> int:
        return hash(("EntityRef", self.id))

    def __repr__(self) -> str:
        return f"EntityRef({self.id})"


class EnumToken:
    """Enumeration literal (``.ELEMENT.``); ``.T.``/``.F.`` map to bool instead."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EnumToken) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("EnumToken", self.name))

    def __repr__(self) -> str:
        return f"EnumToken({self.name!r})"


class TypedValue:
    """Select-type wrapper such as ``IFCLABEL('x')`` or ``IFCREAL(0.25)``."""

    __slots__ = ("type_name", "value")

    def __init__(self, type_name: str, value):
        self.type_name = type_name
        self.value = value

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TypedValue)
            and other.type_name == self.type_name
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash(("TypedValue", self.type_name, self.value))

    def __repr__(self) -> str:
        return f"TypedValue({self.type_name!r}, {self.value!r})"


class _Derived:
    """Singleton for the ``*`` (derived attribute) token."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "DERIVED"


DERIVED = _Derived()


class _Record:
    """Equality and ``repr`` over the fields a subclass names in ``_fields``."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if not isinstance(other, _Record) or other._fields != self._fields:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        # a deferred or read record shows as the EntityInstance it stands for
        kind = next(c for c in type(self).__mro__ if not c.__name__.startswith("_"))
        return f"{kind.__name__}({fields})"


class EntityInstance(_Record):
    """One STEP record: ``#id=CLASS(attr, attr, ...);``"""

    _fields = ("id", "class_name", "attributes")
    __slots__ = _fields + ("text",)  # ``text`` is a deferred or read record's

    def __init__(self, id: int, class_name: str, attributes: tuple):
        self.id = id
        self.class_name = class_name
        self.attributes = attributes


_ATTRIBUTES = EntityInstance.attributes  # the slot itself, which _Deferred's property hides


def set_attributes(inst: EntityInstance, value: tuple):
    """Give a record a new attributes tuple. This is the one write of a
    record that open built: it drops the text a deferred or read record
    keeps, so a save formats the new tuple."""
    if inst.__class__ is not EntityInstance:
        inst.__class__ = EntityInstance
        del inst.text
    inst.attributes = value


class _Deferred(EntityInstance):
    """A record that ``parse_step`` kept as its body ``text``, which
    ``write_step`` writes as it is. Until the first read of ``attributes``
    decodes the text, the attributes slot holds the ``_Values`` table that
    its file was read with. That read makes the record a ``_Read`` one,
    and ``set_attributes`` a plain ``EntityInstance``."""

    __slots__ = ()

    def __init__(self, id: int, class_name: str, text: str, values: _Values):
        self.id = id
        self.class_name = class_name
        self.text = text
        _ATTRIBUTES.__set__(self, values)

    @property
    def attributes(self) -> tuple:
        text, values = self.text, _ATTRIBUTES.__get__(self)
        try:
            value = _read(text, values)
        except ReferenceError:  # the file's entities are gone: no id to share
            values.entities = {}
            value = _read(text, values)
        _ATTRIBUTES.__set__(self, value)
        self.__class__ = _Read
        return value

    attributes = attributes.setter(set_attributes)

    def __reduce__(self):
        # a copy or a pickle is of the decoded record
        return EntityInstance, (self.id, self.class_name, self.attributes)


class _Read(EntityInstance):
    """A deferred record after its first read: its attributes are decoded,
    and ``write_step`` still writes its text, which stands for them until
    ``set_attributes`` drops it. Its attributes are read from the slot, as
    a plain record's are."""

    __slots__ = ()
    __reduce__ = _Deferred.__reduce__


class _Entities(dict):
    """The entity map ``parse_step`` returns, which its ``_Values`` table
    refers to weakly."""

    __slots__ = ("__weakref__",)


class StepHeader(_Record):
    """The fields of the HEADER section's three records."""

    __slots__ = _fields = ("file_description", "implementation_level", "name", "timestamp",
                 "author", "organization", "preprocessor_version",
                 "originating_system", "authorization", "file_schema")

    def __init__(self, file_description: list[str] | None = None,
                 implementation_level: str = "2;1", name: str = "",
                 timestamp: str = "", author: list[str] | None = None,
                 organization: list[str] | None = None,
                 preprocessor_version: str = "ifcmcp 0.1.0",
                 originating_system: str = "ifcmcp", authorization: str = "",
                 file_schema: list[str] | None = None):
        self.file_description = [""] if file_description is None else file_description
        self.implementation_level = implementation_level
        self.name = name
        self.timestamp = timestamp
        self.author = [""] if author is None else author
        self.organization = [""] if organization is None else organization
        self.preprocessor_version = preprocessor_version
        self.originating_system = originating_system
        self.authorization = authorization
        self.file_schema = ["IFC4"] if file_schema is None else file_schema


# --- string escape handling ---

_HEX_DIGITS = frozenset("0123456789ABCDEFabcdef")


def _code_point(code: int, escape: str) -> str:
    if code > 0x10FFFF:
        raise ValueError(f"{escape} escape codes {code:X}, above 10FFFF")
    return chr(code)


def _hex_chars(digits: str, width: int, escape: str) -> list[str]:
    """The characters that ``escape`` codes as ``width`` hex digits each."""
    if not _HEX_DIGITS.issuperset(digits):
        raise ValueError(f"{escape} escape {digits!r} holds a character that is not a hex digit")
    if len(digits) % width:
        raise ValueError(f"{escape} escape {digits!r} is not a run of {width}-digit codes")
    return [_code_point(int(digits[j:j + width], 16), escape)
            for j in range(0, len(digits), width)]


def decode_step_string(raw: str) -> str:
    """Decode a STEP string body (quotes already stripped, ``''`` collapsed).

    Raises ``ValueError`` for an escape that holds a character other than a
    hex digit, a ``\\X2\\`` or ``\\X4\\`` run that is not a whole number of
    4- or 8-digit codes, or one that codes a character above U+10FFFF.
    """
    out: list[str] = []
    i = 0
    n = len(raw)
    while i < n:
        c = raw[i]
        if c != "\\":
            out.append(c)
            i += 1
            continue
        if raw.startswith("\\\\", i):
            out.append("\\")
            i += 2
        elif raw.startswith("\\X2\\", i):
            end = raw.find("\\X0\\", i + 4)
            if end < 0:
                out.append(c)
                i += 1
                continue
            out.extend(_hex_chars(raw[i + 4:end], 4, "\\X2\\"))
            i = end + 4
        elif raw.startswith("\\X4\\", i):
            end = raw.find("\\X0\\", i + 4)
            if end < 0:
                out.append(c)
                i += 1
                continue
            out.extend(_hex_chars(raw[i + 4:end], 8, "\\X4\\"))
            i = end + 4
        elif raw.startswith("\\X\\", i) and i + 5 <= n:
            out.extend(_hex_chars(raw[i + 3:i + 5], 2, "\\X\\"))
            i += 5
        elif raw.startswith("\\S\\", i) and i + 4 <= n:
            # ISO 8859 shifted character: add 0x80 to the following char
            out.append(_code_point(ord(raw[i + 3]) + 0x80, "\\S\\"))
            i += 4
        else:
            out.append(c)
            i += 1
    return "".join(out)


def encode_step_string(text: str) -> str:
    """Escape a Python string for embedding inside STEP quotes (ASCII-safe)."""
    # printable ASCII without a quote or backslash needs no escape
    if text.isascii() and text.isprintable() and "'" not in text and "\\" not in text:
        return text
    out: list[str] = []
    run: list[str] = []  # pending non-ASCII chars for one \X2\ / \X4\ block

    def flush_run():
        if not run:
            return
        if all(ord(c) <= 0xFFFF for c in run):
            out.append("\\X2\\" + "".join(f"{ord(c):04X}" for c in run) + "\\X0\\")
        else:
            out.append("\\X4\\" + "".join(f"{ord(c):08X}" for c in run) + "\\X0\\")
        run.clear()

    for c in text:
        if c == "'":
            flush_run()
            out.append("''")
        elif c == "\\":
            flush_run()
            out.append("\\\\")
        elif 0x20 <= ord(c) <= 0x7E:
            flush_run()
            out.append(c)
        else:
            # group BMP and astral chars separately so each block is uniform
            if run and (ord(run[0]) <= 0xFFFF) != (ord(c) <= 0xFFFF):
                flush_run()
            run.append(c)
    flush_run()
    return "".join(out)


_MAX_REAL_15_DIGITS = 1.79769313486231e308


def format_real(x: float) -> str:
    """Shortest decimal form (<= 15 significant digits) with a STEP dot.

    ``repr`` is the shortest form that reads back as ``x``, so its digit
    count is the least precision at which ``%g`` round-trips, and ``%g`` at
    that precision gives the same digits. Where ``%g`` would print them in
    fixed notation, ``repr`` less its trailing zeros is the text; otherwise
    ``x`` is formatted once, at that precision.
    """
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"cannot serialize non-finite real {x!r}")
    mantissa, e, _ = repr(x).partition("e")
    whole, _, fraction = mantissa.lstrip("-").partition(".")
    digits = len((whole + fraction).strip("0"))
    if digits > 15:
        # needs more than 15 digits: drop the tail, then canonicalize the
        # truncated value so that parse -> write is a fixpoint immediately
        truncated = float(f"{x:.15g}")
        if math.isinf(truncated):  # rounded up past the largest finite real
            truncated = math.copysign(_MAX_REAL_15_DIGITS, x)
        return format_real(truncated)
    # %g prints fixed notation while the exponent is below the precision:
    # a whole part of at most ``digits`` digits, or zero
    if not e and (len(whole) <= digits or not x):
        return mantissa.rstrip("0")
    mantissa, _, exponent = ("%.*g" % (digits, x)).partition("e")
    if "." not in mantissa:
        mantissa += "."
    return f"{mantissa}E{int(exponent)}"


# --- tokenizer ---

_T_KEYWORD = "keyword"
_T_INT = "int"
_T_REAL = "real"
_T_STRING = "string"
_T_ENUM = "enum"
_T_REF = "ref"
_T_PUNCT = "punct"
_T_EOF = "eof"

_FILE_MARKERS = (ISO_CLOSE[:-1], ISO_OPEN[:-1])
_REF_RE = re.compile(r"#(\d+)")
_ENUM_RE = re.compile(r"\.([A-Z_][A-Z0-9_]*)\.")
_NUMBER_RE = re.compile(r"[+-]?\d+(\.\d*)?([Ee][+-]?\d+)?")


class _Tokenizer:
    """STEP lexer; ``line``/``col`` are derived from ``pos`` only when an error is raised."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> StepSyntaxError:
        text, pos = self.text, self.pos
        return StepSyntaxError(text.count("\n", 0, pos) + 1,
                               pos - text.rfind("\n", 0, pos), message)

    def _skip_ws(self):
        text = self.text
        while self.pos < len(text):
            c = text[self.pos]
            if c in " \t\r\n":
                self.pos += 1
            elif text.startswith("/*", self.pos):
                end = text.find("*/", self.pos + 2)
                if end < 0:
                    raise self.error("unterminated comment")
                self.pos = end + 2
            else:
                return

    def next(self) -> tuple[str, object]:
        self._skip_ws()
        text = self.text
        if self.pos >= len(text):
            return (_T_EOF, None)
        c = text[self.pos]
        for marker in _FILE_MARKERS:
            if text.startswith(marker, self.pos):
                self.pos += len(marker)
                return (_T_KEYWORD, marker)
        if c in "();,=*$":
            self.pos += 1
            return (_T_PUNCT, c)
        if c == "#":
            m = _REF_RE.match(text, self.pos)
            if not m:
                raise self.error("malformed entity reference")
            try:
                ref = int(m.group(1))
            except ValueError:  # more digits than int() reads
                raise self.error(f"entity id of {len(m.group(1))} digits is too long") from None
            if ref <= 0:
                raise self.error("entity ids must be positive")
            self.pos = m.end()
            return (_T_REF, ref)
        if c == "'":
            return self._string()
        if c == ".":
            m = _ENUM_RE.match(text, self.pos)
            if not m:
                raise self.error("malformed enumeration token")
            self.pos = m.end()
            return (_T_ENUM, m.group(1))
        if c.isdigit() or c in "+-":
            return self._number()
        m = _KEYWORD_RE.match(text, self.pos)
        if m:
            self.pos = m.end()
            return (_T_KEYWORD, m.group(0))
        raise self.error(f"unexpected character {c!r}")

    def _string(self) -> tuple[str, str]:
        text = self.text
        i = self.pos + 1
        parts: list[str] = []
        while True:
            j = text.find("'", i)
            if j < 0:
                raise self.error("unterminated string literal")
            parts.append(text[i:j])
            if text.startswith("''", j):
                parts.append("'")
                i = j + 2
                continue
            try:
                value = decode_step_string("".join(parts))
            except ValueError as exc:  # a malformed escape; pos is at the opening quote
                raise self.error(str(exc)) from None
            self.pos = j + 1
            return (_T_STRING, value)

    def _number(self) -> tuple[str, object]:
        m = _NUMBER_RE.match(self.text, self.pos)
        if not m:
            raise self.error("malformed number")
        if m.group(1) is None and m.group(2) is None:
            try:
                value = int(m.group(0))
            except ValueError:  # more digits than int() reads
                digits = len(m.group(0).lstrip("+-"))
                raise self.error(f"integer of {digits} digits is too long") from None
            self.pos = m.end()
            return (_T_INT, value)
        value = float(m.group(0))
        if not math.isfinite(value):
            raise self.error(f"real {m.group(0)} does not fit a double")
        self.pos = m.end()
        return (_T_REAL, value)


# --- parser ---

class _Parser:
    def __init__(self, text: str):
        self.tok = _Tokenizer(text)
        self.current = self.tok.next()
        self.depth = 0  # non-empty lists open around the current token

    def error(self, message: str) -> StepSyntaxError:
        return self.tok.error(message)

    def advance(self):
        self.current = self.tok.next()

    def expect_punct(self, punct: str):
        kind, value = self.current
        if kind != _T_PUNCT or value != punct:
            raise self.error(f"expected {punct!r}, got {value!r}")
        self.advance()

    def expect_keyword(self, word: str):
        kind, value = self.current
        if kind != _T_KEYWORD or value != word:
            raise self.error(f"expected {word}, got {value!r}")
        self.advance()

    def parse_value(self):
        kind, value = self.current
        if kind == _T_PUNCT and value == "$":
            self.advance()
            return None
        if kind == _T_PUNCT and value == "*":
            self.advance()
            return DERIVED
        if kind == _T_PUNCT and value == "(":
            return tuple(self.parse_list())
        if kind == _T_INT:
            self.advance()
            return value
        if kind == _T_REAL:
            self.advance()
            return value
        if kind == _T_STRING:
            self.advance()
            return value
        if kind == _T_REF:
            self.advance()
            return EntityRef(value)
        if kind == _T_ENUM:
            self.advance()
            if value == "T":
                return True
            if value == "F":
                return False
            return EnumToken(value)
        if kind == _T_KEYWORD:
            name = value
            self.advance()
            inner = self.parse_list()
            if len(inner) == 1:
                return TypedValue(name, inner[0])
            return TypedValue(name, tuple(inner))
        raise self.error(f"expected a value, got {value!r}")

    def parse_list(self) -> list:
        if self.depth >= MAX_LIST_DEPTH and self.current == (_T_PUNCT, "("):
            raise self.error("lists nested too deeply")
        self.expect_punct("(")
        items: list = []
        kind, value = self.current
        if kind == _T_PUNCT and value == ")":
            self.advance()
            return items
        self.depth += 1
        while True:
            items.append(self.parse_value())
            kind, value = self.current
            if kind == _T_PUNCT and value == ",":
                self.advance()
                continue
            self.expect_punct(")")
            self.depth -= 1
            return items

    def parse_record(self) -> tuple[str, list]:
        """``KEYWORD(args)`` up to its ``;``, which stays the current token."""
        kind, value = self.current
        if kind != _T_KEYWORD:
            raise self.error(f"expected record keyword, got {value!r}")
        name = value
        self.advance()
        args = self.parse_list()
        kind, value = self.current
        if kind != _T_PUNCT or value != ";":
            raise self.error(f"expected ';', got {value!r}")
        return name, args


# --- record path ---
#
# One pattern matches a whole well-formed DATA record, and _read_body builds
# the values of its body from the body's comma-separated items. Anything
# either step does not fully accept goes to _Parser from the record's start,
# which parses it or raises, so every syntax error comes from the token path.

_WS = r"[ \t\r\n]*"
# without (?!') a run of '' could also split into "end string, start
# string", and a failed match would backtrack exponentially in the run
_STRING = r"'[^']*(?:''[^']*)*'(?!')"
_RECORD_RE = re.compile(
    rf"{_WS}#(\d+){_WS}={_WS}([A-Z][A-Z0-9_]*){_WS}\(([^';]*(?:{_STRING}[^';]*)*)\){_WS};")
_BLANKS = " \t\r\n"
_OPENERS = "(" + _BLANKS
_CLOSERS = ")" + _BLANKS


# --- deferred records ---
#
# A record of a class that open does not read (_DEFERRED) whose whole text
# is in the grammar of _DEFERRABLE_RE is kept as its body text, and decoded
# at its first read. The grammar admits only what decodes, to the value the
# other paths read: no blanks; lists one level deep; typed values of one
# value, outside lists; references whose ids have no leading zero; $ and *;
# enumerations; numbers of at most 18 digits before an exponent of at most
# two, so every real is finite; and strings without an escape or a '#', so
# every '#' of the text starts a reference. parse_step reads each run of
# records in the grammar with one scanner.

# the known classes that model.IfcModel.rebuild_indexes and model._build
# never read: those without a GlobalId (every relationship has one)
_DEFERRED = frozenset(name for name, attributes in schema.ATTRIBUTES.items()
                      if attributes[:1] != ["GlobalId"])
_ID_DIGITS = r"[1-9]\d{0,17}"
_VALUE = (rf"#{_ID_DIGITS}|[$*]|-?\d{{1,18}}(?:\.\d*)?(?:E-?\d\d?)?|\.[A-Z_][A-Z0-9_]*\."
          r"|'[^'\\#]*(?:''[^'\\#]*)*'")
_ITEM = (rf"(?:{_VALUE}|[A-Z][A-Z0-9_]*\((?:{_VALUE})\)"
         rf"|\((?:(?:{_VALUE})(?:,(?:{_VALUE}))*)?\))")
_DEFERRABLE_RE = re.compile(rf"(?a)[ \t\r\n]*#({_ID_DIGITS})=([A-Z][A-Z0-9_]*)"
                            rf"\(((?:{_ITEM}(?:,{_ITEM})*)?)\);")
_REFS_CHECKED = 1024  # deferred bodies whose references parse_step checks at once
_UNCHECKED = deque(maxlen=0)  # a deferred record's references, checked at open
_ID = operator.attrgetter("id")


def ref_ids(inst: EntityInstance):
    """An iterator over the ids of the entities a record references; a
    deferred record's are read from its text, which stays undecoded."""
    if inst.__class__ is _Deferred:
        return map(int, _REF_RE.findall(inst.text))
    return map(_ID, iter_refs(inst.attributes))


class _Unread(Exception):
    """Raised for a record body that the token path must read."""


class _Values(dict):
    """The value of each value token (a number, enumeration, string,
    reference, ``$`` or ``*``, with or without blanks around it) read in
    one ``parse_step`` call, built on first use.

    Number and enumeration tokens, ``$`` and ``*`` are kept, so equal tokens
    across the file share one value. References and strings are built at
    each use and not kept. A reference to an entity of ``entities`` (one
    already read) is built on that entity's own id; every other reference
    is added to ``refs``. A token that the token path would not read as
    that one value raises ``_Unread``. ``bodies`` holds the attributes of
    each distinct record body without references.

    After the pass, the deferred records read their bodies with this table,
    which then refers to the entities through a weak proxy and keeps no
    reference."""

    __slots__ = ("entities", "refs", "bodies")

    def __init__(self, entities: dict, refs: list):
        super().__init__({"$": None, "*": DERIVED})
        self.entities = entities
        self.refs = refs
        self.bodies: dict[str, tuple] = {}  # body without references -> its values

    def __missing__(self, token: str):
        c = token[:1]
        if c == "#":
            digits = token[1:]
            if digits.isdecimal():
                try:
                    ref = int(digits)
                except ValueError:  # more digits than int() reads
                    raise _Unread from None
                target = self.entities.get(ref)
                if target is not None:
                    return EntityRef(target.id)
                if not ref:
                    raise _Unread
                value = EntityRef(ref)
                self.refs.append(value)
                return value
        elif c == "'" and token[-1] == "'" and len(token) > 1:
            text = token[1:-1]
            if "'" in text:
                # one string: no quote inside but the doubled ones
                if "'" in text.replace("''", ""):
                    raise _Unread
                text = text.replace("''", "'")
            if "\\" not in text:
                return text
            try:
                return decode_step_string(text)
            except ValueError:  # a malformed escape
                raise _Unread from None
        key = token.strip(_BLANKS)
        if key != token:
            value = self[key]
            if key in self:
                self[token] = value
            return value
        # the token path reads any other token; a number or an enumeration
        # is kept, so each is read once per file, and the rest is left to it
        try:
            parser = _Parser(token)
            value = parser.parse_value()
        except StepSyntaxError:
            raise _Unread from None
        if parser.current[0] != _T_EOF or type(value) not in (int, float, bool, EnumToken):
            raise _Unread
        self[token] = value
        return value


def _read(body: str, values: _Values) -> tuple:
    """Attributes of a record body; a body without references is read once
    per file, and every record with that body holds its one tuple."""
    if "#" in body:
        return _read_body(body, values)
    args = values.bodies.get(body)
    if args is None:
        args = values.bodies[body] = _read_body(body, values)
    return args


def _read_body(body: str, values: _Values) -> tuple:
    """Attributes of a record body, or ``_Unread`` for a body that the
    token path must read.

    A body without ``(`` is one value per comma-separated item, and so is
    each run of items before, in and after a body's one list. Otherwise
    each item is read as openers, one value (or ``KEYWORD(value)``, a typed
    value) and closers; ``()`` is the only list without a value. An item
    with an odd number of quotes is joined with the next, as a comma of a
    string split it (the record pattern matched each quote of the body as
    part of a string, so the body's count is even). A run cut inside a
    string leaves a piece that no value token reads, and such a body is
    read item by item."""
    get = values.__getitem__
    if "(" not in body:
        try:
            return tuple([*map(get, body.split(","))])
        except _Unread:
            if not body.strip(_BLANKS):
                return ()
    elif body.count("(") == 1:
        head, _, rest = body.partition("(")
        inner, closed, tail = rest.partition(")")
        if closed and inner and head[-1:] in ("", ",") and tail[:1] in ("", ","):
            try:
                return (*map(get, head[:-1].split(",") if head else ()),
                        tuple([*map(get, inner.split(","))]),
                        *map(get, tail[1:].split(",") if tail else ()))
            except _Unread:
                pass
    parts = body.split(",")
    args = items = []
    stack: list = []  # the enclosing items of each open list
    i, n = 0, len(parts)
    while i < n:
        item = parts[i]
        i += 1
        if "'" in item:
            quotes = item.count("'")
            if quotes % 2:
                j = i
                while quotes % 2:
                    quotes += parts[j].count("'")
                    j += 1
                item = ",".join(parts[i - 1:j])
                i = j
        if "(" not in item and ")" not in item:
            items.append(values[item])
            continue
        rest = item.lstrip(_OPENERS)
        opened = item.count("(", 0, len(item) - len(rest))
        if opened:
            # leave lists near the depth limit to the parser, which counts them
            if len(stack) + opened > MAX_LIST_DEPTH - 2:
                raise _Unread
            for _ in range(opened):
                stack.append(items)
                items = []
        token = rest.rstrip(_CLOSERS)
        closers = rest.count(")", len(token))
        if "A" <= token[:1] <= "Z":
            m = _KEYWORD_RE.match(token)
            inner = token[m.end():].lstrip(_BLANKS)
            if inner[:1] != "(" or not closers:
                raise _Unread
            items.append(TypedValue(m.group(), values[inner[1:]]))
            closers -= 1
        elif token:
            items.append(values[token])
        elif not (opened and closers):
            raise _Unread  # a missing value; only a list may be empty
        for _ in range(closers):
            if not stack:
                raise _Unread
            value = tuple(items)
            items = stack.pop()
            items.append(value)
    if stack:
        raise _Unread
    return tuple(args)


def _header_string(value, default: str = "") -> str:
    return value if isinstance(value, str) else default

def _header_strings(value) -> list[str]:
    if isinstance(value, tuple):
        return [v for v in value if isinstance(v, str)]
    return []


def _duplicate(tok: _Tokenizer, end: int, entity_id: int) -> DuplicateId:
    """The error for a second record of ``entity_id``, which ends at ``end``.
    A syntax error in the next token is raised first, as the token path
    reads one token past the ';' before this check."""
    tok.pos = end
    tok.next()
    return DuplicateId(entity_id)


def parse_step(data: bytes | str) -> tuple[StepHeader, dict[int, EntityInstance]]:
    """Parse a STEP exchange file into a header and entity map, in which a
    record that open need not read is a ``_Deferred`` one (see the module
    docstring).

    Forward references are permitted; every reference to an entity not
    read yet, and every one a deferred record holds, is checked after the
    full pass and :class:`DanglingRef` raised if any fail to resolve. Every
    reference holds its entity's id object, from the pass or from a
    deferred record's first read, so the model keeps no second int per id.
    """
    text = data.decode("iso-8859-1") if isinstance(data, (bytes, bytearray)) else data
    parser = _Parser(text)

    parser.expect_keyword(ISO_OPEN[:-1])
    parser.expect_punct(";")

    parser.expect_keyword("HEADER")
    parser.expect_punct(";")
    header = StepHeader()
    while True:
        kind, value = parser.current
        if kind == _T_KEYWORD and value == "ENDSEC":
            parser.advance()
            parser.expect_punct(";")
            break
        name, args = parser.parse_record()
        parser.advance()
        if name == "FILE_DESCRIPTION":
            if len(args) >= 1:
                header.file_description = _header_strings(args[0])
            if len(args) >= 2:
                header.implementation_level = _header_string(args[1], "2;1")
        elif name == "FILE_NAME":
            fields = list(args) + [None] * (7 - len(args))
            header.name = _header_string(fields[0])
            header.timestamp = _header_string(fields[1])
            header.author = _header_strings(fields[2])
            header.organization = _header_strings(fields[3])
            header.preprocessor_version = _header_string(fields[4])
            header.originating_system = _header_string(fields[5])
            header.authorization = _header_string(fields[6])
        elif name == "FILE_SCHEMA":
            if args and isinstance(args[0], tuple):
                header.file_schema = _header_strings(args[0])
        # other header records (FILE_POPULATION etc.) are tolerated and dropped

    parser.expect_keyword("DATA")
    tok = parser.tok
    pos = tok.pos  # each record starts just past the previous ';', here DATA's
    parser.expect_punct(";")
    entities: dict[int, EntityInstance] = _Entities()
    # references that get their entity's id after the pass: each one read
    # before its record, and each one the token path reads
    refs: list[EntityRef] = []
    # shared values (see the module docstring), built once per call
    names: dict[str, str] = {}
    values = _Values(entities, refs)
    deferred: list[str] = []  # deferred bodies that hold references
    while True:
        # a run of records in the grammar of _DEFERRABLE_RE, read with one
        # scanner, which is made only once the run's first record matched
        m = _DEFERRABLE_RE.match(text, pos)
        if m is not None:
            for m in chain((m,), iter(_DEFERRABLE_RE.scanner(text, m.end()).match, None)):
                digits, name, body = m.groups()
                entity_id = int(digits)
                if name in _DEFERRED:
                    if "#" in body:
                        deferred.append(body)
                    inst = _Deferred(entity_id, names.setdefault(name, name), body, values)
                else:
                    try:
                        inst = EntityInstance(entity_id, names.setdefault(name, name),
                                              _read(body, values))
                    except _Unread:
                        break  # the record after the run reads it
                pos = m.end()
                if entity_id in entities:
                    raise _duplicate(tok, pos, entity_id)
                entities[entity_id] = inst
        # the record after a run: out of the grammar, left by _read, or ENDSEC
        m = _RECORD_RE.match(text, pos)
        args = None
        if m is not None:
            digits, name, body = m.groups()
            try:
                entity_id = int(digits)
            except ValueError:  # more digits than int() reads
                entity_id = 0
            if entity_id:
                try:
                    args = _read(body, values)
                except _Unread:
                    pass  # the token path reads it
        if args is not None:
            end = m.end()
        else:
            tok.pos = pos
            parser.advance()
            kind, value = parser.current
            if kind == _T_KEYWORD and value == "ENDSEC":
                parser.advance()
                parser.expect_punct(";")
                break
            if kind != _T_REF:
                raise parser.error(f"expected #id=... record, got {value!r}")
            entity_id = value
            parser.advance()
            parser.expect_punct("=")
            name, args = parser.parse_record()
            args = tuple(args)
            refs.extend(iter_refs(args))
            end = tok.pos
        if entity_id in entities:
            raise _duplicate(tok, end, entity_id)
        entities[entity_id] = EntityInstance(entity_id, names.setdefault(name, name), args)
        pos = end

    parser.expect_keyword(ISO_CLOSE[:-1])
    parser.expect_punct(";")

    dangling = set()
    for ref in refs:
        target = entities.get(ref.id)
        if target is None:
            dangling.add(ref.id)
        else:
            ref.id = target.id
    for at in range(0, len(deferred), _REFS_CHECKED):
        ids = map(int, _REF_RE.findall(",".join(deferred[at:at + _REFS_CHECKED])))
        dangling.update(filterfalse(entities.__contains__, ids))
    if dangling:
        raise DanglingRef(dangling)
    # every reference a deferred record holds names an entity
    values.entities, values.refs = weakref.proxy(entities), _UNCHECKED
    return header, entities


def iter_refs(value):
    """Yield every EntityRef reachable inside an attribute value."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, EntityRef):
            yield v
        elif isinstance(v, (tuple, list)):
            stack.extend(v)
        elif isinstance(v, TypedValue):
            stack.append(v.value)


# --- writer ---

def format_value(value, entities: dict | None = None, missing: set | None = None) -> str:
    """STEP text of one attribute value. With ``entities``, each referenced
    id that ``entities`` lacks is added to ``missing`` as it is formatted."""
    # the commonest kinds of value first; bool before int, which it subclasses
    if value is None:
        return "$"
    if isinstance(value, EntityRef):
        if entities is not None and value.id not in entities:
            missing.add(value.id)
        return f"#{value.id}"
    if isinstance(value, float):
        return format_real(value)
    if isinstance(value, (tuple, list)):
        return "(" + ",".join([format_value(v, entities, missing) for v in value]) + ")"
    if isinstance(value, str):
        return f"'{encode_step_string(value)}'"
    if isinstance(value, EnumToken):
        return f".{value.name}."
    if isinstance(value, bool):
        return ".T." if value else ".F."
    if isinstance(value, int):
        return str(value)
    if value is DERIVED:
        return "*"
    if isinstance(value, TypedValue):
        return f"{value.type_name}({format_value(value.value, entities, missing)})"
    raise TypeError(f"cannot serialize attribute value {value!r}")


# records formatted and encoded together by write_step; a chunk's lines,
# text and bytes are alive at once, so a small chunk keeps the peak of a
# write near the size of the file
_WRITE_CHUNK = 1024


def write_step(header: StepHeader, entities: dict[int, EntityInstance]) -> bytes:
    """Serialize header + entities deterministically (ascending id order).

    The records are formatted and encoded ``_WRITE_CHUNK`` at a time, and
    each encoded chunk is written into one buffer; a deferred record is
    written as its own text. References are checked as they are formatted:
    :class:`DanglingRef` lists every id that no entity has, and is raised
    before any bytes are returned.
    """
    lines = [ISO_OPEN, "HEADER;"]
    descs = tuple(header.file_description) or ("",)
    lines.append(
        "FILE_DESCRIPTION(%s,%s);"
        % (format_value(descs), format_value(header.implementation_level))
    )
    lines.append(
        "FILE_NAME(%s,%s,%s,%s,%s,%s,%s);"
        % (
            format_value(header.name),
            format_value(header.timestamp),
            format_value(tuple(header.author) or ("",)),
            format_value(tuple(header.organization) or ("",)),
            format_value(header.preprocessor_version),
            format_value(header.originating_system),
            format_value(header.authorization),
        )
    )
    lines.append("FILE_SCHEMA(%s);" % format_value(tuple(header.file_schema)))
    lines.append("ENDSEC;")
    lines.append("DATA;")
    lines.append("")
    out = io.BytesIO()
    out.write("\n".join(lines).encode("iso-8859-1"))
    # the ids of kit models and of files in id order already ascend, and
    # then no sorted copy of them is made
    if all(map(operator.lt, entities, islice(entities, 1, None))):
        records = iter(entities.values())
    else:
        records = map(entities.__getitem__, sorted(entities))
    missing: set[int] = set()
    plain = EntityInstance  # any other record still holds its text
    while chunk := "".join(
            f"#{inst.id}={inst.class_name}({inst.text});\n" if inst.__class__ is not plain else
            f"#{inst.id}={inst.class_name}("
            f"{','.join([format_value(v, entities, missing) for v in inst.attributes])});\n"
            for inst in islice(records, _WRITE_CHUNK)):
        out.write(chunk.encode("iso-8859-1"))
    if missing:
        raise DanglingRef(missing)
    out.write(f"ENDSEC;\n{ISO_CLOSE}\n".encode("iso-8859-1"))
    return out.getvalue()
