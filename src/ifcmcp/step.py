"""ISO 10303-21 (STEP physical file) reader and writer.

Entity attributes are held as plain Python values where the mapping is
unambiguous (int, float, str, bool, None for ``$``) plus small wrapper
types for the STEP-specific variants (entity references, enumeration
tokens, typed values, ``*``). Lists are stored as tuples so nesting is
preserved exactly on round-trip.

Reading has two paths. Each well-formed DATA record is matched whole by one
pattern and its values are built in one loop (the record path). Comments,
the header and every error take the token path (``_Tokenizer``/``_Parser``):
a record the record path does not fully accept is read again from its start
by the token path, which parses it or raises, so syntax errors and their
line and column come from one place.

An entity's attributes are one immutable tuple. Values that repeat across
a file are built once per ``parse_step`` call and shared between the
entities that hold them: class names, number and enumeration tokens, and
the attribute tuple of each distinct record body without references, which
every record with that body holds. References and strings elsewhere are
built per record, but a reference to an entity already read holds that
entity's own id ``int``. An edit gives the entity a new tuple, so a shared
value is never changed in place. Nothing is cached between calls.

Writing formats and encodes the records about a thousand at a time and
writes each encoded chunk into one buffer, whose bytes are returned without
a copy, so no list of every line, no list of chunks and no whole file as one
string is built next to the bytes. Each reference is checked as it is
formatted, so no separate pass looks for dangling ones.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass, field

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


@dataclass(slots=True)
class EntityInstance:
    """One STEP record: ``#id=CLASS(attr, attr, ...);``"""

    id: int
    class_name: str
    attributes: tuple


@dataclass
class StepHeader:
    file_description: list[str] = field(default_factory=lambda: [""])
    implementation_level: str = "2;1"
    name: str = ""
    timestamp: str = ""
    author: list[str] = field(default_factory=lambda: [""])
    organization: list[str] = field(default_factory=lambda: [""])
    preprocessor_version: str = "ifcmcp 0.1.0"
    originating_system: str = "ifcmcp"
    authorization: str = ""
    file_schema: list[str] = field(default_factory=lambda: ["IFC4"])


# --- string escape handling ---

def decode_step_string(raw: str) -> str:
    """Decode a STEP string body (quotes already stripped, ``''`` collapsed)."""
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
            hexrun = raw[i + 4:end]
            out.extend(chr(int(hexrun[j:j + 4], 16)) for j in range(0, len(hexrun), 4))
            i = end + 4
        elif raw.startswith("\\X4\\", i):
            end = raw.find("\\X0\\", i + 4)
            if end < 0:
                out.append(c)
                i += 1
                continue
            hexrun = raw[i + 4:end]
            out.extend(chr(int(hexrun[j:j + 8], 16)) for j in range(0, len(hexrun), 8))
            i = end + 4
        elif raw.startswith("\\X\\", i) and i + 5 <= n:
            out.append(chr(int(raw[i + 3:i + 5], 16)))
            i += 5
        elif raw.startswith("\\S\\", i) and i + 4 <= n:
            # ISO 8859 shifted character: add 0x80 to the following char
            out.append(chr(ord(raw[i + 3]) + 0x80))
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
            ref = int(m.group(1))
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
            self.pos = j + 1
            return (_T_STRING, decode_step_string("".join(parts)))

    def _number(self) -> tuple[str, object]:
        m = _NUMBER_RE.match(self.text, self.pos)
        if not m:
            raise self.error("malformed number")
        if m.group(1) is None and m.group(2) is None:
            self.pos = m.end()
            return (_T_INT, int(m.group(0)))
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
# One pattern matches a whole well-formed DATA record; its body is split
# into tokens by one findall, and _record_args builds the values. Anything
# either step does not fully accept goes to _Parser from the record's start,
# which parses it or raises, so every syntax error comes from the token path.

_WS = r"[ \t\r\n]*"
# without (?!') a run of '' could also split into "end string, start
# string", and a failed match would backtrack exponentially in the run
_STRING = r"'[^']*(?:''[^']*)*'(?!')"
_RECORD_RE = re.compile(
    rf"{_WS}#(\d+){_WS}={_WS}([A-Z][A-Z0-9_]*){_WS}\(([^';]*(?:{_STRING}[^';]*)*)\){_WS};")
# the tokenizer's token patterns, then any other non-blank character (the
# punctuation and the characters no token accepts); the record pattern has
# already matched every quote of the body as part of a string
_VALUE_RE = re.compile(
    rf"{_STRING}|#\d+|\.[A-Z_][A-Z0-9_]*\.|[+-]?\d+(?:\.\d*)?(?:[Ee][+-]?\d+)?"
    r"|[A-Z][A-Z0-9_]*|[^ \t\r\n]")


def _atom(token: str):
    """Value of a number or enumeration token, or ``None`` for a stray
    character such as a lone ``.``, ``+``, ``/`` or ``=`` and for a real
    that overflows a double, which the token path then rejects."""
    if token[0] == ".":
        if len(token) == 1:
            return None
        name = token[1:-1]
        return True if name == "T" else False if name == "F" else EnumToken(name)
    try:
        if "." in token or "E" in token or "e" in token:
            value = float(token)
            return value if math.isfinite(value) else None
        return int(token)
    except ValueError:
        return None


def _record_args(text: str, start: int, end: int, entities: dict, refs: list,
                 atoms: dict) -> tuple | None:
    """Attributes of the record body ``text[start:end]``, or ``None`` when
    the token path must read the record.

    A reference to an entity of ``entities`` (one already read) is built on
    that entity's own id; every other referenced id is added to ``refs``.
    ``atoms`` maps each number or enumeration token already read to its
    value, so equal tokens across the file share one value."""
    args: list = []
    items = args
    stack: list = []      # (enclosing items, typed-value name or None) per open list
    typed = None          # keyword still waiting for its '('
    want_value = True     # else after a value: ',' or ')'
    found: list = []      # ids referenced by this record and not yet read
    for token in _VALUE_RE.findall(text, start, end):
        c = token[0]
        if not want_value:
            if c == ",":
                want_value = True
                continue
            if c != ")":
                return None
        elif typed is not None and c != "(":
            return None
        if c == ")":
            # a list closes after a value, or right after its '('
            if not stack or (want_value and items):
                return None
            outer, name = stack.pop()
            if name is None:
                value = tuple(items)
            else:
                value = TypedValue(name, items[0] if len(items) == 1 else tuple(items))
            items = outer
            items.append(value)
            want_value = False
            continue
        if c == "(":
            # leave lists near the depth limit to the parser, which counts them
            if len(stack) >= MAX_LIST_DEPTH - 2:
                return None
            stack.append((items, typed))
            items = []
            typed = None
            continue
        if c == "#":
            if len(token) == 1:
                return None
            ref = int(token[1:])
            if not ref:
                return None
            target = entities.get(ref)
            if target is None:
                found.append(ref)
                value = EntityRef(ref)
            else:
                value = EntityRef(target.id)
        elif c == "$":
            value = None
        elif c == "'":
            value = token[1:-1]
            if "''" in value:
                value = value.replace("''", "'")
            if "\\" in value:
                value = decode_step_string(value)
        elif c == "*":
            value = DERIVED
        elif "A" <= c <= "Z":
            typed = token
            continue
        else:
            value = atoms.get(token)
            if value is None:
                value = _atom(token)
                if value is None:
                    return None
                atoms[token] = value
        items.append(value)
        want_value = False
    if stack or typed is not None or (want_value and args):
        return None
    refs += found
    return tuple(args)


def _header_string(value, default: str = "") -> str:
    return value if isinstance(value, str) else default

def _header_strings(value) -> list[str]:
    if isinstance(value, tuple):
        return [v for v in value if isinstance(v, str)]
    return []


def parse_step(data: bytes | str) -> tuple[StepHeader, dict[int, EntityInstance]]:
    """Parse a STEP exchange file into a header and entity map.

    Forward references are permitted; every reference to an entity not
    read yet is checked after the full pass and :class:`DanglingRef` raised
    if any fail to resolve. A reference to an entity already read holds
    that entity's id object, so the model keeps no second int per id.
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
    entities: dict[int, EntityInstance] = {}
    refs: list[int] = []  # ids referenced before their record, checked after the pass
    # shared values (see the module docstring), built once per call
    names: dict[str, str] = {}
    atoms: dict[str, object] = {}
    bodies: dict[str, tuple] = {}  # body without references -> its values
    while True:
        m = _RECORD_RE.match(text, pos)
        entity_id = int(m.group(1)) if m else 0
        args = None
        if entity_id:
            start, stop = m.span(3)
            body = None if text.find("#", start, stop) >= 0 else text[start:stop]
            args = bodies.get(body)
            if args is None:
                args = _record_args(text, start, stop, entities, refs, atoms)
                if args is not None and body is not None:
                    bodies[body] = args
        if args is not None:
            name, end = m.group(2), m.end()
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
            refs.extend(ref.id for ref in iter_refs(args))
            end = tok.pos
        if entity_id in entities:
            # a syntax error in the next token is reported first, as the
            # token path reads one token past the ';' before this check
            tok.pos = end
            tok.next()
            raise DuplicateId(entity_id)
        entities[entity_id] = EntityInstance(entity_id, names.setdefault(name, name), args)
        pos = end

    parser.expect_keyword(ISO_CLOSE[:-1])
    parser.expect_punct(";")

    dangling = {ref for ref in refs if ref not in entities}
    if dangling:
        raise DanglingRef(dangling)
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
    each encoded chunk is written into one buffer. References are checked
    as they are formatted: :class:`DanglingRef` lists every id that no
    entity has, and is raised before any bytes are returned.
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
    ids = sorted(entities)
    missing: set[int] = set()
    for start in range(0, len(ids), _WRITE_CHUNK):
        out.write("".join(
            f"#{inst.id}={inst.class_name}("
            f"{','.join([format_value(v, entities, missing) for v in inst.attributes])});\n"
            for inst in map(entities.__getitem__, ids[start:start + _WRITE_CHUNK])
        ).encode("iso-8859-1"))
    if missing:
        raise DanglingRef(missing)
    out.write(f"ENDSEC;\n{ISO_CLOSE}\n".encode("iso-8859-1"))
    return out.getvalue()
