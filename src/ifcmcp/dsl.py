"""Safe query/mutation pipeline language over the building model.

    program  := selector ('|' stage)*
    selector := IDENT | 'all'
    stage    := filter(expr) | select(expr, ...) | count | sum(expr)
              | min(expr) | max(expr) | avg(expr) | list(expr)
              | rename(template) | set(Attr, expr)
              | set_pset("Pset", "Prop", expr)

Expressions are C-like (==, !=, <, <=, >, >=, &&, ||, +, -, *, /) over
finite number, string and bool literals (a number literal that overflows a
double is a parse error), derived fields (length, height, area,
elevation, storey, name, guid, class), raw attributes (.Name) and
property-set access (pset("P").Prop or pset("P")["U-value"]).

The language has no loops, no I/O and no entity creation; every program
terminates within a fixed expression-step budget.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context, Decimal

from . import measure, schema
from .errors import (
    MAX_QUERY_BYTES,
    BudgetExceeded,
    InvalidParams,
    ParseError,
    TypeMismatch,
    UnknownField,
)
from .model import (
    IfcModel,
    PropertySpec,
    check_editable,
    psets_of,
    write_property_set,
)
from .scene import _name_of, products_in_order

STEP_BUDGET = 1_000_000
# deepest nesting of operators and parentheses in one expression; keeps
# parsing and evaluation far below the interpreter's recursion limit
MAX_EXPR_DEPTH = 64

SELECTOR_CLASSES: dict[str, tuple[str, ...]] = {
    "walls": schema.WALL_CLASSES,
    "slabs": ("IFCSLAB",),
    "doors": ("IFCDOOR",),
    "windows": ("IFCWINDOW",),
    "roofs": ("IFCROOF",),
    "stairs": ("IFCSTAIR",),
    "columns": ("IFCCOLUMN",),
    "beams": ("IFCBEAM",),
    "members": ("IFCMEMBER",),
    "proxies": ("IFCBUILDINGELEMENTPROXY",),
    "furniture": ("IFCFURNISHINGELEMENT",),
    "buildings": ("IFCBUILDING",),
    "storeys": ("IFCBUILDINGSTOREY",),
    "sites": ("IFCSITE",),
}


def _storey_name(model: IfcModel, entity_id: int) -> str | None:
    storey_id = model.storey_of(entity_id)
    return _name_of(model, storey_id) if storey_id is not None else None


# derived fields: name -> value of one element, or None where it has none
FIELDS = {
    "length": measure.element_length,
    "height": measure.element_height,
    "area": measure.element_area,
    "elevation": measure.element_elevation,
    "storey": _storey_name,
    "name": _name_of,
    "guid": IfcModel.guid_of,
    "class": lambda model, entity_id: schema.camel_case(
        model.entities[entity_id].class_name),
}


# --- AST ---

@dataclass
class Const:
    value: float | str | bool

@dataclass
class Field:
    name: str

@dataclass
class RawAttr:
    name: str

@dataclass
class PsetProp:
    pset: str
    prop: str

def _depth(node) -> int:
    """Operators nested in an expression node; 0 for literals and fields."""
    return getattr(node, "depth", 0)

@dataclass
class UnOp:
    op: str
    operand: object

    def __post_init__(self):
        self.depth = 1 + _depth(self.operand)

@dataclass
class BinOp:
    op: str
    left: object
    right: object

    def __post_init__(self):
        self.depth = 1 + max(_depth(self.left), _depth(self.right))

@dataclass
class Filter:
    expr: object

@dataclass
class Select:
    exprs: list

@dataclass
class Agg:
    kind: str
    expr: object | None


class _Mutation:
    """A terminal that writes: ``plan`` gives one element's new value, or
    raises before anything is written; ``write`` stores it; ``summary`` is
    its log line, formatted with its fields and ``count``."""

    attribute = "Name"

    def write(self, model: IfcModel, entity_id: int, value):
        model.set_attr(model.entities[entity_id], self.attribute, value)

@dataclass
class Rename(_Mutation):
    template: str
    summary = "renamed {count} element(s)"

    def plan(self, model: IfcModel, entity_id: int, budget: _Budget):
        return _render_template(model, entity_id, self.template)

@dataclass
class SetAttr(_Mutation):
    name: str
    expr: object
    summary = "set {name} on {count} element(s)"
    attribute = property(lambda self: self.name)

    def plan(self, model: IfcModel, entity_id: int, budget: _Budget):
        check_editable(model.entities[entity_id], self.name)
        class_name = model.entities[entity_id].class_name
        if class_name in schema.SPATIAL_CLASSES and \
                self.name not in ("Name", "Description"):
            raise InvalidParams(f"only Name/Description may be set on {class_name}")
        value = _eval(model, entity_id, self.expr, budget)
        if value is not None and not isinstance(value, (str, int, float, bool)):
            raise TypeMismatch(f"cannot store {value!r} in an attribute")
        return value

@dataclass
class SetPset(_Mutation):
    pset: str
    prop: str
    expr: object
    summary = "set {pset}.{prop} on {count} element(s)"

    def plan(self, model: IfcModel, entity_id: int, budget: _Budget):
        value = _eval(model, entity_id, self.expr, budget)
        if not isinstance(value, (str, int, float, bool)):
            raise TypeMismatch(f"cannot store {value!r} as a property value")
        return value

    def write(self, model: IfcModel, entity_id: int, value):
        write_property_set(model, model.entities[entity_id],
                           PropertySpec(self.pset, [(self.prop, value)]))

@dataclass
class QueryProgram:
    selector: str
    filters: list
    terminal: object

    @property
    def is_mutation(self) -> bool:
        return isinstance(self.terminal, _Mutation)


# --- lexer ---

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>\d+(\.\d*)?([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<str>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')
  | (?P<op>\|\||&&|==|!=|<=|>=|[|().,\[\]<>+\-*/!.])
""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(pos, f"a token (found {text[pos]!r})")
        kind = match.lastgroup
        if kind != "ws":
            tokens.append((kind, match.group(0), pos))
        pos = match.end()
    tokens.append(("eof", "", len(text)))
    return tokens


def _unquote(raw: str) -> str:
    return re.sub(r"\\(.)", r"\1", raw[1:-1])


# binary operators by precedence level, loosest first; a comparison takes
# one operator, the other levels chain to the left
_LEVELS = (("||",), ("&&",), ("==", "!=", "<=", ">=", "<", ">"), ("+", "-"),
           ("*", "/"))
_COMPARISONS = _LEVELS[2]

# stage name -> (AST node, the parser methods of its arguments inside the
# parentheses: an expression, a list of them, a string or a name); a stage
# without arguments takes no parentheses
_STAGES = {
    "filter": (Filter, ("parse_expr",)),
    "select": (Select, ("parse_exprs",)),
    "count": (lambda: Agg("count", None), ()),
    **{kind: (lambda expr, kind=kind: Agg(kind, expr), ("parse_expr",))
       for kind in ("sum", "min", "max", "avg", "list")},
    "rename": (Rename, ("expect_string",)),
    "set": (SetAttr, ("expect_ident", "parse_expr")),
    "set_pset": (SetPset, ("expect_string", "expect_string", "parse_expr")),
}


class _QueryParser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0  # parentheses open around the current token

    @property
    def current(self):
        return self.tokens[self.index]

    def advance(self):
        self.index += 1

    def fail(self, expected: str):
        raise ParseError(self.current[2], expected)

    def accept_op(self, op: str) -> bool:
        kind, value, _pos = self.current
        if kind == "op" and value == op:
            self.advance()
            return True
        return False

    def expect_op(self, op: str):
        if not self.accept_op(op):
            self.fail(repr(op))

    def expect_ident(self) -> str:
        kind, value, _pos = self.current
        if kind != "ident":
            self.fail("an identifier")
        self.advance()
        return value

    def expect_string(self) -> str:
        kind, value, _pos = self.current
        if kind != "str":
            self.fail("a string literal")
        self.advance()
        return _unquote(value)

    def parse_exprs(self) -> list:
        exprs = [self.parse_expr()]
        while self.accept_op(","):
            exprs.append(self.parse_expr())
        return exprs

    def parse_program(self) -> QueryProgram:
        selector = self.expect_ident()
        filters: list[Filter] = []
        terminal = None
        while self.accept_op("|"):
            stage = self.parse_stage()
            if isinstance(stage, Filter):
                if terminal is not None:
                    self.fail("no stage after the terminal")
                filters.append(stage)
            else:
                if terminal is not None:
                    self.fail("exactly one terminal stage")
                terminal = stage
        if self.current[0] != "eof":
            self.fail("'|' or end of query")
        if terminal is None:
            self.fail("a terminal stage (count, sum, select, rename, ...)")
        return QueryProgram(selector, filters, terminal)

    def parse_stage(self):
        name = self.expect_ident()
        if name not in _STAGES:
            self.fail(f"a stage ({', '.join(_STAGES)})")
        node, parsers = _STAGES[name]
        args = []
        for index, parser in enumerate(parsers):
            self.expect_op("," if index else "(")
            args.append(getattr(self, parser)())
        if parsers:
            self.expect_op(")")
        return node(*args)

    def parse_expr(self):
        node = self.parse_binary(0)
        if self.depth + _depth(node) > MAX_EXPR_DEPTH:
            self.fail(f"an expression nested at most {MAX_EXPR_DEPTH} deep")
        return node

    def parse_binary(self, level: int):
        """The operators of ``_LEVELS[level]`` over the tighter levels."""
        if level == len(_LEVELS):
            return self.parse_unary()
        node = self.parse_binary(level + 1)
        ops = _LEVELS[level]
        while self.current[0] == "op" and self.current[1] in ops:
            op = self.current[1]
            self.advance()
            node = BinOp(op, node, self.parse_binary(level + 1))
            if ops is _COMPARISONS:
                break
        return node

    def parse_unary(self):
        ops = []
        while self.current[0] == "op" and self.current[1] in ("-", "!"):
            ops.append(self.current[1])
            self.advance()
        node = self.parse_primary()
        for op in reversed(ops):
            node = UnOp(op, node)
        return node

    def parse_primary(self):
        kind, value, pos = self.current
        if kind == "num":
            number = float(value)
            if not math.isfinite(number):
                self.fail("a number literal that fits a double")
            self.advance()
            return Const(number)
        if kind == "str":
            self.advance()
            return Const(_unquote(value))
        if kind == "op" and value == "(":
            if self.depth >= MAX_EXPR_DEPTH:
                self.fail(f"an expression nested at most {MAX_EXPR_DEPTH} deep")
            self.advance()
            self.depth += 1
            node = self.parse_expr()
            self.depth -= 1
            self.expect_op(")")
            return node
        if kind == "op" and value == ".":
            self.advance()
            return RawAttr(self.expect_ident())
        if kind == "ident":
            if value in ("true", "false"):
                self.advance()
                return Const(value == "true")
            if value == "pset":
                self.advance()
                self.expect_op("(")
                pset = self.expect_string()
                self.expect_op(")")
                if self.accept_op("."):
                    return PsetProp(pset, self.expect_ident())
                if self.accept_op("["):
                    prop = self.expect_string()
                    self.expect_op("]")
                    return PsetProp(pset, prop)
                self.fail("a property access after pset(...)")
            if value in FIELDS:
                self.advance()
                return Field(value)
            raise ParseError(pos, f"a field name (one of {', '.join(FIELDS)})")
        self.fail("a value")


def parse_query(text: str) -> QueryProgram:
    if len(text.encode("utf-8")) > MAX_QUERY_BYTES:
        raise ParseError(MAX_QUERY_BYTES, "query no longer than 8 KiB")
    return _QueryParser(text).parse_program()


# --- evaluation ---

class _Budget:
    def __init__(self):
        self.limit = self.remaining = STEP_BUDGET

    def spend(self):
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExceeded(f"query exceeded {self.limit} expression steps")


def _select_entities(model: IfcModel, selector: str) -> list[int]:
    key = selector.lower()
    if key == "all":
        return products_in_order(model)
    if key in SELECTOR_CLASSES:
        classes = SELECTOR_CLASSES[key]
    else:
        upper = selector.upper()
        if upper in schema.PRODUCT_CLASSES or upper in schema.SPATIAL_CLASSES:
            classes = (upper,)
        else:
            raise UnknownField(selector)
    return model.ids_of(classes.__contains__)


# an integer of at most this many bits has fewer than 640 digits, the least
# limit that sys.set_int_max_str_digits accepts
_SHORT_INT_BITS = 2000


def _finite(value):
    """``value``, or a ``TypeMismatch`` if it is a float that is not finite
    or an integer of more digits than ``str`` writes
    (``sys.get_int_max_str_digits()``): no infinity, NaN or integer that
    JSON cannot write reaches a reply or the model."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise TypeMismatch(f"{value!r} is not a finite number")
    elif isinstance(value, int) and value.bit_length() > _SHORT_INT_BITS:
        try:
            str(value)
        except ValueError:
            raise TypeMismatch(f"an integer of {value.bit_length()} bits has too many "
                               "digits to write") from None
    return value


def _float(value) -> float:
    """``float(value)``, or a ``TypeMismatch`` for an integer beyond the
    double range, which a loaded file may hold."""
    try:
        return float(value)
    except OverflowError:
        raise TypeMismatch(
            f"an integer of {value.bit_length()} bits is too large for a double") from None


def _eval(model: IfcModel, entity_id: int, node, budget: _Budget):
    budget.spend()
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Field):
        return _finite(FIELDS[node.name](model, entity_id))
    if isinstance(node, RawAttr):
        inst = model.entities[entity_id]
        index = schema.attribute_index(inst.class_name, node.name)
        if index is None or index >= len(inst.attributes):
            raise UnknownField(node.name)
        value = inst.attributes[index]
        return _finite(value) if isinstance(value, (str, int, float, bool)) else None
    if isinstance(node, PsetProp):
        return _finite(psets_of(model, entity_id).get(node.pset, {}).get(node.prop))
    if isinstance(node, UnOp):
        value = _eval(model, entity_id, node.operand, budget)
        if node.op == "-":
            if not _is_number(value):
                raise TypeMismatch(f"unary - needs a number, got {value!r}")
            return -value
        if not isinstance(value, bool):
            raise TypeMismatch(f"! needs a boolean, got {value!r}")
        return not value
    if isinstance(node, BinOp):
        left = _eval(model, entity_id, node.left, budget)
        if node.op in ("&&", "||"):
            if not isinstance(left, bool):
                raise TypeMismatch(f"{node.op} needs booleans, got {left!r}")
            if left == (node.op == "||"):  # false && ..., true || ...
                return left
            right = _eval(model, entity_id, node.right, budget)
            if not isinstance(right, bool):
                raise TypeMismatch(f"{node.op} needs booleans, got {right!r}")
            return right
        right = _eval(model, entity_id, node.right, budget)
        return _binary(node.op, left, right)
    raise TypeMismatch(f"cannot evaluate {node!r}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv}


def _binary(op: str, left, right):
    if op in ("==", "!="):
        equal = left == right if type(left) is type(right) or (
            _is_number(left) and _is_number(right)) else False
        return equal if op == "==" else not equal
    if op in _ORDER:
        if left is None or right is None:
            return False
        if _is_number(left) and _is_number(right) or (
                isinstance(left, str) and isinstance(right, str)):
            return _ORDER[op](left, right)
        raise TypeMismatch(f"cannot order {left!r} and {right!r}")
    if not (_is_number(left) and _is_number(right)):
        raise TypeMismatch(f"{op} needs numbers, got {left!r} and {right!r}")
    if op == "/" and right == 0:
        raise TypeMismatch("division by zero")
    if op == "/" or float in (left.__class__, right.__class__):
        # the result is a double, so an integer operand must fit one
        left, right = _float(left), _float(right)
    return _finite(_ARITHMETIC[op](left, right))


def format_decimal(value: float) -> str:
    """One decimal place, half-up: 3 -> '3.0', 2.25 -> '2.3'. The context
    holds the 310 digits of the largest double to one decimal place."""
    return str(Decimal(repr(float(value))).quantize(
        Decimal("0.1"), rounding=ROUND_HALF_UP, context=_DECIMAL_CONTEXT))


_DECIMAL_CONTEXT = Context(prec=310)
_TEMPLATE_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


def _render_template(model: IfcModel, entity_id: int, template: str) -> str:
    def substitute(match):
        field = match.group(1)
        if field not in FIELDS:
            raise UnknownField(field)
        value = _finite(FIELDS[field](model, entity_id))
        if value is None:
            raise TypeMismatch(f"{field} is unavailable for this element")
        if _is_number(value):
            return format_decimal(value)
        return str(value)

    return _TEMPLATE_RE.sub(substitute, template)


# aggregates over the numbers of the selected elements; min and max keep
# the exact value, sum and avg add doubles
_AGGREGATES = {
    "sum": lambda values: sum(map(_float, values), 0.0),
    "min": lambda values: min(values, default=None),
    "max": lambda values: max(values, default=None),
    "avg": lambda values: sum(map(_float, values)) / len(values) if values else None,
}


def eval_query(model: IfcModel, program: QueryProgram):
    """Run a parsed program; returns (result, log, changed_guids)."""
    budget = _Budget()
    log: list[str] = []
    selected = _select_entities(model, program.selector)
    log.append(f"selector {program.selector} matched {len(selected)} element(s)")

    for stage in program.filters:
        kept = []
        for entity_id in selected:
            verdict = _eval(model, entity_id, stage.expr, budget)
            if not isinstance(verdict, bool):
                raise TypeMismatch(f"filter must yield a boolean, got {verdict!r}")
            if verdict:
                kept.append(entity_id)
        log.append(f"filter kept {len(kept)} of {len(selected)}")
        selected = kept

    terminal = program.terminal
    if isinstance(terminal, _Mutation):
        # plan first so validation failures leave the model untouched
        plan = [(entity_id, terminal.plan(model, entity_id, budget))
                for entity_id in selected]
        changed = []
        for entity_id, value in plan:
            changed.append(model.guid_of(entity_id))
            terminal.write(model, entity_id, value)
        log.append(terminal.summary.format(count=len(changed), **vars(terminal)))
        return {"changed": changed, "count": len(changed)}, log, changed

    if isinstance(terminal, Select):
        rows = []
        for entity_id in selected:
            row = [_jsonable(_eval(model, entity_id, e, budget))
                   for e in terminal.exprs]
            rows.append(row[0] if len(row) == 1 else row)
        log.append(f"select produced {len(rows)} row(s)")
        return rows, log, []

    kind = terminal.kind
    if kind == "count":
        log.append(f"count = {len(selected)}")
        return len(selected), log, []
    values = [_eval(model, entity_id, terminal.expr, budget)
              for entity_id in selected]
    if kind == "list":
        result = [_jsonable(v) for v in values]
        log.append(f"list produced {len(result)} value(s)")
        return result, log, []
    for value in values:
        if not _is_number(value):
            raise TypeMismatch(f"{kind}() needs numbers, got {value!r}")
    result = _finite(_AGGREGATES[kind](values))
    log.append(f"{kind} = {result}")
    return result, log, []


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)
