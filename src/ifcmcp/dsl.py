"""Safe query/mutation pipeline language over the building model.

    program  := selector ('|' stage)*
    selector := IDENT | 'all'
    stage    := filter(expr) | select(expr, ...) | count | sum(expr)
              | min(expr) | max(expr) | avg(expr) | list(expr)
              | rename(template) | set(Attr, expr)
              | set_pset("Pset", "Prop", expr)

Expressions are C-like (==, !=, <, <=, >, >=, &&, ||, +, -, *, /) over
number/string/bool literals, derived fields (length, height, area,
elevation, storey, name, guid, class), raw attributes (.Name) and
property-set access (pset("P").Prop or pset("P")["U-value"]).

The language has no loops, no I/O and no entity creation; every program
terminates within a fixed expression-step budget.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

from . import measure, schema
from .errors import (
    MAX_QUERY_BYTES,
    BudgetExceeded,
    InvalidParams,
    ParseError,
    TypeMismatch,
    UnknownAttribute,
    UnknownField,
)
from .model import (
    EDITABLE_ATTRIBUTES,
    IfcModel,
    psets_of,
    set_pset_property,
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

DERIVED_FIELDS = ("length", "height", "area", "elevation", "storey",
                  "name", "guid", "class")


# --- AST ---

@dataclass
class Num:
    value: float

@dataclass
class Str:
    value: str

@dataclass
class Bool:
    value: bool

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

@dataclass
class Rename:
    template: str

@dataclass
class SetAttr:
    name: str
    expr: object

@dataclass
class SetPset:
    pset: str
    prop: str
    expr: object

@dataclass
class QueryProgram:
    selector: str
    filters: list
    terminal: object

    @property
    def is_mutation(self) -> bool:
        return isinstance(self.terminal, (Rename, SetAttr, SetPset))


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
    body = raw[1:-1]
    return re.sub(r"\\(.)", r"\1", body)


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
        if name == "filter":
            self.expect_op("(")
            expr = self.parse_expr()
            self.expect_op(")")
            return Filter(expr)
        if name == "select":
            self.expect_op("(")
            exprs = [self.parse_expr()]
            while self.accept_op(","):
                exprs.append(self.parse_expr())
            self.expect_op(")")
            return Select(exprs)
        if name == "count":
            return Agg("count", None)
        if name in ("sum", "min", "max", "avg", "list"):
            self.expect_op("(")
            expr = self.parse_expr()
            self.expect_op(")")
            return Agg(name, expr)
        if name == "rename":
            self.expect_op("(")
            template = self.expect_string()
            self.expect_op(")")
            return Rename(template)
        if name == "set":
            self.expect_op("(")
            attr = self.expect_ident()
            self.expect_op(",")
            expr = self.parse_expr()
            self.expect_op(")")
            return SetAttr(attr, expr)
        if name == "set_pset":
            self.expect_op("(")
            pset = self.expect_string()
            self.expect_op(",")
            prop = self.expect_string()
            self.expect_op(",")
            expr = self.parse_expr()
            self.expect_op(")")
            return SetPset(pset, prop, expr)
        self.fail("a stage (filter, select, count, sum, min, max, avg, "
                  "list, rename, set, set_pset)")

    def parse_expr(self):
        node = self.parse_or()
        if self.depth + _depth(node) > MAX_EXPR_DEPTH:
            self.fail(f"an expression nested at most {MAX_EXPR_DEPTH} deep")
        return node

    def parse_or(self):
        node = self.parse_and()
        while self.accept_op("||"):
            node = BinOp("||", node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_cmp()
        while self.accept_op("&&"):
            node = BinOp("&&", node, self.parse_cmp())
        return node

    def parse_cmp(self):
        node = self.parse_add()
        for op in ("==", "!=", "<=", ">=", "<", ">"):
            if self.accept_op(op):
                return BinOp(op, node, self.parse_add())
        return node

    def parse_add(self):
        node = self.parse_mul()
        while True:
            if self.accept_op("+"):
                node = BinOp("+", node, self.parse_mul())
            elif self.accept_op("-"):
                node = BinOp("-", node, self.parse_mul())
            else:
                return node

    def parse_mul(self):
        node = self.parse_unary()
        while True:
            if self.accept_op("*"):
                node = BinOp("*", node, self.parse_unary())
            elif self.accept_op("/"):
                node = BinOp("/", node, self.parse_unary())
            else:
                return node

    def parse_unary(self):
        ops = []
        while self.current[0] == "op" and self.current[1] in ("-", "!"):
            ops.append(self.current[1])
            self.advance()
        node = self.parse_postfix()
        for op in reversed(ops):
            node = UnOp(op, node)
        return node

    def parse_postfix(self):
        node = self.parse_primary()
        while True:
            kind, value, _pos = self.current
            if kind == "op" and value == "." and isinstance(node, PsetProp) \
                    and node.prop == "":
                self.advance()
                node = PsetProp(node.pset, self.expect_ident())
            elif kind == "op" and value == "[" and isinstance(node, PsetProp) \
                    and node.prop == "":
                self.advance()
                prop = self.expect_string()
                self.expect_op("]")
                node = PsetProp(node.pset, prop)
            else:
                if isinstance(node, PsetProp) and node.prop == "":
                    self.fail("a property access after pset(...)")
                return node

    def parse_primary(self):
        kind, value, pos = self.current
        if kind == "num":
            self.advance()
            return Num(float(value))
        if kind == "str":
            self.advance()
            return Str(_unquote(value))
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
                return Bool(value == "true")
            if value == "pset":
                self.advance()
                self.expect_op("(")
                pset = self.expect_string()
                self.expect_op(")")
                return PsetProp(pset, "")  # completed by postfix access
            if value in DERIVED_FIELDS:
                self.advance()
                return Field(value)
            raise ParseError(pos, f"a field name (one of {', '.join(DERIVED_FIELDS)})")
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


def _field_value(model: IfcModel, entity_id: int, name: str):
    if name == "length":
        return measure.element_length(model, entity_id)
    if name == "height":
        return measure.element_height(model, entity_id)
    if name == "area":
        return measure.element_area(model, entity_id)
    if name == "elevation":
        return measure.element_elevation(model, entity_id)
    if name == "storey":
        storey_id = model.storey_of(entity_id)
        return _name_of(model, storey_id) if storey_id is not None else None
    if name == "name":
        return _name_of(model, entity_id)
    if name == "guid":
        return model.guid_of(entity_id)
    if name == "class":
        return schema.camel_case(model.entities[entity_id].class_name)
    raise UnknownField(name)


def _eval(model: IfcModel, entity_id: int, node, budget: _Budget):
    budget.spend()
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Str):
        return node.value
    if isinstance(node, Bool):
        return node.value
    if isinstance(node, Field):
        return _field_value(model, entity_id, node.name)
    if isinstance(node, RawAttr):
        inst = model.entities[entity_id]
        index = schema.attribute_index(inst.class_name, node.name)
        if index is None or index >= len(inst.attributes):
            raise UnknownField(node.name)
        value = inst.attributes[index]
        return value if isinstance(value, (str, int, float, bool)) else None
    if isinstance(node, PsetProp):
        return psets_of(model, entity_id).get(node.pset, {}).get(node.prop)
    if isinstance(node, UnOp):
        value = _eval(model, entity_id, node.operand, budget)
        if node.op == "-":
            if not isinstance(value, (int, float)) or isinstance(value, bool):
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
            if node.op == "&&" and not left:
                return False
            if node.op == "||" and left:
                return True
            right = _eval(model, entity_id, node.right, budget)
            if not isinstance(right, bool):
                raise TypeMismatch(f"{node.op} needs booleans, got {right!r}")
            return right
        right = _eval(model, entity_id, node.right, budget)
        return _binary(node.op, left, right)
    raise TypeMismatch(f"cannot evaluate {node!r}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _binary(op: str, left, right):
    if op in ("==", "!="):
        equal = left == right if type(left) is type(right) or (
            _is_number(left) and _is_number(right)) else False
        return equal if op == "==" else not equal
    if op in ("<", "<=", ">", ">="):
        if left is None or right is None:
            return False
        if _is_number(left) and _is_number(right) or (
                isinstance(left, str) and isinstance(right, str)):
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            return left >= right
        raise TypeMismatch(f"cannot order {left!r} and {right!r}")
    if not (_is_number(left) and _is_number(right)):
        raise TypeMismatch(f"{op} needs numbers, got {left!r} and {right!r}")
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if right == 0:
        raise TypeMismatch("division by zero")
    return left / right


def format_decimal(value: float) -> str:
    """One decimal place, half-up: 3 -> '3.0', 2.25 -> '2.3'."""
    return str(Decimal(repr(float(value))).quantize(Decimal("0.1"),
                                                    rounding=ROUND_HALF_UP))


_TEMPLATE_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


def _render_template(model: IfcModel, entity_id: int, template: str) -> str:
    def substitute(match):
        field = match.group(1)
        if field not in DERIVED_FIELDS:
            raise UnknownField(field)
        value = _field_value(model, entity_id, field)
        if value is None:
            raise TypeMismatch(f"{field} is unavailable for this element")
        if _is_number(value):
            return format_decimal(value)
        return str(value)

    return _TEMPLATE_RE.sub(substitute, template)


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
    if isinstance(terminal, (Rename, SetAttr, SetPset)):
        changed = _apply_mutation(model, selected, terminal, budget, log)
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
    if kind == "sum":
        result = float(sum(values))
    elif kind == "min":
        result = min(values) if values else None
    elif kind == "max":
        result = max(values) if values else None
    else:  # avg
        result = float(sum(values)) / len(values) if values else None
    log.append(f"{kind} = {result}")
    return result, log, []


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def _apply_mutation(model: IfcModel, selected: list[int], terminal,
                    budget: _Budget, log: list[str]) -> list[str]:
    # plan first so validation failures leave the model untouched
    plan: list[tuple[int, object]] = []
    for entity_id in selected:
        inst = model.entities[entity_id]
        if isinstance(terminal, Rename):
            plan.append((entity_id, _render_template(model, entity_id,
                                                     terminal.template)))
        elif isinstance(terminal, SetAttr):
            if terminal.name not in EDITABLE_ATTRIBUTES:
                raise UnknownAttribute(terminal.name, inst.class_name)
            if schema.attribute_index(inst.class_name, terminal.name) is None:
                raise UnknownAttribute(terminal.name, inst.class_name)
            if inst.class_name in schema.SPATIAL_CLASSES and \
                    terminal.name not in ("Name", "Description"):
                raise InvalidParams(
                    f"only Name/Description may be set on {inst.class_name}")
            value = _eval(model, entity_id, terminal.expr, budget)
            if value is not None and not isinstance(value, (str, int, float, bool)):
                raise TypeMismatch(f"cannot store {value!r} in an attribute")
            plan.append((entity_id, value))
        else:
            value = _eval(model, entity_id, terminal.expr, budget)
            if not isinstance(value, (str, int, float, bool)):
                raise TypeMismatch(f"cannot store {value!r} as a property value")
            plan.append((entity_id, value))

    changed: list[str] = []
    for entity_id, value in plan:
        inst = model.entities[entity_id]
        guid = model.guid_of(entity_id)
        if isinstance(terminal, Rename):
            model.set_attr(inst, "Name", value)
        elif isinstance(terminal, SetAttr):
            model.set_attr(inst, terminal.name, value)
        else:
            set_pset_property(model, guid, terminal.pset, terminal.prop, value)
        changed.append(guid)
    if isinstance(terminal, Rename):
        log.append(f"renamed {len(changed)} element(s)")
    elif isinstance(terminal, SetAttr):
        log.append(f"set {terminal.name} on {len(changed)} element(s)")
    else:
        log.append(f"set {terminal.pset}.{terminal.prop} on {len(changed)} element(s)")
    return changed

