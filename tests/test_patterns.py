"""Every module-level pattern of the package compiles on each CPython the
package supports: CPython 3.10, the oldest, has no possessive repeat
(``a*+``) and no atomic group (``(?>...)``)."""

from __future__ import annotations

import importlib
import pkgutil
import re

import pytest

import ifcmcp

_parser = pytest.importorskip("re._parser")  # CPython 3.11 and later
_NEWER = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}


def _newer_opcodes(parsed) -> set[str]:
    """Names of the opcodes of a parsed pattern, at any depth, that CPython
    3.10 does not compile."""
    found = set()
    stack = [parsed]
    while stack:
        item = stack.pop()
        if isinstance(item, _parser.SubPattern):
            for op, av in item.data:
                if str(op) in _NEWER:
                    found.add(str(op))
                stack.append(av)
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
    return found


def _module_patterns() -> dict[str, re.Pattern]:
    patterns = {}
    for info in pkgutil.iter_modules(ifcmcp.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"ifcmcp.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, re.Pattern):
                patterns[f"{info.name}.{name}"] = value
    return patterns


def test_the_walk_finds_each_opcode_that_cpython_3_10_lacks():
    assert _newer_opcodes(_parser.parse(r"#(\d+)=(?:[A-Z]|\((?>a|b)\))*")) == {"ATOMIC_GROUP"}
    assert _newer_opcodes(_parser.parse(r"(?:x|(y*+))")) == {"POSSESSIVE_REPEAT"}
    assert _newer_opcodes(_parser.parse(r"(?a)[ \t]*(a(?=b)|c{1,3}?)")) == set()


def test_no_module_pattern_needs_cpython_3_11():
    patterns = _module_patterns()
    assert "step._DATA_RE" in patterns
    newer = {name: opcodes for name, pattern in patterns.items()
             if (opcodes := _newer_opcodes(_parser.parse(pattern.pattern, pattern.flags)))}
    assert newer == {}
