"""Rules read off the source of the package, one module at a time.

The six encoding conversions stay defined because the benchmark tracer
wraps them by name, but the package renders and parses encodings through
the codecs' ``to_json`` and ``from_json``; no ``assert`` guards a result,
since ``python -O`` strips it; and every top-level function and class is
named by some code other than its own definition and the tests.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "permutads"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")

ALIASES = {
    "shuffle_of",
    "surjection_of_shuffle",
    "tree_from_surjection",
    "tree_to_surjection",
    "comb_from_surjection",
    "comb_to_surjection",
}


def _modules():
    return sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", _modules(), ids=lambda path: path.stem)
def test_no_module_uses_the_encoding_aliases(path):
    used = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in ALIASES:
            used.append((name, node.lineno))
    assert used == []


@pytest.mark.parametrize("path", _modules(), ids=lambda path: path.stem)
def test_no_assert_guards_a_result(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


def _named(nodes, strings=False) -> set[str]:
    """Identifiers that code names: names, attributes and imports, and with
    ``strings`` the strings such as the benchmark tracer's
    ``"SpanBasis.add"``, split at the dots.  Only the benchmark names
    package functions by string."""
    out = set()
    for node in (sub for top in nodes for sub in ast.walk(top)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if IDENTIFIER.fullmatch(node.value):
                out.update(node.value.split("."))
    return out


def _body(path):
    return ast.parse(path.read_text(encoding="utf-8")).body


@pytest.mark.parametrize("path", _modules(), ids=lambda path: path.stem)
def test_every_definition_has_a_caller(path):
    elsewhere = set()
    for other in [*_modules(), *(ROOT / "scripts").glob("*.py")]:
        if other != path:
            elsewhere |= _named(_body(other))
    for bench in (ROOT / "perfbench").glob("*.py"):
        elsewhere |= _named(_body(bench), strings=True)
    body = _body(path)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unnamed = [
        node.name
        for node in body
        if isinstance(node, defs)
        and node.name not in elsewhere
        and node.name not in _named(other for other in body if other is not node)
    ]
    assert unnamed == []
