"""Rules read off the source of the package, one module at a time.

The six encoding conversions stay defined because the benchmark tracer
wraps them by name, but the package builds and unwraps encodings with the
class constructors and the field ``t``; and no ``assert`` guards a result,
since ``python -O`` strips it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "permutads"

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
