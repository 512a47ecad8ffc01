"""Every parameter with a default is passed by some caller outside the tests.

A default that no call in ``src/``, ``scripts/`` or ``perfbench/`` ever
overrides is a setting with one value in use, which should be a constant.
Calls are matched by function name (a class name stands for its
``__init__``); a parameter counts as passed when a call gives it by
position or by keyword, or passes a starred argument.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "scripts", "perfbench")


def _defaulted_parameters():
    """(qualified name, called name, parameter, call position or None)."""
    for path in sorted((ROOT / "src" / "permutads").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    owners[item] = node.name
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner = owners.get(node)
            qualified = ".".join(filter(None, (path.stem, owner, node.name)))
            name = owner if owner and node.name == "__init__" else node.name
            args = node.args
            positional = args.posonlyargs + args.args
            decorators = {ast.unparse(d) for d in node.decorator_list}
            first = 1 if owner and "staticmethod" not in decorators else 0
            defaulted = positional[len(positional) - len(args.defaults):]
            for arg in defaulted:
                yield qualified, name, arg.arg, positional.index(arg) - first
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield qualified, name, arg.arg, None


def _calls_by_name():
    calls = {}
    for folder in CALLERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name):
                    calls.setdefault(func.id, []).append(node)
                elif isinstance(func, ast.Attribute):
                    calls.setdefault(func.attr, []).append(node)
    return calls


def _passes(call, parameter, position):
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg is None or kw.arg == parameter for kw in call.keywords):
        return True
    return position is not None and len(call.args) > position


def unset_parameters():
    calls = _calls_by_name()
    return [
        f"{qualified}({parameter})"
        for qualified, name, parameter, position in _defaulted_parameters()
        if not any(_passes(call, parameter, position) for call in calls.get(name, ()))
    ]


def test_every_default_is_overridden_by_some_caller():
    assert unset_parameters() == []
