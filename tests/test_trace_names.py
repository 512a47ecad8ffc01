"""The benchmark's tracer wraps package functions by name; each must exist.

A dotted name is a method, and ``Tracer.install`` reads it from its class's
own ``__dict__``, so a method that only a base class defines does not count.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _resolve(module: str, attr: str):
    """The traced object as the tracer finds it, or None."""
    obj = importlib.import_module(f"permutads.{module}")
    if "." not in attr:
        return getattr(obj, attr, None)
    cls_name, meth = attr.split(".")
    cls = getattr(obj, cls_name, None)
    raw = None if cls is None else vars(cls).get(meth)
    return raw.__func__ if isinstance(raw, staticmethod) else raw


def test_traced_names_resolve_in_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.TRACED
        if not callable(_resolve(module, attr))
    ]
    assert missing == []


class _Base:
    @staticmethod
    def to_json(t):
        return t


class _Derived(_Base):
    pass


def test_an_inherited_method_does_not_resolve(monkeypatch):
    trees = importlib.import_module("permutads.trees")
    monkeypatch.setattr(trees, "_Base", _Base, raising=False)
    monkeypatch.setattr(trees, "_Derived", _Derived, raising=False)
    assert _resolve("trees", "_Base.to_json") is _Base.to_json
    assert _resolve("trees", "_Derived.to_json") is None
