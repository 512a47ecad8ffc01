"""Each module imports only the layers below it; the package root imports none."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "permutads"

BOTTOM = {"linalg", "surjections"}
MIDDLE = {"bruhat", "chains", "derivations", "permutad", "shuffles", "trees"}

# module: the package modules it may import
LAYERS = {
    "__init__": set(),
    "surjections": set(),
    "linalg": set(),
    "shuffles": {"surjections"},
    "trees": {"surjections"},
    "bruhat": {"surjections"},
    "derivations": {"surjections"},
    "permutad": {"linalg", "surjections"},
    "chains": {"linalg", "surjections"},
    "verify": BOTTOM | MIDDLE,
    "cli": BOTTOM | MIDDLE | {"verify"},
    "__main__": {"cli"},
}


def package_imports(path):
    """The package modules that ``from .x import ...`` and ``from . import x``
    statements anywhere in the file name.  An absolute ``permutads`` import
    is kept whole, so it never matches the table."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
            continue
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found.update(name for name in names if name.split(".")[0] == "permutads")
    return found


def test_each_module_imports_only_the_layers_below_it():
    got = {path.stem: package_imports(path) for path in PACKAGE.glob("*.py")}
    assert got == LAYERS


def test_the_bottom_layer_loads_alone():
    src = str(PACKAGE.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, permutads.surjections\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'permutads'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
        check=True,
    )
    assert done.stdout == "['permutads', 'permutads.surjections']\n"
