"""The README's ``$ permutads ...`` examples print the lines it shows.

Each example runs in process through ``cli.main``.  ``| head -N`` and
``| tail -N`` are applied here.  A ``...`` line elides the rest of the
stream, so only the lines above it are compared, and the command stops
once it has printed them.  Examples that elide everything are left out.
"""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from permutads.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def examples():
    """(command, shown lines) for each ``$ permutads`` line of the README."""
    found, shown = [], None
    for line in README.read_text().splitlines():
        if line.startswith("$ permutads "):
            shown = []
            found.append((line[2:], shown))
        elif shown is not None and line.strip() and not line.startswith("```"):
            shown.append(line)
        else:
            shown = None
    out = []
    for command, lines in found:
        cut = next((i for i, l in enumerate(lines) if l.startswith("...")), len(lines))
        if cut:
            out.append(pytest.param(command, lines[:cut], cut < len(lines), id=command))
    return out


class _Enough(Exception):
    """Every line to compare is out; the reader stops, as ``head`` does."""


class _Head(io.StringIO):
    def __init__(self, lines):
        super().__init__()
        self.lines = lines

    def write(self, s):
        written = super().write(s)
        if self.lines is not None and self.getvalue().count("\n") >= self.lines:
            raise _Enough
        return written


def test_the_readme_has_examples():
    assert len(examples()) >= 8


@pytest.mark.parametrize("command, shown, elided", examples())
def test_readme_example(command, shown, elided, monkeypatch):
    monkeypatch.delenv("PERMUTAD_MAX_N", raising=False)
    first, *filters = (shlex.split(stage) for stage in command.split(" | "))
    head = len(shown) if elided else None
    tail = None
    for name, count in filters:
        if name == "head":
            head = int(count.lstrip("-"))
        else:
            tail = int(count.lstrip("-"))
    out = _Head(head)
    with contextlib.redirect_stdout(out), contextlib.suppress(_Enough):
        assert main(first[1:]) == 0
    lines = out.getvalue().splitlines()[:head]
    if tail is not None:
        lines = lines[-tail:]
    assert lines == shown
