"""The scripts under scripts/ run end to end against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return done.stdout


def test_chain_survey_sees_acyclic_complexes():
    lines = run_script("chain_survey.py", "--max-n", "4").splitlines()
    assert [line.split()[0] for line in lines] == ["n=1", "n=2", "n=3", "n=4"]
    for n, line in enumerate(lines, start=1):
        assert "d^2=0: yes" in line
        assert line.endswith(f"betti={[1] + [0] * (n - 1)}")


def test_skeleton_dot_draws_the_hexagon():
    text = run_script("skeleton_dot.py", "--n", "3")
    assert text.startswith("graph permutohedron3 {")
    assert len(re.findall(r"\[label=", text)) == 6
    assert text.count(" -- ") == 6


def test_dimension_table_has_one_qpermas_normal_form():
    lines = run_script("dimension_table.py", "--preset", "qPermAs").splitlines()
    assert lines[:2] == ["qPermAs", "  arity    free  quotient"]
    rows = {int(row.split()[0]): row.split()[2] for row in lines[2:] if row.strip()}
    assert all(rows[n] == "1" for n in range(2, 8))
    assert rows[8] == "1"
