"""Self-test of the benchmark at small sizes; takes a few seconds.

    python3 perfbench/selftest.py

Runs one round of every workload at small sizes, untraced and traced, and
expects every check to pass and every metric of BENCHMARK.json to be
reported.  Then it gives each workload a wrong expected value and expects
the mismatch to be reported, and it runs ``run.py`` in a directory holding
only the benchmark, where it must refuse to run.  Exits 0 when all holds.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import subprocess
import sys
from contextlib import contextmanager

import run

sys.path.insert(0, run.SRC)

import reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT = os.path.join(run.OUT, "selftest")

SMALL = {
    "verify-all": {"bounds": {
        "substitution-units": 3,
        "unshuffle-substitution": 3,
        "golden-table": None,
        "q-normal-form": 3,
        "boundary-squared": 3,
        "differential-leibniz": 4,
        "derivation-diamond": None,
    }},
    "stream": {"n": 3, "boundary_n": 4, "bruhat_ns": (3, 4)},
    "homology": {"max_n": 4},
    "quotient": {"arities": (2, 3, 4), "mag_arities": (5,), "member_arity": 4,
                 "slow_arity": 6, "slow_limit_s": 0.05},
}

# The arity-6 qPermAs quotient fails on its time limit once per round.
FAILS_PER_ROUND = {"quotient": 1}


def small(name: str, **changes):
    return WORKLOADS[name](OUT, random.Random(1), **{**SMALL[name], **changes})


def measure(workload, trace: bool = False) -> tuple[dict, str]:
    log = io.StringIO()
    result, _ = run.measure(workload, seconds=0, trace=trace, log=log)
    return result, log.getvalue()


@contextmanager
def patched(name: str, fn):
    original = getattr(reference, name)
    setattr(reference, name, fn)
    try:
        yield
    finally:
        setattr(reference, name, original)
        if hasattr(original, "cache_clear"):
            original.cache_clear()  # its recursion went through fn


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for name in WORKLOADS:
        for trace in (False, True):
            result, log = measure(small(name), trace)
            rounds = 2 if trace else 1
            expect(result["correct"], f"{name} trace={int(trace)}: checks pass {log.strip()}")
            expect(result["failed"] == FAILS_PER_ROUND.get(name, 0) * rounds,
                   f"{name} trace={int(trace)}: {result['failed']} failed operations")
            want = per_layer if trace else end_to_end
            expect(set(result["metrics"]) == want, f"{name} trace={int(trace)}: metric names")

    wrong = [
        ("stream", "ordered_bell", "lines"),
        ("homology", "surjection_count", "homology"),
        ("quotient", "factorial", "arity"),
    ]
    for name, attr, mark in wrong:
        with patched(attr, lambda *args, true=getattr(reference, attr): true(*args) + 1):
            result, log = measure(small(name))
        expect(not result["correct"] and mark in log,
               f"{name}: a wrong {attr} is reported ({log.strip().splitlines()[-1:]})")

    bounds = {**SMALL["verify-all"]["bounds"], "substitution-associativity": 5}
    result, log = measure(small("verify-all", bounds=bounds))
    expect(not result["correct"] and "bound used" in log,
           "verify-all: a pinned bound above the check's cap is reported")
    bounds = {**SMALL["verify-all"]["bounds"], "no-such-check": 1}
    result, log = measure(small("verify-all", bounds=bounds))
    expect(not result["correct"] and "not registered" in log,
           "verify-all: a pinned check missing from the registry is reported")

    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    expect(proc.returncode != 0 and not proc.stdout,
           f"without the package source run.py exits {proc.returncode} and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
