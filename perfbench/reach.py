"""Reach: the largest bound each check passes within a time budget.

    python3 perfbench/reach.py --budget 10

A reference figure for README.md, not a benchmark metric: for every check
with a size bound, run it at n = 1, 2, ... up to its cap, stopping at the
first n that fails or overruns the budget, and print one table row per
check with its time at the pinned bound.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

import run

sys.path.insert(0, run.SRC)

from workloads import PINNED_BOUNDS, import_fresh  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=float, default=10.0, help="seconds per bound")
    args = parser.parse_args()
    verify = import_fresh()["verify"]
    print("| check | pinned n | s at pinned n | reach within budget | cap |")
    print("| --- | --- | --- | --- | --- |")
    for check in verify.CHECKS:
        pinned = PINNED_BOUNDS.get(check.name)
        if check.default_n is None:
            t0 = perf_counter()
            verify.run_check(check)
            print(f"| {check.name} | - | {perf_counter() - t0:.3f} | - | - |", flush=True)
            continue
        reach, at_pinned, stop = 0, None, ""
        for n in range(1, check.cap + 1):
            t0 = perf_counter()
            try:
                with run.time_limit(args.budget):
                    verify.run_check(check, n)
            except run.OpTimeout:
                stop = f" (n={n} > {args.budget:g} s)"
                break
            except verify.CheckFailed:
                stop = f" (fails at n={n})"
                break
            if n == pinned:
                at_pinned = perf_counter() - t0
            reach = n
        shown = "-" if at_pinned is None else f"{at_pinned:.3f}"
        print(f"| {check.name} | {pinned} | {shown} | {reach}{stop} | {check.cap} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
