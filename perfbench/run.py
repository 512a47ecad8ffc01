"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` and nothing is installed.  A run sets the workload up a few times,
then repeats rounds of the workload's operations, each round on a fresh
import of the package, until the next round would overrun ``--seconds``
(one round at least).  Every output is checked against ``reference.py``.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (median
set-up), ``run_s`` and ``cpu_s`` (median per round of the wall and process
CPU time of the operations, checks excluded) and ``peak_rss_mb`` (peak
resident memory of the process).  With ``--trace 1`` rounds alternate untraced and
traced, and the metrics are the per-layer ones of ``tracing.py``, medians
over the traced rounds, with ``trace.overhead_s`` the traced minus the
untraced median ``run_s``; the spans of the first traced round go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import signal
import sys
import traceback
from contextlib import contextmanager
from statistics import median
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 9


class OpTimeout(Exception):
    """An operation ran past its time limit."""


@contextmanager
def time_limit(seconds: float):
    def alarm(signum, frame):
        raise OpTimeout(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def measure(workload, seconds: float, trace: bool, log=sys.stderr) -> tuple[dict, dict]:
    """Run one workload; return the result line and per-operation detail.

    The workload's seeded generator fixes the order of the operation
    groups, the same in every round.
    """
    from tracing import Tracer, per_layer_names
    from workloads import CliOutput, PINNED_BOUNDS

    setup_times = []
    for _ in range(SETUP_REPEATS - 1):
        gc.collect()
        t0 = perf_counter()
        workload.setup()
        setup_times.append(perf_counter() - t0)

    tracer = Tracer() if trace else None
    order = None
    rounds: list[dict] = []
    layer_rounds: list[dict] = []
    op_times: dict[str, list[float]] = {}
    attempted = failed = 0
    problems: list[str] = []
    reported_failures: set[str] = set()
    started = perf_counter()
    longest = 0.0
    while True:
        round_start = perf_counter()
        traced = trace and len(rounds) % 2 == 1
        gc.collect()
        t0 = perf_counter()
        state = workload.setup()
        setup_times.append(perf_counter() - t0)
        if traced:
            tracer.install(state["mods"])
        groups = workload.ops(state)
        if order is None:
            order = workload.rng.sample(range(len(groups)), len(groups))
        wall = cpu = 0.0
        cli_lines = cli_bytes = 0
        for g in order:
            for op in groups[g]:
                attempted += 1
                span = tracer.begin(op.span) if traced else None
                w0, c0 = perf_counter(), process_time()
                try:
                    with time_limit(op.limit_s):
                        result = op.run()
                    ok = True
                except Exception as exc:  # every failure is counted, the run goes on
                    ok = False
                    failed += 1
                    if op.label not in reported_failures:
                        reported_failures.add(op.label)
                        detail = str(exc) if isinstance(exc, OpTimeout) else traceback.format_exc()
                        print(f"[{workload.name}] {op.label} failed: {detail}", file=log)
                w1, c1 = perf_counter(), process_time()
                if traced:
                    tracer.end(span, ok)
                wall += w1 - w0
                cpu += c1 - c0
                op_times.setdefault(op.label, []).append(w1 - w0)
                if not ok:
                    continue
                if isinstance(result, CliOutput):
                    lines, size = result.size()
                    cli_lines += lines
                    cli_bytes += size
                try:
                    problem = op.check(result)
                except Exception as exc:  # a malformed output is a wrong one
                    problem = f"unreadable output: {exc!r}"
                if problem:
                    problems.append(f"{op.label}: {problem}")
        rounds.append({"run_s": wall, "cpu_s": cpu})
        if traced:
            metrics = tracer.fold_round(cli_lines, cli_bytes, keep=not layer_rounds)
            metrics["trace.run_s"] = wall
            layer_rounds.append(metrics)
        del state, groups
        longest = max(longest, perf_counter() - round_start)
        if trace and not layer_rounds:
            continue
        if perf_counter() - started + longest > seconds:
            break

    problems = workload.setup_problems + problems
    for problem in dict.fromkeys(problems):
        print(f"[{workload.name}] mismatch: {problem}", file=log)
    if trace:
        names = per_layer_names(PINNED_BOUNDS)
        values = {name: median(r.get(name, 0) for r in layer_rounds) for name in names[:-1]}
        values["trace.overhead_s"] = (
            median(r["trace.run_s"] for r in layer_rounds)
            - median(r["run_s"] for r in rounds[0::2])
        )
        units = {name: _unit(name) for name in names}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in names}
        tracer.write(OUT, f"trace-{workload.name}",
                     {"workload": workload.name, "rounds": layer_rounds})
    else:
        metrics = {
            "setup_s": {"value": median(setup_times), "unit": "s"},
            "run_s": {"value": median(r["run_s"] for r in rounds), "unit": "s"},
            "cpu_s": {"value": median(r["cpu_s"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "rounds": len(rounds),
        "setup_samples": len(setup_times),
        "op_median_s": {label: median(ts) for label, ts in op_times.items()},
        "problems": problems,
    }
    return result, detail


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("useful_ratio"):
        return "ratio"
    if name.endswith("peak_q_degree"):
        return "degree"
    if name.endswith("peak_coeff_bits"):
        return "bits"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "permutads", "__init__.py")):
        print(f"perfbench: no package source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    import permutads

    if not os.path.abspath(permutads.__file__).startswith(SRC + os.sep):
        print(f"perfbench: found {permutads.__file__}, not the checkout's package",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload](OUT, random.Random(args.seed))
    result, detail = measure(workload, args.seconds, bool(args.trace))
    stem = f"result-{args.workload}-trace{args.trace}"
    with open(os.path.join(OUT, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, **result, "detail": detail}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
