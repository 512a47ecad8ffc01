"""Tabulate free and quotient dimensions for the preset presentations.

The free column is counted, not listed.  Quotient columns stop at the
preset's comfortable arity; the free column keeps going, so the table
doubles as a growth-rate reality check before anyone asks for one more
arity.
"""

import argparse

from permutads.permutad import PRESETS, free_dimension, quotient_dim


# preset: (largest free arity, largest quotient arity)
PLANS = {"permMag": (8, 8), "qPermAs": (8, 8), "permAsSh": (7, 7)}


def rows_for(preset: str):
    max_free, max_quotient = PLANS[preset]
    gens, relations = PRESETS[preset]()
    for n in range(1, max_free + 1):
        free = free_dimension(gens, n)
        if n <= max_quotient:
            dim = str(quotient_dim(relations, gens, n))
        else:
            dim = "-"
        yield n, free, dim


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", choices=sorted(PRESETS), default=None)
    args = parser.parse_args()
    names = [args.preset] if args.preset else sorted(PLANS)
    for name in names:
        print(f"{name}")
        print(f"  {'arity':>5}  {'free':>6}  {'quotient':>8}")
        for n, free, dim in rows_for(name):
            print(f"  {n:>5}  {free:>6}  {dim:>8}")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
