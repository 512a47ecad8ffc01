"""Tabulate free and quotient dimensions for the preset presentations.

The free column is counted, not listed.  Both columns stop at the
preset's largest comfortable arity.
"""

import argparse

from permutads.permutad import PRESETS, free_dimension, quotient_dim


# preset: largest arity
PLANS = {"permMag": 8, "qPermAs": 8, "permAsSh": 7}


def rows_for(preset: str):
    gens, relations = PRESETS[preset]()
    for n in range(1, PLANS[preset] + 1):
        yield n, free_dimension(gens, n), quotient_dim(relations, gens, n)


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
