"""Survey the permutohedron chain complexes: f-vectors, d squared, Betti numbers."""

import argparse

from permutads.chains import double_boundary_vanishes, homology


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=5)
    args = parser.parse_args()
    for n in range(1, args.max_n + 1):
        fv, betti = homology(n)
        squared = "yes" if double_boundary_vanishes(n) else "NO"
        print(f"n={n}  cells={sum(fv)}  f={list(fv)}  d^2=0: {squared}  betti={list(betti)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
