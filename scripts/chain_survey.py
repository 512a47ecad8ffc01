"""Survey the permutohedron chain complexes: f-vectors, d squared, Betti numbers,
and the seconds that homology and the d o d check take at each n."""

import argparse
import time

from permutads.chains import double_boundary_vanishes, homology


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=5)
    args = parser.parse_args()
    for n in range(1, args.max_n + 1):
        start = time.perf_counter()
        fv, betti = homology(n)
        middle = time.perf_counter()
        squared = "yes" if double_boundary_vanishes(n) else "NO"
        end = time.perf_counter()
        print(
            f"n={n}  cells={sum(fv)}  f={list(fv)}  d^2=0: {squared}"
            f"  homology_s={middle - start:.3f}  dd_s={end - middle:.3f}  betti={list(betti)}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
