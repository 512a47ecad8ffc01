"""Reference values computed apart from the package under test.

Every output check of the benchmark compares the package against one of
these functions or against a property the mathematics guarantees.  Nothing
here imports ``permutads``: the counts come from recurrences and the ranks
from a plain ``Fraction`` elimination, so a fault in the package cannot
hide behind the same fault in its checker.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from functools import lru_cache
from math import comb


def factorial(n: int) -> int:
    out = 1
    for m in range(2, n + 1):
        out *= m
    return out


@lru_cache(maxsize=None)
def surjection_count(n: int, k: int) -> int:
    """k! S(n, k), the number of surjections n ->> k, by recurrence.

    T(n, k) = k (T(n-1, k-1) + T(n-1, k)): the last input either opens a
    new level (k choices for its position in the level order) or joins one
    of the k levels of a surjection of the others.
    """
    if n == 0 or k == 0:
        return 1 if n == k else 0
    return k * (surjection_count(n - 1, k - 1) + surjection_count(n - 1, k))


@lru_cache(maxsize=None)
def ordered_bell(n: int) -> int:
    """Ordered set partitions of n, by a(n) = sum_i C(n, i) a(n - i)."""
    if n == 0:
        return 1
    return sum(comb(n, i) * ordered_bell(n - i) for i in range(1, n + 1))


def inversions(word) -> int:
    return sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )


def facet_count(values) -> int:
    """Faces of a cell: splitting a level of size s two ways gives 2^s - 2."""
    sizes: dict[int, int] = {}
    for v in values:
        sizes[v] = sizes.get(v, 0) + 1
    return sum(2**s - 2 for s in sizes.values())


def weak_order_covers(n: int) -> int:
    """Cover relations of the weak order: n! words times (n - 1)/2 ascents."""
    return factorial(n) * (n - 1) // 2


def cover_kind(word, i: int) -> int:
    """1 when every value strictly between i and i+1 in the word is below i."""
    p, q = word.index(i), word.index(i + 1)
    return 1 if all(x < i for x in word[p + 1 : q]) else 2


def surjections(n: int) -> list[tuple[int, ...]]:
    """Value tuples of all surjections of n inputs, lexicographic.

    Built from ordered set partitions: every set partition (restricted
    growth string) with every ordering of its blocks onto levels.
    """
    out = []

    def grow(prefix: list[int], blocks: int) -> None:
        if len(prefix) == n:
            for order in itertools.permutations(range(1, blocks + 1)):
                out.append(tuple(order[b] for b in prefix))
            return
        for b in range(blocks + 1):
            prefix.append(b)
            grow(prefix, max(blocks, b + 1))
            prefix.pop()

    if n == 0:
        return [()]
    grow([], 0)
    out.sort()
    return out


def surjection_line(values) -> str:
    """One line of ``permutads enum surjections`` for the given values."""
    k = max(values, default=0)
    return json.dumps({"n": len(values), "k": k, "values": list(values)}) + "\n"


def fraction_rank(rows) -> int:
    """Rank of sparse rational rows {key: coefficient} by Gaussian elimination.

    Keys only need a total order; each stored pivot row is scaled to lead
    with 1 on its lowest key.

    >>> fraction_rank([{1: 1, 2: -1}, {2: 1, 3: -1}, {1: 1, 3: -1}])
    2
    """
    pivots: dict = {}
    for row in rows:
        v = {k: Fraction(c) for k, c in row.items() if c}
        while v:
            lead = min(v)
            c = v[lead]
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = {k: x / c for k, x in v.items()}
                break
            for k, x in pivot.items():
                y = v.get(k, 0) - c * x
                if y:
                    v[k] = y
                else:
                    v.pop(k, None)
    return len(pivots)
