"""Weak Bruhat order on permutations and its two kinds of covers.

Permutations are one-line words, tuples of the values 1..n.  A cover
exchanges the values i and i+1 when i occurs to the left of i+1, which
raises the inversion count by exactly one.  Covers split into two kinds
by what sits between those occurrences: kind 1 when every intermediate
value is below i, kind 2 when some intermediate value exceeds i+1 (one
of the two always holds, since nothing in between can equal i or i+1).

Kind-1 covers are the moves that rotate a single edge of the underlying
unlabelled binary tree; kind-2 covers permute the levels of two vertices
that are not adjacent, leaving the tree untouched.  A :class:`Cover` is a
named tuple, equal to its 4-tuple.  One breadth-first search, over covers
of chosen kinds traversed in either direction, does every walk of the
cover graph: it decides whether covers of one kind or both connect all
permutations, certified by a spanning tree, and finds the admissible
paths, kind-1 paths joining the two ends of a cover.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from .surjections import inverse, inversions


def _check_word(word: tuple[int, ...]) -> None:
    if sorted(word) != list(range(1, len(word) + 1)):
        raise ValueError(f"not a permutation word: {word!r}")


def length(word: tuple[int, ...]) -> int:
    """Coxeter length, the inversion count.

    >>> length((4, 3, 2, 1))
    6
    """
    _check_word(word)
    return inversions(word)


def coxeter_apply(word: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Exchange the values i and i+1 in the one-line word."""
    if not 1 <= i <= len(word) - 1:
        raise ValueError(f"index {i} out of range for a word of {len(word)}")
    swap = {i: i + 1, i + 1: i}
    return tuple(swap.get(x, x) for x in word)


class Cover(NamedTuple):
    """A length-raising exchange of consecutive values, classified."""

    source: tuple[int, ...]
    i: int
    target: tuple[int, ...]
    kind: int

    def to_json(self) -> dict:
        source, i, target, kind = self
        return {"source": list(source), "i": i, "target": list(target), "kind": kind}


def covers(word: tuple[int, ...]) -> list[Cover]:
    """All covers of the word in the weak order, by ascending index.

    >>> [c.kind for c in covers((1, 3, 2))]
    [2]
    """
    _check_word(word)
    place = inverse(word)  # value i sits at place[i - 1], counting from 1
    out = []
    for i in range(1, len(word)):
        p, q = place[i - 1], place[i]
        if p < q:
            between = word[p : q - 1]
            target = word[: p - 1] + (i + 1,) + between + (i,) + word[q:]
            out.append(Cover(word, i, target, 1 if max(between, default=0) < i else 2))
    return out


def all_words(n: int) -> list[tuple[int, ...]]:
    if n < 1:
        raise ValueError(f"need at least one letter, got n={n}")
    return sorted(itertools.permutations(range(1, n + 1)))


def cover_graph(n: int) -> list[Cover]:
    """Every cover of the weak order on n letters, sorted."""
    return [c for word in all_words(n) for c in covers(word)]


def tree_rotation_kind(word: tuple[int, ...], i: int) -> int:
    """Classify a cover by adjacency in the underlying binary tree.

    The word builds a binary tree by merging, level by level, the two
    clusters of leaves flanking the gap at each level's position.  The
    exchange of levels i and i+1 rotates an edge of that tree precisely
    when the vertex made at level i is a child of the one made at level
    i+1; otherwise the two merges commute and the tree is unchanged.
    Independent of the value test in :func:`covers`, and in agreement with it.
    """
    p, q = word.index(i), word.index(i + 1)
    if not p < q:
        raise ValueError(f"{i} does not precede {i + 1} in {word!r}")
    n = len(word)
    cluster = list(range(n + 1))
    made_at: dict[int, int] = {}
    for level in range(1, i + 1):
        gap = word.index(level) + 1
        left, right = cluster[gap - 1], cluster[gap]
        vertex = n + 1 + level
        made_at[level] = vertex
        for leaf in range(n + 1):
            if cluster[leaf] in (left, right):
                cluster[leaf] = vertex
    gap = word.index(i + 1) + 1
    merged = {cluster[gap - 1], cluster[gap]}
    return 1 if made_at[i] in merged else 2


@functools.lru_cache(maxsize=1)  # the latest graph only: n = 7's is large
def _adjacency(n: int, kinds: tuple[int, ...]) -> dict:
    """Each word's covers of the given kinds, with their other ends, sorted."""
    _adjacency.cache_clear()  # never hold two graphs: drop the last one first
    adjacency: dict[tuple[int, ...], list[tuple[Cover, tuple[int, ...]]]] = {}
    for c in cover_graph(n):
        if c.kind in kinds:
            adjacency.setdefault(c.source, []).append((c, c.target))
            adjacency.setdefault(c.target, []).append((c, c.source))
    for pairs in adjacency.values():
        pairs.sort()
    return adjacency


def _search(root: tuple[int, ...], kinds, goal=None) -> dict:
    """Breadth-first search from root over covers of the given kinds.

    Covers are traversed in either direction, each word's covers in
    sorted order and each frontier sorted, so the output is reproducible.
    Maps every word reached to the cover that reached it and the previous
    word (root to None), in the order reached; stops once goal is reached.
    """
    adjacency = _adjacency(len(root), tuple(kinds))
    reached: dict = {root: None}
    frontier = [root]
    while frontier and goal not in reached:
        nxt = []
        for w in frontier:
            for c, other in adjacency.get(w, ()):
                if other not in reached:
                    reached[other] = (c, w)
                    nxt.append(other)
        frontier = sorted(nxt)
    return reached


def cover_connected(n: int, kinds) -> tuple[bool, list[Cover]]:
    """Whether covers of the given kinds connect all words, with a spanning tree.

    Search runs from the identity; the returned covers each attach one new
    word, so they form a spanning tree of the identity's component exactly
    when the flag is true.
    """
    words = all_words(n)
    reached = _search(words[0], kinds)
    return len(reached) == len(words), [c for c, _ in list(reached.values())[1:]]


def cover_count(n: int, kinds) -> int:
    """The number of covers of the given kinds, read off the adjacency the
    search keeps, so a count after a search builds no graph."""
    return sum(map(len, _adjacency(n, tuple(kinds)).values())) // 2


def type1_connected(n: int) -> tuple[bool, list[Cover]]:
    """Whether kind-1 covers connect all words, with a spanning tree."""
    return cover_connected(n, (1,))


def admissible_path(
    word: tuple[int, ...], i: int
) -> list[tuple[int, ...]]:
    """A kind-1 path from the word to its cover target, as word list.

    Steps may traverse kind-1 covers in either direction.  The path is a
    shortest one, from the sorted search behind the spanning trees.

    >>> admissible_path((1, 3, 2), 1)  # doctest: +NORMALIZE_WHITESPACE
    [(1, 3, 2), (1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1), (2, 3, 1)]
    """
    _check_word(word)
    target = coxeter_apply(word, i)
    if not word.index(i) < word.index(i + 1):
        raise ValueError(f"{i} does not precede {i + 1} in {word!r}")
    reached = _search(word, (1,), target)
    if target not in reached:
        raise RuntimeError(f"no kind-1 path from {word!r} to {target!r}")
    path = [target]
    while reached[path[-1]] is not None:
        path.append(reached[path[-1]][1])
    return path[::-1]


def bruhat_dot(n: int, kinds) -> str:
    """Covers of the given kinds in DOT form; kind-1 edges solid, kind-2 dotted."""

    def node_id(word: tuple[int, ...]) -> str:
        return "p" + "_".join(str(x) for x in word)

    lines = [f"digraph bruhat{n} {{"]
    for word in all_words(n):
        label = " ".join(str(x) for x in word)
        lines.append(f'  {node_id(word)} [label="{label}"];')
    for c in cover_graph(n):
        if c.kind not in kinds:
            continue
        style = "solid" if c.kind == 1 else "dotted"
        lines.append(
            f"  {node_id(c.source)} -> {node_id(c.target)} [style={style}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
