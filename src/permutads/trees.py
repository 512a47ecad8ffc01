"""Tree views of surjections: leveled trees and shuffle left combs.

Ball-drop picture: a surjection t with n inputs is a tree on leaves 0..n
whose gap i (between leaves i - 1 and i) closes at level t(i), levels
numbered downward from 1.  The gap sets per level (:class:`LeveledTree`)
and the label sets of a left comb (:class:`ShuffleLeftComb`) are both the
ordered partition :meth:`Surjection.blocks`; they differ only in how they
draw it, and :meth:`Surjection.from_blocks` validates and inverts both.

Two nested-array renders are used for JSON:

* leveled trees draw as ``[level, child, ...]`` nodes with integer leaves;
  a run of gaps closing at one level becomes a single multi-input node, and
  non-adjacent gaps of one level give several nodes carrying the same level
  number, since one planar vertex cannot span detached strands;
* shuffle left combs draw as plain nested lists ``[[0, ...], ...]`` without
  level markers: vertex j of the comb (top vertex first) carries the label
  set L_j, and leaf 0 rides the topmost left edge.

Shuffle trees are planar leaf-labeled trees where the input minima at every
vertex increase left to right; :func:`validate_shuffle_tree` checks that
condition on plain nested lists and reports the first offending vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .surjections import Surjection

Nested = int | list


@dataclass(frozen=True, order=True)
class LeveledTree:
    """Gap sets per level; level j owns the nonempty tuple levels[j - 1]."""

    levels: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        levels = tuple(tuple(sorted(level)) for level in self.levels)
        object.__setattr__(self, "levels", levels)
        Surjection.from_blocks(levels)

    @property
    def n(self) -> int:
        return sum(len(level) for level in self.levels)

    @property
    def k(self) -> int:
        return len(self.levels)

    def to_json(self) -> dict:
        return {
            "levels": [list(level) for level in self.levels],
            "nested": tree_to_nested(self),
        }

    @staticmethod
    def from_json(obj: dict) -> "LeveledTree":
        if "levels" in obj:
            tr = LeveledTree(tuple(tuple(level) for level in obj["levels"]))
            if "nested" in obj and tree_from_nested(obj["nested"]) != tr:
                raise ValueError("levels and nested render disagree")
            return tr
        return tree_from_nested(obj["nested"])


def tree_from_surjection(t: Surjection) -> LeveledTree:
    """Drop gap i to level t(i).

    >>> tree_from_surjection(Surjection((1, 2, 1))).levels
    ((1, 3), (2,))
    """
    if t.n < 1:
        raise ValueError("tree_from_surjection needs at least one input")
    return LeveledTree(t.blocks())


def tree_to_surjection(tr: LeveledTree) -> Surjection:
    return Surjection.from_blocks(tr.levels)


def tree_to_nested(tr: LeveledTree) -> Nested:
    """Planar render; see the module docstring for the node convention.

    >>> tree_to_nested(tree_from_surjection(Surjection((1, 2, 1))))
    [2, [1, 0, 1], [1, 2, 3]]
    >>> tree_to_nested(tree_from_surjection(Surjection((1, 1, 2))))
    [2, [1, 0, 1, 2], 3]
    """
    n = tr.n
    # Strands are (lowest leaf, highest leaf, subtree), left to right.
    strands: list[tuple[int, int, Nested]] = [(x, x, x) for x in range(n + 1)]

    def strand_ending_at(leaf: int) -> int:
        for idx, (_, hi, _) in enumerate(strands):
            if hi == leaf:
                return idx
        raise AssertionError(f"no strand ends at leaf {leaf}")

    for j, level in enumerate(tr.levels, start=1):
        groups: list[list[int]] = []
        for gap in level:
            if groups and strand_ending_at(gap - 1) == strand_ending_at(groups[-1][-1] - 1) + 1:
                groups[-1].append(gap)
            else:
                groups.append([gap])
        for group in reversed(groups):
            a = strand_ending_at(group[0] - 1)
            b = a + len(group)
            lo = strands[a][0]
            hi = strands[b][1]
            node: Nested = [j] + [s[2] for s in strands[a : b + 1]]
            strands[a : b + 1] = [(lo, hi, node)]
    assert len(strands) == 1
    return strands[0][2]


def tree_from_nested(nested: Nested) -> LeveledTree:
    """Parse the planar render back to gap sets; exact inverse of the render.

    Only the canonical render is accepted, so a parsed tree draws back to
    its input.
    """
    by_level: dict[int, list[int]] = {}

    def walk(node: Nested) -> tuple[int, int]:
        if type(node) is int:
            return node, node
        if not isinstance(node, list) or len(node) < 3:
            raise ValueError(f"malformed tree node: {node!r}")
        level = node[0]
        if type(level) is not int or level < 1:
            raise ValueError(f"bad level marker in node: {node!r}")
        lo, hi = walk(node[1])
        for child in node[2:]:
            clo, chi = walk(child)
            if clo != hi + 1:
                raise ValueError(
                    f"children not contiguous at level {level}: leaf {hi} then {clo}"
                )
            by_level.setdefault(level, []).append(hi + 1)
            hi = chi
        return lo, hi

    lo, hi = walk(nested)
    if lo != 0:
        raise ValueError(f"leftmost leaf must be 0, got {lo}")
    k = max(by_level, default=0)
    if len(by_level) != k:
        raise ValueError(f"tree levels {sorted(by_level)} skip a level below {k}")
    tr = LeveledTree(tuple(tuple(by_level[j]) for j in range(1, k + 1)))
    if tree_to_nested(tr) != nested:
        raise ValueError(f"nested tree is not in canonical form: {nested!r}")
    return tr


@dataclass(frozen=True, order=True)
class ShuffleLeftComb:
    """Label sets L_1,...,L_k of a left comb, top vertex first."""

    labels: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        labels = tuple(tuple(level) for level in self.labels)
        object.__setattr__(self, "labels", labels)
        Surjection.from_blocks(labels)

    @property
    def n(self) -> int:
        return sum(len(level) for level in self.labels)

    def to_json(self) -> dict:
        return {
            "labels": [list(level) for level in self.labels],
            "nested": comb_to_nested(self),
        }

    @staticmethod
    def from_json(obj: dict) -> "ShuffleLeftComb":
        if "labels" in obj:
            c = ShuffleLeftComb(tuple(tuple(level) for level in obj["labels"]))
            if "nested" in obj and comb_from_nested(obj["nested"]) != c:
                raise ValueError("labels and nested render disagree")
            return c
        return comb_from_nested(obj["nested"])


def comb_from_surjection(t: Surjection) -> ShuffleLeftComb:
    """Vertex j of the comb collects the preimage of j.

    >>> comb_from_surjection(Surjection((1, 2, 1, 1, 2))).labels
    ((1, 3, 4), (2, 5))
    """
    if t.n < 1:
        raise ValueError("comb_from_surjection needs at least one input")
    return ShuffleLeftComb(t.blocks())


def comb_to_surjection(c: ShuffleLeftComb) -> Surjection:
    return Surjection.from_blocks(c.labels)


def comb_to_nested(c: ShuffleLeftComb) -> Nested:
    """Nest the comb along its left spine; leaf 0 joins the top vertex.

    >>> comb_to_nested(comb_from_surjection(Surjection((1, 2, 1, 1, 2))))
    [[0, 1, 3, 4], 2, 5]
    """
    node: Nested = [0, *c.labels[0]]
    for level in c.labels[1:]:
        node = [node, *level]
    return node


def comb_from_nested(nested: Nested) -> ShuffleLeftComb:
    levels: list[tuple[int, ...]] = []
    node = nested
    while True:
        if not isinstance(node, list) or len(node) < 2:
            raise ValueError(f"malformed comb node: {node!r}")
        head, *rest = node
        if any(type(x) is not int for x in rest):
            raise ValueError(f"comb labels must sit right of the spine: {node!r}")
        levels.append(tuple(rest))
        if type(head) is int:
            if head != 0:
                raise ValueError(f"topmost left leaf must be 0, got {head}")
            break
        node = head
    return ShuffleLeftComb(tuple(reversed(levels)))


def leaves_of(nested: Nested) -> list[int]:
    if isinstance(nested, int):
        return [nested]
    out: list[int] = []
    for child in nested:
        out.extend(leaves_of(child))
    return out


def validate_shuffle_tree(nested: Nested) -> tuple[bool, tuple[int, ...] | None]:
    """Check the increasing-minima condition on a plain nested tree.

    Returns (True, None) or (False, path), the path giving child indices
    from the root down to the first vertex, in preorder, whose input minima
    fail to increase left to right.

    >>> validate_shuffle_tree([[0, 1, 3, 4], 2, 5])
    (True, None)
    >>> validate_shuffle_tree([[0, 1, 3, 4], 5, 2])
    (False, ())
    """
    leaves = leaves_of(nested)
    if len(set(leaves)) != len(leaves):
        raise ValueError(f"duplicate leaf labels: {sorted(leaves)}")
    if sorted(leaves) != list(range(len(leaves))):
        raise ValueError(f"leaf labels must be 0..n, got {sorted(leaves)}")

    def walk(node: Nested, path: tuple[int, ...]) -> tuple[int, tuple[int, ...] | None]:
        if isinstance(node, int):
            return node, None
        if len(node) < 2:
            raise ValueError(f"vertex with fewer than two inputs at {path}")
        minima = []
        for idx, child in enumerate(node):
            m, witness = walk(child, path + (idx,))
            if witness is not None:
                return m, witness
            minima.append(m)
        ok = all(minima[i] < minima[i + 1] for i in range(len(minima) - 1))
        return min(minima), None if ok else path

    _, witness = walk(nested, ())
    return witness is None, witness


def strip_levels(nested: Nested) -> Nested:
    """Forget the level markers of a leveled render, keeping the planar tree."""
    if isinstance(nested, int):
        return nested
    return [strip_levels(child) for child in nested[1:]]
