"""Tree views of surjections: leveled trees and shuffle left combs.

Ball-drop picture: a surjection t with n inputs is a tree on leaves 0..n
whose gap i (between leaves i - 1 and i) closes at level t(i), levels
numbered downward from 1.  The gap sets per level (:class:`LeveledTree`)
and the label sets of a left comb (:class:`ShuffleLeftComb`) are both the
ordered partition :meth:`Surjection.blocks`; they differ only in how they
draw it.  So each class holds t alone and reads its sets off t, and one
built from a surjection is valid by construction.  Outside input enters
through ``from_json`` and the nested parsers, which validate it once.
Both need n >= 1: the unit surjection has no tree and no comb.

Two nested-array renders are used for JSON:

* leveled trees draw as ``[level, child, ...]`` nodes with integer leaves.
  The node over leaves lo..hi carries the highest level L among the gaps
  between them and splits at exactly the gaps of level L, each piece drawn
  the same way.  So a run of gaps closing at one level becomes a single
  multi-input node, and gaps of one level with a higher gap between them
  give several nodes carrying the same level number, since one planar
  vertex cannot span detached strands;
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


@dataclass(frozen=True)
class LeveledTree:
    """The tree of t: gap i closes at level t(i), so level j owns block j."""

    t: Surjection

    def __post_init__(self) -> None:
        if not self.t.n:
            raise ValueError("a leveled tree needs at least one gap")

    @property
    def levels(self) -> tuple[tuple[int, ...], ...]:
        return self.t.blocks()

    def to_json(self) -> dict:
        return {
            "levels": [list(level) for level in self.levels],
            "nested": tree_to_nested(self),
        }

    @staticmethod
    def from_json(obj: dict) -> "LeveledTree":
        if "levels" in obj:
            levels = tuple(map(tuple, map(sorted, obj["levels"])))
            tr = LeveledTree(Surjection.from_blocks(levels))
            if "nested" in obj and tree_from_nested(obj["nested"]) != tr:
                raise ValueError("levels and nested render disagree")
            return tr
        return tree_from_nested(obj["nested"])


def tree_from_surjection(t: Surjection) -> LeveledTree:
    """Drop gap i to level t(i).

    >>> tree_from_surjection(Surjection((1, 2, 1))).levels
    ((1, 3), (2,))
    """
    return LeveledTree(t)


def tree_to_surjection(tr: LeveledTree) -> Surjection:
    return tr.t


def tree_to_nested(tr: LeveledTree) -> Nested:
    """Planar render; see the module docstring for the node convention.

    >>> tree_to_nested(tree_from_surjection(Surjection((1, 2, 1))))
    [2, [1, 0, 1], [1, 2, 3]]
    >>> tree_to_nested(tree_from_surjection(Surjection((1, 1, 2))))
    [2, [1, 0, 1, 2], 3]
    """
    stack: list[list] = []  # open nodes, levels falling toward the top
    last: Nested = 0  # the leaf or closed node right of the latest gap
    for leaf, level in enumerate(tr.t.values, start=1):
        while stack and stack[-1][0] < level:
            stack[-1].append(last)
            last = stack.pop()
        if stack and stack[-1][0] == level:
            stack[-1].append(last)
        else:
            stack.append([level, last])
        last = leaf
    while stack:
        stack[-1].append(last)
        last = stack.pop()
    return last


def tree_from_nested(nested: Nested) -> LeveledTree:
    """Parse the planar render back to gap sets; exact inverse of the render.

    Read left to right, each child after the first opens the next gap at
    its node's level, and the leaves must read 0..n.  Only the canonical
    render is accepted, so a parsed tree draws back to its input.
    """
    gaps: list[int] = []  # gaps[i - 1] is the level of gap i

    def walk(node: Nested) -> None:
        if type(node) is int:
            if node != len(gaps):
                raise ValueError(f"leaves must read 0..n: expected {len(gaps)}, got {node}")
            return
        if not isinstance(node, list) or len(node) < 3:
            raise ValueError(f"malformed tree node: {node!r}")
        level = node[0]
        if type(level) is not int or level < 1:
            raise ValueError(f"bad level marker in node: {node!r}")
        for i, child in enumerate(node[1:]):
            if i:
                gaps.append(level)
            if type(child) is not int or child != len(gaps):
                walk(child)  # a leaf out of order fails there

    walk(nested)
    k = max(gaps, default=0)
    if len(set(gaps)) != k:
        raise ValueError(f"tree levels {sorted(set(gaps))} skip a level below {k}")
    # Positive integers onto 1..k, checked just above.
    tr = LeveledTree(Surjection._of(tuple(gaps), k))
    if tree_to_nested(tr) != nested:
        raise ValueError(f"nested tree is not in canonical form: {nested!r}")
    return tr


@dataclass(frozen=True)
class ShuffleLeftComb:
    """The left comb of t: vertex j, top first, carries block j as labels."""

    t: Surjection

    def __post_init__(self) -> None:
        if not self.t.n:
            raise ValueError("a left comb needs at least one label")

    @property
    def labels(self) -> tuple[tuple[int, ...], ...]:
        return self.t.blocks()

    def to_json(self) -> dict:
        labels = self.labels
        nested: Nested = 0  # leaf 0, then each level nests the node above leftmost
        for level in labels:
            nested = [nested, *level]
        return {"labels": [list(level) for level in labels], "nested": nested}

    @staticmethod
    def from_json(obj: dict) -> "ShuffleLeftComb":
        if "labels" in obj:
            labels = tuple(map(tuple, obj["labels"]))
            c = ShuffleLeftComb(Surjection.from_blocks(labels))
            if "nested" in obj and comb_from_nested(obj["nested"]) != c:
                raise ValueError("labels and nested render disagree")
            return c
        return comb_from_nested(obj["nested"])


def comb_from_surjection(t: Surjection) -> ShuffleLeftComb:
    """Vertex j of the comb collects the preimage of j.

    >>> comb_from_surjection(Surjection((1, 2, 1, 1, 2))).labels
    ((1, 3, 4), (2, 5))
    """
    return ShuffleLeftComb(t)


def comb_to_surjection(c: ShuffleLeftComb) -> Surjection:
    return c.t


def comb_to_nested(c: ShuffleLeftComb) -> Nested:
    """Nest the comb along its left spine; leaf 0 joins the top vertex.

    >>> comb_to_nested(comb_from_surjection(Surjection((1, 2, 1, 1, 2))))
    [[0, 1, 3, 4], 2, 5]
    """
    return c.to_json()["nested"]


def comb_from_nested(nested: Nested) -> ShuffleLeftComb:
    levels: list[tuple[int, ...]] = []
    node = nested
    while True:
        if not isinstance(node, list) or len(node) < 2:
            raise ValueError(f"malformed comb node: {node!r}")
        head, *rest = node
        if set(map(type, rest)) != {int}:
            raise ValueError(f"comb labels must sit right of the spine: {node!r}")
        levels.append(tuple(rest))
        if type(head) is int:
            if head != 0:
                raise ValueError(f"topmost left leaf must be 0, got {head}")
            break
        node = head
    return ShuffleLeftComb(Surjection.from_blocks(tuple(reversed(levels))))


def leaves_of(nested: Nested) -> list[int]:
    """The leaves left to right; a node is an int leaf or a list, else ValueError."""
    if type(nested) is int:
        return [nested]
    if not isinstance(nested, list):
        raise ValueError(f"tree node is neither an int leaf nor a list: {nested!r}")
    return [leaf for child in nested for leaf in leaves_of(child)]


def validate_shuffle_tree(nested: Nested) -> tuple[bool, tuple[int, ...] | None]:
    """Check the increasing-minima condition on a plain nested tree.

    Returns (True, None) or (False, path), the path giving child indices
    from the root down to the first vertex, in postorder, whose input minima
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
    path: list[int] = []  # child indices, filled bottom-up once a vertex fails

    def walk(node) -> int | None:
        """The least leaf under node; None past a failing vertex, -1 past a short one."""
        if len(node) < 2:
            return -1
        minima = []
        for idx, child in enumerate(node):
            least = child if type(child) is int else walk(child)
            if least is None or least < 0:
                path.append(idx)
                return least
            minima.append(least)
        return minima[0] if minima == sorted(minima) else None

    least = nested if type(nested) is int else walk(nested)
    if least == -1:
        raise ValueError(f"vertex with fewer than two inputs at {tuple(reversed(path))}")
    return (True, None) if least is not None else (False, tuple(reversed(path)))


def strip_levels(nested: Nested) -> Nested:
    """Forget the level markers of a leveled render, keeping the planar tree;
    a node is an int leaf or a list, else ValueError."""
    if type(nested) is int:
        return nested
    if not isinstance(nested, list):
        raise ValueError(f"tree node is neither an int leaf nor a list: {nested!r}")
    return [child if type(child) is int else strip_levels(child) for child in nested[1:]]
