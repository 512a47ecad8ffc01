"""Tree views of surjections: leveled trees and shuffle left combs.

Ball-drop picture: a surjection t with n inputs is a tree on leaves 0..n
whose gap i (between leaves i - 1 and i) closes at level t(i), levels
numbered downward from 1.  The gap sets per level (:class:`LeveledTree`)
and the label sets of a left comb (:class:`ShuffleLeftComb`) are both the
ordered partition :meth:`Surjection.blocks`; they differ only in how they
draw it.  So each class is a codec, like the pair on :class:`Surjection`:
``to_json(t)`` reads the sets off t and needs no check, while ``from_json``
and the nested parsers validate outside input once and return its
surjection.  Both drawings need n >= 1: the renders and the parsers refuse
the unit surjection, which has no tree and no comb.

Two nested-array renders are used for JSON:

* leveled trees draw as ``[level, child, ...]`` nodes with integer leaves.
  The node over leaves lo..hi carries the highest level L among the gaps
  between them and splits at exactly the gaps of level L, each piece drawn
  the same way.  So a run of gaps closing at one level becomes a single
  multi-input node, and gaps of one level with a higher gap between them
  give several nodes carrying the same level number, since one planar
  vertex cannot span detached strands.  So a render is canonical when each
  child node sits below its parent, which the parser checks as it walks;
* shuffle left combs draw as plain nested lists ``[[0, ...], ...]`` without
  level markers: vertex j of the comb (top vertex first) carries the label
  set L_j, and leaf 0 rides the topmost left edge.

Shuffle trees are planar leaf-labeled trees where the input minima at every
vertex increase left to right; :func:`validate_shuffle_tree` checks that
condition on plain nested lists and reports the first offending vertex.
"""

from __future__ import annotations

from .surjections import Surjection, json_list

Nested = int | list


class LeveledTree:
    """Codec between a surjection and its tree: gap i closes at level t(i)."""

    @staticmethod
    def to_json(t: Surjection) -> dict:
        return {"levels": [list(level) for level in t.blocks()], "nested": tree_to_nested(t)}

    @staticmethod
    def from_json(obj: dict) -> Surjection:
        if "levels" in obj:
            levels = json_list(obj, "levels", list)
            for level in levels:
                for x in level:
                    if type(x) is not int:
                        raise ValueError(f"expected an int in each of 'levels', got {type(x).__name__}")
            t = Surjection.from_blocks(tuple(map(tuple, map(sorted, levels))))
            if not t.n:
                raise ValueError("a leveled tree needs at least one gap")
            if "nested" in obj and tree_from_nested(obj["nested"]) != t:
                raise ValueError("levels and nested render disagree")
            return t
        return tree_from_nested(obj["nested"])


def tree_to_nested(t: Surjection) -> Nested:
    """Planar render; see the module docstring for the node convention.

    >>> tree_to_nested(Surjection((1, 2, 1)))
    [2, [1, 0, 1], [1, 2, 3]]
    >>> tree_to_nested(Surjection((1, 1, 2)))
    [2, [1, 0, 1, 2], 3]
    """
    if not t.n:
        raise ValueError("a leveled tree needs at least one gap")
    stack: list[list] = []  # open nodes, levels falling toward the top
    last: Nested = 0  # the leaf or closed node right of the latest gap
    for leaf, level in enumerate(t.values, start=1):
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


def tree_from_nested(nested: Nested) -> Surjection:
    """Parse the planar render back to its surjection; exact inverse of the render.

    Read left to right, each child after the first opens the next gap at
    its node's level, and the leaves must read 0..n.  Only the canonical
    render is accepted, so a parsed tree draws back to its input.
    """
    gaps: list[int] = []  # gaps[i - 1] is the level of gap i
    canonical = True

    def walk(node: Nested, above: float) -> None:
        nonlocal canonical
        if type(node) is int:
            if node != len(gaps):
                raise ValueError(f"leaves must read 0..n: expected {len(gaps)}, got {node}")
            return
        if not isinstance(node, list) or len(node) < 3:
            raise ValueError(f"malformed tree node: {node!r}")
        level = node[0]
        if type(level) is not int or level < 1:
            raise ValueError(f"bad level marker in node: {node!r}")
        canonical = canonical and level < above
        for i, child in enumerate(node[1:]):
            if i:
                gaps.append(level)
            if type(child) is not int or child != len(gaps):
                walk(child, level)  # a leaf out of order fails there

    walk(nested, float("inf"))
    k = max(gaps, default=0)
    if len(set(gaps)) != k:
        raise ValueError(f"tree levels {sorted(set(gaps))} skip a level below {k}")
    if not k:
        raise ValueError("a leveled tree needs at least one gap")
    if not canonical:
        raise ValueError(f"nested tree is not in canonical form: {nested!r}")
    return Surjection._of(tuple(gaps), k)  # positive levels onto 1..k, checked above


class ShuffleLeftComb:
    """Codec between a surjection and its left comb: vertex j, top first, has block j."""

    @staticmethod
    def to_json(t: Surjection) -> dict:
        if not t.n:
            raise ValueError("a left comb needs at least one label")
        labels = t.blocks()
        nested: Nested = 0  # leaf 0, then each level nests the node above leftmost
        for level in labels:
            nested = [nested, *level]
        return {"labels": [list(level) for level in labels], "nested": nested}

    @staticmethod
    def from_json(obj: dict) -> Surjection:
        if "labels" in obj:
            t = Surjection.from_blocks(tuple(map(tuple, json_list(obj, "labels", list))))
            if not t.n:
                raise ValueError("a left comb needs at least one label")
            if "nested" in obj and _comb_levels(obj["nested"]) != t.blocks():
                comb_from_nested(obj["nested"])  # a malformed render is refused first
                raise ValueError("labels and nested render disagree")
            return t
        return comb_from_nested(obj["nested"])


def comb_to_nested(t: Surjection) -> Nested:
    """Nest the comb along its left spine; leaf 0 joins the top vertex.

    >>> comb_to_nested(Surjection((1, 2, 1, 1, 2)))
    [[0, 1, 3, 4], 2, 5]
    """
    return ShuffleLeftComb.to_json(t)["nested"]


def comb_from_nested(nested: Nested) -> Surjection:
    return Surjection.from_blocks(_comb_levels(nested))


def _comb_levels(nested: Nested) -> tuple[tuple[int, ...], ...]:  # top vertex first
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
    return tuple(reversed(levels))


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


# The benchmark tracer wraps these by name; the package calls the codecs.
def tree_from_surjection(t: Surjection) -> dict:
    return LeveledTree.to_json(t)


def tree_to_surjection(obj: dict) -> Surjection:
    return LeveledTree.from_json(obj)


def comb_from_surjection(t: Surjection) -> dict:
    return ShuffleLeftComb.to_json(t)


def comb_to_surjection(obj: dict) -> Surjection:
    return ShuffleLeftComb.from_json(obj)
