"""The weak-order covers and the tree and comb parsers against their earlier
forms.

``covers`` builds each target by slicing and reads its kind off the values
in between; ``tree_from_nested`` checks canonical form as it walks instead
of drawing the parsed tree again; ``ShuffleLeftComb.from_json`` compares
the nested comb with its labels instead of parsing a second surjection.
The earlier bodies live on here as oracles.  The covers must agree with
theirs as tuples, in order and in ``to_json``; the parsers must accept the
same renders with the same surjection and refuse every mutated render with
the same message.
"""

import itertools

import pytest

from permutads.bruhat import all_words, covers
from permutads.surjections import Surjection, enumerate_surjections
from permutads.trees import (
    LeveledTree,
    ShuffleLeftComb,
    tree_from_nested,
    tree_to_nested,
)


def oracle_cover_kind(word, i):
    p, q = word.index(i), word.index(i + 1)
    if not p < q:
        raise ValueError(f"{i} does not precede {i + 1} in {word!r}")
    return 1 if all(word[j] < i for j in range(p + 1, q)) else 2


def oracle_covers(word):
    out = []
    for i in range(1, len(word)):
        if word.index(i) < word.index(i + 1):
            swap = {i: i + 1, i + 1: i}
            target = tuple(swap.get(x, x) for x in word)
            out.append((word, i, target, oracle_cover_kind(word, i)))
    return out


def oracle_tree_from_nested(nested):
    gaps = []

    def walk(node):
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
                walk(child)

    walk(nested)
    k = max(gaps, default=0)
    if len(set(gaps)) != k:
        raise ValueError(f"tree levels {sorted(set(gaps))} skip a level below {k}")
    t = Surjection._of(tuple(gaps), k)
    if tree_to_nested(t) != nested:
        raise ValueError(f"nested tree is not in canonical form: {nested!r}")
    return t


def oracle_tree_from_json(obj):
    if "levels" in obj:
        t = Surjection.from_blocks(tuple(map(tuple, map(sorted, obj["levels"]))))
        if not t.n:
            raise ValueError("a leveled tree needs at least one gap")
        if "nested" in obj and oracle_tree_from_nested(obj["nested"]) != t:
            raise ValueError("levels and nested render disagree")
        return t
    return oracle_tree_from_nested(obj["nested"])


def oracle_comb_from_nested(nested):
    levels = []
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
    return Surjection.from_blocks(tuple(reversed(levels)))


def oracle_comb_from_json(obj):
    if "labels" in obj:
        t = Surjection.from_blocks(tuple(map(tuple, obj["labels"])))
        if not t.n:
            raise ValueError("a left comb needs at least one label")
        if "nested" in obj and oracle_comb_from_nested(obj["nested"]) != t:
            raise ValueError("labels and nested render disagree")
        return t
    return oracle_comb_from_nested(obj["nested"])


def outcome(fn, arg):
    """The parsed values and k, or the refusal with its message."""
    try:
        t = fn(arg)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return t.values, t.k


# ---------------------------------------------------------------------------
# Mutations of a nested render: each returns a new render, the input intact.


def _nodes(nested, path=()):
    """Paths to every list node, preorder."""
    if isinstance(nested, list):
        yield path
        for idx, child in enumerate(nested):
            yield from _nodes(child, path + (idx,))


def _at(nested, path):
    for idx in path:
        nested = nested[idx]
    return nested


def _with(nested, path, value):
    """The render with the node or leaf at path replaced by value."""
    if not path:
        return value
    out = list(nested)
    out[path[0]] = _with(nested[path[0]], path[1:], value)
    return out


def tree_mutations(nested):
    """Each level +1 and -1 and as a bool and a float, each leaf as a bool
    and a float and missing, and each two adjacent sibling nodes merged."""
    for path in _nodes(nested):
        level, *children = _at(nested, path)
        for wrong in (level + 1, level - 1, level == 1, float(level)):
            yield _with(nested, path, [wrong, *children])
        for idx, child in enumerate(children):
            if type(child) is int:
                for wrong in (child == 1, float(child)):
                    yield _with(nested, path + (idx + 1,), wrong)
                yield _with(nested, path, [level, *children[:idx], *children[idx + 1 :]])
        for idx, (left, right) in enumerate(zip(children, children[1:])):
            if isinstance(left, list) and isinstance(right, list):
                merged = [left[0], *left[1:], *right[1:]]
                yield _with(nested, path, [level, *children[:idx], merged, *children[idx + 2 :]])


def comb_mutations(nested):
    """Each label and the spine leaf as a bool and a float, and each label
    missing."""
    for path in _nodes(nested):
        node = _at(nested, path)
        for idx, child in enumerate(node):
            if type(child) is int:
                for wrong in (child == 1, float(child)):
                    yield _with(nested, path + (idx,), wrong)
                if idx:
                    yield _with(nested, path, node[:idx] + node[idx + 1 :])


def moved_labels(labels):
    """Every label moved from one level to another, the levels kept sorted."""
    for src, dst in itertools.permutations(range(len(labels)), 2):
        for label in labels[src]:
            moved = [list(level) for level in labels]
            moved[src].remove(label)
            moved[dst] = sorted(moved[dst] + [label])
            yield moved


def _comb_nested(labels):
    nested = 0
    for level in labels:
        nested = [nested, *level]
    return nested


def _renders(max_n):
    return [t for n in range(1, max_n + 1) for t in enumerate_surjections(n)]


def _mutated_shapes(n):
    """Every shape to n = 5 and every seventh at n = 6, which keeps the
    mutation sweep to about a second."""
    return enumerate_surjections(n)[:: 7 if n == 6 else 1]


def tree_cases(n):
    """Mutated tree renders, bare and beside the unmutated levels."""
    for t in _mutated_shapes(n):
        obj = LeveledTree.to_json(t)
        for nested in tree_mutations(obj["nested"]):
            yield {"nested": nested}
            yield {"levels": obj["levels"], "nested": nested}


def comb_cases(n):
    """Mutated comb renders beside their labels, and a label moved between
    levels of the labels or of the render."""
    for t in _mutated_shapes(n):
        obj = ShuffleLeftComb.to_json(t)
        for nested in comb_mutations(obj["nested"]):
            yield {"labels": obj["labels"], "nested": nested}
        for moved in moved_labels(obj["labels"]):
            yield {"labels": moved, "nested": obj["nested"]}
            yield {"labels": obj["labels"], "nested": _comb_nested(moved)}


# ---------------------------------------------------------------------------
# Tests.


@pytest.mark.parametrize("n", range(1, 8))
def test_covers_match_the_oracle(n):
    for word in all_words(n):
        got, want = covers(word), oracle_covers(word)
        assert got == want, word
        assert [tuple(c) for c in got] == want
        assert [c.to_json() for c in got] == [
            {"source": list(s), "i": i, "target": list(t), "kind": kind}
            for s, i, t, kind in want
        ]


def test_parsers_match_the_oracles_on_every_render():
    for t in _renders(6):
        tree, comb = LeveledTree.to_json(t), ShuffleLeftComb.to_json(t)
        assert tree_from_nested(tree["nested"]) == t
        assert LeveledTree.from_json(tree) == t == oracle_tree_from_json(tree)
        assert ShuffleLeftComb.from_json(comb) == t == oracle_comb_from_json(comb)


@pytest.mark.parametrize("n", range(1, 7))
def test_tree_parser_refuses_mutations_as_the_oracle_does(n):
    refused = 0
    for obj in tree_cases(n):
        want = outcome(oracle_tree_from_json, obj)
        assert outcome(LeveledTree.from_json, obj) == want, obj
        if "levels" not in obj:
            assert outcome(tree_from_nested, obj["nested"]) == want, obj
        refused += want[0] == "ValueError"
    assert refused


@pytest.mark.parametrize("n", range(1, 7))
def test_comb_parser_refuses_mutations_as_the_oracle_does(n):
    refused = 0
    for obj in comb_cases(n):
        want = outcome(oracle_comb_from_json, obj)
        assert outcome(ShuffleLeftComb.from_json, obj) == want, obj
        refused += want[0] == "ValueError"
    assert refused


@pytest.mark.parametrize(
    "nested, message",
    [
        pytest.param([2, [2, 0, 1], 2], "tree levels [2] skip a level below 2", id="skip-first"),
        pytest.param(0, "a leveled tree needs at least one gap", id="unit"),
        pytest.param([1, 0, [1, 1, 2]], "nested tree is not in canonical form", id="not-canonical"),
        pytest.param([True, 0, 1], "bad level marker", id="bool-level"),
    ],
)
def test_tree_refusals_keep_their_order(nested, message):
    got = outcome(tree_from_nested, nested)
    assert got == outcome(oracle_tree_from_nested, nested)
    assert got[0] == "ValueError" and message in got[1]


@pytest.mark.parametrize(
    "obj",
    [
        pytest.param({"labels": [[1]], "nested": [False, 1]}, id="bool-leaf"),
        pytest.param({"labels": [[1]], "nested": [0, True]}, id="bool-label"),
        pytest.param({"labels": [[1]], "nested": [0, 1.0]}, id="float-label"),
        pytest.param({"labels": [[1], [2]], "nested": [[0, 1], 1]}, id="no-partition"),
        pytest.param({"labels": [[1], [2]], "nested": [[0, 2], 1]}, id="swapped"),
    ],
)
def test_comb_refusals_keep_their_order(obj):
    got = outcome(ShuffleLeftComb.from_json, obj)
    assert got[0] == "ValueError"
    assert got == outcome(oracle_comb_from_json, obj)
