import pytest
from hypothesis import given, strategies as st

from permutads.shuffles import Shuffle, shuffle_of, surjection_of_shuffle
from permutads.surjections import Surjection, enumerate_surjections
from permutads.trees import (
    LeveledTree,
    ShuffleLeftComb,
    comb_from_nested,
    comb_from_surjection,
    comb_to_nested,
    comb_to_surjection,
    leaves_of,
    strip_levels,
    tree_from_nested,
    tree_from_surjection,
    tree_to_nested,
    tree_to_surjection,
    validate_shuffle_tree,
)


def standardize(vals):
    ranks = {v: i for i, v in enumerate(sorted(set(vals)), start=1)}
    return Surjection(tuple(ranks[v] for v in vals))


surjections = st.lists(st.integers(1, 9), min_size=1, max_size=7).map(standardize)


def test_leveled_tree_validation():
    with pytest.raises(ValueError):
        LeveledTree.from_json({"levels": [[1], []]})
    with pytest.raises(ValueError):
        LeveledTree.from_json({"levels": [[1], [3]]})
    assert LeveledTree.from_json({"levels": [[3, 1], [2]]}).blocks() == ((1, 3), (2,))


def test_comb_validation():
    with pytest.raises(ValueError):
        ShuffleLeftComb.from_json({"labels": [[2, 1]]})
    with pytest.raises(ValueError):
        ShuffleLeftComb.from_json({"labels": [[1], [1]]})


def test_encodings_of_a_surjection_are_not_revalidated(monkeypatch):
    calls = []
    from_blocks = Surjection.from_blocks

    def counted(blocks):
        calls.append(blocks)
        return from_blocks(blocks)

    monkeypatch.setattr(Surjection, "from_blocks", staticmethod(counted))
    for n in range(1, 6):
        for t in enumerate_surjections(n):
            Shuffle.to_json(t), LeveledTree.to_json(t), ShuffleLeftComb.to_json(t)
            shuffle_of(t), tree_from_surjection(t), comb_from_surjection(t)
            tree_to_nested(t), comb_to_nested(t)
    assert calls == []


@given(surjections)
def test_the_traced_aliases_delegate_to_the_codecs(t):
    assert shuffle_of(t) == Shuffle.to_json(t)
    assert tree_from_surjection(t) == LeveledTree.to_json(t)
    assert comb_from_surjection(t) == ShuffleLeftComb.to_json(t)
    assert surjection_of_shuffle(shuffle_of(t)) == t
    assert tree_to_surjection(tree_from_surjection(t)) == t
    assert comb_to_surjection(comb_from_surjection(t)) == t


def test_nested_renders_pin():
    assert LeveledTree.to_json(Surjection((1, 2, 1)))["levels"] == [[1, 3], [2]]
    assert tree_to_nested(Surjection((1, 2, 1))) == [
        2,
        [1, 0, 1],
        [1, 2, 3],
    ]
    assert tree_to_nested(Surjection((1, 1, 2))) == [
        2,
        [1, 0, 1, 2],
        3,
    ]
    assert comb_to_nested(Surjection((1, 2, 1, 1, 2))) == [
        [0, 1, 3, 4],
        2,
        5,
    ]


def test_detached_strands_share_a_level():
    # Gaps 1 and 3 close at level 1 but cannot share a planar vertex.
    nested = tree_to_nested(Surjection((1, 2, 1)))
    assert nested[1][0] == nested[2][0] == 1


@given(surjections)
def test_tree_roundtrips(t):
    assert tree_from_nested(tree_to_nested(t)) == t
    assert LeveledTree.from_json(LeveledTree.to_json(t)) == t


@given(surjections)
def test_comb_roundtrips(t):
    assert comb_from_nested(comb_to_nested(t)) == t
    assert ShuffleLeftComb.from_json(ShuffleLeftComb.to_json(t)) == t


def test_comb_to_json_walks_the_blocks_once(monkeypatch):
    blocks = Surjection.blocks
    calls = []

    def counted(t):
        calls.append(t)
        return blocks(t)

    monkeypatch.setattr(Surjection, "blocks", counted)
    got = ShuffleLeftComb.to_json(Surjection((1, 2, 1, 1, 2)))
    assert got == {"labels": [[1, 3, 4], [2, 5]], "nested": [[0, 1, 3, 4], 2, 5]}
    assert len(calls) == 1


@given(surjections)
def test_renders_are_shuffle_trees(t):
    plain = strip_levels(tree_to_nested(t))
    ok, witness = validate_shuffle_tree(plain)
    assert ok and witness is None
    ok, witness = validate_shuffle_tree(comb_to_nested(t))
    assert ok and witness is None


@given(surjections)
def test_leaf_sets(t):
    nested = comb_to_nested(t)
    assert sorted(leaves_of(nested)) == list(range(t.n + 1))


def test_validate_shuffle_tree_witness():
    ok, witness = validate_shuffle_tree([[0, 1, 3, 4], 5, 2])
    assert not ok and witness == ()
    ok, witness = validate_shuffle_tree([0, [2, 1], 3])
    assert not ok and witness == (1,)


def test_validate_shuffle_tree_rejects_bad_leaves():
    with pytest.raises(ValueError):
        validate_shuffle_tree([0, 1, 1])
    with pytest.raises(ValueError):
        validate_shuffle_tree([1, 2, 3])


@pytest.mark.parametrize("node", ["a", None, True, 1.0], ids=repr)
def test_a_node_is_an_int_leaf_or_a_list(node):
    # Once a string recursed forever, None raised TypeError and True passed as leaf 1;
    # strip_levels (the 0 is its level marker) took a string for a list.
    for walker in (leaves_of, validate_shuffle_tree, strip_levels):
        with pytest.raises(ValueError, match=f"neither an int leaf nor a list: {node!r}"):
            walker([0, node])


def test_from_json_checks_consistency():
    broken = LeveledTree.to_json(Surjection((1, 2)))
    broken["nested"] = [1, 0, 1]
    with pytest.raises(ValueError):
        LeveledTree.from_json(broken)


@pytest.mark.parametrize(
    "nested",
    [
        [1, 0, [1, 1, 2]],  # a child repeating its parent's level
        [1, [1, 0, 1], 2],
        [2, 0, 1],  # level 1 left empty
    ],
)
def test_tree_from_nested_rejects_non_canonical_renders(nested):
    with pytest.raises(ValueError):
        tree_from_nested(nested)


NO_TREE = "a leveled tree needs at least one gap"
NO_COMB = "a left comb needs at least one label"


@pytest.mark.parametrize(
    "entry, arg, message",
    [
        pytest.param(LeveledTree.to_json, Surjection(()), NO_TREE, id="tree-to-json"),
        pytest.param(tree_to_nested, Surjection(()), NO_TREE, id="tree-to-nested"),
        pytest.param(tree_from_surjection, Surjection(()), NO_TREE, id="tree-alias"),
        pytest.param(LeveledTree.from_json, {"levels": []}, NO_TREE, id="tree-levels"),
        pytest.param(LeveledTree.from_json, {"levels": [], "nested": 0}, NO_TREE, id="tree-both"),
        pytest.param(LeveledTree.from_json, {"nested": 0}, NO_TREE, id="tree-nested"),
        pytest.param(tree_from_nested, 0, NO_TREE, id="tree-from-nested"),
        pytest.param(ShuffleLeftComb.to_json, Surjection(()), NO_COMB, id="comb-to-json"),
        pytest.param(comb_to_nested, Surjection(()), NO_COMB, id="comb-to-nested"),
        pytest.param(comb_from_surjection, Surjection(()), NO_COMB, id="comb-alias"),
        pytest.param(ShuffleLeftComb.from_json, {"labels": []}, NO_COMB, id="comb-labels"),
    ],
)
def test_the_unit_surjection_has_no_tree_and_no_comb(entry, arg, message):
    with pytest.raises(ValueError) as exc:
        entry(arg)
    assert str(exc.value) == message


def test_tree_from_nested_rejects_skipped_levels_first():
    # Checked before one (empty) gap set per level up to the marker is built.
    with pytest.raises(ValueError, match="skip a level"):
        tree_from_nested([10**5, 0, 1])


def test_nested_renders_reject_booleans():
    with pytest.raises(ValueError):
        tree_from_nested([True, 0, 1])
    with pytest.raises(ValueError):
        tree_from_nested([1, False, 1])
    with pytest.raises(ValueError):
        comb_from_nested([[False, 1], 2])
