import hashlib
import json
from math import factorial

import pytest
from hypothesis import given, strategies as st

from permutads import bruhat
from permutads.bruhat import (
    Cover,
    admissible_path,
    all_words,
    bruhat_dot,
    cover_connected,
    cover_graph,
    covers,
    coxeter_apply,
    length,
    tree_rotation_kind,
    type1_connected,
)

words = st.integers(2, 6).flatmap(
    lambda n: st.permutations(range(1, n + 1))
).map(tuple)


def test_length_is_inversion_count():
    assert length((1, 2, 3)) == 0
    assert length((3, 2, 1)) == 3
    assert length((2, 3, 1)) == 2


def test_coxeter_apply_swaps_values():
    assert coxeter_apply((1, 3, 2), 1) == (2, 3, 1)
    assert coxeter_apply((1, 2, 3), 2) == (1, 3, 2)


def test_cover_kind_pins():
    # Exchanging 1 and 2 across the larger value 3 leaves the tree alone.
    assert {c.i: c.kind for c in covers((1, 3, 2))}[1] == 2
    assert {c.i: c.kind for c in covers((1, 2, 3))}[1] == 1
    # 2 precedes 1, so exchanging them lowers the length: no cover.
    assert 1 not in {c.i for c in covers((2, 1, 3))}
    with pytest.raises(ValueError):
        admissible_path((2, 1, 3), 1)


def test_covers_of_identity():
    cs = covers((1, 2, 3))
    assert [(c.i, c.target) for c in cs] == [(1, (2, 1, 3)), (2, (1, 3, 2))]
    assert all(c.kind == 1 for c in cs)


def test_cover_graph_three_letters():
    graph = cover_graph(3)
    assert len(graph) == 6
    kind2 = [c for c in graph if c.kind == 2]
    assert kind2 == [Cover((1, 3, 2), 1, (2, 3, 1), 2)]


@given(words)
def test_covers_go_up_by_one(word):
    for c in covers(word):
        assert length(c.target) == length(c.source) + 1


@given(words)
def test_tree_rotation_agrees_with_value_criterion(word):
    for c in covers(word):
        assert tree_rotation_kind(word, c.i) == c.kind


@given(st.integers(2, 6))
def test_maximum_has_no_covers(n):
    top = tuple(range(n, 0, -1))
    assert covers(top) == []
    assert length(top) == n * (n - 1) // 2


@given(st.integers(2, 6))
def test_type1_spanning_tree(n):
    connected, tree = type1_connected(n)
    assert connected
    size = len(all_words(n))
    assert len(tree) == size - 1
    assert all(c.kind == 1 for c in tree)


@pytest.mark.parametrize("n", range(2, 7))
def test_full_order_spanning_tree(n):
    connected, tree = cover_connected(n, (1, 2))
    assert connected
    assert len(tree) == factorial(n) - 1
    assert {w for c in tree for w in (c.source, c.target)} == set(all_words(n))


def test_kind2_covers_alone_leave_the_identity_isolated():
    assert cover_connected(3, (2,)) == (False, [])


def test_admissible_path_pin():
    assert admissible_path((1, 3, 2), 1) == [
        (1, 3, 2),
        (1, 2, 3),
        (2, 1, 3),
        (3, 1, 2),
        (3, 2, 1),
        (2, 3, 1),
    ]


small_words = st.integers(2, 5).flatmap(
    lambda n: st.permutations(range(1, n + 1))
).map(tuple)


@given(small_words)
def test_admissible_paths_use_kind1_steps(word):
    n = len(word)
    kind1 = {
        frozenset((c.source, c.target)) for c in cover_graph(n) if c.kind == 1
    }
    for c in covers(word):
        if c.kind != 2:
            continue
        path = admissible_path(word, c.i)
        assert path[0] == word and path[-1] == c.target
        for u, v in zip(path, path[1:]):
            assert frozenset((u, v)) in kind1


def test_every_admissible_path_up_to_five_letters_is_pinned():
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 6):
        for c in cover_graph(n):
            if c.kind == 2:
                path = admissible_path(c.source, c.i)
                digest.update((json.dumps([list(w) for w in path]) + "\n").encode())
                count += 1
    assert count == 97
    assert digest.hexdigest() == (
        "ee621482f7002d22698bb8fbcda8bd4313a2c1bfa8113df8e270bf5c857f69cf"
    )


def test_paths_on_one_word_length_share_one_cover_graph(monkeypatch):
    kind2 = [c for c in cover_graph(5) if c.kind == 2]
    calls = []

    def counted(n):
        calls.append(n)
        return cover_graph(n)

    admissible_path((1, 3, 2), 1)  # a search on another word length first
    monkeypatch.setattr(bruhat, "cover_graph", counted)
    for c in kind2:
        admissible_path(c.source, c.i)
    assert len(kind2) == 86
    assert len(calls) <= 1


def test_path_requires_an_ascent():
    with pytest.raises(ValueError):
        admissible_path((2, 1), 1)


def test_dot_styles():
    dot = bruhat_dot(3, (1, 2))
    assert dot.startswith("digraph bruhat3 {")
    assert dot.count("style=solid") == 5
    assert dot.count("style=dotted") == 1
    only = bruhat_dot(3, (1,))
    assert only.count("style=dotted") == 0
    assert only.count("style=solid") == 5


def test_word_validation():
    with pytest.raises(ValueError):
        covers((1, 3))
    with pytest.raises(ValueError):
        all_words(0)
