import itertools
import json
from math import comb

import pytest
from hypothesis import given, strategies as st

from permutads.cli import main
from permutads.shuffles import sigma_of
from permutads.surjections import (
    UNIT,
    Surjection,
    corolla,
    enumerate_surjections,
    inverse,
    inversions,
    substitute,
)


def count_surjections(n, k):
    """k! times the Stirling partition number, by inclusion-exclusion."""
    return sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1))


def word_sign(w):
    return -1 if inversions(w) % 2 else 1


def compose(u, w):
    """The word of u after w: (u * w)(x) = u(w(x))."""
    return tuple(u[x - 1] for x in w)


def concat(t, w):
    """Concatenation t x w: place w to the right of t, vertices shifted by t.k."""
    shift = t.k
    return Surjection._of(t.values + tuple(v + shift for v in w.values), shift + w.k)


def standardize(vals):
    ranks = {v: i for i, v in enumerate(sorted(set(vals)), start=1)}
    return Surjection(tuple(ranks[v] for v in vals))


def surjections_of_size(n):
    return st.lists(st.integers(1, 9), min_size=n, max_size=n).map(standardize)


surjections = st.lists(st.integers(1, 9), min_size=1, max_size=6).map(standardize)
words = st.integers(1, 6).flatmap(
    lambda n: st.permutations(range(1, n + 1))
).map(tuple)


def test_validation():
    with pytest.raises(ValueError):
        Surjection((1, 3))
    with pytest.raises(ValueError):
        Surjection((0, 1))
    with pytest.raises(ValueError):
        Surjection((True, 1))
    with pytest.raises(ValueError):
        Surjection((1, False))
    assert Surjection(()).k == 0


def test_blocks_pin():
    t = Surjection((1, 2, 1, 1, 2))
    assert t.blocks() == ((1, 3, 4), (2, 5))
    assert Surjection.from_blocks(t.blocks()) == t
    assert UNIT.blocks() == ()
    assert Surjection.from_blocks(()) == UNIT


@given(surjections)
def test_blocks_roundtrip(t):
    blocks = t.blocks()
    assert tuple(map(len, blocks)) == t.preimage_sizes()
    assert Surjection.from_blocks(blocks) == t


@pytest.mark.parametrize(
    "blocks",
    [
        ((1,), ()),  # empty block
        ((2, 1),),  # not increasing
        ((1,), (1,)),  # overlapping
        ((1,), (3,)),  # leaves a gap in 1..n
        ((0, 1),),  # position below 1
        ((True, 2),),  # a boolean position
    ],
)
def test_from_blocks_rejects_non_partitions(blocks):
    with pytest.raises(ValueError):
        Surjection.from_blocks(blocks)


def test_basic_properties():
    t = Surjection((1, 2, 1))
    assert (t.n, t.k, t.dim) == (3, 2, 1)
    assert t.blocks() == ((1, 3), (2,))
    assert t.preimage_sizes() == (2, 1)
    assert not t.is_permutation()


def test_csv_stream_keys_a_cell_by_its_dashed_values(capsys):
    # (1, 2, 1) is a facet of the top cell on three letters.
    assert main(["boundary", "--n", "3", "--dim", "2", "--format", "csv"]) == 0
    assert "0,1-2-1,-1" in capsys.readouterr().out.splitlines()


def test_substitution_pin():
    t = Surjection((1, 2, 1))
    parts = (Surjection((2, 1)), Surjection((1,)))
    assert substitute(t, parts) == Surjection((2, 3, 1))


def test_substitution_arity_mismatch():
    with pytest.raises(ValueError):
        substitute(Surjection((1, 2, 1)), (Surjection((1,)), Surjection((1,))))


@given(surjections)
def test_corolla_units(t):
    assert substitute(corolla(t.n), (t,)) == t
    parts = tuple(corolla(size) for size in t.preimage_sizes())
    assert substitute(t, parts) == t


@given(surjections, surjections)
def test_concat_targets(t, w):
    both = concat(t, w)
    assert both.n == t.n + w.n
    assert both.k == t.k + w.k
    assert concat(UNIT, t) == t == concat(t, UNIT)
    assert both.values[:t.n] == t.values
    assert both.values[t.n:] == tuple(v + t.k for v in w.values)


@st.composite
def substitutions(draw):
    t = draw(surjections)
    parts = tuple(draw(surjections_of_size(size)) for size in t.preimage_sizes())
    return t, parts


def assert_valid(out):
    """A trusted-path result is what the validating constructor would build."""
    assert type(out.values) is tuple
    assert out == Surjection(out.values)
    assert out.k == max(out.values, default=0)


@given(substitutions(), surjections, surjections)
def test_trusted_paths_build_valid_surjections(tp, t, w):
    assert_valid(substitute(*tp))
    assert_valid(concat(t, w))
    assert_valid(concat(UNIT, w))
    assert_valid(sigma_of(t))
    assert_valid(Surjection.from_blocks(t.blocks()))


@pytest.mark.parametrize("n", range(7))
def test_enumeration_matches_filtered_product(n):
    for k in range(n + 1):
        reference = [
            vals
            for vals in itertools.product(range(1, k + 1), repeat=n)
            if len(set(vals)) == k
        ]
        got = enumerate_surjections(n, k)
        assert [t.values for t in got] == reference
        assert all(t.k == k for t in got)
    values = [t.values for t in enumerate_surjections(n)]
    assert values == sorted(values)
    assert len(values) == sum(count_surjections(n, k) for k in range(n + 1))


def test_k_is_stored_but_not_compared():
    t = Surjection((1, 2))
    other = Surjection._of((1, 2), 99)  # a deliberately wrong k
    assert t == other and hash(t) == hash(other)
    assert not t < other and not other < t
    assert repr(t) == repr(other) == "Surjection(values=(1, 2))"
    assert Surjection._of((1,), 9) < Surjection._of((2, 1), 0)
    assert not hasattr(t, "__dict__")
    with pytest.raises(AttributeError):
        object.__setattr__(t, "_blocks", ())
    with pytest.raises(TypeError):
        Surjection(values=(1, 2), k=2)


def test_enumeration_counts():
    totals = [len(enumerate_surjections(n)) for n in range(5)]
    assert totals == [1, 1, 3, 13, 75]
    assert len(enumerate_surjections(5)) == 541
    assert len(enumerate_surjections(3, 2)) == count_surjections(3, 2) == 6
    assert enumerate_surjections(2) == sorted(enumerate_surjections(2))
    assert enumerate_surjections(3, 9) == []


@given(surjections)
def test_json_roundtrip(t):
    assert Surjection.from_json(json.loads(json.dumps(t.to_json()))) == t


def test_guards_raise_value_errors():
    with pytest.raises(ValueError):
        corolla(-1)
    with pytest.raises(ValueError):
        enumerate_surjections(-1)


def test_far_values_are_rejected_without_listing_the_gap():
    # A single large value once made the error list every missing level.
    with pytest.raises(ValueError) as exc:
        Surjection((1, 10**5))
    assert str(exc.value) == "not surjective onto 1..100000: missing 2"


def test_json_declared_sizes_are_checked():
    with pytest.raises(ValueError):
        Surjection.from_json({"n": 3, "values": [1, 2]})
    with pytest.raises(ValueError):
        Surjection.from_json({"k": 1, "values": [1, 2]})


@given(words)
def test_word_inverse(w):
    n = len(w)
    identity = tuple(range(1, n + 1))
    assert compose(w, inverse(w)) == identity
    assert compose(inverse(w), w) == identity
    assert inversions(w) == inversions(inverse(w))


word_pairs = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.permutations(range(1, n + 1)), st.permutations(range(1, n + 1))
    )
).map(lambda uw: (tuple(uw[0]), tuple(uw[1])))


@given(word_pairs)
def test_word_sign_multiplicative(uw):
    u, w = uw
    assert word_sign(compose(u, w)) == word_sign(u) * word_sign(w)


def test_inversions_pin():
    assert inversions((2, 3, 1)) == 2
    assert inversions((1, 2, 3)) == 0
    assert word_sign((2, 1)) == -1
