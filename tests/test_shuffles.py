import pytest
from hypothesis import given, strategies as st

from permutads.shuffles import (
    Shuffle,
    shuffle_factorize,
    shuffle_of,
    sigma_of,
    staged_product,
    surjection_of_shuffle,
)
from permutads.surjections import Surjection, inverse


def standardize(vals):
    ranks = {v: i for i, v in enumerate(sorted(set(vals)), start=1)}
    return Surjection(tuple(ranks[v] for v in vals))


surjections = st.lists(st.integers(1, 9), min_size=1, max_size=7).map(standardize)


def test_shuffle_validation():
    with pytest.raises(ValueError):
        Shuffle.from_json({"blocks": [2, 1], "perm": [2, 1, 3]})  # first block decreasing
    with pytest.raises(ValueError):
        Shuffle.from_json({"blocks": [1, 1], "perm": [1, 1]})
    with pytest.raises(ValueError):
        Shuffle.from_json({"blocks": [0, 2], "perm": [1, 2]})
    with pytest.raises(ValueError):  # negative size whose running ends still reach 2
        Shuffle.from_json({"blocks": [-1, 3], "perm": [1, 2]})
    with pytest.raises(ValueError):
        Shuffle.from_json({"blocks": [2, 1], "perm": [1, 2]})  # sizes sum past len(perm)
    with pytest.raises(ValueError):
        Shuffle.from_json({"blocks": [1], "perm": [1, 2]})  # sizes stop short of len(perm)
    with pytest.raises(ValueError):
        Shuffle.from_json({"blocks": [True, 1], "perm": [1, 2]})


def test_shuffle_of_pin():
    t = Surjection((1, 2, 1, 1, 2))
    assert Shuffle.to_json(t) == shuffle_of(t) == {"blocks": [3, 2], "perm": [1, 3, 4, 2, 5]}
    assert sigma_of(t).values == (1, 4, 2, 3, 5)


def test_permutations_are_their_own_unshuffle():
    t = Surjection((2, 3, 1))
    assert sigma_of(t) == t


@given(surjections)
def test_shuffle_surjection_roundtrip(t):
    assert surjection_of_shuffle(shuffle_of(t)) == t
    assert Shuffle.from_json(Shuffle.to_json(t)) == t


@given(surjections)
def test_sigma_inverts_the_shuffle_word(t):
    assert sigma_of(t).values == inverse(Shuffle.to_json(t)["perm"])
    assert sigma_of(t).is_permutation()


@given(surjections)
def test_factorization_recombines(t):
    factors = shuffle_factorize(t)
    assert len(factors) == max(t.k - 1, 0)
    if factors:
        assert staged_product(factors, t.preimage_sizes()) == t


def test_factorization_pin():
    factors = shuffle_factorize(Shuffle.from_json({"blocks": [1, 1, 1], "perm": [2, 3, 1]}))
    assert [Shuffle.to_json(f) for f in factors] == [
        {"blocks": [2, 1], "perm": [2, 3, 1]},
        {"blocks": [1, 1], "perm": [1, 2]},
    ]


def test_factor_blocks_peel_the_last_level():
    # Block sizes of factor j are (i_1 + .. + i_{k-j}, i_{k-j+1}).
    t = Surjection((1, 2, 3, 1, 2, 1))
    sizes = t.preimage_sizes()
    for j, factor in enumerate(shuffle_factorize(t), start=1):
        head = sum(sizes[: t.k - j])
        assert factor.preimage_sizes() == (head, sizes[t.k - j])
