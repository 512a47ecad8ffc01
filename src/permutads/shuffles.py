"""Shuffles, unshuffles, and the factorization into binary shuffles.

An (i_1,...,i_k)-shuffle is a permutation word that increases on each
consecutive block of positions of sizes i_1,...,i_k.  It renders the
ordered partition :meth:`Surjection.blocks` of a surjection t: the blocks
written one after another, cut back at the block sizes.  That word is the
inverse of the unshuffle sigma_t returned by :func:`sigma_of`.  For the
surjection (1,2,1,1,2) the blocks are {1,3,4} and {2,5}, the shuffle is
(1,3,4,2,5) and sigma_t = (1,4,2,3,5).

:class:`Shuffle` is a codec like the pair on :class:`Surjection`: ``to_json``
reads the block sizes and word off t, and ``from_json`` checks a word from
outside once and returns its surjection.

Every (i_1,...,i_k)-shuffle factors uniquely into k - 1 binary shuffles,
and the factors have a closed form.  Let t be the surjection of the
shuffle and 1 <= j < k.  Factor j, counted from the outermost, is the
shuffle of t restricted to the positions at levels up to L = k - j + 1,
with level L kept as level 2 and every level below it merged into level 1:
an (i_1 + ... + i_{L-1}, i_L)-shuffle.  :func:`shuffle_factorize` reads the
factors off t that way, as surjections, and :func:`staged_product`
multiplies their words back as padded words, independently of that form.
"""

from __future__ import annotations

import itertools

from .surjections import Surjection, json_list


def _cut(perm: tuple[int, ...], sizes: tuple[int, ...]) -> list[tuple[int, ...]]:
    """perm cut into consecutive pieces of the given sizes."""
    ends = itertools.accumulate(sizes)
    return [perm[end - size : end] for size, end in zip(sizes, ends)]


def _perm(t: Surjection) -> tuple[int, ...]:
    """The block-increasing word of t: its positions by level, stably."""
    values = t.values
    return tuple(sorted(range(1, len(values) + 1), key=(0, *values).__getitem__))


class Shuffle:
    """Codec between a surjection and its block sizes with its word.

    >>> Shuffle.to_json(Surjection((1, 2, 1)))
    {'blocks': [2, 1], 'perm': [1, 3, 2]}
    """

    @staticmethod
    def to_json(t: Surjection) -> dict:
        return {"blocks": list(t.preimage_sizes()), "perm": list(_perm(t))}

    @staticmethod
    def from_json(obj: dict) -> Surjection:
        blocks, perm = tuple(json_list(obj, "blocks")), tuple(json_list(obj, "perm"))
        if any(type(b) is not int for b in blocks):
            raise ValueError(f"block sizes must be integers, got {blocks}")
        pieces = _cut(perm, blocks)
        if tuple(map(len, pieces)) != blocks or sum(blocks) != len(perm):
            raise ValueError(f"block sizes {blocks} do not cut {perm}")
        return Surjection.from_blocks(pieces)


def sigma_of(t: Surjection) -> Surjection:
    """The unshuffle sigma_t, inverse of the word Shuffle.to_json renders.

    Position a at level j goes to one past every position at a lower level
    and every earlier position at level j.  Permutations are their own
    unshuffle and corollas give the identity.

    >>> sigma_of(Surjection((1, 2, 1, 1, 2))).values
    (1, 4, 2, 3, 5)
    >>> sigma_of(Surjection((1, 1, 1))).values
    (1, 2, 3)
    """
    values = t.values
    n = len(values)
    if n < 1:
        raise ValueError("sigma_of needs at least one input")
    out = [0] * n
    for rank, a in enumerate(sorted(range(n), key=values.__getitem__), start=1):
        out[a] = rank
    return Surjection._of(tuple(out), n)


def staged_product(factors: list[Surjection], blocks: tuple[int, ...]) -> Surjection:
    """Recombine binary factors into the (i_1,...,i_k)-shuffle they came from.

    The j-th factor acts on the first i_1 + ... + i_{k-j+1} points and is
    padded by the identity on the rest; factors are applied last to first.
    The word is built apart from ``blocks``, so cutting it there is checked.
    """
    n = sum(blocks)
    word = range(1, n + 1)
    for factor in reversed(factors):
        if factor.n > n:
            raise ValueError(f"a factor on {factor.n} points does not fit in {n}")
        padded = (0, *_perm(factor), *range(factor.n + 1, n + 1))  # 1-based
        word = tuple(map(padded.__getitem__, word))
    return Surjection.from_blocks(_cut(word, blocks))


def shuffle_factorize(t: Surjection) -> list[Surjection]:
    """The unique binary factors of the shuffle of t, outermost first.

    Factor j is t cut down to its levels up to k - j + 1, every level below
    that top one merged into level 1: the surjection of an
    (i_1 + ... + i_{k-j}, i_{k-j+1})-shuffle.

    >>> t = Shuffle.from_json({"blocks": [1, 1, 1], "perm": [2, 3, 1]})
    >>> [Shuffle.to_json(f)["perm"] for f in shuffle_factorize(t)]
    [[2, 3, 1], [1, 2]]
    """
    values = t.values
    return [
        Surjection._of(tuple(1 if v < top else 2 for v in values if v <= top), 2)
        for top in range(t.k, 1, -1)
    ]


# The benchmark tracer wraps these by name; the package calls the codec.
def shuffle_of(t: Surjection) -> dict:
    return Shuffle.to_json(t)


def surjection_of_shuffle(obj: dict) -> Surjection:
    return Shuffle.from_json(obj)
