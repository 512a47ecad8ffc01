from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from permutads.linalg import (
    LinComb,
    QPoly,
    SpanBasis,
    _div,
    _gcd,
    _mul,
    csv_triples,
    span_rank,
)
from permutads.permutad import PRESETS, ideal_vectors, specialize

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)
qpolys = st.lists(rationals, max_size=5).map(lambda cs: QPoly(tuple(cs)))


def test_qpoly_normalizes_trailing_zeros():
    assert QPoly((Fraction(1), Fraction(0))).coeffs == (Fraction(1),)
    assert QPoly(()).coeffs == ()
    assert not QPoly(())
    assert QPoly.q(0) == QPoly.const(1)


@given(qpolys, qpolys, qpolys)
def test_qpoly_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a - a == QPoly(())


@given(qpolys, rationals)
def test_qpoly_evaluation_is_a_homomorphism(p, x):
    q = QPoly.q() + QPoly.const(3)
    assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)
    assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)


zq_polys = st.lists(st.integers(-20, 20), min_size=1, max_size=5).filter(
    lambda cs: cs[-1] != 0
).map(tuple)


@given(zq_polys, zq_polys, zq_polys)
def test_zq_gcd_divides_both(a, b, c):
    g = _gcd([a, b])
    assert g[-1] > 0
    assert _mul(_div(a, g), g) == a and _mul(_div(b, g), g) == b
    # gcd(ac, bc) is gcd(a, b) times c, up to sign.
    assert _gcd([_mul(a, c), _mul(b, c)]) in (_mul(g, c), _mul(g, tuple(-x for x in c)))


def test_zq_gcd_pins():
    x = (-1, 1)  # q - 1
    assert _gcd([_mul(x, x), _mul(x, (1, 1))]) == x
    assert _gcd([(3,), x]) == (1,)
    assert _gcd([(6,), (-4, 0, 2)]) == (2,)
    assert _gcd([(0, 0, 0, 1), (0, 0, -1, 0, 0, 1)]) == (0, 0, 1)
    assert _gcd([(0, 0, -2), _mul((0, 0, -2), x)]) == (0, 0, 2)
    assert _div((0, 0, -2, 2), (0, 0, 2)) == x


def test_qpoly_str_pins():
    assert str(QPoly(())) == "0"
    assert str(QPoly.q(2) + 4 * QPoly.q() + QPoly.const(4)) == "q^2 + 4*q + 4"
    assert str(QPoly.q() - QPoly.const(1)) == "q - 1"
    assert str(QPoly.const(Fraction(-1, 2)) * QPoly.q(3)) == "-1/2*q^3"


def test_lincomb_drops_zeros():
    v = LinComb({"a": 1, "b": 0})
    assert v.terms() == (("a", 1),)
    assert (v - v).is_zero()
    assert v.get("b") == 0


def test_lincomb_is_not_hashable():
    with pytest.raises(TypeError):
        hash(LinComb({"a": 1}))


def test_lincomb_arithmetic():
    v = LinComb({"a": 1, "b": -1})
    w = LinComb({"b": 1, "c": 2})
    assert (v + w).terms() == (("a", 1), ("c", 2))
    assert (v.scale(2)).get("b") == -2
    assert v.scale(0).is_zero()
    assert v.map_coeffs(lambda c: c * c).get("b") == 1


def test_span_rank_pin():
    vectors = [
        LinComb({1: 1, 2: -1}),
        LinComb({2: 1, 3: -1}),
        LinComb({1: 1, 3: -1}),
    ]
    assert span_rank(vectors) == 2


@given(st.permutations(range(6)))
def test_span_rank_is_order_invariant(order):
    vectors = [
        LinComb({"a": 1, "b": 2}),
        LinComb({"b": 1, "c": 1}),
        LinComb({"a": 1, "b": 1, "c": -1}),
        LinComb({"a": 2, "b": 3, "c": 1}),
        LinComb({"c": 5}),
        LinComb(),
    ]
    shuffled = [vectors[i] for i in order]
    assert span_rank(shuffled) == 3


def _fraction_rank(vectors):
    """Rank by plain Gaussian elimination over Fraction, for comparison."""
    keys = sorted({k for v in vectors for k in v.keys()})
    rows = [[Fraction(v.get(k)) for k in keys] for v in vectors]
    rank = 0
    for col in range(len(keys)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


small_rationals = st.integers(-4, 4) | st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
rational_vector = st.dictionaries(st.sampled_from("abcde"), small_rationals).map(LinComb)


@st.composite
def rational_families(draw):
    """Combinations of a pool of at most three vectors, so most families are
    dependent; empty families, zero vectors and repeats all occur."""
    pool = draw(st.lists(rational_vector, max_size=3))
    family = []
    for _ in range(draw(st.integers(0, 6))):
        v = LinComb()
        for p in pool:
            v = v + p.scale(draw(small_rationals | st.just(0)))
        family.append(v)
    if family and draw(st.booleans()):
        family.append(draw(st.sampled_from(family)))
    return family


@given(rational_families())
def test_span_rank_matches_fraction_elimination(vectors):
    assert span_rank(vectors) == _fraction_rank(vectors)


def test_span_rank_of_empty_and_zero_families():
    assert span_rank([]) == 0
    assert span_rank([LinComb(), LinComb({"a": 0})]) == 0
    assert span_rank([LinComb({"a": Fraction(1, 3)})] * 3) == 1


def test_rank_of_numbered_rows():
    # Empty rows count for nothing.
    rows = [{0: 2, 1: -2}, {}, {1: 3, 2: -3}, {0: 1, 2: -1}, {2: 5}]
    assert span_rank(map(LinComb, rows)) == 3
    q, one = QPoly.q(), QPoly.const(1)
    assert span_rank([LinComb({0: q, 1: one}), LinComb({0: QPoly.q(2), 1: q})]) == 1
    with pytest.raises(ValueError):
        span_rank([LinComb({0: 1}), LinComb({0: q})])


def test_qpermas_rank_at_minus_one():
    gens, rels = PRESETS["qPermAs"]()
    vectors = [specialize(v, -1) for v in ideal_vectors(rels, gens, 5)]
    assert span_rank(vectors) == 23


def test_span_membership_over_q():
    basis = SpanBasis(
        [
            LinComb({"a": QPoly.q(), "b": QPoly.const(1)}),
            LinComb({"b": QPoly.q()}),
        ]
    )
    assert basis.rank == 2
    assert basis.in_span(LinComb({"a": QPoly.q(2), "b": QPoly.q()}))
    assert not basis.in_span(LinComb({"c": QPoly.const(1)}))


def _cross_multiplied_pivots(vectors):
    """Pivots and ranks by bare cross-multiplication, for comparison."""
    rows = {}
    for v in vectors:
        while not v.is_zero():
            lead = max(v.keys())
            if lead not in rows:
                rows[lead] = v
                break
            v = v.scale(rows[lead].get(lead)) - rows[lead].scale(v.get(lead))
    return sorted(rows)


# Fraction coefficients too: rows over Z[q] clear their denominators on entry.
small_qpolys = st.lists(small_rationals, max_size=3).map(lambda cs: QPoly(tuple(cs)))
q_vector = st.dictionaries(st.sampled_from("abc"), small_qpolys).map(LinComb)


@given(st.lists(q_vector, max_size=4), small_qpolys, st.lists(q_vector, max_size=2))
def test_primitive_elimination_keeps_pivots_and_membership(vectors, scalar, probes):
    basis = SpanBasis(vectors)
    assert basis.pivots() == _cross_multiplied_pivots(vectors)
    assert SpanBasis(vectors[::-1]).pivots() == basis.pivots()
    assert span_rank(vectors) == basis.rank == len(_cross_multiplied_pivots(vectors))
    combination = LinComb()
    for i, v in enumerate(vectors):
        combination = combination + v.scale(scalar * QPoly.q(i))
    assert basis.in_span(combination)
    for probe in probes:
        assert basis.in_span(probe) == (
            len(_cross_multiplied_pivots(vectors + [probe])) == basis.rank
        )
        assert all(isinstance(c, QPoly) for _, c in basis.reduce(probe).terms())


@pytest.mark.parametrize("n", [5, 6, 7])
def test_qpermas_pivot_rows_stay_small(n):
    gens, rels = PRESETS["qPermAs"]()
    basis = SpanBasis(ideal_vectors(rels, gens, n))
    assert basis.rank == factorial(n - 1) - 1
    assert max(len(c) - 1 for row in basis._rows.values() for c in row.values()) <= 1


def test_mixed_domains_are_rejected():
    with pytest.raises(ValueError):
        span_rank([LinComb({"a": 1}), LinComb({"a": QPoly.q()})])
    with pytest.raises(ValueError):
        span_rank([LinComb({"a": 1, "b": QPoly.q()})])
    with pytest.raises(ValueError):
        SpanBasis([LinComb({"a": QPoly.q()})]).in_span(LinComb({"a": 1}))


def test_reduce_returns_remainder():
    basis = SpanBasis([LinComb({"a": 1, "c": 1})])
    rem = basis.reduce(LinComb({"b": 1, "c": 1}))
    assert set(rem.keys()) == {"a", "b"}


def test_pivots_are_highest_keys():
    basis = SpanBasis(
        [LinComb({"b": 1, "c": 1}), LinComb({"a": 1, "b": 1})]
    )
    assert basis.pivots() == ["b", "c"]


def test_csv_triples_golden():
    vectors = [
        LinComb({"1-2": Fraction(1), "2-1": Fraction(-1)}),
        LinComb({"1-1": QPoly.q() - QPoly.const(1)}),
    ]
    assert list(csv_triples(vectors)) == [
        "row,key,coeff",
        "0,1-2,1",
        "0,2-1,-1",
        "1,1-1,q - 1",
    ]


def test_csv_triples_refuses_a_comma_in_a_field():
    with pytest.raises(ValueError):
        list(csv_triples([LinComb({"a,b": 1})]))
