import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from permutads.derivations import (
    DERIVATION,
    MU,
    NCPoly,
    UNIT,
    asder_circ,
    asder_compose,
    asder_diamond_check,
    asder_monomial,
    asder_relations_check,
    graft_is_chain,
    ncpoly_mul,
    ncpoly_substitute,
)
from permutads.surjections import Surjection

words2 = st.lists(st.integers(1, 2), min_size=0, max_size=3).map(tuple)
coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=4)
polys = st.lists(st.tuples(words2, coeffs), max_size=4).map(
    lambda ts: NCPoly(2, tuple(ts))
)


def polys_in(nvars):
    words = st.lists(st.integers(1, nvars), max_size=3) if nvars else st.just([])
    terms = st.lists(st.tuples(words.map(tuple), coeffs), max_size=4)
    return terms.map(lambda ts: NCPoly(nvars, tuple(ts)))


@st.composite
def grafts(draw):
    """P and Q with 0..3 variables and any block S of Q's size."""
    a = draw(st.integers(0, 3))
    m = draw(st.integers(0, 3 if a else 0))
    total = a + m - 1
    S = draw(st.sampled_from(list(itertools.combinations(range(1, total + 1), m))))
    return draw(polys_in(a)), draw(polys_in(m)), S


def test_ncpoly_validation():
    with pytest.raises(ValueError):
        NCPoly(-1, ())
    with pytest.raises(ValueError):
        NCPoly(1, (((2,), 1),))


def test_ncpoly_normalization():
    # Duplicate words merge, zero coefficients drop, terms sort by length.
    assert NCPoly(2, (((1,), 1), ((1,), -1))) == NCPoly.zero(2)
    p = NCPoly(2, (((1, 2), 1), ((), 3), ((2,), 2)))
    assert p.terms == (
        ((), Fraction(3)),
        ((2,), Fraction(2)),
        ((1, 2), Fraction(1)),
    )


def test_ncpoly_coerces_integer_coefficients():
    assert NCPoly(1, (((1,), 2),)).terms == (((1,), Fraction(2)),)


@given(polys, polys, polys)
def test_ncpoly_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a * NCPoly.one(2) == a
    assert NCPoly.one(2) * a == a
    assert a - a == NCPoly.zero(2)


def test_ncpoly_mul_rejects_mixed_variable_counts():
    with pytest.raises(ValueError):
        ncpoly_mul(NCPoly.one(1), NCPoly.one(2))
    with pytest.raises(ValueError):
        NCPoly.one(1) + NCPoly.one(2)


def test_ncpoly_str():
    x1 = NCPoly.var(1, 2)
    x2 = NCPoly.var(2, 2)
    assert str(NCPoly.zero(2)) == "0"
    assert str(NCPoly.one(2)) == "1"
    assert str(x1 * x2 + x1) == "x1 + x1.x2"
    assert str(x1 - x2) == "x1 - x2"
    assert str(x1.scale(-1)) == "-x1"
    assert str(x1.scale(Fraction(1, 2))) == "1/2*x1"


@given(polys)
def test_ncpoly_json_roundtrip(p):
    assert NCPoly.from_json(p.to_json()) == p


def test_substitution():
    swap = ncpoly_substitute(
        NCPoly.monomial((1, 2), 2), [NCPoly.var(2, 2), NCPoly.var(1, 2)]
    )
    assert swap == NCPoly.monomial((2, 1), 2)
    with pytest.raises(ValueError):
        ncpoly_substitute(MU, [NCPoly.var(1, 1)])


def test_compose_pins():
    assert asder_compose(DERIVATION, MU, Surjection((1, 1))) == NCPoly.var(
        1, 2
    ) + NCPoly.var(2, 2)
    assert asder_compose(MU, DERIVATION, Surjection((2, 1))) == NCPoly.var(2, 2)
    assert asder_compose(MU, DERIVATION, (1,)) == NCPoly.var(1, 2)
    assert asder_circ(MU, MU, 1) == NCPoly.one(3)
    assert asder_circ(MU, MU, 1) == asder_circ(MU, MU, 2)


def test_shape_forms_agree():
    # A two-level surjection and its sorted level-one block give one graft.
    assert asder_compose(MU, MU, Surjection((1, 1, 2))) == asder_compose(
        MU, MU, (1, 2)
    )


def graft_by_substitution(P, Q, S):
    """The defining graft: the slot variable becomes the sum over S, the
    other variables of P the complement in order, Q's variables S; the
    outer factor multiplies on the left."""
    total = P.nvars + Q.nvars - 1
    complement = [p for p in range(1, total + 1) if p not in S]
    slot = sum(1 for c in complement if c < S[0]) + 1 if S else 1
    images = [NCPoly.var(c, total) for c in complement]
    images.insert(slot - 1, NCPoly(total, tuple(((s,), 1) for s in S)))
    if S:
        inner = ncpoly_substitute(Q, [NCPoly.var(s, total) for s in S])
    else:  # Q is a constant, read in the graft's variables
        inner = NCPoly(total, Q.terms)
    return ncpoly_mul(ncpoly_substitute(P, images), inner)


@given(grafts())
def test_compose_is_substitution(graft):
    P, Q, S = graft
    total = P.nvars + Q.nvars - 1
    if total < 0:  # two constants: nothing to graft into
        with pytest.raises(ValueError):
            asder_compose(P, Q, S)
        return
    want = graft_by_substitution(P, Q, S)
    assert asder_compose(P, Q, S) == want
    if S:
        shape = Surjection(tuple(1 if p in S else 2 for p in range(1, total + 1)))
        assert asder_compose(P, Q, shape) == want


def test_compose_shape_errors():
    with pytest.raises(ValueError):
        asder_compose(MU, MU, (2, 1))
    with pytest.raises(ValueError):
        asder_compose(MU, MU, (1,))
    with pytest.raises(ValueError):
        asder_compose(MU, MU, Surjection((1, 2, 3)))
    with pytest.raises(ValueError):
        asder_compose(MU, MU, Surjection((1, 1, 2, 2)))
    with pytest.raises(ValueError):
        asder_circ(MU, MU, 3)


@given(polys, st.integers(1, 2))
def test_grafting_derivation_multiplies_on_the_right(p, j):
    assert asder_circ(p, DERIVATION, j) == p * NCPoly.var(j, 2)


def test_grafting_product_splits_a_variable():
    p = NCPoly.monomial((1, 2), 2)
    want = NCPoly.monomial((1, 3), 3) + NCPoly.monomial((2, 3), 3)
    assert asder_circ(p, MU, 1) == want


@given(polys, st.integers(1, 2))
def test_unit_is_neutral(p, i):
    assert asder_circ(p, UNIT, i) == p
    assert asder_circ(UNIT, p, 1) == p


def test_derivation_rule():
    lhs = asder_compose(DERIVATION, MU, Surjection((1, 1)))
    assert lhs == asder_circ(MU, DERIVATION, 1) + asder_circ(MU, DERIVATION, 2)


def test_defining_relations_hold():
    assert asder_relations_check()


def test_monomial_pins():
    assert asder_monomial((1, 2, 2), 2) == NCPoly.monomial((1, 2, 2), 2)
    assert asder_monomial((1, 2, 4, 2), 4) == NCPoly.monomial((1, 2, 4, 2), 4)
    assert asder_monomial((), 3) == NCPoly.one(3)
    with pytest.raises(ValueError):
        asder_monomial((3,), 2)


def test_graft_is_chain():
    assert graft_is_chain(2, 1, (1,), (1,))
    assert not graft_is_chain(2, 1, (1,), (2,))


def test_diamond_nested():
    assert asder_diamond_check(MU, MU, MU, (1, 2), (1, 2))
    assert asder_diamond_check(MU, MU, DERIVATION, (1, 2), (2,))


def test_diamond_refuses_parallel_grafts():
    with pytest.raises(ValueError):
        asder_diamond_check(MU, DERIVATION, DERIVATION, (1,), (2,))


def test_parallel_grafts_do_not_commute():
    # Attaching the derivation at both inputs of the product depends on
    # the order: the vertex factors multiply in level order.
    left = asder_circ(asder_circ(MU, DERIVATION, 1), DERIVATION, 2)
    right = asder_circ(asder_circ(MU, DERIVATION, 2), DERIVATION, 1)
    assert left == NCPoly.monomial((1, 2), 2)
    assert right == NCPoly.monomial((2, 1), 2)
    assert left != right
