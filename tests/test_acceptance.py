"""Acceptance battery: twelve headline claims, one test and one line each.

Run ``pytest tests/test_acceptance.py -v`` for the scorecard.  Every test
is exact; there are no tolerances to loosen.  The heavy lifting lives in
:mod:`permutads.verify`, whose checks raise with a witness on the first
counterexample, so a failure here always names the offending object.
"""

import math

from permutads.bruhat import Cover, admissible_path, cover_graph
from permutads.chains import boundary_of_cell, f_vector
from permutads.linalg import LinComb
from permutads.permutad import (
    PRESETS,
    circ_i,
    free_basis,
    generator_element,
    qpermas_normalize,
    quotient_dim,
)
from permutads.surjections import Surjection, corolla
from permutads.verify import (
    HEXAGON,
    check_binary_arity_four,
    check_boundary_pins,
    check_boundary_squared,
    check_bruhat,
    check_derivation_monomials,
    check_derivation_relations,
    check_diamond,
    check_encoding_roundtrips,
    check_f_vectors,
    check_free_dimensions,
    check_golden_table,
    check_homology,
    check_leibniz,
    check_q_exponent_pins,
    check_q_normal_form,
    check_sequential,
    check_unshuffle_substitution,
)


def test_criterion_01_face_counts():
    assert f_vector(3) == (6, 6, 1) and sum(f_vector(3)) == 13
    assert f_vector(4) == (24, 36, 14, 1) and sum(f_vector(4)) == 75
    check_f_vectors(6)


def test_criterion_02_hexagon_and_interval_boundaries():
    hexagon = boundary_of_cell(corolla(3))
    for values, coeff in HEXAGON.items():
        assert hexagon.get(Surjection(values)) == coeff
    assert hexagon == LinComb({Surjection(v): c for v, c in HEXAGON.items()})
    assert boundary_of_cell(corolla(2)) == LinComb(
        {Surjection((2, 1)): 1, Surjection((1, 2)): -1}
    )
    check_boundary_pins()


def test_criterion_03_chain_complex_squares_to_zero_and_is_contractible():
    check_boundary_squared(6)
    check_homology(5)


def test_criterion_04_differential_is_a_derivation_for_grafting():
    check_leibniz(7)


def test_criterion_05_q_normal_form_counts_inversions():
    check_q_normal_form(5)


def test_criterion_06_pinned_ternary_exponents():
    mu = generator_element("mu", 2)
    first = circ_i(circ_i(mu, mu, 2), mu, 1).terms()[0][0]
    second = circ_i(circ_i(mu, mu, 1), mu, 3).terms()[0][0]
    assert qpermas_normalize(first) == 1
    assert qpermas_normalize(second) == 2
    check_q_exponent_pins()


def test_criterion_07_weak_order_rotations_and_paths():
    kind2 = [c for c in cover_graph(3) if c.kind == 2]
    assert kind2 == [Cover((1, 3, 2), 1, (2, 3, 1), 2)]
    assert admissible_path((1, 3, 2), 1) == [
        (1, 3, 2),
        (1, 2, 3),
        (2, 1, 3),
        (3, 1, 2),
        (3, 2, 1),
        (2, 3, 1),
    ]
    check_bruhat(7)


def test_criterion_08_binary_dimensions_and_arity_four_relations():
    gens, _ = PRESETS["permMag"]()
    for n in range(2, 8):
        assert len(free_basis(gens, n)) == math.factorial(n - 1)
    check_free_dimensions(7)
    check_binary_arity_four()


def test_criterion_09_two_generator_shuffle_quotient():
    gens, rels = PRESETS["permAsSh"]()
    assert len(free_basis(gens, 3)) == 8
    assert len(free_basis(gens, 4)) == 48
    assert quotient_dim(rels, gens, 3) == 6
    assert quotient_dim(rels, gens, 4) == 24


def test_criterion_10_substitution_coherence():
    check_diamond(6)
    check_sequential(6)
    check_unshuffle_substitution(6)


def test_criterion_11_derivation_component():
    check_derivation_relations()
    check_derivation_monomials(4)


def test_criterion_12_encodings_round_trip():
    check_encoding_roundtrips(6)
    check_golden_table()
