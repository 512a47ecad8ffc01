import itertools
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from permutads.linalg import LinComb, QPoly, SpanBasis, span_rank
from permutads.permutad import (
    IDENTITY,
    DecoratedSurjection,
    GeneratorSet,
    PRESETS,
    arity_of,
    binary_normal_form,
    binomial_edges,
    circ_i,
    circ_t,
    diamond_check,
    free_basis,
    free_dimension,
    gamma,
    generator_element,
    ideal_vectors,
    qpermas_normalize,
    qpermas_relation,
    quotient_dim,
    specialize,
)
from permutads.surjections import Surjection, enumerate_surjections

MU = generator_element("mu", 2)


def test_generator_set_validation():
    with pytest.raises(ValueError):
        GeneratorSet({1: ("D",)})
    with pytest.raises(ValueError):
        GeneratorSet({2: ("a", "a")})
    assert GeneratorSet({3: ("c",), 2: ("a",)}).by_arity == ((2, ("a",)), (3, ("c",)))


def test_decorated_surjection_validation():
    with pytest.raises(ValueError):
        DecoratedSurjection(Surjection((1, 2)), ("mu",))
    d = DecoratedSurjection(Surjection((1, 2, 1)), ("a", "b"))
    assert d.arity == 4


def test_arity_of_rejects_mixed_terms():
    v = LinComb({MU: 1, generator_element("mu", 3): 1})
    with pytest.raises(ValueError):
        arity_of(v)
    assert arity_of(MU) == 2
    assert arity_of(IDENTITY) == 1


def test_gamma_pin():
    # Substituting two mu's along (2, 1) decorates the surjection (2, 1).
    v = gamma(Surjection((2, 1)), [MU, MU])
    assert v.terms() == (
        (DecoratedSurjection(Surjection((2, 1)), ("mu", "mu")), 1),
    )


def test_gamma_checks_arities():
    with pytest.raises(ValueError):
        gamma(Surjection((1, 1)), [MU])  # vertex of size 2 wants arity 3
    with pytest.raises(ValueError):
        gamma(Surjection((1, 2)), [MU])


def test_circ_conventions_match():
    # Slot i = 2 of a binary operation grows the two-level shape (2, 1).
    assert circ_i(MU, MU, 2) == circ_t(MU, MU, Surjection((2, 1)))
    assert circ_i(MU, MU, 1) == circ_t(MU, MU, Surjection((1, 2)))
    with pytest.raises(ValueError):
        circ_i(MU, MU, 3)
    with pytest.raises(ValueError):
        circ_t(MU, MU, Surjection((1, 1)))


def test_identity_is_a_two_sided_unit():
    assert circ_i(MU, IDENTITY, 1) == LinComb.single(MU)
    assert circ_i(MU, IDENTITY, 2) == LinComb.single(MU)
    assert circ_i(IDENTITY, MU, 1) == LinComb.single(MU)


def test_gamma_is_multilinear():
    two_mu = LinComb({MU: 2})
    assert gamma(Surjection((2, 1)), [two_mu, MU]) == gamma(
        Surjection((2, 1)), [MU, MU]
    ).scale(2)


def test_diamond_exhaustive_small():
    g3 = generator_element("g", 3)
    for r in enumerate_surjections(3, 3) + enumerate_surjections(4, 3):
        sizes = r.preimage_sizes()
        args = [MU if size == 1 else g3 for size in sizes]
        assert diamond_check(r, args[2], args[1], args[0])


def test_free_basis_counts():
    M = GeneratorSet({2: ("mu",)})
    assert [len(free_basis(M, n)) for n in range(1, 6)] == [1, 1, 2, 6, 24]
    two = GeneratorSet({2: ("one", "tau")})
    assert len(free_basis(two, 3)) == 8
    assert len(free_basis(two, 4)) == 48


def test_free_basis_is_sorted():
    M = GeneratorSet({2: ("one", "tau")})
    basis = free_basis(M, 3)
    assert basis == sorted(basis)


def test_qpermas_relation_shape():
    rel = qpermas_relation()
    keys = {d.t.values: c for d, c in rel.terms()}
    assert keys[(2, 1)] == QPoly.const(1)
    assert keys[(1, 2)] == -QPoly.q()


def test_qpermas_normalize_pins():
    d = DecoratedSurjection(Surjection((2, 3, 1)), ("mu",) * 3)
    assert qpermas_normalize(d) == 2
    with pytest.raises(ValueError):
        qpermas_normalize(DecoratedSurjection(Surjection((1, 1)), ("mu",)))


def test_quotient_dims_per_preset():
    gens, rels = PRESETS["permMag"]()
    assert quotient_dim(rels, gens, 5) == 24
    gens, rels = PRESETS["qPermAs"]()
    assert [quotient_dim(rels, gens, n) for n in (2, 3, 4)] == [1, 1, 1]
    gens, rels = PRESETS["permAsSh"]()
    assert [quotient_dim(rels, gens, n) for n in range(3, 7)] == [
        factorial(n) for n in range(3, 7)
    ]


def _span_dim(relations, M, n, value=None):
    """The oracle: free basis size less the span rank of the ideal vectors,
    optionally with q specialized to a value."""
    vectors = ideal_vectors(relations, M, n)
    if value is not None:
        vectors = [specialize(v, value) for v in vectors]
    return len(free_basis(M, n)) - span_rank(vectors)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_quotient_dim_agrees_with_the_ideal_span(preset):
    gens, rels = PRESETS[preset]()
    top = 7 if preset == "qPermAs" else 6
    for n in range(2, top + 1):
        assert quotient_dim(rels, gens, n) == _span_dim(rels, gens, n)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_quotient_dim_at_minus_one_agrees_with_the_ideal_span(preset):
    gens, rels = PRESETS[preset]()
    at_minus_one = [specialize(rel, -1) for rel in rels]
    for n in range(2, 6):
        assert binomial_edges(at_minus_one, gens, n) is not None
        assert quotient_dim(at_minus_one, gens, n) == _span_dim(rels, gens, n, -1)


BINARY = {names: GeneratorSet({2: names}) for names in (("a",), ("a", "b"))}


def _unit(sign, exponent, form):
    if form == "QPoly":
        return QPoly.q(exponent) * sign
    return sign if form == "int" else Fraction(sign)


@st.composite
def binomial_relations(draw):
    """Arity-3 relations over one or two binary generators, each with one or
    two terms and coefficients +-q^e: killed components, inconsistent
    cycles and monomial relations all occur."""
    M = BINARY[draw(st.sampled_from(sorted(BINARY)))]
    basis = free_basis(M, 3)
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        keys = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=2, unique=True))
        coeffs = {}
        for d in keys:
            sign = draw(st.sampled_from((1, -1)))
            form = draw(st.sampled_from(("QPoly", "int", "Fraction")))
            exponent = draw(st.integers(0, 3)) if form == "QPoly" else 0
            coeffs[d] = _unit(sign, exponent, form)
        relations.append(LinComb(coeffs))
    return M, relations


@settings(max_examples=40, deadline=None)
@given(binomial_relations())
def test_binomial_quotient_agrees_with_the_ideal_span(case):
    M, relations = case
    for n in (3, 4, 5):
        assert binomial_edges(relations, M, n) is not None
        assert quotient_dim(relations, M, n) == _span_dim(relations, M, n)


def test_binomial_quotient_pins():
    M = GeneratorSet({2: ("mu",)})
    upper, lower = (circ_i(MU, MU, i).terms()[0][0] for i in (2, 1))
    cycle = [LinComb({upper: 1, lower: -QPoly.q()}), LinComb({upper: 1, lower: -1})]
    monomial = [LinComb({lower: QPoly.q(2)})]
    for relations, dims in ((cycle, [0, 0, 0]), (cycle[:1], [1, 1, 1]), (monomial, [1, 1, 1])):
        assert [quotient_dim(relations, M, n) for n in (3, 4, 5)] == dims
        assert dims == [_span_dim(relations, M, n) for n in (3, 4, 5)]


@pytest.mark.parametrize("coeffs", [(1, -1, 1), (1, 2), (QPoly.const(2),), (QPoly((1, 1)),)])
def test_other_relations_are_refused(coeffs):
    # Three terms, or a coefficient that is not +-q^e: refused before any slot walk.
    M = BINARY[("a", "b")]
    relations = [LinComb(dict(zip(free_basis(M, 3), coeffs)))]
    with pytest.raises(ValueError, match="not a binomial with coefficients"):
        binomial_edges(relations, M, 3)
    for n in (3, 4):
        with pytest.raises(ValueError, match="not a binomial with coefficients"):
            quotient_dim(relations, M, n)


def _mu_relations():
    return [qpermas_relation(), circ_i(MU, MU, 2) - circ_i(MU, MU, 1)]


@pytest.mark.parametrize("relations, M, n", [
    # Unchecked, the mu-decorated ideal over the generator a gave 0, -6, -12.
    pytest.param(_mu_relations(), GeneratorSet({2: ("a",)}), 3, id="foreign-3"),
    pytest.param(_mu_relations(), GeneratorSet({2: ("a",)}), 4, id="foreign-4"),
    pytest.param([qpermas_relation()], GeneratorSet({2: ("a",)}), 5, id="foreign-5"),
    pytest.param([qpermas_relation()], GeneratorSet({2: ("a",), 3: ("mu",)}), 4,
                 id="wrong-arity"),
    # Unchecked, the identity was never placed and the free dimension came back.
    pytest.param([LinComb.single(IDENTITY)], GeneratorSet({2: ("mu",)}), 3,
                 id="arity-one"),
])
def test_relations_outside_the_generators_are_refused(relations, M, n):
    refused = "is not a generator of arity|relation arity must be"
    with pytest.raises(ValueError, match=refused):
        quotient_dim(relations, M, n)
    with pytest.raises(ValueError, match=refused):
        ideal_vectors(relations, M, n)
    with pytest.raises(ValueError, match=refused):
        list(binomial_edges(relations, M, n))


@pytest.mark.parametrize("M", [
    *(PRESETS[preset]()[0] for preset in sorted(PRESETS)),
    GeneratorSet({2: ("m",), 3: ("c",)}),
    GeneratorSet({3: ("c",)}),
    GeneratorSet({2: ("a", "b"), 4: ("d",)}),
])
def test_free_dimension_counts_the_free_basis(M):
    assert [free_dimension(M, n) for n in range(1, 8)] == [
        len(free_basis(M, n)) for n in range(1, 8)
    ]
    with pytest.raises(ValueError):
        free_dimension(M, 0)


def _composites(relations, M, n, pool):
    """gamma(t; ..., r, ...) with a relation r at one vertex and every other
    vertex filled from ``pool(arity)``, in ``ideal_vectors`` order."""
    out = []
    for rel in relations:
        r_arity = arity_of(rel)
        for t in enumerate_surjections(n - 1):
            sizes = t.preimage_sizes()
            for hot in range(t.k):
                if sizes[hot] + 1 != r_arity:
                    continue
                pools = [[rel] if j == hot else pool(size + 1) for j, size in enumerate(sizes)]
                out.extend(gamma(t, list(slots)) for slots in itertools.product(*pools))
    return out


def _generators(M):
    return lambda a: [generator_element(name, a) for name in M.names_of_arity(a)]


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_ideal_vectors_are_generator_composites(preset):
    gens, rels = PRESETS[preset]()
    for n in range(2, 6):
        assert ideal_vectors(rels, gens, n) == _composites(rels, gens, n, _generators(gens))


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_generator_slots_span_the_full_ideal(preset):
    # The reference fills every other vertex with the whole free basis.
    gens, rels = PRESETS[preset]()
    for n in range(2, 7):
        full = _composites(rels, gens, n, lambda a: free_basis(gens, a))
        assert span_rank(ideal_vectors(rels, gens, n)) == span_rank(full)


def test_qpermas_specializations():
    gens, rels = PRESETS["qPermAs"]()
    for value, expect in ((1, 1), (-1, 1), (2, 1)):
        for n in (3, 4):
            vectors = [specialize(v, value) for v in ideal_vectors(rels, gens, n)]
            dim = len(free_basis(gens, n)) - span_rank(vectors)
            assert dim == expect


def test_ideal_membership():
    gens, rels = PRESETS["qPermAs"]()
    component = SpanBasis(ideal_vectors(rels, gens, 3))
    mu_mu_1 = circ_i(MU, MU, 1).map_coeffs(QPoly.const)
    mu_mu_2 = circ_i(MU, MU, 2).map_coeffs(QPoly.const)
    assert component.in_span(mu_mu_2 - mu_mu_1.scale(QPoly.q()))
    assert not component.in_span(mu_mu_1)


def test_binary_normal_form_pins():
    assert binary_normal_form("mu") == MU
    assert binary_normal_form(("mu", 1, "mu")).t.values == (1, 2)
    assert binary_normal_form(("mu", 2, "mu")).t.values == (2, 1)
    assert binary_normal_form((("mu", 2, "mu"), 1, "mu")).t.values == (1, 3, 2)
    with pytest.raises(ValueError):
        binary_normal_form(("nu", 1, "mu"))
    with pytest.raises(ValueError):
        binary_normal_form(("mu", 1))


@given(st.integers(2, 5))
def test_binary_left_combs_stay_sorted(n):
    # Nesting always at slot 1 gives the identity permutation element.
    expr = "mu"
    for _ in range(n - 2):
        expr = (expr, 1, "mu")
    assert binary_normal_form(expr).t.values == tuple(range(1, n))


def test_sequential_axiom_instance():
    lam, mu, nu = MU, MU, generator_element("g", 3)
    for i in (1, 2):
        for j in (1, 2):
            assert circ_i(circ_i(lam, mu, i), nu, i - 1 + j) == circ_i(
                lam, circ_i(mu, nu, j), i
            )
