"""Named consistency checks over every component, for the CLI and the tests.

Each check is exhaustive up to a size bound and raises :class:`CheckFailed`
with a JSON-serializable witness on the first counterexample, so the command
line can report exactly what broke.  The registry at the bottom pairs each
check with the default bound it is known to pass at desk scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from operator import itemgetter
from typing import Callable

from . import bruhat, chains, derivations
from .linalg import LinComb, QPoly
from .permutad import (
    IDENTITY,
    BinomialQuotient,
    DecoratedSurjection,
    GeneratorSet,
    PRESETS,
    binary_normal_form,
    binomial_edges,
    circ_i,
    diamond_check,
    free_basis,
    free_dimension,
    generator_element,
    qpermas_normalize,
    quotient_dim,
    specialize,
)
from .shuffles import Shuffle, shuffle_factorize, sigma_of, staged_product
from .surjections import (
    Surjection,
    corolla,
    enumerate_surjections,
    inverse,
    substitute,
)
from .trees import (
    LeveledTree,
    ShuffleLeftComb,
    comb_to_nested,
    strip_levels,
    tree_to_nested,
    validate_shuffle_tree,
)


class CheckFailed(Exception):
    """A named check found a counterexample; witness is JSON-serializable."""

    def __init__(self, witness: dict):
        super().__init__(str(witness))
        self.witness = witness


def _fail(**witness) -> None:
    """Raise with a witness; :func:`run_check` adds the check's name."""
    raise CheckFailed({k: _plain(v) for k, v in witness.items()})


def _plain(x):
    """Strip library types down to JSON-friendly values."""
    if isinstance(x, Surjection):
        return list(x.values)
    if hasattr(x, "to_json"):
        return x.to_json()
    if isinstance(x, LinComb):
        return [{"coefficient": str(c), "element": _plain(k)} for k, c in x.terms()]
    if isinstance(x, QPoly):
        return str(x)
    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    return x


# ---------------------------------------------------------------------------
# Substitution monad.


def check_substitution_units(max_n: int) -> None:
    """Corollas act as identities on both sides of substitution."""
    corollas = [corolla(size) for size in range(max_n + 1)]
    for n in range(1, max_n + 1):
        for t in enumerate_surjections(n):
            into = substitute(corollas[n], (t,))
            under = substitute(t, tuple(map(corollas.__getitem__, t.preimage_sizes())))
            if into != t or under != t:
                _fail(t=t, into=into, under=under)


def check_substitution_associativity(max_n: int) -> None:
    """Two-stage substitution agrees with substituting composed parts.

    Exhaustive over outer shapes with up to max_n inputs and all choices of
    parts and sub-parts; the flattened sub-part list regroups by the target
    offsets of the parts.
    """
    of_size = [enumerate_surjections(size) for size in range(max_n + 1)]
    for n in range(1, max_n + 1):
        for t in of_size[n]:
            part_choices = [of_size[size] for size in t.preimage_sizes()]
            for parts in itertools.product(*part_choices):
                mid = substitute(t, parts)
                sub_choices = [of_size[size] for size in mid.preimage_sizes()]
                for subs in itertools.product(*sub_choices):
                    left = substitute(mid, subs)
                    offset = 0
                    composed = []
                    for part in parts:
                        chunk = subs[offset : offset + part.k]
                        composed.append(substitute(part, chunk))
                        offset += part.k
                    right = substitute(t, tuple(composed))
                    if left != right:
                        _fail(t=t, parts=parts, subs=subs, left=left, right=right)


def _arity_candidates(max_a: int) -> list[list]:
    """Indexed by arity a <= max_a: one corolla generator, plus a ladder of
    binary ones from arity 3; the identity alone in arity 1."""
    pools = [[], [IDENTITY]]
    for a in range(2, max_a + 1):
        pools.append([generator_element(f"g{a}", a)])
        if a >= 3:
            ladder = Surjection(tuple(range(1, a)))
            pools[a].append(DecoratedSurjection(ladder, ("g2",) * (a - 1)))
    return pools


def check_diamond(max_n: int) -> None:
    """Both bracketings through every three-vertex shape give one answer.

    Exhaustive over shapes whose composite arity is at most max_n, with
    generator and ladder elements at each vertex, plus one two-term
    combination to exercise multilinearity.
    """
    candidates = _arity_candidates(max_n)
    for n in range(3, max_n):
        for r in enumerate_surjections(n, 3):
            pools = [candidates[size + 1] for size in r.preimage_sizes()]
            for nu, mu, lam in itertools.product(*pools):
                if not diamond_check(r, lam, mu, nu):
                    _fail(r=r, lam=lam, mu=mu, nu=nu)
    two = LinComb(
        {
            generator_element("g3", 3): 1,
            DecoratedSurjection(Surjection((1, 2)), ("g2", "g2")): 2,
        }
    )
    r = Surjection((3, 2, 1, 1))
    if not diamond_check(r, generator_element("g2", 2), generator_element("g2", 2), two):
        _fail(r=r, note="multilinearity case failed")


def check_sequential(max_n: int) -> None:
    """Disjoint-slot chains compose in either order.

    (lam o_i mu) o_{i-1+j} nu = lam o_i (mu o_j nu) for slots i of lam and
    j of mu, over one generator per arity including the arity-one identity.
    """
    candidates = _arity_candidates(max_n)
    for l in range(1, max_n):
        for m in range(1, max_n):
            for p in range(1, max_n):
                if l + m + p - 2 > max_n:
                    continue
                for lam, mu, nu in itertools.product(
                    candidates[l], candidates[m], candidates[p]
                ):
                    for i in range(1, l + 1):
                        for j in range(1, m + 1):
                            lhs = circ_i(circ_i(lam, mu, i), nu, i - 1 + j)
                            rhs = circ_i(lam, circ_i(mu, nu, j), i)
                            if lhs != rhs:
                                _fail(arities=(l, m, p), i=i, j=j, lhs=lhs, rhs=rhs)


# ---------------------------------------------------------------------------
# Shuffles, unshuffles, tree encodings.


def check_unshuffle_substitution(max_n: int) -> None:
    """The unshuffle of a substitution is the blockwise product.

    sigma of substitute(t, parts) applies sigma_t first and then the
    unshuffles of the parts side by side, one block per vertex.  Only the
    parts vary inside the loop over t, so the gather by sigma_t and each
    vertex's part unshuffles, shifted to its block, are read once per t.
    """
    of_size = [enumerate_surjections(size) for size in range(1, max_n + 1)]
    unshuffles = [[sigma_of(part).values for part in parts] for parts in of_size]
    for n in range(1, max_n + 1):
        for t in of_size[n - 1]:
            # rhs[a] = blockwise[sigma_t(a) - 1]; itemgetter of a single
            # index returns the item, not a 1-tuple, so n = 1 copies instead.
            gather = itemgetter(*[v - 1 for v in sigma_of(t).values])
            gather = gather if n > 1 else tuple
            part_choices, sigma_choices, offset = [], [], 0
            for size in t.preimage_sizes():
                part_choices.append(of_size[size - 1])
                own = unshuffles[size - 1]
                sigma_choices.append([tuple(map(offset.__add__, u)) for u in own] if offset else own)
                offset += size
            for parts, sigmas in zip(
                itertools.product(*part_choices), itertools.product(*sigma_choices)
            ):
                lhs = sigma_of(substitute(t, parts)).values
                rhs = gather(sum(sigmas, ()))
                if lhs != rhs:
                    _fail(t=t, parts=parts, lhs=list(lhs), rhs=list(rhs))


def check_shuffle_factorization(max_n: int) -> None:
    """Binary factors recombine to the shuffle they were peeled from."""
    for n in range(1, max_n + 1):
        for t in enumerate_surjections(n):
            factors = shuffle_factorize(t)
            if len(factors) != max(t.k - 1, 0):
                _fail(t=t, factors=factors)
            sizes = t.preimage_sizes()
            head = n  # the inputs below the top level of factor j
            for j, factor in enumerate(factors, start=1):
                head -= sizes[t.k - j]
                if factor.preimage_sizes() != (head, sizes[t.k - j]):
                    _fail(t=t, factor=factor, j=j)
            if factors and staged_product(factors, sizes) != t:
                _fail(t=t, factors=factors)


def check_encoding_roundtrips(max_n: int) -> None:
    """Each encoding's JSON render of a surjection parses back to it.

    Tree and comb renders carry their sets and their nested drawing, and
    ``from_json`` parses both and cross-checks them; the same nested tree,
    stripped of its levels, is a shuffle tree; sigma_t inverts the shuffle.
    """
    for n in range(1, max_n + 1):
        for t in enumerate_surjections(n):
            shuffle = Shuffle.to_json(t)
            if sigma_of(t).values != inverse(shuffle["perm"]):
                _fail(via="sigma", t=t)
            if Shuffle.from_json(shuffle) != t:
                _fail(via="shuffle-json", t=t)
            tree = LeveledTree.to_json(t)
            if LeveledTree.from_json(tree) != t:
                _fail(via="tree-json", t=t)
            ok, _ = validate_shuffle_tree(strip_levels(tree["nested"]))
            if not ok:
                _fail(via="shuffle-condition", t=t)
            if ShuffleLeftComb.from_json(ShuffleLeftComb.to_json(t)) != t:
                _fail(via="comb-json", t=t)


GOLDEN_TABLE = [
    # values, blocks, perm, comb nested, leveled nested, sigma
    ((1,), (1,), (1,), [0, 1], [1, 0, 1], (1,)),
    ((1, 2), (1, 1), (1, 2), [[0, 1], 2], [2, [1, 0, 1], 2], (1, 2)),
    ((2, 1), (1, 1), (2, 1), [[0, 2], 1], [2, 0, [1, 1, 2]], (2, 1)),
    (
        (1, 2, 3),
        (1, 1, 1),
        (1, 2, 3),
        [[[0, 1], 2], 3],
        [3, [2, [1, 0, 1], 2], 3],
        (1, 2, 3),
    ),
    (
        (1, 1, 2),
        (2, 1),
        (1, 2, 3),
        [[0, 1, 2], 3],
        [2, [1, 0, 1, 2], 3],
        (1, 2, 3),
    ),
    (
        (1, 3, 2),
        (1, 1, 1),
        (1, 3, 2),
        [[[0, 1], 3], 2],
        [3, [1, 0, 1], [2, 2, 3]],
        (1, 3, 2),
    ),
    (
        (1, 2, 1),
        (2, 1),
        (1, 3, 2),
        [[0, 1, 3], 2],
        [2, [1, 0, 1], [1, 2, 3]],
        (1, 3, 2),
    ),
]


def check_golden_table() -> None:
    """Seven pinned rows tying all four encodings of one surjection together."""
    for values, blocks, perm, comb_nested, leveled, sigma in GOLDEN_TABLE:
        t = Surjection(values)
        shuffle = Shuffle.to_json(t)
        if shuffle != {"blocks": list(blocks), "perm": list(perm)}:
            _fail(t=t, got=shuffle, want_blocks=blocks, want_perm=perm)
        if comb_to_nested(t) != comb_nested:
            _fail(t=t, got=comb_to_nested(t))
        if tree_to_nested(t) != leveled:
            _fail(t=t, got=tree_to_nested(t))
        if sigma_of(t).values != sigma:
            _fail(t=t, got=list(sigma_of(t).values))


# ---------------------------------------------------------------------------
# Free and quotient dimensions.


def check_free_dimensions(max_n: int) -> None:
    """One binary generator gives (n-1)! basis elements in arity n.

    With a generator in every arity the basis matches the cells of the
    permutohedron one arity down, dimension by dimension.  Every basis
    listed has the size :func:`free_dimension` counts.
    """
    magmatic, _ = PRESETS["permMag"]()
    for n in range(1, max_n + 1):
        count = len(free_basis(magmatic, n))
        expect = factorial(n - 1)
        counted = free_dimension(magmatic, n)
        if count != expect or counted != count:
            _fail(preset="permMag", n=n, count=count, expect=expect, counted=counted)
    for n in range(2, max_n + 1):
        allgen = GeneratorSet({a: (f"m{a}",) for a in range(2, n + 1)})
        basis = free_basis(allgen, n)
        counted = free_dimension(allgen, n)
        if counted != len(basis):
            _fail(preset="all-arities", n=n, count=len(basis), counted=counted)
        fv = chains.f_vector(n - 1)
        by_dim = [0] * len(fv)
        for d in basis:
            by_dim[d.t.dim] += 1
        if tuple(by_dim) != fv:
            _fail(preset="all-arities", n=n, by_dim=by_dim, fv=list(fv))


def _binary_composites() -> list:
    """The ten arity-four expressions in a single binary generator."""
    out = []
    for a in (1, 2):
        for b in (1, 2, 3):
            out.append((("mu", a, "mu"), b, "mu"))
    for a in (1, 2):
        for b in (1, 2):
            out.append(("mu", a, ("mu", b, "mu")))
    return out


def check_binary_arity_four() -> None:
    """Ten magmatic composites in arity four fall into six classes.

    The four left-nested/right-nested identities hold on the nose and the
    remaining two left-nested composites stay alone.
    """
    composites = _binary_composites()
    if len(composites) != 10:
        _fail(count=len(composites))
    pairs = [
        ((("mu", 1, "mu"), 1, "mu"), ("mu", 1, ("mu", 1, "mu"))),
        ((("mu", 1, "mu"), 2, "mu"), ("mu", 1, ("mu", 2, "mu"))),
        ((("mu", 2, "mu"), 2, "mu"), ("mu", 2, ("mu", 1, "mu"))),
        ((("mu", 2, "mu"), 3, "mu"), ("mu", 2, ("mu", 2, "mu"))),
    ]
    for left, right in pairs:
        if binary_normal_form(left) != binary_normal_form(right):
            _fail(
                left=binary_normal_form(left),
                right=binary_normal_form(right),
            )
    classes: dict[DecoratedSurjection, list] = {}
    for expr in composites:
        classes.setdefault(binary_normal_form(expr), []).append(expr)
    if len(classes) != 6:
        _fail(classes=len(classes))
    singles = sorted(
        str(members[0]) for members in classes.values() if len(members) == 1
    )
    expect = sorted(
        [str((("mu", 2, "mu"), 1, "mu")), str((("mu", 1, "mu"), 3, "mu"))]
    )
    if singles != expect:
        _fail(singles=singles, expect=expect)


def check_q_normal_form(max_n: int) -> None:
    """Every monomial drops to q^(inversions) times the identity monomial.

    Read off the generator-slot edges of the relation ideal: in the
    union-find over them, each monomial's multiplier relative to the
    identity monomial is q^(inversions), and the symbolic quotient is a
    line.  The relations specialized at q = -1 give a quotient that is also
    a line, by the same :func:`quotient_dim` as every other preset.
    """
    qgens, qrels = PRESETS["qPermAs"]()
    at_minus_one = [specialize(r, -1) for r in qrels]
    for n in range(2, max_n + 1):
        symbolic = BinomialQuotient(binomial_edges(qrels, qgens, n))
        free = free_dimension(qgens, n)
        root, sign, base = symbolic.find((tuple(range(1, n)), ("mu",) * (n - 1)))
        for d in free_basis(qgens, n):
            got = symbolic.find((d.t.values, d.decorations))
            if got != (root, sign, base + qpermas_normalize(d)):
                _fail(element=d, note="not q^inversions times the identity")
        if free - symbolic.rank != 1:
            _fail(n=n, note="symbolic quotient not a line")
        dim = quotient_dim(at_minus_one, qgens, n)
        if dim != 1:
            _fail(n=n, q=-1, dim=dim)


def check_q_exponent_pins() -> None:
    """Two pinned ternary composites normalize to exponents one and two."""
    mu = generator_element("mu", 2)
    first = circ_i(circ_i(mu, mu, 2), mu, 1)
    second = circ_i(circ_i(mu, mu, 1), mu, 3)
    for expr, expect in ((first, 1), (second, 2)):
        terms = expr.terms()
        if len(terms) != 1:
            _fail(terms=len(terms))
        exponent = qpermas_normalize(terms[0][0])
        if exponent != expect:
            _fail(
                element=terms[0][0],
                exponent=exponent,
                expect=expect,
            )


def check_associative_shuffle_dims() -> None:
    """The two-generator shuffle-associative quotient has dims 6 and 24."""
    gens, rels = PRESETS["permAsSh"]()
    if len(free_basis(gens, 4)) != 48:
        _fail(free=len(free_basis(gens, 4)))
    for n, expect in ((3, 6), (4, 24)):
        dim = quotient_dim(rels, gens, n)
        if dim != expect:
            _fail(n=n, dim=dim, expect=expect)


# ---------------------------------------------------------------------------
# Permutohedron complexes.


def check_f_vectors(max_n: int) -> None:
    """Cell counts per dimension: vertices n!, facets 2^n - 2, one top cell,
    and the closed form of each dimension against its enumeration."""
    if chains.f_vector(3) != (6, 6, 1):
        _fail(n=3, got=list(chains.f_vector(3)))
    if chains.f_vector(4) != (24, 36, 14, 1):
        _fail(n=4, got=list(chains.f_vector(4)))
    for n in range(2, max_n + 1):
        fv = chains.f_vector(n)
        if fv[0] != factorial(n) or fv[n - 2] != 2**n - 2 or fv[n - 1] != 1:
            _fail(n=n, got=list(fv))
        counted = tuple(len(enumerate_surjections(n, n - d)) for d in range(n))
        if fv != counted:
            _fail(n=n, got=list(fv), expect=list(counted))


def check_boundary_squared(max_n: int) -> None:
    """The cellular differential squares to zero."""
    for n in range(2, max_n + 1):
        if not chains.double_boundary_vanishes(n):
            _fail(n=n)


HEXAGON = {
    (1, 1, 2): 1,
    (2, 1, 2): 1,
    (2, 1, 1): 1,
    (1, 2, 2): -1,
    (1, 2, 1): -1,
    (2, 2, 1): -1,
}


def check_boundary_pins() -> None:
    """Pinned boundaries: the oriented hexagon and the arity-three interval."""
    hexagon = chains.boundary_of_cell(corolla(3))
    want = LinComb({Surjection(v): c for v, c in HEXAGON.items()})
    if hexagon != want:
        _fail(got=hexagon, want=want)
    interval = chains.boundary_of_cell(corolla(2))
    want2 = LinComb({Surjection((2, 1)): 1, Surjection((1, 2)): -1})
    if interval != want2:
        _fail(got=interval, want=want2)


def check_homology(max_n: int) -> None:
    """Each permutohedron complex has the homology of a point."""
    for n in range(1, max_n + 1):
        ranks = chains.homology_ranks(n)
        if ranks != (1,) + (0,) * (n - 1):
            _fail(n=n, ranks=list(ranks))


def check_homology_integral(max_n: int) -> None:
    """The candidates of :func:`chains._candidate` form the Morse matching that
    :func:`chains.homology` counts, walking each complex from the vertices up:
    a cell with a candidate is the lead of the merge at it, which has none; a
    cell of dimension >= 1 with none is the merge of its lead's candidate; the
    vertex (1, .., n) alone has none.  To n = 7 the lead of each cell with none
    is its largest facet, which makes the matching acyclic.

    The first condition makes merging one-to-one from the cells with a
    candidate into the cells one dimension up with none, so the second holds
    for a whole dimension when the two counts agree; its cells are walked
    one by one only when they do not."""
    candidate, lead_of, facets = chains._candidate, chains._lead, chains._facets
    for n in range(1, max_n + 1):
        below = 0  # the cells with a candidate one dimension down
        for k in range(n, 0, -1):
            faces = chains._words(n, k)
            matched = 0
            for t in faces:
                j = candidate(t, k)
                if j is None:
                    if k == n and t != tuple(range(1, n + 1)):
                        _fail(n=n, cell=t, note="a vertex other than (1, .., n) has no candidate")
                    if n <= 7 and k < n:
                        lead, largest = lead_of(t, k), max(map(itemgetter(1), facets(t, k)))
                        if lead != largest:
                            _fail(n=n, cell=t, lead=lead, largest=largest,
                                  note="the lead is not the largest facet")
                    continue
                matched += 1
                merge = tuple([v - 1 if v > j else v for v in t])
                if candidate(merge, k - 1) is not None:
                    _fail(n=n, cell=t, candidate=j, merge=merge, note="the merge has a candidate")
                if lead_of(merge, k - 1) != t:
                    _fail(n=n, cell=t, candidate=j, merge=merge,
                          lead=lead_of(merge, k - 1), note="the merge leads elsewhere")
            if k < n and len(faces) - matched != below:
                for t in faces:
                    if candidate(t, k) is None:
                        lead = lead_of(t, k)
                        i = candidate(lead, k + 1)
                        if i is None or tuple([v - 1 if v > i else v for v in lead]) != t:
                            _fail(n=n, cell=t, lead=lead, candidate=i,
                                  note="the lead is not matched with this cell")
            below = matched


def check_leibniz(max_n: int) -> None:
    """The differential is a derivation for grafting along every shape."""
    for m in range(2, max_n):
        for n in range(2, max_n):
            if m + n > max_n:
                continue
            if not chains.dg_leibniz_check(m, n):
                _fail(m=m, n=n)


def check_skeleton_covers(max_n: int) -> None:
    """Oriented skeleton edges are exactly the weak-order cover relations."""
    for n in range(2, max_n + 1):
        edges = {
            (u.values, v.values) for u, v in chains.skeleton_edges(n)
        }
        covers = {(c.source, c.target) for c in bruhat.cover_graph(n)}
        if edges != covers:
            _fail(
                n=n,
                extra=sorted(edges - covers),
                missing=sorted(covers - edges),
            )


# ---------------------------------------------------------------------------
# Weak order.


def check_bruhat(max_n: int) -> None:
    """Lengths and kinds of every cover to n = 6, kind-1 connectivity to
    max_n, pinned paths, and every kind-2 cover's admissible path to n = 5."""
    for n in range(2, min(max_n, 6) + 1):
        for c in bruhat.cover_graph(n):
            if bruhat.length(c.target) != bruhat.length(c.source) + 1:
                _fail(cover=c)
            if bruhat.tree_rotation_kind(c.source, c.i) != c.kind:
                _fail(cover=c, note="kind mismatch")
    three = bruhat.cover_graph(3)
    type2 = [c for c in three if c.kind == 2]
    if len(three) != 6 or type2 != [((1, 3, 2), 1, (2, 3, 1), 2)]:
        _fail(covers=len(three), type2=type2)
    want_path = [(1, 3, 2), (1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1), (2, 3, 1)]
    if bruhat.admissible_path((1, 3, 2), 1) != want_path:
        _fail(path=bruhat.admissible_path((1, 3, 2), 1))
    for n in range(2, max_n + 1):
        connected, tree = bruhat.type1_connected(n)
        if not connected or len(tree) != factorial(n) - 1:
            _fail(n=n, connected=connected, tree=len(tree))
    for n in range(2, min(max_n, 5) + 1):
        kind1 = {
            frozenset((c.source, c.target))
            for c in bruhat.cover_graph(n)
            if c.kind == 1
        }
        for c in bruhat.cover_graph(n):
            if c.kind != 2:
                continue
            path = bruhat.admissible_path(c.source, c.i)
            if path[0] != c.source or path[-1] != c.target:
                _fail(cover=c, path=path)
            for u, v in zip(path, path[1:]):
                if frozenset((u, v)) not in kind1:
                    _fail(cover=c, step=[list(u), list(v)])


# ---------------------------------------------------------------------------
# Associative algebras with derivation.


def check_derivation_relations() -> None:
    """Associativity, the Leibniz rule and the mixed exchange laws hold."""
    if not derivations.asder_relations_check():
        _fail()


def check_derivation_monomials(max_n: int) -> None:
    """Iterated grafting of the derivation writes down the expected word."""
    for n in range(1, max_n + 1):
        for length in range(0, max_n + 1):
            for js in itertools.product(range(1, n + 1), repeat=length):
                poly = derivations.asder_monomial(js, n)
                want = derivations.NCPoly.monomial(js, n)
                if poly != want:
                    _fail(js=list(js), n=n, got=poly)


def check_derivation_diamond() -> None:
    """Nested two-step grafts satisfy the diamond; parallel ones are refused."""
    D = derivations.DERIVATION
    mu = derivations.MU
    elements = [D, mu, derivations.UNIT, derivations.NCPoly.monomial((1, 2), 2)]
    nested = parallel = 0
    for lam in elements:
        for m in elements:
            for nu in elements:
                total_lm = lam.nvars + m.nvars - 1
                for S in itertools.combinations(range(1, total_lm + 1), m.nvars):
                    total = total_lm + nu.nvars - 1
                    for T in itertools.combinations(range(1, total + 1), nu.nvars):
                        if derivations.graft_is_chain(lam.nvars, m.nvars, S, T):
                            if not derivations.asder_diamond_check(lam, m, nu, S, T):
                                _fail(
                                    S=list(S),
                                    T=list(T),
                                    note="nested graft orders disagree",
                                )
                            nested += 1
                        else:
                            try:
                                derivations.asder_diamond_check(lam, m, nu, S, T)
                            except ValueError:
                                parallel += 1
                            else:
                                _fail(
                                    S=list(S),
                                    T=list(T),
                                    note="parallel graft accepted",
                                )
    if nested == 0 or parallel == 0:
        _fail(nested=nested, parallel=parallel)
    left = derivations.asder_circ(derivations.asder_circ(mu, D, 1), D, 2)
    right = derivations.asder_circ(derivations.asder_circ(mu, D, 2), D, 1)
    if left == right:
        _fail(note="parallel grafts unexpectedly commute")


# ---------------------------------------------------------------------------
# Registry.


@dataclass(frozen=True)
class Check:
    """A named check, its default size bound and the hard cap it honors.

    Requests above the cap are clamped: bounds past it would push an
    exhaustive sweep into unreasonable territory.
    """

    name: str
    run: Callable
    default_n: int | None
    cap: int | None = None


CHECKS: tuple[Check, ...] = (
    Check("substitution-units", check_substitution_units, 6, 7),
    Check("substitution-associativity", check_substitution_associativity, 4, 5),
    Check("diamond", check_diamond, 6, 8),
    Check("sequential-composition", check_sequential, 6, 9),
    Check("unshuffle-substitution", check_unshuffle_substitution, 6, 6),
    Check("shuffle-factorization", check_shuffle_factorization, 6, 8),
    Check("encoding-roundtrips", check_encoding_roundtrips, 6, 8),
    Check("golden-table", check_golden_table, None),
    Check("free-dimensions", check_free_dimensions, 7, 8),
    Check("binary-arity-four", check_binary_arity_four, None),
    Check("q-normal-form", check_q_normal_form, 7, 8),
    Check("q-exponent-pins", check_q_exponent_pins, None),
    Check("associative-shuffle-dims", check_associative_shuffle_dims, None),
    Check("permutohedron-f-vectors", check_f_vectors, 6, 8),
    Check("boundary-squared", check_boundary_squared, 7, 7),
    Check("boundary-pins", check_boundary_pins, None),
    Check("homology-contractible", check_homology, 7, 8),
    Check("homology-integral", check_homology_integral, 7, 8),
    Check("differential-leibniz", check_leibniz, 7, 8),
    Check("skeleton-covers", check_skeleton_covers, 5, 7),
    Check("bruhat-structure", check_bruhat, 7, 8),
    Check("derivation-relations", check_derivation_relations, None),
    Check("derivation-monomials", check_derivation_monomials, 4, 5),
    Check("derivation-diamond", check_derivation_diamond, None),
)


def bound_for(check: Check, max_n: int | None = None) -> int | None:
    """max_n or the default, lowered to the cap; None if the check takes none."""
    if check.default_n is None:
        return None
    bound = check.default_n if max_n is None else max_n
    if check.cap is not None:
        bound = min(bound, check.cap)
    return bound


def run_check(check: Check, max_n: int | None = None) -> int | None:
    """Run one check at ``bound_for(check, max_n)`` and return that bound; a
    witness or a ValueError comes out as CheckFailed naming the check."""
    bound = bound_for(check, max_n)
    try:
        if bound is None:
            check.run()
        else:
            check.run(bound)
    except CheckFailed as exc:
        raise CheckFailed({"check": check.name, **exc.witness}) from None
    except ValueError as exc:
        raise CheckFailed({"check": check.name, "error": str(exc)}) from exc
    return bound
