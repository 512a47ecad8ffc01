"""The free permutad on a generator set, with ideals and quotients.

Elements are formal combinations of decorated surjections: a surjection t
with n inputs carries one generator of arity (preimage size + 1) per vertex
and represents an operation of arity n + 1.  The empty surjection with no
decorations is the arity-1 identity.

The structure map :func:`gamma` substitutes one argument element into each
vertex of an outer surjection; partial compositions are the two-vertex
special case, with the second operand placed at vertex 1 (the lower level
block of the result).  Quotients are handled degree-wise: the arity-n
component of the ideal generated by homogeneous relations is spanned by all
gamma composites with exactly one vertex fed by a relation, every other
vertex fed by a generator.

A composite of basis elements is one basis element, so a relation with at
most two terms, each coefficient a unit monomial +-q^e, makes every such
vector a binomial of the same shape: an edge of a graph on the free basis.
:class:`BinomialQuotient` reads the quotient off that graph with a
weighted union-find and no elimination; every preset is of this kind, and
:func:`quotient_dim` refuses a relation of any other shape.  Free
dimensions are counted by :func:`free_dimension`, not listed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .linalg import LinComb, QPoly
from .surjections import (
    Surjection,
    UNIT,
    corolla,
    enumerate_surjections,
    inversions,
    substitute,
)


@dataclass(frozen=True)
class GeneratorSet:
    """Ordered generator names per arity.

    Arity-1 generators are refused: free bases over them would be infinite
    over weak level maps.

    >>> GeneratorSet({2: ("mu",)}).names_of_arity(2)
    ('mu',)
    """

    by_arity: tuple[tuple[int, tuple[str, ...]], ...]

    def __init__(self, by_arity: dict) -> None:
        items = tuple(sorted((a, tuple(names)) for a, names in by_arity.items()))
        object.__setattr__(self, "by_arity", items)
        for a, names in items:
            if a < 2:
                raise ValueError(f"generator arity must be >= 2, got {a}")
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate generator names at arity {a}: {names}")

    def names_of_arity(self, a: int) -> tuple[str, ...]:
        for arity, names in self.by_arity:
            if arity == a:
                return names
        return ()


@dataclass(frozen=True, order=True)
class DecoratedSurjection:
    """A surjection with one generator name per vertex; arity is inputs + 1."""

    t: Surjection
    decorations: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.decorations) != self.t.k:
            raise ValueError(
                f"{self.t.k} vertices but {len(self.decorations)} decorations"
            )

    @property
    def arity(self) -> int:
        return self.t.n + 1

    def to_json(self) -> dict:
        return {"surjection": self.t.to_json(), "decorations": list(self.decorations)}


IDENTITY = DecoratedSurjection(UNIT, ())


def generator_element(name: str, arity: int) -> DecoratedSurjection:
    """The one-vertex element of a generator: a decorated corolla."""
    if arity < 2:
        raise ValueError(f"generator elements need arity >= 2, got {arity}")
    return DecoratedSurjection(corolla(arity - 1), (name,))


def _as_lincomb(x) -> LinComb:
    if isinstance(x, LinComb):
        return x
    if isinstance(x, DecoratedSurjection):
        return LinComb.single(x)
    raise TypeError(f"expected LinComb or DecoratedSurjection, got {type(x)!r}")


def arity_of(v) -> int:
    """Common arity of a homogeneous combination (or a single element)."""
    if isinstance(v, DecoratedSurjection):
        return v.arity
    arities = {d.arity for d, _ in v.terms()}
    if len(arities) != 1:
        raise ValueError(f"not homogeneous in arity: {sorted(arities)}")
    return arities.pop()


def gamma(t: Surjection, args) -> LinComb:
    """Multilinear substitution of one argument per vertex of t.

    >>> mu = generator_element("mu", 2)
    >>> gamma(Surjection((2, 1)), [mu, mu]).terms()[0][0].t
    Surjection(values=(2, 1))
    """
    args = [_as_lincomb(a) for a in args]
    if len(args) != t.k:
        raise ValueError(f"expected {t.k} arguments, got {len(args)}")
    sizes = t.preimage_sizes()
    for j, arg in enumerate(args, start=1):
        for d, _ in arg.terms():
            if d.arity != sizes[j - 1] + 1:
                raise ValueError(
                    f"vertex {j}: argument arity {d.arity}, expected {sizes[j - 1] + 1}"
                )
    acc: dict[DecoratedSurjection, object] = {}
    for combo in itertools.product(*(arg.terms() for arg in args)):
        coeff = 1
        for _, c in combo:
            coeff = coeff * c
        flat = substitute(t, tuple(d.t for d, _ in combo))
        decorations = tuple(
            name for d, _ in combo for name in d.decorations
        )
        key = DecoratedSurjection(flat, decorations)
        acc[key] = acc.get(key, 0) + coeff
    return LinComb(acc)


def circ_t(a, b, t: Surjection) -> LinComb:
    """Partial composition along a two-vertex surjection: b joins vertex 1."""
    if t.k != 2:
        raise ValueError(f"circ_t needs a surjection onto two vertices, k={t.k}")
    return gamma(t, [b, a])


def circ_i(a, b, i: int) -> LinComb:
    """Partial composition a o_i b: b plugged into input slot i of a.

    b's block, inputs i to i + arity(b) - 2, sits at vertex 1; the identity short-circuits.

    >>> mu = generator_element("mu", 2)
    >>> circ_i(mu, mu, 2).terms()[0][0].t.values
    (2, 1)
    """
    a = _as_lincomb(a)
    b = _as_lincomb(b)
    alpha = arity_of(a)
    beta = arity_of(b)
    if not 1 <= i <= alpha:
        raise ValueError(f"slot {i} out of range for arity {alpha}")
    if beta == 1:
        scalar = b.get(IDENTITY)
        return a.scale(scalar)
    if alpha == 1:
        return b.scale(a.get(IDENTITY))
    values = tuple(
        1 if i <= x <= i + beta - 2 else 2 for x in range(1, alpha + beta - 1)
    )
    return circ_t(a, b, Surjection(values))


def diamond_check(r: Surjection, lam, mu, nu) -> bool:
    """Both bracketings through a three-vertex shape agree with gamma.

    The shape r puts nu at vertex 1, mu at vertex 2, lam at vertex 3; the
    left bracketing composes lam with mu first, the right one mu with nu.
    """
    if r.k != 3:
        raise ValueError(f"diamond needs a surjection onto three vertices, k={r.k}")
    t = Surjection(tuple(1 if v == 1 else 2 for v in r.values))
    s = Surjection(tuple(v - 1 for v in r.values if v >= 2))
    u = Surjection(tuple(1 if v <= 2 else 2 for v in r.values))
    v = Surjection(tuple(x for x in r.values if x <= 2))
    left = circ_t(circ_t(lam, mu, s), nu, t)
    right = circ_t(lam, circ_t(mu, nu, v), u)
    direct = gamma(r, [nu, mu, lam])
    return left == right == direct


def free_dimension(M: GeneratorSet, n: int) -> int:
    """The number of decorated surjections of arity n, counted, not listed.

    A decorated surjection on m = n - 1 inputs is an ordered set partition
    of 1..m, each block of size s weighted by the generators of arity s + 1.
    Choosing the first block gives f[0] = 1 and f[i] = sum over s of
    C(i, s) * |names(s + 1)| * f[i - s].

    >>> [free_dimension(GeneratorSet({2: ("mu",)}), n) for n in range(1, 6)]
    [1, 1, 2, 6, 24]
    """
    if n < 1:
        raise ValueError(f"arity must be >= 1, got {n}")
    weights = [len(M.names_of_arity(s + 1)) for s in range(n)]
    f = [1]
    for i in range(1, n):
        f.append(sum(comb(i, s) * weights[s] * f[i - s] for s in range(1, i + 1)))
    return f[n - 1]


def free_basis(M: GeneratorSet, n: int) -> list[DecoratedSurjection]:
    """All decorated surjections of arity n, surjection then decoration order.

    >>> len(free_basis(GeneratorSet({2: ("mu",)}), 4))
    6
    """
    if n < 1:
        raise ValueError(f"arity must be >= 1, got {n}")
    out = []
    for t in enumerate_surjections(n - 1):
        choices = [M.names_of_arity(size + 1) for size in t.preimage_sizes()]
        if any(not names for names in choices):
            continue
        for decorations in itertools.product(*choices):
            out.append(DecoratedSurjection(t, decorations))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# Relations, ideals, quotients.

def _slot_vectors(relations, M: GeneratorSet, n: int):
    """Each generator-slot vector of the arity-n ideal, as its list of terms
    ((values, decorations), c), one term per term of its relation.

    A relation r sits at one vertex of a surjection t and a generator at
    every other vertex; each vector is written straight from the terms of r
    substituted at its vertex, with its coefficient c in r as it stands.  A
    relation of arity below 2 or with a decoration off M at its vertex's
    arity raises ValueError.
    """
    corollas = [corolla(s) for s in range(n)]
    names = [M.names_of_arity(s + 1) for s in range(n)]
    for rel in relations:
        r_arity = arity_of(rel)
        if r_arity < 2:
            raise ValueError(f"relation arity must be >= 2, got {r_arity}")
        for d, _ in rel.terms():
            for size, name in zip(d.t.preimage_sizes(), d.decorations):
                if name not in M.names_of_arity(size + 1):
                    raise ValueError(f"{name!r} is not a generator of arity {size + 1}")
        terms = rel.terms()
        for t in enumerate_surjections(n - 1):
            sizes = t.preimage_sizes()
            pools = [names[s] for s in sizes]
            for hot, size in enumerate(sizes):
                others = pools[:hot] + pools[hot + 1:]
                if size + 1 != r_arity or not all(others):
                    continue
                parts = [corollas[s] for s in sizes]
                images = []
                for d, c in terms:
                    parts[hot] = d.t
                    images.append((substitute(t, tuple(parts)).values, d.decorations, c))
                for chosen in itertools.product(*others):
                    before, after = chosen[:hot], chosen[hot:]
                    yield [
                        ((values, before + decorations + after), c)
                        for values, decorations, c in images
                    ]


def ideal_vectors(relations, M: GeneratorSet, n: int) -> list[LinComb]:
    """Spanning vectors of the arity-n ideal component, in deterministic order.

    Each vector is a composite gamma(t; g, ..., r, ..., g) with a relation r
    at one vertex of t and a generator g at every other vertex: the
    tree-monomial spanning set of an operadic ideal.  Free basis elements in
    the other vertices would add nothing, since by associativity of gamma
    such a composite is again one of these.
    """
    if any(isinstance(c, QPoly) for rel in relations for _, c in rel.terms()):
        relations = [
            rel.map_coeffs(lambda c: c if isinstance(c, QPoly) else QPoly.const(c))
            for rel in relations
        ]
    return [
        LinComb({
            DecoratedSurjection(Surjection._of(values, max(values)), decorations): c
            for (values, decorations), c in terms
        })
        for terms in _slot_vectors(relations, M, n)
    ]


def _unit_monomial(c):
    """(sign, e) when the coefficient c is +-q^e, else None."""
    if isinstance(c, QPoly):
        *below, top = c.coeffs
        return None if any(below) or top not in (1, -1) else (int(top), len(below))
    if isinstance(c, (int, Fraction)) and c in (1, -1):
        return int(c), 0
    return None


def _edge(first, second=None):
    (a, (sign_a, e_a)) = first
    if second is None:
        return a, None, 0, 0
    b, (sign_b, e_b) = second
    return a, b, -sign_a * sign_b, e_b - e_a


def binomial_edges(relations, M: GeneratorSet, n: int):
    """The generator-slot vectors of the arity-n ideal as edges.

    Nodes are free basis elements as (values, decorations) pairs.  A vector
    c_a*a + c_b*b, each c a unit monomial +-q^e, says a = sign*q^exponent*b
    and becomes the edge (a, b, sign, exponent); a one-term vector says
    a = 0 and becomes (a, None, 0, 0).  A relation with more than two terms
    or a coefficient that is not +-q^e (an int, Fraction or :class:`QPoly`)
    has vectors that are no such binomials: it raises ValueError before
    any slot is walked.
    """
    units = []
    for rel in relations:
        unit = {d: _unit_monomial(c) for d, c in rel.terms()}
        if len(unit) > 2 or None in unit.values():
            raise ValueError(f"not a binomial with coefficients +-q^e: {rel!r}")
        units.append(LinComb(unit))
    return (_edge(*terms) for terms in _slot_vectors(units, M, n))


class BinomialQuotient:
    """The span of binomial edges, read off a weighted union-find.

    Every node an edge touches keeps its parent and its multiplier
    sign*q^exponent relative to it.  Joining two roots composes the
    multipliers.  An edge inside one component whose multipliers disagree
    says x = lambda*x with lambda != 1, which over Q(q) forces x = 0: that
    component is dead, as is the component of a one-term edge.  The rank of
    the span is the number of nodes touched less the live components, so
    the quotient keeps one dimension per live component and per node no
    edge touches (Eisenbud and Sturmfels, "Binomial ideals", Duke Math. J.
    84, 1996).

    >>> q = BinomialQuotient([("a", "b", 1, 1), ("b", "c", -1, 0)])
    >>> q.rank, q.find("a")
    (2, ('c', -1, 1))
    >>> BinomialQuotient([("a", "b", 1, 1), ("b", "a", 1, 0)]).rank  # a = q*a
    2
    """

    def __init__(self, edges) -> None:
        self._up: dict = {}  # non-root node -> (parent, sign, exponent)
        self._dead: set = set()  # roots of the components forced to zero
        up, dead = self._up, self._dead
        for a, b, sign, exponent in edges:
            root_a, sign_a, e_a = self.find(a)
            if b is None:
                dead.add(root_a)
                continue
            root_b, sign_b, e_b = self.find(b)
            # root_a = sign * q^exponent * root_b
            sign *= sign_a * sign_b
            exponent += e_b - e_a
            if root_a == root_b:
                if sign != 1 or exponent != 0:
                    dead.add(root_a)
                continue
            up[root_a] = (root_b, sign, exponent)
            if root_a in dead:
                dead.remove(root_a)
                dead.add(root_b)

    @property
    def rank(self) -> int:
        """Nodes touched less live components: one per join, one per death."""
        return len(self._up) + len(self._dead)

    def find(self, node) -> tuple:
        """(root, sign, exponent) with node = sign*q^exponent*root; a node no
        edge touched is its own root.  Compresses the path it walks."""
        up = self._up
        chain = []
        while node in up:
            chain.append(node)
            node = up[node][0]
        sign, exponent = 1, 0
        for x in reversed(chain):
            _, s, e = up[x]
            sign *= s
            exponent += e
            up[x] = (node, sign, exponent)
        return node, sign, exponent


def quotient_dim(relations, M: GeneratorSet, n: int) -> int:
    """Dimension of the arity-n component of the quotient by the relations.

    Every relation must be a binomial with coefficients +-q^e, as every
    preset's is.  Then so is every generator-slot vector, and
    :class:`BinomialQuotient` ranks them with no elimination.  Any other
    relation is refused with ValueError by :func:`binomial_edges`.
    """
    return free_dimension(M, n) - BinomialQuotient(binomial_edges(relations, M, n)).rank


def specialize(v: LinComb, value) -> LinComb:
    """Ring map sending q to a rational value, applied coefficient-wise."""
    value = Fraction(value)
    return v.map_coeffs(
        lambda c: c.evaluate(value) if isinstance(c, QPoly) else Fraction(c)
    )


# ---------------------------------------------------------------------------
# The q-associative quotient of the free binary permutad.

def qpermas_relation() -> LinComb:
    """mu at slot 2 of mu, minus q times mu at slot 1 of mu."""
    mu = generator_element("mu", 2)
    upper = circ_i(mu, mu, 2).map_coeffs(QPoly.const)
    lower = circ_i(mu, mu, 1).map_coeffs(QPoly.const)
    return upper - lower.scale(QPoly.q())


def qpermas_normalize(d: DecoratedSurjection) -> int:
    """Exponent of the basis element in the q-associative quotient.

    Every all-mu decorated permutation equals q to its inversion count times
    the identity-permutation element.

    >>> qpermas_normalize(DecoratedSurjection(Surjection((2, 3, 1)), ("mu",) * 3))
    2
    """
    if not d.t.is_permutation() or any(name != "mu" for name in d.decorations):
        raise ValueError(f"not an all-mu decorated permutation: {d}")
    return inversions(d.t.values)


def binary_normal_form(expr) -> DecoratedSurjection:
    """Evaluate a nested partial-composition expression of the generator mu.

    Expressions are the name ``"mu"`` itself or triples (left, slot, right)
    meaning ``left composed with right at slot``.  The value is one decorated
    permutation, the leveled-binary-tree basis element, else ValueError.

    >>> binary_normal_form((("mu", 2, "mu"), 1, "mu")).t.values
    (1, 3, 2)
    """
    def evaluate(e) -> LinComb:
        if isinstance(e, str):
            if e != "mu":
                raise ValueError(f"unknown generator {e!r}")
            return LinComb.single(generator_element("mu", 2))
        if not (isinstance(e, tuple) and len(e) == 3):
            raise ValueError(f"malformed expression node: {e!r}")
        left, slot, right = e
        return circ_i(evaluate(left), evaluate(right), slot)

    terms = evaluate(expr).terms()
    if len(terms) != 1 or terms[0][1] != 1:
        raise ValueError(f"{expr!r} does not evaluate to one basis element")
    return terms[0][0]


# ---------------------------------------------------------------------------
# Ready-made presets.

def preset_permmag() -> tuple[GeneratorSet, list[LinComb]]:
    """Free permutad on a single binary generator; no relations."""
    return GeneratorSet({2: ("mu",)}), []


def preset_qpermas() -> tuple[GeneratorSet, list[LinComb]]:
    """One binary generator with the q-associativity relation."""
    return GeneratorSet({2: ("mu",)}), [qpermas_relation()]


def preset_permassh() -> tuple[GeneratorSet, list[LinComb]]:
    """Two binary generators with the interchange relations of the shuffle
    analogue of the associative permutad."""
    M = GeneratorSet({2: ("one", "tau")})
    one = generator_element("one", 2)
    tau = generator_element("tau", 2)
    rel_a = circ_i(tau, one, 1) - circ_i(one, tau, 2)
    rel_b = circ_i(one, tau, 1) - circ_i(tau, one, 2)
    return M, [rel_a, rel_b]


PRESETS = {
    "permMag": preset_permmag,
    "qPermAs": preset_qpermas,
    "permAsSh": preset_permassh,
}
