"""Associative algebras with a derivation, as noncommutative polynomials.

The component in n variables is the free associative algebra on x_1..x_n
over the rationals.  The unary generator D is the polynomial x_1 in one
variable, the binary generator is the constant 1 in two variables, and
the unit is the constant 1 in one variable.

Grafting Q (m variables) into P along a two-level shape on n + m - 1
letters whose first level is the block S = {i_1 < .. < i_m} renames Q's
variables to S, feeds the sum x_{i_1} + .. + x_{i_m} into one slot of P,
spreads P's remaining variables over the complement in order, and
multiplies with P on the left.  The slot receiving the sum is the one
the block head i_1 would occupy if sorted into the complement; that
choice is forced by the defining relations and the diamond law, both
checked below.

Word by word, the graft is read off directly: each word of P is spelled
one letter at a time, its slot letter ranging over S and every other
letter becoming its position in the complement, and Q's word, renamed
onto S, is appended; the coefficient is the product of the two.

Shapes may be given as a surjection onto two levels, as the constant
surjection onto one level when P is unary and the block is everything,
or directly as the sorted tuple of block positions.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

from .surjections import Surjection, json_list


@dataclass(frozen=True)
class NCPoly:
    """Noncommutative polynomial; terms map words to rational coefficients.

    Words are tuples over 1..nvars, the empty word is the constant, and
    terms are kept sorted by length then letters with no zeros.

    >>> x1 = NCPoly.var(1, 2)
    >>> print(x1 * NCPoly.var(2, 2) + x1)
    x1 + x1.x2
    """

    nvars: int
    terms: tuple[tuple[tuple[int, ...], Fraction], ...]

    def __post_init__(self) -> None:
        if self.nvars < 0:
            raise ValueError(f"negative variable count {self.nvars}")
        acc: dict[tuple[int, ...], Fraction] = {}
        for word, coeff in self.terms:
            for letter in word:
                if not 1 <= letter <= self.nvars:
                    raise ValueError(
                        f"letter {letter} outside 1..{self.nvars} in {word}"
                    )
            acc[word] = acc.get(word, Fraction(0)) + Fraction(coeff)
        cleaned = tuple(
            (w, c) for w, c in sorted(acc.items(), key=lambda wc: (len(wc[0]), wc[0]))
            if c
        )
        object.__setattr__(self, "terms", cleaned)

    @staticmethod
    def zero(nvars: int) -> "NCPoly":
        return NCPoly(nvars, ())

    @staticmethod
    def one(nvars: int) -> "NCPoly":
        return NCPoly(nvars, (((), Fraction(1)),))

    @staticmethod
    def var(i: int, nvars: int) -> "NCPoly":
        return NCPoly(nvars, (((i,), Fraction(1)),))

    @staticmethod
    def monomial(word: tuple[int, ...], nvars: int) -> "NCPoly":
        return NCPoly(nvars, ((tuple(word), Fraction(1)),))

    def __add__(self, other: "NCPoly") -> "NCPoly":
        return ncpoly_add(self, other)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return ncpoly_add(self, other.scale(-1))

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        return ncpoly_mul(self, other)

    def scale(self, scalar) -> "NCPoly":
        return NCPoly(
            self.nvars, tuple((w, Fraction(scalar) * c) for w, c in self.terms)
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"

        def show(word: tuple[int, ...], coeff: Fraction) -> str:
            body = ".".join(f"x{l}" for l in word) if word else "1"
            if coeff == 1:
                return body
            if coeff == -1:
                return f"-{body}"
            return f"{coeff}*{body}"

        out = show(self.terms[0][0], self.terms[0][1])
        for word, coeff in self.terms[1:]:
            piece = show(word, abs(coeff))
            out += f" - {piece}" if coeff < 0 else f" + {piece}"
        return out

    def to_json(self) -> dict:
        return {
            "vars": self.nvars,
            "terms": [
                {"word": list(w), "coeff": str(c)} for w, c in self.terms
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "NCPoly":
        """Inverse of :meth:`to_json`: an int variable count, words of int
        letters, coefficients as ints or strings ``p`` or ``p/q``."""
        nvars = data["vars"]
        terms = tuple((tuple(json_list(t, "word")), _coefficient(t["coeff"]))
                      for t in json_list(data, "terms", dict))
        if type(nvars) is not int or any(type(a) is not int for w, _ in terms for a in w):
            raise ValueError("variable counts and letters must be integers")
        return NCPoly(nvars, terms)


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?")


def _coefficient(c) -> Fraction:
    if type(c) is int or (type(c) is str and _RATIONAL.fullmatch(c)):
        return Fraction(c)
    raise ValueError(f"coefficient {c!r} is not an integer or a string p or p/q")


DERIVATION = NCPoly.var(1, 1)
MU = NCPoly.one(2)
UNIT = NCPoly.one(1)


def _check_same_vars(P: NCPoly, Q: NCPoly) -> None:
    if P.nvars != Q.nvars:
        raise ValueError(
            f"variable counts differ: {P.nvars} versus {Q.nvars}"
        )


def ncpoly_add(P: NCPoly, Q: NCPoly) -> NCPoly:
    _check_same_vars(P, Q)
    return NCPoly(P.nvars, P.terms + Q.terms)


def ncpoly_mul(P: NCPoly, Q: NCPoly) -> NCPoly:
    """Word-concatenation product; associative with the constant 1 as unit."""
    _check_same_vars(P, Q)
    return NCPoly(
        P.nvars,
        tuple(
            (wp + wq, cp * cq)
            for wp, cp in P.terms
            for wq, cq in Q.terms
        ),
    )


def ncpoly_substitute(P: NCPoly, images: list[NCPoly]) -> NCPoly:
    """Replace variable i by images[i-1]; all images share a variable count."""
    if len(images) != P.nvars:
        raise ValueError(
            f"{P.nvars} variables but {len(images)} replacement images"
        )
    nvars = images[0].nvars if images else 0
    out = NCPoly.zero(nvars)
    for word, coeff in P.terms:
        piece = NCPoly.one(nvars)
        for letter in word:
            piece = ncpoly_mul(piece, images[letter - 1])
        out = ncpoly_add(out, piece.scale(coeff))
    return out


def _block_positions(t, P: NCPoly, Q: NCPoly) -> tuple[int, ...]:
    """Normalize the shape argument to the sorted inner-block positions."""
    total = P.nvars + Q.nvars - 1
    if isinstance(t, Surjection):
        if t.k not in (1, 2):
            raise ValueError(f"grafting shape must have at most two levels, got {t.k}")
        positions = t.blocks()[0]
    else:
        positions = tuple(t)
    if list(positions) != sorted(set(positions)):
        raise ValueError(f"block positions not sorted and distinct: {positions}")
    if len(positions) != Q.nvars:
        raise ValueError(
            f"block has {len(positions)} positions, inner factor has "
            f"{Q.nvars} variables"
        )
    if positions and not (1 <= positions[0] and positions[-1] <= total):
        raise ValueError(f"block {positions} outside 1..{total}")
    if isinstance(t, Surjection) and t.n != total:
        raise ValueError(
            f"shape on {t.n} letters but the graft makes {total}"
        )
    return positions


def _head_slot(S: tuple[int, ...], total: int) -> tuple[list[int], int]:
    """The complement of block S in 1..total, and the slot its head takes."""
    members = set(S)
    complement = [p for p in range(1, total + 1) if p not in members]
    slot = sum(1 for c in complement if c < S[0]) + 1 if S else 1
    return complement, slot


def asder_compose(P: NCPoly, Q: NCPoly, t) -> NCPoly:
    """Graft Q into P along a two-level shape, inner block at level one.

    >>> print(asder_compose(DERIVATION, MU, Surjection((1, 1))))
    x1 + x2
    >>> print(asder_compose(MU, DERIVATION, Surjection((2, 1))))
    x2
    """
    S = _block_positions(t, P, Q)
    total = P.nvars + Q.nvars - 1
    complement, slot = _head_slot(S, total)
    spell = [(c,) for c in complement]  # spell[a - 1]: the letters a becomes
    spell.insert(slot - 1, S)
    inner = [(tuple(S[b - 1] for b in wq), cq) for wq, cq in Q.terms]
    acc: dict[tuple[int, ...], Fraction] = {}
    for wp, cp in P.terms:
        for outer in itertools.product(*(spell[a - 1] for a in wp)):
            for wq, cq in inner:
                word = outer + wq
                acc[word] = acc.get(word, 0) + cp * cq
    return NCPoly(total, tuple(acc.items()))


def asder_circ(P: NCPoly, Q: NCPoly, i: int) -> NCPoly:
    """Graft at consecutive positions i..i+m-1, the classical circle-i.

    >>> print(asder_circ(MU, MU, 1))
    1
    """
    if not 1 <= i <= P.nvars:
        raise ValueError(f"slot {i} outside 1..{P.nvars}")
    return asder_compose(P, Q, tuple(range(i, i + Q.nvars)))


def asder_monomial(js: tuple[int, ...], n: int) -> NCPoly:
    """Iterated derivation graftings onto the n-ary product.

    Grafting D at position j multiplies by x_j on the right, so the
    composite built from the sequence is the word spelled in the same
    order; the ``derivation-monomials`` check compares the two.

    >>> print(asder_monomial((1, 2, 2), 2))
    x1.x2.x2
    """
    for j in js:
        if not 1 <= j <= n:
            raise ValueError(f"index {j} outside 1..{n}")
    alpha = NCPoly.one(n)
    for j in js:
        alpha = asder_circ(alpha, DERIVATION, j)
    return alpha


def asder_relations_check() -> bool:
    """The four defining relations, checked exactly.

    Associativity and the derivation rule are single identities; the two
    parallel commutation families range over all monomials alpha with at
    most 3 variables and degree at most 3, and all slot pairs i < j that
    make both sides well formed.
    """
    if asder_circ(MU, MU, 1) != asder_circ(MU, MU, 2):
        return False
    derived = asder_compose(DERIVATION, MU, Surjection((1, 1)))
    if derived != asder_circ(MU, DERIVATION, 1) + asder_circ(MU, DERIVATION, 2):
        return False
    for a in range(1, 4):
        words = [
            w
            for d in range(4)
            for w in itertools.product(range(1, a + 1), repeat=d)
        ]
        for word in words:
            alpha = NCPoly.monomial(word, a)
            for i in range(1, a + 1):
                for j in range(i + 1, a + 1):
                    lhs = asder_circ(asder_circ(alpha, DERIVATION, i), MU, j)
                    rhs = asder_circ(asder_circ(alpha, MU, j), DERIVATION, i)
                    if lhs != rhs:
                        return False
                    lhs = asder_circ(asder_circ(alpha, MU, i), DERIVATION, j + 1)
                    rhs = asder_circ(asder_circ(alpha, DERIVATION, j), MU, i)
                    if lhs != rhs:
                        return False
    return True


def graft_is_chain(
    P_vars: int, Q_vars: int, S: tuple[int, ...], T: tuple[int, ...]
) -> bool:
    """Whether the second of two grafts lands inside the first factor.

    After grafting a block S into an outer factor with P_vars variables,
    the variables of the result at the positions of S belong to the
    inner factor.  A further graft along T feeds the slot its block head
    selects; the two-step graft is a chain when that slot lies in S.
    """
    total = P_vars + Q_vars - 1 + len(T) - 1
    return _head_slot(T, total)[1] in set(S)


def asder_diamond_check(
    lam: NCPoly, mu: NCPoly, nu: NCPoly, S: tuple[int, ...], T: tuple[int, ...]
) -> bool:
    """Coherence of nested grafting, the diamond law.

    Graft mu into lam along S, then nu into the result along T, with the
    requirement that nu's block feeds a slot mu supplied; the law states
    this equals grafting nu into mu first and the merged factor into
    lam.  Only nested two-step grafts are constrained: when nu and mu
    sit in separate slots of lam the two attachment orders genuinely
    differ here, because the vertex factors multiply in level order and
    the product of words does not commute.
    """
    if not graft_is_chain(lam.nvars, mu.nvars, S, T):
        raise ValueError(
            f"blocks S={S}, T={T} graft in parallel; the diamond only "
            "constrains nested grafts"
        )
    X = asder_compose(lam, mu, S)
    lhs = asder_compose(X, nu, T)
    complement, slot = _head_slot(T, X.nvars + nu.nvars - 1)

    def to_final(q: int) -> int:
        return complement[q - 1] if q < slot else complement[q - 2]

    kept = [to_final(q) for q in S if q != slot]
    G = sorted(kept + list(T))
    v = tuple(sorted(G.index(p) + 1 for p in T))
    inner = asder_compose(mu, nu, v)
    rhs = asder_compose(lam, inner, tuple(G))
    return lhs == rhs
