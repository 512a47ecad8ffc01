"""Exact linear algebra over graded bases with opaque keys.

Coefficients are rationals (int or Fraction) or polynomials in the formal
parameter q over the rationals (:class:`QPoly`); no floating point enters.
Ranks over Q[q] are ranks over its fraction field, found inside the ring.

A :class:`LinComb` maps hashable, totally ordered basis keys to nonzero
coefficients.  Every rank and span reduces mutable ``{key: coeff}`` rows
in place with one step, :func:`_eliminate`; a rational vector becomes an
integer row once, on entry.  A step sets ``row = a*row - b*pivot``, where
a and b are the two leading entries divided by their gcd (``math.gcd``
over Z, :func:`qpoly_gcd` over Q[q]).  A row the step scaled, and every new
pivot, is divided by its content, the gcd of its entries (monic over
Q[q]), so pivot rows are primitive and sizes stay near those of the
inputs: the primitive-part idea of Collins and Brown's subresultant
sequences and the size control of Bareiss's fraction-free elimination.
The step takes one of two pivot rules.  :class:`SpanBasis` pivots on the
lowest key, so its pivots are those of the span's reduced echelon form in
any insertion order, which membership callers rely on.  :func:`rank_of_rows`
pivots on the highest index of rows already numbered, which fills far less
on boundary and ideal families; rank-only callers use it, through
:func:`span_rank` when the keys still need numbering.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable


@dataclass(frozen=True)
class QPoly:
    """Polynomial in q over the rationals; coeffs[i] multiplies q^i.

    >>> p = QPoly.q() + QPoly.const(2)
    >>> p * p
    QPoly(coeffs=(Fraction(4, 1), Fraction(4, 1), Fraction(1, 1)))
    >>> print(p * p)
    q^2 + 4*q + 4
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cs = [Fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def _of(cs: list) -> "QPoly":
        """Build from a list of Fractions, trimming zeros, without converting."""
        while cs and not cs[-1]:
            cs.pop()
        p = object.__new__(QPoly)
        object.__setattr__(p, "coeffs", tuple(cs))
        return p

    @staticmethod
    def const(x) -> "QPoly":
        return QPoly((Fraction(x),))

    @staticmethod
    def q(exponent: int = 1) -> "QPoly":
        return QPoly((Fraction(0),) * exponent + (Fraction(1),))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _coerced(self, other):
        if isinstance(other, QPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return QPoly.const(other)
        return None

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        longer, shorter = sorted((self.coeffs, other.coeffs), key=len, reverse=True)
        out = list(longer)
        for i, c in enumerate(shorter):
            if c:
                out[i] += c
        return QPoly._of(out)

    __radd__ = __add__

    def __neg__(self):
        return QPoly._of([-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        if not self or not other:
            return QPoly._of([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        right = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in right:
                    out[i + j] += a * b
        return QPoly._of(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        """Euclidean division: ``self == quot * other + rem``, ``rem.degree < other.degree``.

        >>> divmod(QPoly.q(2) - QPoly.const(1), QPoly.q() - QPoly.const(1))
        (QPoly(coeffs=(Fraction(1, 1), Fraction(1, 1))), QPoly(coeffs=()))
        """
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("QPoly division by zero")
        rem = list(self.coeffs)
        top = other.degree
        lead = other.coeffs[-1]
        quot = [Fraction(0)] * max(len(rem) - top, 0)
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + top] / lead
            quot[i] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= c * b
        return QPoly._of(quot), QPoly._of(rem[:top])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "QPoly":
        """Scale to leading coefficient one; zero stays zero."""
        if not self:
            return self
        lead = self.coeffs[-1]
        return QPoly._of([c / lead for c in self.coeffs])

    def evaluate(self, x) -> Fraction:
        """Specialize q to a rational value."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        pieces: list[str] = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                power = "q" if e == 1 else f"q^{e}"
                body = power if mag == 1 else f"{mag}*{power}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)


def qpoly_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Monic greatest common divisor, by Euclid; ``qpoly_gcd(0, 0)`` is 0.

    A monomial c*q^k shortcuts Euclid: its gcd with p is q^min(k, ord p).

    >>> print(qpoly_gcd(QPoly.q(2) - QPoly.const(1), QPoly.q(2) - QPoly.q()))
    q - 1
    >>> print(qpoly_gcd(QPoly.q(3) - QPoly.q(2), QPoly.const(-2) * QPoly.q(4)))
    q^2
    """
    if b and not any(b.coeffs[:-1]):
        a, b = b, a
    if a and not any(a.coeffs[:-1]):
        low = a.degree
        for i, c in enumerate(b.coeffs[:low]):
            if c:
                low = i
                break
        return QPoly.q(low)
    while b:
        a, b = b, a % b
    return a.monic()


_QPOLY_TERM = re.compile(r"^(-)?(?:(\d+(?:/\d+)?)\*?)?(?:q(?:\^(\d+))?)?$")


def qpoly_parse(s: str) -> QPoly:
    """Parse the string form written by QPoly.__str__.

    >>> qpoly_parse("q^2 - q") == QPoly.q(2) - QPoly.q()
    True
    >>> qpoly_parse("-1/2")
    QPoly(coeffs=(Fraction(-1, 2),))
    """
    text = s.strip()
    if text == "0":
        return QPoly(())
    pieces = text.replace(" - ", " + -").split(" + ")
    acc: dict[int, Fraction] = {}
    for piece in pieces:
        m = _QPOLY_TERM.match(piece.strip())
        if not m or (m.group(2) is None and "q" not in piece):
            raise ValueError(f"cannot parse polynomial term {piece!r} in {s!r}")
        sign = -1 if m.group(1) else 1
        mag = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        exponent = 0
        if "q" in piece:
            exponent = int(m.group(3)) if m.group(3) else 1
        acc[exponent] = acc.get(exponent, Fraction(0)) + sign * mag
    top = max(acc)
    return QPoly(tuple(acc.get(e, Fraction(0)) for e in range(top + 1)))


class LinComb:
    """Immutable formal linear combination; zero coefficients are dropped.

    >>> v = LinComb({"a": 1, "b": -1})
    >>> (v + LinComb({"b": 1})).terms()
    (('a', 1),)
    """

    __slots__ = ("_terms",)

    def __init__(self, mapping=()) -> None:
        data = dict(mapping)
        self._terms = {k: c for k, c in data.items() if c}

    @staticmethod
    def single(key, coeff=1) -> "LinComb":
        return LinComb({key: coeff})

    def terms(self) -> tuple:
        return tuple(sorted(self._terms.items(), key=lambda kc: kc[0]))

    def keys(self):
        return self._terms.keys()

    def get(self, key):
        return self._terms.get(key, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        return isinstance(other, LinComb) and self._terms == other._terms

    def __hash__(self):
        raise TypeError("LinComb is not hashable")

    def __add__(self, other: "LinComb") -> "LinComb":
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, 0) + c
        return LinComb(out)

    def __neg__(self) -> "LinComb":
        return LinComb({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def scale(self, scalar) -> "LinComb":
        if not scalar:
            return LinComb()
        return LinComb({k: scalar * c for k, c in self._terms.items()})

    def map_coeffs(self, fn: Callable) -> "LinComb":
        return LinComb({k: fn(c) for k, c in self._terms.items()})

    def __repr__(self) -> str:
        return f"LinComb({dict(self.terms())!r})"


def linear_extend(fn: Callable, v: LinComb) -> LinComb:
    """Apply a key -> LinComb map linearly."""
    out: dict = {}
    for k, c in v.terms():
        for key, d in fn(k)._terms.items():
            out[key] = out.get(key, 0) + c * d
    return LinComb(out)


class SpanBasis:
    """Row-reduced span with one primitive pivot row per leading key.

    Rows are reduced on their lowest key, so ranks, pivots and membership
    are deterministic and pivots are always the lowest keys available.
    All vectors of one basis share a coefficient domain, Q or Q[q].
    """

    def __init__(self, vectors: Iterable[LinComb] = ()) -> None:
        self._rows: dict = {}
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self) -> list:
        return sorted(self._rows)

    def reduce(self, v: LinComb) -> LinComb:
        """Eliminate against the stored rows; zero iff v lies in the span."""
        row = _row(v._terms)
        _eliminate(row, self._rows, min)
        return LinComb(row)

    def add(self, v: LinComb) -> bool:
        """Adjoin a vector; True when it enlarges the span."""
        row = self.reduce(v)._terms
        if row:
            self._rows[min(row)] = row
        return bool(row)

    def in_span(self, v: LinComb) -> bool:
        return self.reduce(v).is_zero()


def span_rank(vectors: Iterable[LinComb]) -> int:
    """Exact rank of a family over the fraction field, Q or Q[q].

    Keys are numbered once in sorted order, each vector becomes a row on
    those numbers, and :func:`rank_of_rows` ranks the rows.

    >>> span_rank([LinComb({1: 1, 2: -1}), LinComb({2: 1, 3: -1}),
    ...            LinComb({1: 1, 3: -1})])
    2
    >>> span_rank([LinComb({"a": QPoly.q(), "b": QPoly.const(1)}),
    ...            LinComb({"a": QPoly.q(2), "b": QPoly.q()})])
    1
    """
    vectors = list(vectors)
    index = {k: i for i, k in enumerate(sorted({k for v in vectors for k in v.keys()}))}
    return rank_of_rows(_row({index[k]: c for k, c in v._terms.items()}) for v in vectors)


def rank_of_rows(rows: Iterable[dict]) -> int:
    """Exact rank of rows already numbered: ``{index: coeff}`` dicts with
    nonzero integer or Q[q] entries, all in one domain, reduced in place.

    Each row is reduced on its highest index, which fills far less than
    :class:`SpanBasis`'s lowest key on the boundary and ideal families when
    the numbering follows the sorted order of the keys.

    >>> rank_of_rows([{0: 1, 1: -1}, {1: 1, 2: -1}, {0: 1, 2: -1}, {}])
    2
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        lead = _eliminate(row, pivots, max)
        if lead is not None:
            pivots[lead] = row
    return len(pivots)


def _row(terms: dict) -> dict:
    """A mutable row: Q[q] entries as they are, rationals as integers."""
    if any(isinstance(c, QPoly) for c in terms.values()):
        if not all(isinstance(c, QPoly) for c in terms.values()):
            raise ValueError("mixed coefficient domains")
        return dict(terms)
    scale = lcm(*(c.denominator for c in terms.values()))
    return {i: c.numerator * (scale // c.denominator) for i, c in terms.items()}


def _remove_content(row: dict) -> None:
    """Divide a nonzero row in place by the gcd of its entries, monic over Q[q]."""
    if type(next(iter(row.values()))) is int:
        content = gcd(*row.values())
        if content == 1:
            return
    else:
        content = QPoly(())
        for c in row.values():
            content = qpoly_gcd(content, c)
            if content.degree == 0:
                return
    for i, c in row.items():
        row[i] = c // content


_ONE = QPoly.const(1)


def _eliminate(row: dict, pivots: dict, lead: Callable):
    """Reduce a row in place against primitive pivot rows on ``lead(row)``.

    An integer gcd takes the sign of a, so a pivot led by -1 never scales
    the row.  Returns the leading key once no pivot owns it, with the row
    made primitive, or None when the row reduces to zero.
    """
    if row and pivots:
        first = next(iter(pivots.values()))
        if type(next(iter(row.values()))) is not type(next(iter(first.values()))):
            raise ValueError("mixed coefficient domains")
    while row:
        key = lead(row)
        pivot = pivots.get(key)
        if pivot is None:
            _remove_content(row)
            return key
        a, b = pivot[key], row[key]
        if type(a) is int:
            g = gcd(a, b) if a > 0 else -gcd(a, b)
            a, b, one = a // g, b // g, 1
        else:
            g, one = qpoly_gcd(a, b), _ONE
            if g != one:
                a, b = a // g, b // g
        scaled = a != one
        if scaled:
            for i in row:
                row[i] *= a
        minus_b = -b
        for i, c in pivot.items():
            if i in row:
                c = row[i] - b * c
                if c:
                    row[i] = c
                else:
                    del row[i]
            else:
                row[i] = minus_b * c
        if scaled and row:
            _remove_content(row)
    return None


def csv_triples(vectors: Iterable[LinComb], key_str: Callable = str) -> list[str]:
    """Rows ``row,key,coeff`` for a family of vectors, one line per entry.

    The row index is the position of the vector in the input; entries are
    emitted in basis-key order, so the output is reproducible byte for byte.
    """
    lines = ["row,key,coeff"]
    for i, v in enumerate(vectors):
        for k, c in v.terms():
            key = key_str(k)
            assert "," not in key and "," not in str(c)
            lines.append(f"{i},{key},{c}")
    return lines
