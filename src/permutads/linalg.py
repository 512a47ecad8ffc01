"""Exact linear algebra over graded bases with opaque keys.

Coefficients are either rationals (int or Fraction) or elements of the
polynomial ring in the formal parameter q with rational coefficients
(:class:`QPoly`).  No floating point enters anywhere.  Ranks over the
polynomial ring are ranks over its fraction field; elimination proceeds by
cross-multiplication so that no division is ever required, which keeps one
code path for both coefficient domains.

A :class:`LinComb` maps hashable, totally ordered basis keys to nonzero
coefficients.  A :class:`SpanBasis` keeps a row-reduced generating set with
one pivot per row, always choosing the lowest available basis key, so ranks
and membership tests are deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
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
        size = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (Fraction(0),) * (size - len(self.coeffs))
        b = other.coeffs + (Fraction(0),) * (size - len(other.coeffs))
        return QPoly(tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return QPoly(tuple(-c for c in self.coeffs))

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
            return QPoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(tuple(out))

    __rmul__ = __mul__

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


def _domain_of(c) -> str:
    return "q" if isinstance(c, QPoly) else "rational"


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
    out = LinComb()
    for k, c in v.terms():
        out = out + fn(k).scale(c)
    return out


class SpanBasis:
    """Row-reduced span with one pivot row per leading key.

    Reduction is by cross-multiplication, valid over both coefficient
    domains; membership and rank are exact.  Insertion order never affects
    the rank, and pivots are always the lowest keys available.
    """

    def __init__(self, vectors: Iterable[LinComb] = (), key: Callable = None) -> None:
        self._key = key if key is not None else lambda k: k
        self._rows: dict = {}
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self) -> list:
        return sorted(self._rows, key=self._key)

    def reduce(self, v: LinComb) -> LinComb:
        """Eliminate against the stored rows; zero iff v lies in the span."""
        while not v.is_zero():
            lead = min(v.keys(), key=self._key)
            row = self._rows.get(lead)
            if row is None:
                return v
            v = v.scale(row.get(lead)) - row.scale(v.get(lead))
        return v

    def add(self, v: LinComb) -> bool:
        """Adjoin a vector; True when it enlarges the span."""
        rem = self.reduce(v)
        if rem.is_zero():
            return False
        lead = min(rem.keys(), key=self._key)
        self._rows[lead] = rem
        return True

    def in_span(self, v: LinComb) -> bool:
        return self.reduce(v).is_zero()


def span_rank(vectors: Iterable[LinComb], key: Callable = None) -> int:
    """Exact rank of a family of combinations over the fraction field.

    >>> span_rank([LinComb({1: 1, 2: -1}), LinComb({2: 1, 3: -1}),
    ...            LinComb({1: 1, 3: -1})])
    2
    """
    vectors = list(vectors)
    domains = {
        _domain_of(c) for v in vectors for _, c in v.terms()
    }
    if len(domains) > 1:
        raise ValueError(f"mixed coefficient domains: {sorted(domains)}")
    return SpanBasis(vectors, key=key).rank


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
