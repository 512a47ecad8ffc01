"""Exact linear algebra over graded bases with opaque keys.

Coefficients are rationals (int or Fraction) or polynomials in the formal
parameter q over the rationals (:class:`QPoly`); no floating point enters.
Ranks over Q[q] are ranks over its fraction field, found inside Z[q].

A :class:`LinComb` maps hashable, totally ordered basis keys to nonzero
coefficients.  Every rank and span reduces mutable ``{key: coeff}`` rows
over Z[q], entries tuples of ints, in place with one step,
:func:`_eliminate`.  A vector becomes a row once, on entry, with its
denominators cleared, a rational vector's entries constant tuples; that
scales it by a constant, so pivots and ranks are those over Q[q].  A step
sets ``row = a*row - b*pivot``, where a and b are the two leading entries
divided by their gcd, :func:`_gcd`.  A row the step scaled, and every new
pivot, is divided by its content, the gcd of its entries, so pivot rows
are primitive and sizes stay near those of the inputs: fraction-free
elimination in the manner of Bareiss, with the primitive parts of Collins
and Brown's subresultant sequences.  Every step pivots on the highest key
of the row it reduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Iterator


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
        return QPoly(_sub(self.coeffs, [-c for c in other.coeffs]))

    __radd__ = __add__

    def __neg__(self):
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return QPoly(_sub(self.coeffs, other.coeffs))

    def __mul__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return QPoly(_mul(self.coeffs, other.coeffs))

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
    def single(key) -> "LinComb":
        return LinComb({key: 1})

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

    Rows are stored over Z[q], reduced on their highest key.  A basis records
    its vectors' domain, Q or Q[q], refuses the other, and gives remainders in it.
    """

    def __init__(self, vectors: Iterable[LinComb] = ()) -> None:
        self._rows: dict = {}
        self._qpoly = False  # whether the rows came from Q[q] vectors
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self) -> list:
        return sorted(self._rows)

    def reduce(self, v: LinComb) -> LinComb:
        """Eliminate against the stored rows; zero iff v lies in the span.

        The remainder is a primitive multiple of the reduced vector, with
        integer or :class:`QPoly` coefficients.
        """
        row, qpoly = _row(v._terms)
        if row and self._rows and qpoly is not self._qpoly:
            raise ValueError("mixed coefficient domains")
        _eliminate(row, self._rows)
        return LinComb({k: QPoly(c) if qpoly else c[0] for k, c in row.items()})

    def add(self, v: LinComb) -> bool:
        """Adjoin a vector; True when it enlarges the span."""
        # Through reduce, so perfbench's traced remainders include stored rows.
        row, qpoly = _row(self.reduce(v)._terms)
        if row:
            self._rows[max(row)], self._qpoly = row, qpoly
        return bool(row)

    def in_span(self, v: LinComb) -> bool:
        return self.reduce(v).is_zero()


def span_rank(vectors: Iterable[LinComb]) -> int:
    """Exact rank of a family over the fraction field, Q or Q[q]: its :class:`SpanBasis`'s size.

    >>> span_rank([LinComb({1: 1, 2: -1}), LinComb({2: 1, 3: -1}),
    ...            LinComb({1: 1, 3: -1})])
    2
    >>> span_rank([LinComb({"a": QPoly.q(), "b": QPoly.const(1)}),
    ...            LinComb({"a": QPoly.q(2), "b": QPoly.q()})])
    1
    """
    return SpanBasis(vectors).rank


def _row(terms: dict) -> tuple[dict, bool]:
    """A mutable row over Z[q] with denominators cleared, a rational vector's
    entries constants, and whether the vector was over Q[q]."""
    values = terms.values()
    qpoly = any(isinstance(c, QPoly) for c in values)
    if qpoly and not all(isinstance(c, QPoly) for c in values):
        raise ValueError("mixed coefficient domains")
    coeffs = [c.coeffs for c in values] if qpoly else [(c,) for c in values]
    scale = lcm(*(x.denominator for cs in coeffs for x in cs))
    return {i: tuple(x.numerator * (scale // x.denominator) for x in cs)
            for i, cs in zip(terms, coeffs)}, qpoly


def _remove_content(row: dict) -> None:
    """Divide a nonzero row in place by the gcd of its entries."""
    content = _gcd(row.values())
    if content != (1,):
        for i, c in row.items():
            row[i] = _div(c, content)


def _eliminate(row: dict, pivots: dict) -> None:
    """Reduce a row in place against primitive pivot rows on its highest key,
    until no pivot owns that key and the row is made primitive, or it is empty.

    The gcd takes the sign of a's leading coefficient, so a pivot led by
    -q^k never scales the row.
    """
    while row:
        key = max(row)
        pivot = pivots.get(key)
        if pivot is None:
            _remove_content(row)
            return
        a, b = pivot[key], row[key]
        g = _gcd((a, b))
        if a[-1] < 0:
            g = tuple(-x for x in g)
        if g != (1,):
            a, b = _div(a, g), _div(b, g)
        if a != (1,):
            for i, c in row.items():
                row[i] = _mul(c, a)
        minus_b = tuple(-x for x in b)
        for i, c in pivot.items():
            if i in row:
                c = _sub(row[i], _mul(b, c))
                if c:
                    row[i] = c
                else:
                    del row[i]
            else:
                row[i] = _mul(minus_b, c)
        if a != (1,) and row:
            _remove_content(row)


# ---------------------------------------------------------------------------
# Polynomial arithmetic on coefficient tuples, the coefficient of q^i at i:
# ints for the Z[q] rows, Fractions for QPoly (`_mul` and `_sub` only).

def _mul(a: tuple, b: tuple) -> tuple:
    if len(b) == 1:
        c = b[0]
        return tuple(x * c for x in a)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return tuple(out)


def _sub(a: tuple, b: tuple) -> tuple:
    """a - b with trailing zeros trimmed; () is zero."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _div(a: tuple, g: tuple) -> tuple:
    """The exact quotient a / g, for g dividing a."""
    if len(g) == 1:
        d = g[0]
        return tuple(x // d for x in a)
    rem = list(a)
    top, lead = len(g) - 1, g[-1]
    quot = [0] * (len(a) - top)
    for i in range(len(quot) - 1, -1, -1):
        c = quot[i] = rem[i + top] // lead
        if c:
            for j, y in enumerate(g, i):
                rem[j] -= c * y
    return tuple(quot)


def _gcd(polys) -> tuple:
    """The gcd of nonzero polynomials, with a positive leading coefficient.

    By Gauss's lemma it is the gcd of all their integer coefficients, times
    q to their lowest order, times the gcd of their primitive parts with
    the powers of q divided out, which Euclid finds on primitive
    pseudo-remainders, stopping at a constant.

    >>> _gcd([(-1, 0, 1), (0, -1, 1)])        # q^2 - 1 and q^2 - q
    (-1, 1)
    >>> _gcd([(0, 0, -6, 6), (0, 0, 0, 0, 4)])  # -6q^2(1 - q) and 4q^4
    (0, 0, 2)
    """
    polys = tuple(polys)
    orders = [next(i for i, x in enumerate(p) if x) for p in polys]
    content = gcd(*(x for p in polys for x in p))
    common = None
    for p, low in zip(polys, orders):
        p = _primitive(p[low:])
        common = p if common is None else _primitive_gcd(common, p)
        if len(common) == 1:
            break
    return (0,) * min(orders) + tuple(content * x for x in common)


def _primitive(p: tuple) -> tuple:
    """p over the gcd of its coefficients, leading coefficient positive."""
    c = gcd(*p)
    if p[-1] < 0:
        c = -c
    return p if c == 1 else tuple(x // c for x in p)


def _primitive_gcd(a: tuple, b: tuple) -> tuple:
    """The gcd of primitive a and b by Euclid on primitive pseudo-remainders."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        rem = list(a)
        top, lead = len(b) - 1, b[-1]
        for i in range(len(rem) - 1 - top, -1, -1):
            c = rem[i + top]
            if c:
                rem = [x * lead for x in rem]
                for j, y in enumerate(b, i):
                    rem[j] -= c * y
        del rem[top:]
        while rem and not rem[-1]:
            rem.pop()
        if not rem:
            return b
        a, b = b, _primitive(tuple(rem))
    return (1,)


def csv_triples(vectors: Iterable[LinComb], key_str: Callable = str) -> Iterator[str]:
    """Rows ``row,key,coeff`` for a family of vectors, one line per entry,
    each made as it is read.

    The row index is the position of the vector in the input; entries are
    emitted in basis-key order, so the output is reproducible byte for byte.
    A key or coefficient whose text holds a comma raises ValueError there.
    """
    yield "row,key,coeff"
    for i, v in enumerate(vectors):
        for k, c in v.terms():
            key = key_str(k)
            if "," in key or "," in str(c):
                raise ValueError(f"a comma in key {key!r} or coefficient {c} splits the row")
            yield f"{i},{key},{c}"
