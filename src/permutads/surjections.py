"""Surjective maps n -> k and their substitution calculus.

A surjection is stored as its value sequence: a tuple ``values`` of length n
with entries in 1..k such that every target value occurs, together with its
target size ``k = max(values)``, set once at construction.  Equality,
hashing, ordering and ``repr`` read ``values`` alone.  The empty tuple
encodes the unit surjection (n = 0, k = 0), which is the neutral element for
concatenation and the arity-1 identity once surjections are read as
operations of arity n + 1.

Validation happens once, at the boundary.  ``Surjection(values)`` and
:meth:`Surjection.from_blocks` check their input in full, and every value
that comes from outside (CLI, JSON, user code) goes through one of them.
The private ``Surjection._of(values, k)`` checks nothing; it is only for
values derived from validated surjections: :func:`substitute`,
:func:`enumerate_surjections`, the tail of :meth:`Surjection.from_blocks`,
the unshuffles and binary factors of ``shuffles``, the gap levels that
``trees.tree_from_nested`` has checked, and the faces and composites of
``chains`` and ``permutad``.

Vertices are the target values 1..k, drawn as the levels of a tree with the
inputs of vertex j sitting at the positions of ``t.values`` equal to j.  The
operation arity of vertex j is one more than its preimage size.  The
preimages in vertex order form an ordered partition of 1..n,
:meth:`Surjection.blocks`; :meth:`Surjection.from_blocks` is its inverse and
the one place a partition is validated.  Shuffles, leveled trees and left
combs are renders of that partition, each a codec with this class's
``to_json`` and ``from_json`` pair: a render reads a validated surjection
and checks nothing, and only the parsers of outside input check.

Permutations appear throughout as plain value tuples ("words"): ``w[i - 1]``
is the image of i.  Helpers for words live at the bottom of the module.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True, slots=True)
class Surjection:
    """A surjective map from {1..n} onto {1..k}, encoded by its values.

    >>> t = Surjection((1, 2, 1))
    >>> t.n, t.k
    (3, 2)
    >>> t.blocks()
    ((1, 3), (2,))
    >>> Surjection(())  # the unit
    Surjection(values=())
    """

    values: tuple[int, ...]
    k: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        if any(type(v) is not int or v < 1 for v in vals):
            raise ValueError(f"values must be positive integers, got {vals}")
        k = max(vals, default=0)
        if len(set(vals)) != k:
            missing = min(set(range(1, len(vals) + 1)) - set(vals))
            raise ValueError(f"not surjective onto 1..{k}: missing {missing}")
        object.__setattr__(self, "k", k)

    @classmethod
    def _of(cls, values: tuple[int, ...], k: int) -> "Surjection":
        """Trusted constructor: values derived from validated surjections.

        Nothing is checked; ``values`` must already be a tuple onto 1..k.
        """
        t = object.__new__(cls)
        _set_values(t, values)
        _set_k(t, k)
        return t

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def dim(self) -> int:
        """Cell dimension n - k inside the permutohedron of its arity."""
        return self.n - self.k

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The preimages of 1..k in turn: an ordered partition of 1..n.

        >>> Surjection((1, 2, 1, 1, 2)).blocks()
        ((1, 3, 4), (2, 5))
        """
        out: list[list[int]] = [[] for _ in range(self.k)]
        for a, v in enumerate(self.values, start=1):
            out[v - 1].append(a)
        return tuple(map(tuple, out))

    @staticmethod
    def from_blocks(blocks) -> "Surjection":
        """Inverse of :meth:`blocks`: nonempty, strictly increasing blocks
        that partition 1..n, block j becoming the preimage of j.

        >>> Surjection.from_blocks(((1, 3, 4), (2, 5))).values
        (1, 2, 1, 1, 2)
        """
        n = sum(map(len, blocks))
        values = [0] * n
        for j, block in enumerate(blocks, start=1):
            if not block:
                raise ValueError(f"block {j} is empty")
            prev = 0
            for a in block:
                if type(a) is not int or not prev < a <= n or values[a - 1]:
                    raise ValueError(f"blocks must increase and partition 1..{n}: {blocks}")
                values[a - 1] = j
                prev = a
        return Surjection._of(tuple(values), len(blocks))

    def preimage_sizes(self) -> tuple[int, ...]:
        sizes = [0] * self.k
        for v in self.values:
            sizes[v - 1] += 1
        return tuple(sizes)

    def is_permutation(self) -> bool:
        return self.k == self.n

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "values": list(self.values)}

    @staticmethod
    def from_json(obj: dict) -> "Surjection":
        t = Surjection(tuple(json_list(obj, "values")))
        if "n" in obj and (type(obj["n"]) is not int or obj["n"] != t.n):
            raise ValueError(f"declared n={obj['n']} but {t.n} values given")
        if "k" in obj and (type(obj["k"]) is not int or obj["k"] != t.k):
            raise ValueError(f"declared k={obj['k']} but values reach {t.k}")
        return t


def json_list(obj: dict, field: str, entry: type | None = None) -> list:
    """obj[field] if it is a list, with entries of the given type if one is named;
    else a ValueError naming the field and the type it got."""
    value = obj[field]
    if type(value) is not list:
        raise ValueError(f"expected a list for {field!r}, got {type(value).__name__}")
    for x in value if entry else ():
        if type(x) is not entry:
            what = "a JSON object" if entry is dict else f"a {entry.__name__}"
            raise ValueError(f"expected {what} for each of {field!r}, got {type(x).__name__}")
    return value


# ``_of`` sets a trusted value's fields by their slot descriptors.
_set_values = Surjection.values.__set__
_set_k = Surjection.k.__set__

UNIT = Surjection(())


def corolla(n: int) -> Surjection:
    """The unique surjection n -> 1; the unit surjection when n = 0.

    >>> corolla(3).values
    (1, 1, 1)
    """
    if n < 0:
        raise ValueError(f"corolla needs n >= 0, got {n}")
    return Surjection((1,) * n)


def substitute(t: Surjection, parts: tuple[Surjection, ...]) -> Surjection:
    """Substitute one surjection into each vertex of t.

    ``parts[j - 1]`` replaces vertex j and must have exactly as many inputs
    as the preimage of j.  Position a of the result, with t(a) = j and a the
    b-th element of the preimage of j, is sent to the value of parts[j-1] at
    b, offset by the target sizes of the earlier parts.  The vertices of the
    result are therefore grouped part by part, vertex 1's part lowest.

    >>> substitute(Surjection((1, 2, 1)), (Surjection((2, 1)), Surjection((1,))))
    Surjection(values=(2, 3, 1))
    >>> substitute(corolla(3), (Surjection((1, 2, 1)),))
    Surjection(values=(1, 2, 1))
    """
    values = t.values
    if len(parts) != t.k:
        raise ValueError(f"expected {t.k} parts, got {len(parts)}")
    shifted = [None]  # shifted[j] yields part j's values past the earlier parts
    offset = j = 0
    for part in parts:
        j += 1
        if len(part.values) != values.count(j):
            raise ValueError(
                f"vertex {j}: part has {part.n} inputs, preimage size is {values.count(j)}"
            )
        shifted.append(map(offset.__add__, part.values))
        offset += part.k
    return Surjection._of(tuple(map(next, map(shifted.__getitem__, values))), offset)


def enumerate_surjections(n: int, k: int | None = None) -> list[Surjection]:
    """All surjections with n inputs, lexicographically sorted by values.

    With k given, only the maps onto {1..k}, built from :func:`_words`;
    otherwise every target size.

    >>> [t.values for t in enumerate_surjections(2)]
    [(1, 1), (1, 2), (2, 1)]
    >>> len(enumerate_surjections(3))
    13
    >>> enumerate_surjections(0)
    [Surjection(values=())]
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if k is None:
        ts = [t for kk in range(n + 1) for t in enumerate_surjections(n, kk)]
        ts.sort(key=lambda t: t.values)
        return ts
    return [Surjection._of(values, k) for values in _words(n, k)]


def _words(n: int, k: int) -> list[tuple[int, ...]]:
    """The values of the surjections n ->> k in lexicographic order: positions
    fill left to right, and once as few are left as values unused, only unused
    values may follow (Knuth, TAOCP 4A, 7.2.1.5)."""
    if not 0 <= k <= n:
        return []
    if n == 0:
        return [()]
    word = [0] * n
    used = [False] * (k + 1)
    out: list[tuple[int, ...]] = []
    targets = range(1, k + 1)

    def extend(i: int, owed: int) -> None:
        if i == n - 1:
            # One place left: the one unused value if any, else every value.
            if owed:
                word[i] = used.index(False, 1)
                out.append(tuple(word))
            else:
                for v in targets:
                    word[i] = v
                    out.append(tuple(word))
            return
        forced = n - i == owed
        for v in targets:
            if used[v]:
                if not forced:
                    word[i] = v
                    extend(i + 1, owed)
            else:
                word[i] = v
                used[v] = True
                extend(i + 1, owed - 1)
                used[v] = False

    extend(0, k)
    return out


# ---------------------------------------------------------------------------
# Permutation words.  A word w of length n represents the bijection sending
# i to w[i - 1]; its inverse and its inversion count are all the package
# reads of it.

def inverse(w: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(w)
    for i, v in enumerate(w, start=1):
        out[v - 1] = i
    return tuple(out)


def inversions(w: tuple[int, ...]) -> int:
    """Number of pairs i < j with w(i) > w(j); the Coxeter length.

    >>> inversions((2, 3, 1))
    2
    """
    return sum(
        1
        for i in range(len(w))
        for j in range(i + 1, len(w))
        if w[i] > w[j]
    )
