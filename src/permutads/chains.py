"""Chain complexes of permutohedra under surjection substitution.

Cells of the permutohedron on n letters are the surjections defined on
{1..n}: the cell of t: n ->> k has dimension n - k, so the vertices are
the permutation words and the unique top cell is the constant word.  A
facet splits one block B_j of the ordered partition :meth:`Surjection.blocks`
into nonempty A then B, with sign

    (-1)^(sum of (|B_l| - 1) over l < j  +  |A|  +  #{a in A, b in B : a > b}),

the closed form of substituting a two-level split at vertex j, signed by
its unshuffle.  Substituting cells into cells is again a cell and raises
degree additively, which makes the whole family of complexes a
permutad in chain complexes; the interaction of substitution with the
boundary is the graded Leibniz rule exercised by :func:`dg_leibniz_check`.

For homology and d o d = 0 a cell is its value tuple from
:func:`~permutads.surjections._words`, and a row maps facets, by their
values, to signs: lexicographic order on tuples is the sorted cells' order.
Homology builds no row.  Call j a candidate of the cell B_1 | .. | B_k if
B_1, .., B_j are singletons and the place in B_j is past every place of
B_{j+1}.  Merging B_j with B_{j+1} gives the cell one dimension up whose
largest facet, its lead, is this cell, with incidence +-1.  Matching each
cell that has a candidate with the merge at its smallest one is a discrete
Morse matching (Forman, "Morse theory for cell complexes", Adv. Math. 134,
1998; Chari, "On discrete Morse functions and combinatorial
decompositions", Discrete Math. 217, 2000): along a path of matched pairs
each next facet lies below the last lead, so no path closes.  The one cell
left unmatched is the vertex (1, .., n), so each complex is chain-homotopy
equivalent over Z to a point, and the rank of d on the d-cells is the count
of d-cells with no candidate.

Degrees and arities are offset by one throughout the package: the
complex built from surjections with source n - 1 sits in arity n, and
grafting a and b of arities m and n along t: (m + n - 2) ->> 2 lands in
arity m + n - 1.
"""

from __future__ import annotations

import functools
import itertools
import math

from .linalg import LinComb, linear_extend
from .surjections import Surjection, _words, corolla, enumerate_surjections, substitute


def cells(n: int) -> list[Surjection]:
    """All cells of the permutohedron on n letters, top dimension first.

    Ordered by target size and then lexicographically, so vertices come
    last and the order is reproducible.
    """
    if n < 1:
        raise ValueError(f"need at least one letter, got n={n}")
    return [t for k in range(1, n + 1) for t in enumerate_surjections(n, k)]


def cells_of_dim(n: int, d: int) -> list[Surjection]:
    return enumerate_surjections(n, n - d) if 0 <= d < n else []


def f_vector(n: int) -> tuple[int, ...]:
    """Face counts per dimension, starting at dimension zero: k! S(n, k) cells
    n ->> k, with the Stirling numbers S(m, k) = k S(m - 1, k) + S(m - 1, k - 1).

    >>> f_vector(3)
    (6, 6, 1)
    >>> f_vector(4)
    (24, 36, 14, 1)
    """
    stirling = [1]  # S(m, 0..m), from m = 0
    for _ in range(n):
        stirling = [0] + [k * s + below for k, (below, s) in
                          enumerate(zip(stirling, stirling[1:] + [0]), start=1)]
    return tuple(math.factorial(n - d) * stirling[n - d] for d in range(n))


@functools.cache
def _splits(size: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The splits of a block of this size into nonempty A then B: for each,
    the places in the block that go to B and the parity of
    |A| + #{a in A, b in B : a > b}.

    >>> _splits(2)
    (((1,), 1), ((0,), 0))
    """
    out = []
    for upper in itertools.product((0, 1), repeat=size):
        if 0 < sum(upper) < size:
            # Each place kept in A counts once, plus once per earlier place in B.
            parity = sum(1 + sum(upper[:i]) for i, up in enumerate(upper) if not up) % 2
            out.append((tuple(i for i, up in enumerate(upper) if up), parity))
    return tuple(out)


def _facets(values: tuple[int, ...], k: int) -> list[tuple[int, tuple[int, ...]]]:
    """Signed facets of the cell with these values onto 1..k, as values.

    Block by block: block j splits into A, kept at level j, and B, raised
    to j + 1, while every level above j moves up one.  Block j has
    2^|B_j| - 2 facets.

    >>> _facets((1, 2, 1), 2)
    [(-1, (1, 3, 2)), (1, (2, 3, 1))]
    """
    blocks: list[list[int]] = [[] for _ in range(k)]
    for a, v in enumerate(values):
        blocks[v - 1].append(a)
    out = []
    prefix = 0
    for j, block in enumerate(blocks, start=1):
        if len(block) < 2:
            continue
        base = [v + 1 if v > j else v for v in values]
        for raised, parity in _splits(len(block)):
            face = base.copy()
            for i in raised:
                face[block[i]] = j + 1
            out.append((-1 if (prefix + parity) % 2 else 1, tuple(face)))
        prefix += len(block) - 1
    return out


def splittings(t: Surjection, j: int) -> list[tuple[int, Surjection]]:
    """Signed facets splitting block j of t into (A, B), B taking level j + 1.

    They are the facets of :func:`_facets` that follow the 2^|B_l| - 2
    facets of each earlier block l.

    >>> [(c, u.values) for c, u in splittings(Surjection((1, 2, 1)), 1)]
    [(-1, (1, 3, 2)), (1, (2, 3, 1))]
    """
    sizes = t.preimage_sizes()
    start = sum(2**size - 2 for size in sizes[: j - 1])
    stop = start + 2 ** sizes[j - 1] - 2
    facets = _facets(t.values, t.k)[start:stop]
    return [(sign, Surjection._of(face, t.k + 1)) for sign, face in facets]


def boundary_of_cell(t: Surjection) -> LinComb:
    """Boundary of a single cell as a combination of its facets.

    >>> [(c, u.values) for u, c in boundary_of_cell(corolla(2)).terms()]
    [(-1, (1, 2)), (1, (2, 1))]
    """
    k = t.k + 1
    return LinComb({Surjection._of(face, k): sign for sign, face in _facets(t.values, t.k)})


def chain_boundary(v: LinComb) -> LinComb:
    return linear_extend(boundary_of_cell, v)


def _lead(values: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The largest facet: the first block j with two places raises all but its last
    place to j + 1 and every level above j by one, at least any later block's at each place."""
    j = 1
    while values.count(j) == 1:
        j += 1
    face = [v + 1 if v >= j else v for v in values]
    face[len(values) - 1 - values[::-1].index(j)] = j
    return tuple(face)


def _candidate(values: tuple[int, ...], k: int) -> int | None:
    """The smallest j < k with B_1, .., B_j singletons and the place in B_j past
    every place of B_{j+1}, or None: merging B_j with B_{j+1} then gives the
    cell whose :func:`_lead` this is.

    >>> _candidate((2, 1, 3), 3), _candidate((1, 3, 2), 3), _candidate((1, 2, 3), 3)
    (1, 2, None)
    """
    for j in range(1, k):
        if values.count(j) > 1:
            return None
        if j + 1 not in values[values.index(j):]:
            return j
    return None


def double_boundary_vanishes(n: int) -> bool:
    """Check d(d(c)) = 0 on every cell of the permutohedron on n letters; each
    dimension's rows, built once, map a facet's index one dimension down to its sign."""
    if n < 1:
        raise ValueError(f"need at least one letter, got n={n}")
    index, below = {}, []  # the cells one dimension down, by values, and their rows
    for k in range(n, 0, -1):
        faces = _words(n, k)
        rows = [{index[u]: sign for sign, u in _facets(t, k)} for t in faces]
        for row in rows:
            dd: dict[int, int] = {}
            for i, sign in row.items():
                for g, c in below[i].items():
                    dd[g] = dd.get(g, 0) + sign * c
            if any(dd.values()):
                return False
        index, below = {u: i for i, u in enumerate(faces)}, rows
    return True


def homology(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The f-vector and the Betti numbers, per dimension.

    Each d-cell with no :func:`_candidate` is matched with its lead, and each
    cell with one with the merge at it, by the discrete Morse matching of the
    module docstring (Forman, 1998; Chari, 2000).  So the rank of d on the
    d-cells is the count of d-cells with no candidate, over Z as over Q; the
    ``homology-integral`` check proves the matching.  A point has Betti
    numbers (1, 0, .., 0).

    >>> homology(3)
    ((6, 6, 1), (1, 0, 0))
    """
    if n < 1:
        raise ValueError(f"need at least one letter, got n={n}")
    fv, ranks = [math.factorial(n)] * n, [0] * (n + 1)  # fv[0]: n! vertices
    for d in range(n - 1, 0, -1):
        faces = _words(n, n - d)
        fv[d] = len(faces)
        ranks[d] = sum(1 for t in faces if _candidate(t, n - d) is None)
    return tuple(fv), tuple(fv[d] - ranks[d] - ranks[d + 1] for d in range(n))


def homology_ranks(n: int) -> tuple[int, ...]:
    """Betti numbers per dimension; see :func:`homology`.

    >>> homology_ranks(3)
    (1, 0, 0)
    """
    return homology(n)[1]


# ---------------------------------------------------------------------------
# Permutad structure on the family of complexes.


def chain_circ_t(a: LinComb, b: LinComb, t: Surjection) -> LinComb:
    """Graft chains a and b along a two-level shape, bilinearly: cells a and b of
    sources m - 1 and n - 1 (ambient arities m and n) graft along t: (m + n - 2) ->> 2
    with n - 1 positions at level 1 as ``substitute(t, (b, a))``.  Degrees add."""
    out: dict = {}
    for ka, ca in a.terms():
        for kb, cb in b.terms():
            key = substitute(t, (kb, ka))
            out[key] = out.get(key, 0) + ca * cb
    return LinComb(out)


def grafting_shapes(m: int, n: int) -> list[Surjection]:
    """Two-level shapes along which arities m and n can be grafted.

    The first level takes n - 1 of the m + n - 2 positions; value-lex order.
    """
    if min(m, n) < 2:
        return []
    positions = range(1, m + n - 1)
    return [
        Surjection.from_blocks((A, tuple(a for a in positions if a not in A)))
        for A in itertools.combinations(positions, n - 1)
    ]


def dg_leibniz_check(m: int, n: int) -> bool:
    """Boundary against grafting: d(a o_t b) = a o_t db + (-1)^|b| da o_t b.

    Verified on every pair of basis cells of the complexes in arities m
    and n, for every two-level shape t.
    """
    for shape in grafting_shapes(m, n):
        for a in cells(m - 1):
            da = boundary_of_cell(a)
            for b in cells(n - 1):
                lhs = boundary_of_cell(substitute(shape, (b, a)))
                rhs = (chain_circ_t(LinComb.single(a), boundary_of_cell(b), shape)
                       + chain_circ_t(da, LinComb.single(b), shape).scale((-1) ** b.dim))
                if lhs != rhs:
                    return False
    return True


# ---------------------------------------------------------------------------
# One-skeleton.


def skeleton_edges(n: int) -> list[tuple[Surjection, Surjection]]:
    """Oriented vertex pairs (u, v) with d(edge) = v - u, sorted."""
    out = []
    for e in cells_of_dim(n, 1):
        (v0, c0), (v1, c1) = boundary_of_cell(e).terms()
        out.append((v0, v1) if c0 == -1 else (v1, v0))
    return sorted(out)


def skeleton_dot(n: int) -> str:
    """The one-skeleton in DOT form, vertices labelled by coordinates."""

    def node_id(t: Surjection) -> str:
        return "v" + "_".join(str(x) for x in t.values)

    # A vertex sits at its word: the a-th coordinate is the value at a,
    # so the polytope is the convex hull of the orbit of (1, .., n).
    lines = [f"graph permutohedron{n} {{"]
    for t in cells_of_dim(n, 0):
        label = " ".join(str(x) for x in t.values)
        lines.append(f'  {node_id(t)} [label="{label}"];')
    for u, v in skeleton_edges(n):
        lines.append(f"  {node_id(u)} -- {node_id(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
