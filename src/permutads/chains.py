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

Degrees and arities are offset by one throughout the package: the
complex built from surjections with source n - 1 sits in arity n, and
grafting a and b of arities m and n along t: (m + n - 2) ->> 2 lands in
arity m + n - 1.
"""

from __future__ import annotations

import itertools

from .linalg import LinComb, linear_extend, span_rank
from .surjections import Surjection, corolla, enumerate_surjections, substitute


def cells(n: int) -> list[Surjection]:
    """All cells of the permutohedron on n letters, top dimension first.

    Ordered by target size and then lexicographically, so vertices come
    last and the order is reproducible.
    """
    if n < 1:
        raise ValueError(f"need at least one letter, got n={n}")
    return [t for k in range(1, n + 1) for t in enumerate_surjections(n, k)]


def cells_of_dim(n: int, d: int) -> list[Surjection]:
    if not 0 <= d <= n - 1:
        return []
    return enumerate_surjections(n, n - d)


def f_vector(n: int) -> tuple[int, ...]:
    """Face counts per dimension, starting at dimension zero.

    >>> f_vector(3)
    (6, 6, 1)
    >>> f_vector(4)
    (24, 36, 14, 1)
    """
    return tuple(len(cells_of_dim(n, d)) for d in range(n))


def vertex_coords(n: int) -> dict[Surjection, tuple[int, ...]]:
    """Embedding coordinates of the vertices: the word itself.

    The vertex cell for a permutation word sits at the point whose a-th
    coordinate is the value at a, which realises the polytope as the
    convex hull of the orbit of (1, .., n).
    """
    return {t: t.values for t in cells_of_dim(n, 0)}


def splittings(t: Surjection, j: int) -> list[tuple[int, Surjection]]:
    """Signed facets splitting block j of t into (A, B), B taking level j + 1.

    >>> [(c, u.values) for c, u in splittings(Surjection((1, 2, 1)), 1)]
    [(-1, (1, 3, 2)), (1, (2, 3, 1))]
    """
    blocks = t.blocks()
    block = blocks[j - 1]
    prefix = sum(len(b) - 1 for b in blocks[: j - 1])
    out = []
    for upper in itertools.product((False, True), repeat=len(block)):
        if all(upper) or not any(upper):
            continue
        A, B, crossings = [], [], 0
        for a, up in zip(block, upper):
            if up:
                B.append(a)
            else:
                A.append(a)
                crossings += len(B)
        face = Surjection.from_blocks(blocks[: j - 1] + (tuple(A), tuple(B)) + blocks[j:])
        out.append(((-1) ** (prefix + len(A) + crossings), face))
    return out


def boundary_of_cell(t: Surjection) -> LinComb:
    """Boundary of a single cell as a combination of its facets.

    >>> [(c, u.values) for u, c in boundary_of_cell(corolla(2)).terms()]
    [(-1, (1, 2)), (1, (2, 1))]
    """
    out: dict[Surjection, int] = {}
    for j in range(1, t.k + 1):
        for sign, face in splittings(t, j):
            out[face] = out.get(face, 0) + sign
    return LinComb(out)


def boundary_of_top(n: int) -> LinComb:
    """Boundary of the top cell; for n = 3 this is the oriented hexagon."""
    return boundary_of_cell(corolla(n))


def chain_boundary(v: LinComb) -> LinComb:
    return linear_extend(boundary_of_cell, v)


def double_boundary_vanishes(n: int) -> bool:
    """Check d(d(c)) = 0 on every cell of the permutohedron on n letters."""
    d = {t: boundary_of_cell(t) for t in cells(n)}
    return all(linear_extend(d.__getitem__, dt).is_zero() for dt in d.values())


def homology(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The f-vector and the Betti numbers over the rationals, per dimension.

    Each dimension's cells are enumerated once; the f-vector is read from
    their counts, and the rank of d on dimension d comes from
    :func:`~permutads.linalg.span_rank` on the boundaries of those cells
    (exact integer rows on numbered facets).  A contractible polytope has
    Betti numbers (1, 0, .., 0).

    >>> homology(3)
    ((6, 6, 1), (1, 0, 0))
    """
    if n < 1:
        raise ValueError(f"need at least one letter, got n={n}")
    fv, ranks = [], [0] * (n + 1)
    for d in range(n):
        faces = cells_of_dim(n, d)
        fv.append(len(faces))
        if d:
            ranks[d] = span_rank([boundary_of_cell(t) for t in faces])
    return tuple(fv), tuple(fv[d] - ranks[d] - ranks[d + 1] for d in range(n))


def homology_ranks(n: int) -> tuple[int, ...]:
    """Betti numbers per dimension over the rationals; see :func:`homology`.

    >>> homology_ranks(3)
    (1, 0, 0)
    """
    return homology(n)[1]


# ---------------------------------------------------------------------------
# Permutad structure on the family of complexes.


def cell_circ_t(a: Surjection, b: Surjection, t: Surjection) -> Surjection:
    """Graft cells a and b along a two-level shape, b at the first level.

    a and b have sources m - 1 and n - 1 when the ambient arities are m
    and n; t must then be a surjection (m + n - 2) ->> 2 whose first
    level has n - 1 elements.  Degrees add.
    """
    if t.k != 2:
        raise ValueError(f"grafting shape must have two levels, got {t.k}")
    return substitute(t, (b, a))


def chain_circ_t(a: LinComb, b: LinComb, t: Surjection) -> LinComb:
    """Bilinear extension of :func:`cell_circ_t`."""
    out: dict = {}
    for ka, ca in a.terms():
        for kb, cb in b.terms():
            key = cell_circ_t(ka, kb, t)
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


def dg_leibniz_check(m: int, n: int, t: Surjection = None) -> bool:
    """Boundary against grafting: d(a o_t b) = a o_t db + (-1)^|b| da o_t b.

    Verified on every pair of basis cells of the complexes in arities m
    and n, for the given two-level shape or for all of them.
    """
    shapes = [t] if t is not None else grafting_shapes(m, n)
    for shape in shapes:
        for a in cells(m - 1):
            da = boundary_of_cell(a)
            for b in cells(n - 1):
                lhs = boundary_of_cell(cell_circ_t(a, b, shape))
                rhs = chain_circ_t(
                    LinComb.single(a), boundary_of_cell(b), shape
                ) + chain_circ_t(da, LinComb.single(b), shape).scale(
                    (-1) ** b.dim
                )
                if lhs != rhs:
                    return False
    return True


# ---------------------------------------------------------------------------
# One-skeleton.


def skeleton_edges(n: int) -> list[tuple[Surjection, Surjection]]:
    """Oriented vertex pairs (u, v) with d(edge) = v - u, sorted."""
    out = []
    for e in cells_of_dim(n, 1):
        terms = boundary_of_cell(e).terms()
        assert len(terms) == 2
        (v0, c0), (v1, c1) = terms
        assert {c0, c1} == {1, -1}
        out.append((v0, v1) if c0 == -1 else (v1, v0))
    return sorted(out)


def skeleton_dot(n: int) -> str:
    """The one-skeleton in DOT form, vertices labelled by coordinates."""
    coords = vertex_coords(n)

    def node_id(t: Surjection) -> str:
        return "v" + "_".join(str(x) for x in t.values)

    lines = [f"graph permutohedron{n} {{"]
    for t in sorted(coords):
        label = " ".join(str(x) for x in coords[t])
        lines.append(f'  {node_id(t)} [label="{label}"];')
    for u, v in skeleton_edges(n):
        lines.append(f"  {node_id(u)} -- {node_id(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
