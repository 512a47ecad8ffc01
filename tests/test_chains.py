import pytest
from hypothesis import given, strategies as st

from permutads import chains, verify
from permutads.chains import (
    _candidate,
    _facets,
    _lead,
    boundary_of_cell,
    cells,
    cells_of_dim,
    chain_boundary,
    chain_circ_t,
    dg_leibniz_check,
    double_boundary_vanishes,
    f_vector,
    grafting_shapes,
    homology,
    homology_ranks,
    skeleton_dot,
    skeleton_edges,
    splittings,
)
from permutads.linalg import LinComb, SpanBasis
from permutads.shuffles import sigma_of
from permutads.surjections import (
    Surjection,
    corolla,
    _words,
    enumerate_surjections,
    inversions,
    substitute,
)


def word_sign(w):
    return -1 if inversions(w) % 2 else 1


def substitution_boundary(t):
    """The defining boundary: substitute every two-level split s at vertex j
    of t, corollas elsewhere, with sign (-1)^(prefix + |s^-1(1)|) sign(sigma_s)."""
    sizes = t.preimage_sizes()
    out = {}
    for j in range(1, t.k + 1):
        prefix = sum(size - 1 for size in sizes[: j - 1])
        for s in enumerate_surjections(sizes[j - 1], 2):
            parts = tuple(
                s if l == j else corolla(size) for l, size in enumerate(sizes, start=1)
            )
            sign = (-1) ** (prefix + len(s.blocks()[0])) * word_sign(sigma_of(s).values)
            face = substitute(t, parts)
            out[face] = out.get(face, 0) + sign
    return LinComb(out)


def test_cells_grade_by_target_size():
    assert len(cells(3)) == 13
    for d in range(3):
        assert all(t.dim == d for t in cells_of_dim(3, d))
    assert [len(cells_of_dim(3, d)) for d in range(3)] == [6, 6, 1]


def test_f_vector_pins():
    assert f_vector(3) == (6, 6, 1)
    assert f_vector(4) == (24, 36, 14, 1)
    assert sum(f_vector(4)) == 75


@given(st.integers(2, 6))
def test_f_vector_boundary_rows(n):
    fv = f_vector(n)
    assert fv[n - 1] == 1
    assert fv[n - 2] == 2**n - 2
    assert fv[0] == len(cells_of_dim(n, 0))


def test_splittings_pin():
    # The identity split carries the negative end of the interval.
    assert _facets((1, 1), 1) == [(-1, (1, 2)), (1, (2, 1))]


@pytest.mark.parametrize("n", range(1, 6))
def test_splittings_are_the_facets_of_one_block(n):
    for t in cells(n):
        facets = [(c, u.values) for j in range(1, t.k + 1) for c, u in splittings(t, j)]
        assert facets == _facets(t.values, t.k), t


@pytest.mark.parametrize("n", range(1, 6))
def test_closed_form_boundary_matches_substitution(n):
    for t in cells(n):
        assert boundary_of_cell(t) == substitution_boundary(t), t


@pytest.mark.parametrize("n", range(1, 7))
def test_numbered_rows_match_substitution(n):
    # Numbered as double_boundary_vanishes numbers them: each facet by its
    # index among the sorted cells one dimension down.
    lower = []
    for k in range(n, 0, -1):
        faces = _words(n, k)
        assert faces == sorted(faces)
        index = {u: i for i, u in enumerate(lower)}
        for t in faces:
            row = {index[u]: c for c, u in _facets(t, k)}
            got = LinComb({Surjection(lower[i]): c for i, c in row.items()})
            assert got == substitution_boundary(Surjection(t)), t
        lower = faces


@pytest.mark.parametrize(
    "m, n", [(m, n) for m in range(1, 7) for n in range(1, 7) if m + n <= 7]
)
def test_grafting_shapes_match_filtered_enumeration(m, n):
    want = [
        t
        for t in enumerate_surjections(m + n - 2, 2)
        if len(t.blocks()[0]) == n - 1
    ]
    assert grafting_shapes(m, n) == want


def test_hexagon():
    want = LinComb(
        {
            Surjection((1, 1, 2)): 1,
            Surjection((2, 1, 2)): 1,
            Surjection((2, 1, 1)): 1,
            Surjection((1, 2, 2)): -1,
            Surjection((1, 2, 1)): -1,
            Surjection((2, 2, 1)): -1,
        }
    )
    assert boundary_of_cell(corolla(3)) == want


def test_interval_boundary_orientation():
    # Target minus source of the one-cell on two letters.
    assert boundary_of_cell(corolla(2)) == LinComb(
        {Surjection((2, 1)): 1, Surjection((1, 2)): -1}
    )


def test_vertices_are_cycles():
    for t in cells_of_dim(3, 0):
        assert boundary_of_cell(t).is_zero()


@given(st.integers(2, 5))
def test_double_boundary(n):
    assert double_boundary_vanishes(n)


@pytest.mark.parametrize("n", range(3, 6))
def test_double_boundary_finds_a_flipped_sign(n, monkeypatch):
    # One facet sign flipped, on the top cell or on the first edge, breaks
    # d o d = 0: the top cell's rows meet those below, the edge's those above.
    for k in (1, n - 1):
        target = _words(n, k)[0]

        def flipped(values, levels, target=target):
            out = _facets(values, levels)
            if values == target:
                out[0] = (-out[0][0], out[0][1])
            return out

        monkeypatch.setattr(chains, "_facets", flipped)
        assert not double_boundary_vanishes(n), (n, k)


def test_chain_boundary_is_linear():
    a, b = cells_of_dim(3, 1)[:2]
    v = LinComb({a: 2, b: -1})
    assert chain_boundary(v) == boundary_of_cell(a).scale(2) - boundary_of_cell(b)


@given(st.integers(1, 5))
def test_homology_of_a_point(n):
    assert homology_ranks(n) == (1,) + (0,) * (n - 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_homology_reports_the_f_vector(n):
    assert homology(n) == (f_vector(n), homology_ranks(n))


@pytest.mark.parametrize("n", [6])
def test_homology_of_a_point_at_six_letters(n):
    assert homology_ranks(n) == (1, 0, 0, 0, 0, 0)


def test_homology_of_a_point_at_seven_letters():
    assert homology_ranks(7) == (1, 0, 0, 0, 0, 0, 0)


def full_row_homology(n):
    """The homology of the clearing walk with every kept row built: cells
    numbered per dimension, rows ``{facet index: sign}``, ranked by SpanBasis."""
    fv, ranks = [0] * n, [0] * (n + 1)
    faces, cleared = cells_of_dim(n, n - 1), set()
    for d in range(n - 1, 0, -1):
        lower = cells_of_dim(n, d - 1)
        index = {u.values: i for i, u in enumerate(lower)}
        kept = (t for i, t in enumerate(faces) if i not in cleared)
        rows = (LinComb({index[u]: s for s, u in _facets(t.values, t.k)}) for t in kept)
        cleared = set(SpanBasis(rows).pivots())
        fv[d], ranks[d] = len(faces), len(cleared)
        faces = lower
    fv[0] = len(faces)
    return tuple(fv), tuple(fv[d] - ranks[d] - ranks[d + 1] for d in range(n))


@pytest.mark.parametrize("n", range(1, 7))
def test_homology_matches_the_full_row_walk(n):
    assert homology(n) == full_row_homology(n)


def pivot_facets(n, k):
    """The pivot keys of the full rows of every cell onto 1..k: facets by values."""
    rows = (LinComb({u: s for s, u in _facets(t, k)}) for t in _words(n, k))
    return set(SpanBasis(rows).pivots())


@pytest.mark.parametrize("n", range(1, 8))
def test_lead_is_the_largest_facet(n):
    for k in range(1, n):
        for t in _words(n, k):
            assert _lead(t, k) == max(face for _, face in _facets(t, k)), t


def clearing_walk(n):
    """The kept cells of each dimension onto 1..k, k = 1..n - 1, by clearing from
    the top down: a cell is kept unless it is the lead of a kept cell one
    dimension up, and the kept cells' leads are distinct."""
    kept, cleared = {}, set()
    for k in range(1, n):
        kept[k] = [t for t in _words(n, k) if t not in cleared]
        cleared = {_lead(t, k) for t in kept[k]}
        assert len(cleared) == len(kept[k]), (n, k)
    return kept


@pytest.mark.parametrize("n", range(1, 8))
def test_cleared_pivots_match_those_of_every_row(n):
    # The leading keys of an echelon basis are those of its span, so clearing,
    # which keeps each span, keeps the pivot keys and the rank of every d; the
    # cells the walk keeps are those with no candidate.
    for k, kept in clearing_walk(n).items():
        assert kept == [t for t in _words(n, k) if _candidate(t, k) is None], (n, k)
        assert {_lead(t, k) for t in kept} == pivot_facets(n, k), (n, k)


def integral_witness(**witness):
    check = next(c for c in verify.CHECKS if c.name == "homology-integral")
    with pytest.raises(verify.CheckFailed) as failed:
        verify.run_check(check, 4)
    assert failed.value.witness == {"check": "homology-integral", **witness}


def test_homology_integral_names_a_second_critical_vertex(monkeypatch):
    monkeypatch.setattr(chains, "_candidate", lambda values, k: None)
    integral_witness(n=2, cell=[2, 1], note="a vertex other than (1, .., n) has no candidate")


def test_homology_integral_names_a_merge_with_a_candidate(monkeypatch):
    # At the largest candidate of (3, 2, 1) the merge keeps the smaller one.
    def largest(values, k):
        found = None
        for j in range(1, k):
            if values.count(j) > 1:
                break
            if j + 1 not in values[values.index(j):]:
                found = j
        return found

    monkeypatch.setattr(chains, "_candidate", largest)
    integral_witness(n=3, cell=[3, 2, 1], candidate=2, merge=[2, 2, 1],
                     note="the merge has a candidate")


def test_homology_integral_names_a_merge_that_leads_elsewhere(monkeypatch):
    real = chains._lead
    monkeypatch.setattr(chains, "_lead", lambda values, k:
                        (1, 2, 3) if values == (1, 2, 2) else real(values, k))
    integral_witness(n=3, cell=[1, 3, 2], candidate=2, merge=[1, 2, 2], lead=[1, 2, 3],
                     note="the merge leads elsewhere")


def test_homology_integral_names_a_lead_matched_elsewhere(monkeypatch):
    real = chains._candidate
    monkeypatch.setattr(chains, "_candidate", lambda values, k:
                        None if values == (2, 2, 1) else real(values, k))
    integral_witness(n=3, cell=[2, 2, 1], lead=[3, 2, 1], candidate=1,
                     note="the lead is not matched with this cell")


def test_homology_integral_names_a_lead_below_the_largest_facet(monkeypatch):
    real = chains._facets
    monkeypatch.setattr(chains, "_facets", lambda values, k:
                        real(values, k) + [(1, (9,) * len(values))])
    integral_witness(n=2, cell=[1, 1], lead=[2, 1], largest=[9, 9],
                     note="the lead is not the largest facet")


def test_homology_builds_no_row_through_seven_letters(monkeypatch):
    # Homology counts the cells with no candidate and builds no boundary row.
    calls = []

    def counted(values, k):
        calls.append(values)
        return _facets(values, k)

    monkeypatch.setattr(chains, "_facets", counted)
    assert homology(7)[1] == (1, 0, 0, 0, 0, 0, 0)
    assert calls == []


def test_grafting_degree_and_shape():
    shapes = grafting_shapes(3, 3)
    assert all(t.k == 2 and len(t.blocks()[0]) == 2 for t in shapes)
    a = corolla(2)
    b = Surjection((1, 2))
    for t in shapes:
        ((cell, c),) = chain_circ_t(LinComb.single(a), LinComb.single(b), t).terms()
        assert cell == substitute(t, (b, a)) and c == 1
        assert cell.dim == a.dim + b.dim


def test_cell_circ_rejects_deep_shapes():
    # substitute wants one part per level, so a three-level shape is refused.
    with pytest.raises(ValueError):
        chain_circ_t(LinComb.single(corolla(2)), LinComb.single(corolla(2)),
                     Surjection((1, 2, 3, 1)))


def test_chain_circ_is_bilinear():
    t = grafting_shapes(2, 2)[0]
    a = LinComb({corolla(1): 2})
    b = LinComb({corolla(1): 3})
    assert chain_circ_t(a, b, t) == chain_circ_t(
        LinComb.single(corolla(1)), LinComb.single(corolla(1)), t
    ).scale(6)


def test_leibniz_small():
    assert dg_leibniz_check(2, 2)
    assert dg_leibniz_check(3, 2)
    assert dg_leibniz_check(2, 3)


def test_skeleton_edges_oriented_by_length():
    # Every edge points from the shorter to the longer word.
    from permutads.surjections import inversions

    for u, v in skeleton_edges(4):
        assert inversions(v.values) == inversions(u.values) + 1


def test_skeleton_dot_output():
    dot = skeleton_dot(3)
    assert dot.startswith("graph permutohedron3 {")
    assert dot.rstrip().endswith("}")
    assert dot.count(" -- ") == 6
    assert 'v1_2_3 [label="1 2 3"];' in dot
    assert skeleton_dot(3) == dot  # deterministic
