"""The sweep checks' primitives against their earlier loop forms, and the
sweep checks against planted faults.

``substitute``, ``sigma_of``, the leveled-tree render and
``validate_shuffle_tree`` were rewritten for speed.  Their earlier bodies
live on here as oracles, and every rewrite must agree with its oracle
exactly: values and k, nested lists, and (ok, path) pairs.  A planted
fault in one primitive, on one input, must make its check fail with that
input in the witness.
"""

import itertools
import re

import pytest

from permutads import verify
from permutads.shuffles import sigma_of, staged_product
from permutads.surjections import Surjection, enumerate_surjections, substitute
from permutads.trees import (
    comb_to_nested,
    leaves_of,
    strip_levels,
    tree_to_nested,
    validate_shuffle_tree,
)
from permutads.verify import CHECKS, CheckFailed, bound_for, run_check


def oracle_substitute(t, parts):
    if len(parts) != t.k:
        raise ValueError(f"expected {t.k} parts, got {len(parts)}")
    sizes = t.preimage_sizes()
    for j, part in enumerate(parts, start=1):
        if part.n != sizes[j - 1]:
            raise ValueError(
                f"vertex {j}: part has {part.n} inputs, preimage size is {sizes[j - 1]}"
            )
    offsets = [0]
    for part in parts:
        offsets.append(offsets[-1] + part.k)
    counters = [0] * t.k
    out = []
    for v in t.values:
        b = counters[v - 1]
        counters[v - 1] = b + 1
        out.append(offsets[v - 1] + parts[v - 1].values[b])
    return tuple(out), offsets[-1]


def oracle_sigma(t):
    filled = list(itertools.accumulate(t.preimage_sizes(), initial=0))
    out = []
    for v in t.values:
        filled[v - 1] += 1
        out.append(filled[v - 1])
    return tuple(out), t.n


def oracle_render(t):
    level = (0, *t.values)

    def render(lo, hi):
        if lo == hi:
            return lo
        top = max(level[lo + 1 : hi + 1])
        children = []
        for gap in range(lo + 1, hi + 1):
            if level[gap] == top:
                children.append(render(lo, gap - 1))
                lo = gap
        children.append(render(lo, hi))
        return [top] + children

    return render(0, t.n)


def oracle_validate(nested):
    leaves = oracle_leaves(nested)
    if len(set(leaves)) != len(leaves):
        raise ValueError(f"duplicate leaf labels: {sorted(leaves)}")
    if sorted(leaves) != list(range(len(leaves))):
        raise ValueError(f"leaf labels must be 0..n, got {sorted(leaves)}")

    def walk(node, path):
        if isinstance(node, int):
            return node, None
        if len(node) < 2:
            raise ValueError(f"vertex with fewer than two inputs at {path}")
        minima = []
        for idx, child in enumerate(node):
            m, witness = walk(child, path + (idx,))
            if witness is not None:
                return m, witness
            minima.append(m)
        ok = all(minima[i] < minima[i + 1] for i in range(len(minima) - 1))
        return min(minima), None if ok else path

    _, witness = walk(nested, ())
    return witness is None, witness


def oracle_leaves(nested):
    if isinstance(nested, int):
        return [nested]
    out = []
    for child in nested:
        out.extend(oracle_leaves(child))
    return out


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


@pytest.mark.parametrize("n", range(1, 7))
def test_sigma_of_matches_the_oracle(n):
    for t in enumerate_surjections(n):
        sigma = sigma_of(t)
        assert (sigma.values, sigma.k) == oracle_sigma(t)


@pytest.mark.parametrize("n", range(0, 7))
def test_substitute_matches_the_oracle_for_every_part_choice(n):
    # Every part choice is cheap enough to run for every shape up to n = 6.
    of_size = [enumerate_surjections(size) for size in range(n + 1)]
    for t in of_size[n]:
        for parts in itertools.product(*(of_size[s] for s in t.preimage_sizes())):
            got = substitute(t, parts)
            assert (got.values, got.k) == oracle_substitute(t, parts)


@pytest.mark.parametrize(
    "parts, message",
    [
        (((1,),), "expected 2 parts, got 1"),
        (((1,), (1,), (1,)), "expected 2 parts, got 3"),
        (((1,), (1,)), "vertex 1: part has 1 inputs, preimage size is 2"),
        (((1, 1, 1), (1,)), "vertex 1: part has 3 inputs, preimage size is 2"),
        (((1, 2), (1, 1)), "vertex 2: part has 2 inputs, preimage size is 1"),
    ],
)
def test_substitute_error_messages(parts, message):
    t = Surjection((1, 2, 1))
    parts = tuple(Surjection(p) for p in parts)
    with pytest.raises(ValueError) as exc:
        substitute(t, parts)
    assert str(exc.value) == message
    assert outcome(oracle_substitute, t, parts) == ("ValueError", message)


@pytest.mark.parametrize("n", range(1, 8))
def test_tree_render_matches_the_oracle(n):
    for t in enumerate_surjections(n):
        assert tree_to_nested(t) == oracle_render(t)


def _relabelled(nested, swap):
    if isinstance(nested, int):
        return swap.get(nested, nested)
    return [_relabelled(child, swap) for child in nested]


@pytest.mark.parametrize("n", range(1, 5))
def test_validate_shuffle_tree_matches_the_oracle(n):
    # Every render, and every render with two leaf labels swapped, which
    # fails at one vertex, at several, or nowhere.
    for t in enumerate_surjections(n):
        for tree in (strip_levels(tree_to_nested(t)), comb_to_nested(t)):
            assert validate_shuffle_tree(tree) == (True, None)
            for a, b in itertools.combinations(range(n + 1), 2):
                swapped = _relabelled(tree, {a: b, b: a})
                assert validate_shuffle_tree(swapped) == oracle_validate(swapped)
                assert leaves_of(swapped) == oracle_leaves(swapped)


@pytest.mark.parametrize(
    "nested, expect",
    [
        ([0, [1, [3, 2]], 4], (False, (1, 1))),  # a nested vertex
        ([[2, 1], 0], (False, (0,))),  # two vertices: the child is judged first
        ([[0, 2, 1], [4, 3]], (False, (0,))),  # two siblings: the left one
        ([[0, 1], [[3, 2], 4], 5], (False, (1, 0))),
        ([[1, 0], 2, [4, 3]], (False, (0,))),
    ],
)
def test_validate_shuffle_tree_reports_the_first_vertex_in_postorder(nested, expect):
    assert validate_shuffle_tree(nested) == expect == oracle_validate(nested)


@pytest.mark.parametrize(
    "nested, path",
    [([0, [1], 2], (1,)), ([[1, 2], [0], 3], (1,)), ([[0, [1]], 2], (0, 1))],
)
def test_validate_shuffle_tree_names_the_short_vertex(nested, path):
    message = f"vertex with fewer than two inputs at {path}"
    with pytest.raises(ValueError, match=re.escape(message)):
        validate_shuffle_tree(nested)
    assert outcome(oracle_validate, nested) == ("ValueError", message)


def test_validate_shuffle_tree_reports_a_failure_met_before_a_short_vertex():
    assert validate_shuffle_tree([[2, 1], [0], 3]) == (False, (0,))
    assert oracle_validate([[2, 1], [0], 3]) == (False, (0,))


def _check(name):
    return next(c for c in CHECKS if c.name == name)


def _witness(name, max_n):
    with pytest.raises(CheckFailed) as failed:
        run_check(_check(name), max_n)
    assert failed.value.witness["check"] == name
    return failed.value.witness


def test_substitution_units_catches_a_planted_substitute_fault(monkeypatch):
    target = Surjection((2, 1))

    def planted(t, parts):
        return Surjection((1, 2)) if t == target else substitute(t, parts)

    monkeypatch.setattr(verify, "substitute", planted)
    assert _witness("substitution-units", 3)["t"] == [2, 1]


def test_unshuffle_substitution_catches_a_planted_substitute_fault(monkeypatch):
    target = Surjection((1, 2, 1))

    def planted(t, parts):
        got = substitute(t, parts)
        return Surjection(got.values[::-1]) if t == target else got

    monkeypatch.setattr(verify, "substitute", planted)
    witness = _witness("unshuffle-substitution", 4)
    assert witness["t"] == [1, 2, 1]
    assert witness["lhs"] != witness["rhs"]


def test_unshuffle_substitution_catches_a_planted_sigma_fault(monkeypatch):
    # sigma of (2, 1) reads (1, 2) everywhere: in the part table, in the
    # gather of shape (2, 1) and on the left side.  Cases that read it on
    # both sides agree, so the first failure is the first shape where a
    # part (2, 1) sits beside another part: (1, 1, 2), whose substitution
    # (2, 1, 3) has a true unshuffle.
    target = Surjection((2, 1))

    def planted(t):
        return Surjection((1, 2)) if t == target else sigma_of(t)

    monkeypatch.setattr(verify, "sigma_of", planted)
    witness = _witness("unshuffle-substitution", 3)
    assert witness["t"] == [1, 1, 2] and witness["parts"] == [[2, 1], [1]]


def test_shuffle_factorization_catches_a_planted_staged_product_fault(monkeypatch):
    target = Surjection((2, 1, 3, 1))

    def planted(factors, blocks):
        got = staged_product(factors, blocks)
        return Surjection((1, 1, 2, 3)) if got == target else got

    monkeypatch.setattr(verify, "staged_product", planted)
    assert _witness("shuffle-factorization", 4)["t"] == [2, 1, 3, 1]


def test_encoding_roundtrips_catches_a_planted_sigma_fault(monkeypatch):
    target = Surjection((2, 1, 2))

    def planted(t):
        return Surjection((1, 2, 3)) if t == target else sigma_of(t)

    monkeypatch.setattr(verify, "sigma_of", planted)
    witness = _witness("encoding-roundtrips", 3)
    assert witness["t"] == [2, 1, 2] and witness["via"] == "sigma"


@pytest.mark.parametrize(
    "name, cap",
    [
        ("substitution-associativity", 5),
        ("diamond", 8),
        ("sequential-composition", 9),
        ("skeleton-covers", 7),
        ("homology-contractible", 8),
        ("homology-integral", 8),
    ],
)
def test_raised_caps_pass_at_the_cap(name, cap):
    check = _check(name)
    assert bound_for(check, 99) == cap
    assert run_check(check, cap) == cap
