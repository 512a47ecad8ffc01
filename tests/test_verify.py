import json

import pytest

from permutads import chains, derivations, permutad, verify
from permutads.bruhat import Cover
from permutads.linalg import LinComb, QPoly
from permutads.shuffles import Shuffle
from permutads.surjections import Surjection
from permutads.verify import (
    CHECKS,
    Check,
    CheckFailed,
    bound_for,
    run_check,
)


def test_every_check_passes_at_a_small_bound():
    for check in CHECKS:
        run_check(check, 3)  # raises CheckFailed on a witness


def test_bound_for_clamps():
    sized = next(c for c in CHECKS if c.default_n is not None and c.cap is not None)
    assert bound_for(sized) == sized.default_n
    assert bound_for(sized, 99) == sized.cap
    assert bound_for(sized, 2) == 2
    unsized = next(c for c in CHECKS if c.default_n is None)
    assert bound_for(unsized) is None
    assert bound_for(unsized, 99) is None


def test_homology_reaches_seven_letters():
    check = next(c for c in CHECKS if c.name == "homology-contractible")
    assert bound_for(check) == 7
    assert bound_for(check, 7) == 7
    assert bound_for(check, 99) == 8
    verify.check_homology(7)


def test_boundary_squared_reaches_seven():
    check = next(c for c in CHECKS if c.name == "boundary-squared")
    assert bound_for(check) == 7
    assert bound_for(check, 99) == 7
    verify.check_boundary_squared(7)


def test_q_normal_form_reaches_seven():
    check = next(c for c in CHECKS if c.name == "q-normal-form")
    assert bound_for(check) == 7
    assert bound_for(check, 99) == 8
    verify.check_q_normal_form(7)


def test_q_normal_form_passes_at_its_cap_of_eight():
    check = next(c for c in CHECKS if c.name == "q-normal-form")
    assert run_check(check, 8) == 8


def test_q_normal_form_fails_on_a_wrong_exponent_or_relation(monkeypatch):
    real = verify.qpermas_normalize
    monkeypatch.setattr(verify, "qpermas_normalize", lambda d: real(d) * 2)
    with pytest.raises(CheckFailed) as failed:
        verify.check_q_normal_form(4)
    assert failed.value.witness["note"] == "not q^inversions times the identity"
    monkeypatch.setattr(verify, "qpermas_normalize", real)
    mu = verify.generator_element("mu", 2)
    upper, lower = (verify.circ_i(mu, mu, i).map_coeffs(QPoly.const) for i in (2, 1))
    wrong = upper - lower.scale(QPoly.q(2))
    gens, _ = verify.PRESETS["qPermAs"]()
    monkeypatch.setitem(verify.PRESETS, "qPermAs", lambda: (gens, [wrong]))
    with pytest.raises(CheckFailed):
        verify.check_q_normal_form(4)


def test_run_check_reports_the_bound_used():
    unsized = next(c for c in CHECKS if c.default_n is None)
    assert run_check(unsized) is None
    sized = next(c for c in CHECKS if c.name == "substitution-units")
    assert run_check(sized, 2) == 2


def _check(name):
    return next(c for c in CHECKS if c.name == name)


def test_encoding_roundtrips_parse_the_shuffle_render(monkeypatch):
    # A parser that reads every render as the one-letter shuffle is wrong
    # from n = 2 on; the check must parse the render to see it.
    wrong = staticmethod(lambda obj: Surjection((1,)))
    monkeypatch.setattr(Shuffle, "from_json", wrong)
    with pytest.raises(CheckFailed) as failed:
        run_check(_check("encoding-roundtrips"), 3)
    witness = failed.value.witness
    assert witness["check"] == "encoding-roundtrips"
    assert witness["via"] == "shuffle-json"
    assert witness["t"] == [1, 1]


def test_derivation_monomials_report_a_wrong_graft(monkeypatch):
    # Grafting every derivation at the last variable spells the wrong word.
    real = derivations.asder_circ
    monkeypatch.setattr(
        derivations, "asder_circ", lambda P, Q, i: real(P, Q, P.nvars)
    )
    with pytest.raises(CheckFailed) as failed:
        run_check(_check("derivation-monomials"), 2)
    witness = failed.value.witness
    assert witness["check"] == "derivation-monomials"
    assert (witness["js"], witness["n"]) == ([1], 2)


@pytest.mark.parametrize(
    "wrong, field",
    [
        (lambda d, t: d.scale(2), "missing"),  # signs +-2: edges turn round
        (lambda d, t: d + LinComb.single(t), "error"),  # a third term
    ],
    ids=["doubled-signs", "three-terms"],
)
def test_skeleton_covers_report_a_wrong_edge_boundary(monkeypatch, wrong, field):
    real = chains.boundary_of_cell
    monkeypatch.setattr(chains, "boundary_of_cell", lambda t: wrong(real(t), t))
    with pytest.raises(CheckFailed) as failed:
        run_check(_check("skeleton-covers"), 2)
    assert failed.value.witness["check"] == "skeleton-covers"
    assert failed.value.witness[field]


def test_a_value_error_in_a_check_is_its_witness():
    def rejects(n):
        raise ValueError(f"cannot parse at {n}")

    check = Check("rejects", rejects, 3)
    with pytest.raises(CheckFailed) as failed:
        run_check(check)
    assert failed.value.witness == {"check": "rejects", "error": "cannot parse at 3"}


def test_binary_arity_four_reports_a_wrong_composition(monkeypatch):
    # Doubled composites are no longer single basis elements.
    real = permutad.circ_i
    monkeypatch.setattr(permutad, "circ_i", lambda a, b, i: real(a, b, i).scale(2))
    with pytest.raises(CheckFailed) as failed:
        run_check(_check("binary-arity-four"))
    assert failed.value.witness["check"] == "binary-arity-four"
    assert "one basis element" in failed.value.witness["error"]


def test_witnesses_are_json_serializable():
    with pytest.raises(CheckFailed) as exc:
        verify._fail(
            cell=Surjection((1, 2, 1)),
            chain=LinComb({Surjection((1, 2)): 1}),
            coeff=QPoly.q(),
            cover=Cover((1, 3, 2), 1, (2, 3, 1), 2),
            nested=((1, 2), [Surjection((1,))]),
        )
    witness = exc.value.witness
    json.dumps(witness)
    assert witness["cell"] == [1, 2, 1]
    assert witness["chain"] == [{"coefficient": "1", "element": [1, 2]}]
    assert witness["coeff"] == "q"
    assert witness["cover"] == {
        "source": [1, 3, 2],
        "i": 1,
        "target": [2, 3, 1],
        "kind": 2,
    }
    assert witness["nested"] == [[1, 2], [[1]]]
