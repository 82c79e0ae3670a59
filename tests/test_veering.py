import dataclasses
import json

import pytest

from openbooks.certcheck import CertificateError, check_certificate
from openbooks.d3 import INCONCLUSIVE, overtwisted_verdict
from openbooks.pages import TwistWord, family_word
from openbooks.veering import (
    NOT_DESTABILIZABLE,
    Certificate,
    Unknown,
    arikan_tight,
    destabilization_report,
    prove_right_veering,
)


def family_certificate(h, k):
    cert = prove_right_veering(family_word(h, k))
    assert isinstance(cert, Certificate)
    return cert


def test_family_certificate_structure():
    for h, k in [(1, 1), (2, 3), (5, 1), (1, 7)]:
        word = family_word(h, k)
        cert = family_certificate(h, k)
        assert check_certificate(cert)

        # boundary parallel to d: positive prefix a^h b c composed with the
        # arc rule on d e^-(k+1) along the arc joining the c and d components
        node = dict(cert.goals)["∂d"]
        assert node.rule == "COMP"
        pos, arc = node.children
        assert pos.rule == "POS"
        assert pos.word.letters == (("a", h), ("b", 1), ("c", 1))
        assert arc.rule == "ARC"
        assert arc.arc == "γ_cd"
        assert arc.word.letters == (("d", 1), ("e", -(k + 1)))

        node = dict(cert.goals)["∂c"]
        assert node.rule == "COMP"
        pos, arc = node.children
        assert pos.word.letters == (("a", h), ("b", 1))
        assert arc.arc == "γ_cd"
        assert arc.word.letters == (("c", 1), ("d", 1), ("e", -(k + 1)))

        node = dict(cert.goals)["∂b"]
        assert node.rule == "COMP"
        pos, arc = node.children
        assert pos.word.letters == (("a", h),)
        assert arc.arc == "γ_ab"
        assert arc.word.letters == (("b", 1), ("c", 1), ("d", 1), ("e", -(k + 1)))

        node = dict(cert.goals)["∂a"]
        assert node.rule == "ARC"
        assert node.arc == "γ_ab"
        assert node.word == word


def test_all_positive_word_gets_pos_certificate():
    cert = prove_right_veering(TwistWord((("a", 3), ("c", 1))))
    assert isinstance(cert, Certificate)
    assert all(node.rule == "POS" for _, node in cert.goals)
    assert check_certificate(cert)


def test_empty_word_certificate():
    cert = prove_right_veering(TwistWord(()))
    assert isinstance(cert, Certificate)
    assert check_certificate(cert)


def test_bare_negative_twist_is_unknown():
    result = prove_right_veering(TwistWord((("e", -2),)))
    assert isinstance(result, Unknown)
    assert result.failed_goals == ("∂a", "∂b", "∂c", "∂d")
    assert not result


def test_h_zero_analogue_unknown_at_boundary_a():
    for k in range(1, 6):
        word = TwistWord((("b", 1), ("c", 1), ("d", 1), ("e", -(k + 1))))
        result = prove_right_veering(word)
        assert isinstance(result, Unknown)
        assert result.failed_goals == ("∂a",)


def test_monotonicity_under_exponent_bumps():
    base = family_word(2, 2)
    for idx, (name, exp) in enumerate(base.letters):
        if exp < 1:
            continue
        letters = list(base.letters)
        letters[idx] = (name, exp + 1)
        bumped = TwistWord(tuple(letters))
        cert = prove_right_veering(bumped)
        assert isinstance(cert, Certificate)
        assert check_certificate(cert)


def test_certificate_roundtrip_serialization():
    cert = family_certificate(3, 2)
    data = json.loads(json.dumps(cert.to_jsonable()))
    back = Certificate.from_jsonable(data)
    assert back == cert
    assert check_certificate(back)


def corrupt(cert, mutate):
    data = cert.to_jsonable()
    mutate(data)
    return Certificate.from_jsonable(data)


def test_checker_rejects_missing_goal():
    cert = family_certificate(1, 1)
    bad = corrupt(cert, lambda d: d["goals"].pop("∂a"))
    with pytest.raises(CertificateError):
        check_certificate(bad)


def test_checker_rejects_root_word_mismatch():
    cert = family_certificate(1, 1)

    def mutate(d):
        d["goals"]["∂a"]["word"] = [["a", 1]]

    with pytest.raises(CertificateError):
        check_certificate(corrupt(cert, mutate))


def test_checker_rejects_wrong_arc():
    cert = family_certificate(1, 1)

    def mutate(d):
        d["goals"]["∂d"]["children"][1]["arc"] = "γ_ab"

    with pytest.raises(CertificateError):
        check_certificate(corrupt(cert, mutate))


def test_checker_rejects_negative_twist_in_pos_leaf():
    cert = family_certificate(2, 1)

    def mutate(d):
        node = d["goals"]["∂d"]["children"][0]
        node["word"] = [["a", -2], ["b", 1], ["c", 1]]
        # keep the root composition consistent so only POS can fail
        d["goals"]["∂d"]["word"] = [["a", -2], ["b", 1], ["c", 1], ["d", 1], ["e", -2]]
        d["word"] = d["goals"]["∂d"]["word"]

    bad = corrupt(cert, mutate)
    with pytest.raises(CertificateError):
        check_certificate(bad)


def test_checker_rejects_arc_with_bad_head():
    # head twist must be along the curve parallel to the goal boundary
    word = TwistWord((("e", -2),))
    from openbooks.veering import ARC_CITATION, CertNode

    node = CertNode("ARC", "∂d", word, arc="γ_cd", citation=ARC_CITATION)
    goals = tuple(
        (b, CertNode("ARC", b, word, arc="γ_cd")) for b in ("∂a", "∂b", "∂c", "∂d")
    )
    cert = Certificate(word, goals)
    with pytest.raises(CertificateError):
        check_certificate(cert)
    del node


def test_checker_rejects_comp_with_wrong_composition():
    cert = family_certificate(2, 2)

    def mutate(d):
        d["goals"]["∂d"]["children"][0]["word"] = [["a", 2], ["b", 1]]

    with pytest.raises(CertificateError):
        check_certificate(corrupt(cert, mutate))


def test_checker_rejects_unknown_rule_and_curve():
    cert = family_certificate(1, 1)
    with pytest.raises(CertificateError):
        check_certificate(corrupt(cert, lambda d: d["goals"]["∂a"].update(rule="LANTERN")))
    bad = cert.to_jsonable()
    bad["word"] = [["z", 1]]
    with pytest.raises(ValueError, match="unknown curves"):
        Certificate.from_jsonable(bad)
    # a node checks its own fields, however it is built
    from openbooks.veering import CertNode

    for fields in ((5, None, TwistWord()), ("POS", "∂a", [("a", 1)]),
                   ("COMP", "∂a", TwistWord(), None, [cert.goals[0][1]])):
        with pytest.raises(TypeError):
            CertNode(*fields)


def test_arikan_tight_examples():
    assert arikan_tight(0, 0, 0)
    assert arikan_tight(2, 1, 5)
    assert not arikan_tight(1, -1, 3)


def test_arikan_tight_exhaustive_grid():
    for a1 in range(-3, 4):
        for a2 in range(-3, 4):
            for a3 in range(-3, 4):
                assert arikan_tight(a1, a2, a3) == (min(a1, a2, a3) >= 0)


def test_destabilization_report_certified_path():
    verdict = overtwisted_verdict(1, 1)
    cert = family_certificate(1, 1)
    report = destabilization_report(1, 1, verdict, cert)
    assert report.conclusion == NOT_DESTABILIZABLE
    assert report.axiom_count == 2
    assert report.unverified_computed_count == 0
    kinds = [s.kind for s in report.steps]
    assert kinds == ["axiom", "computed", "computed", "axiom", "computed", "computed"]
    axioms = [s for s in report.steps if s.kind == "axiom"]
    assert all(s.citation for s in axioms)


def test_destabilization_report_inconclusive_path():
    verdict = overtwisted_verdict(2, 2)
    synthetic = dataclasses.replace(verdict, status=INCONCLUSIVE)
    cert = family_certificate(2, 2)
    report = destabilization_report(2, 2, synthetic, cert)
    assert report.conclusion == NOT_DESTABILIZABLE
    assert report.axiom_count == 3  # overtwistedness becomes a cited axiom
    titles = [s.title for s in report.steps if s.kind == "axiom"]
    assert "overtwisted" in titles


def test_destabilization_report_rejects_bad_certificates():
    verdict = overtwisted_verdict(1, 1)
    cert = family_certificate(1, 1)
    with pytest.raises(ValueError):
        destabilization_report(1, 1, verdict, None)
    with pytest.raises(ValueError):
        destabilization_report(2, 1, verdict, cert)  # certificate for the wrong word

    def mutate(d):
        d["goals"]["∂d"]["children"][1]["arc"] = "γ_ab"

    bad = corrupt(cert, mutate)
    with pytest.raises(ValueError):
        destabilization_report(1, 1, verdict, bad)


def test_report_serialization():
    verdict = overtwisted_verdict(1, 2)
    cert = family_certificate(1, 2)
    report = destabilization_report(1, 2, verdict, cert)
    data = report.to_jsonable()
    assert data["conclusion"] == NOT_DESTABILIZABLE
    assert data["axiom_count"] == 2
    assert len(data["steps"]) == len(report.steps)
