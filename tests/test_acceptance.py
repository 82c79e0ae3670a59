"""Acceptance suite: every criterion exact, one pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines.  All
comparisons are exact (integers and Fractions); the only tolerance in the
suite is the stated wall-clock budget of criterion 1.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from openbooks.certcheck import check_certificate
from openbooks.d3 import (
    OVERTWISTED_CERTIFIED,
    census_size_formula,
    d3,
    overtwisted_verdict,
    tight_census,
)
from openbooks.kirby import reduce_family_diagram
from openbooks.lens import LensSpace, cf_evaluate, chain_to_lens, family_lens, lens_equal
from openbooks.pages import TwistWord, family_word
from openbooks.serialize import fraction_str
from openbooks.veering import (
    Certificate,
    Unknown,
    arikan_tight,
    destabilization_report,
    prove_right_veering,
)

from diagram_gen import exercise_moves, random_diagram
from oracles import d3_oracle
from test_d3 import (
    EMPTY,
    chain_diagram,
    chain_presentation,
    criterion_4_chains,
    insert_cancelling_knots,
    insert_cancelling_pair,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    print(f"criterion {number} ({description}): PASS")


def test_criterion_1_lens_identification():
    with criterion(1, "lens identification, 50x50 grid, < 10 s"):
        start = time.monotonic()
        for h in range(1, 51):
            for k in range(1, 51):
                order = (h + 1) * (2 * k - 1) + 2
                reduced = reduce_family_diagram(h, k)
                assert reduced.h1 == order
                assert len(reduced.move_log) > 0
                for record in reduced.move_log:
                    assert record.h1_before == order
                    assert record.h1_after == order
                identified = chain_to_lens(reduced.chain_framings())
                assert lens_equal(identified, family_lens(h, k), oriented=True)
        elapsed = time.monotonic() - start
        print(f"  [2500 reductions in {elapsed:.2f} s]", end=" ")
        assert elapsed < 10.0


def test_criterion_2_continued_fraction_identity():
    with criterion(2, "continued fraction identity, 1000x1000 grid"):
        for h in range(1, 1001):
            coeffs = [2, 0] + [2] * h
            for k in range(1, 1001):
                coeffs[1] = k + 1
                expected = Fraction((h + 1) * (2 * k - 1) + 2, (h + 1) * k + 1)
                assert cf_evaluate(coeffs) == expected


def test_criterion_3_move_invariance_property_suite():
    with criterion(3, "move invariance on >= 1000 random diagrams"):
        rng = random.Random(0xC0FFEE)
        diagrams = 0
        moves = 0
        while diagrams < 1000:
            d = random_diagram(rng)
            moves += exercise_moves(d, rng)
            diagrams += 1
        assert moves >= 3000
        print(f"  [{diagrams} diagrams, {moves} moves]", end=" ")


def test_criterion_4_d3_calibration():
    with criterion(4, "d3 calibration and cancelling-pair stability"):
        # d3, the verdict's route, on expanded contact diagrams, and the
        # dense oracle on the same presentations written as matrices
        assert d3(EMPTY)[0] == Fraction(-1, 2)
        assert d3(insert_cancelling_knots(EMPTY, -1, 0, {}))[0] == Fraction(-1, 2)
        assert d3_oracle((), (), 0) == Fraction(-1, 2)
        assert d3_oracle(((0, -1), (-1, -2)), (0, 0), 1) == Fraction(-1, 2)
        for chain, rot, q_plus in criterion_4_chains():
            pres = chain_presentation(chain, rot, q_plus)
            assert d3_oracle(*insert_cancelling_pair(*pres)) == d3_oracle(*pres)
            d = chain_diagram(chain, rot)
            paired = insert_cancelling_knots(d, -1, 0, {})
            assert d3(paired)[0] == d3(d)[0] == d3_oracle(*pres) - q_plus


# 10 x 10 verdict histogram and d3 table, frozen from a prior run (the
# sweep itself is the oracle; these pin regressions)
SWEEP_10_HISTOGRAM = {OVERTWISTED_CERTIFIED: 100}
SWEEP_10_D3 = (
    ("1/2", "1/4", "0", "-1/4", "-1/2", "-3/4", "-1", "-5/4", "-3/2", "-7/4"),
    ("7/10", "5/11", "7/34", "-1/23", "-17/58", "-19/35", "-65/82", "-49/47", "-137/106", "-91/59"),
    ("11/12", "19/28", "19/44", "11/60", "-5/76", "-29/92", "-61/108", "-101/124", "-149/140", "-205/156"),
    ("8/7", "31/34", "2/3", "31/74", "8/47", "-3/38", "-22/67", "-89/154", "-24/29", "-209/194"),
    ("11/8", "23/20", "29/32", "29/44", "23/56", "11/68", "-7/80", "-31/92", "-61/104", "-97/116"),
    ("29/18", "32/23", "85/74", "46/51", "17/26", "32/79", "29/186", "-10/107", "-83/242", "-16/27"),
    ("37/20", "85/52", "39/28", "133/116", "133/148", "13/20", "85/212", "37/244", "-9/92", "-107/308"),
    ("23/11", "109/58", "77/47", "181/130", "95/83", "181/202", "11/17", "109/274", "23/155", "-35/346"),
    ("7/3", "17/8", "49/26", "59/36", "32/23", "8/7", "59/66", "49/76", "17/43", "7/48"),
    ("67/26", "83/35", "81/38", "149/79", "331/202", "57/41", "331/290", "149/167", "9/14", "83/211"),
)


def test_criterion_5_overtwistedness_standin():
    with criterion(5, "d3 overtwistedness verdicts, 10x10 sweep"):
        v11 = overtwisted_verdict(1, 1)
        assert v11.d3_value == Fraction(1, 2)
        assert tuple(t.d3 for t in tight_census(LensSpace(4, 3))) == (Fraction(1, 4),)
        assert v11.status == OVERTWISTED_CERTIFIED

        histogram = {}
        for h in range(1, 11):
            for k in range(1, 11):
                v = overtwisted_verdict(h, k)
                assert isinstance(v.d3_value, Fraction)
                assert all(isinstance(x, Fraction) for x in v.census_d3)
                # a certificate is never issued on a d3 match
                if v.d3_value in v.census_d3:
                    assert v.status != OVERTWISTED_CERTIFIED
                histogram[v.status] = histogram.get(v.status, 0) + 1
                assert fraction_str(v.d3_value) == SWEEP_10_D3[h - 1][k - 1]
        assert histogram == SWEEP_10_HISTOGRAM


def test_criterion_6_right_veering_certificates():
    with criterion(6, "right-veering certificates, h, k <= 100"):
        for h in range(1, 101):
            for k in range(1, 101):
                cert = prove_right_veering(family_word(h, k))
                assert isinstance(cert, Certificate)
                assert check_certificate(cert)
                if h <= 3 or k <= 3 or (h, k) == (100, 100):
                    # the three-stage structure of the derivation
                    d_goal = dict(cert.goals)["∂d"]
                    assert d_goal.rule == "COMP"
                    assert d_goal.children[0].word.letters == (("a", h), ("b", 1), ("c", 1))
                    assert d_goal.children[1].arc == "γ_cd"
                    assert d_goal.children[1].word.letters == (("d", 1), ("e", -(k + 1)))
                    c_goal = dict(cert.goals)["∂c"]
                    assert c_goal.rule == "COMP"
                    assert c_goal.children[1].arc == "γ_cd"
                    assert c_goal.children[1].word.letters == (
                        ("c", 1), ("d", 1), ("e", -(k + 1)))
                    b_goal = dict(cert.goals)["∂b"]
                    assert b_goal.rule == "COMP"
                    assert b_goal.children[1].arc == "γ_ab"
                    a_goal = dict(cert.goals)["∂a"]
                    assert a_goal.rule == "ARC"
                    assert a_goal.arc == "γ_ab"
        for k in range(1, 11):
            word = TwistWord((("b", 1), ("c", 1), ("d", 1), ("e", -(k + 1))))
            result = prove_right_veering(word)
            assert isinstance(result, Unknown)
            assert result.failed_goals == ("∂a",)


def test_criterion_7_census_counts():
    with criterion(7, "census counts match the product formula, p <= 60"):
        total = 0
        for p in range(2, 61):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                space = LensSpace(p, q)
                census = tight_census(space)
                assert len(census) == census_size_formula(space)
                assert len(set(census)) == len(census)
                total += len(census)
        print(f"  [{total} descriptors]", end=" ")


def test_criterion_8_destabilization_report():
    with criterion(8, "destabilization report and exponent criterion"):
        verdict = overtwisted_verdict(1, 1)
        cert = prove_right_veering(family_word(1, 1))
        check_certificate(cert)
        report = destabilization_report(1, 1, verdict, cert)
        assert report.conclusion == "NOT_DESTABILIZABLE"
        assert report.axiom_count == 2
        assert report.unverified_computed_count == 0
        for a1 in range(-3, 4):
            for a2 in range(-3, 4):
                for a3 in range(-3, 4):
                    negative = min(a1, a2, a3) < 0
                    assert arikan_tight(a1, a2, a3) == (not negative)
