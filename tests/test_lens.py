import math
from fractions import Fraction

import pytest

from openbooks.diagram import FramedLinkDiagram
from openbooks.lens import (
    POLE,
    LensSpace,
    cf_evaluate,
    chain_to_lens,
    family_lens,
    lens_equal,
    neg_cf_expand,
)

from oracles import cf_oracle


def test_neg_cf_examples():
    assert neg_cf_expand(Fraction(4, 3)) == [2, 2, 2]
    assert neg_cf_expand(Fraction(2)) == [2]
    assert neg_cf_expand(Fraction(8, 5)) == [2, 3, 2]


def test_neg_cf_domain_error():
    with pytest.raises(ValueError):
        neg_cf_expand(Fraction(1))
    with pytest.raises(ValueError):
        neg_cf_expand(Fraction(2, 3))
    # an exact rational only: 2.5 is not rounded and " 8/5 " not parsed
    for bad in (2.5, " 8/5 ", True):
        with pytest.raises(TypeError):
            neg_cf_expand(bad)


def test_neg_cf_roundtrip_up_to_500():
    # the expansion inverts evaluation, entries always >= 2
    for p in range(2, 501):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            cf = neg_cf_expand(Fraction(p, q))
            assert all(a >= 2 for a in cf)
            assert cf_oracle(cf) == Fraction(p, q)
            assert cf_evaluate(cf) == Fraction(p, q)


def test_cf_evaluate_examples():
    assert cf_evaluate([7]) == 7
    assert cf_evaluate([2, 2, 2]) == Fraction(4, 3)
    for m in range(1, 40):
        assert cf_evaluate([2] * m) == Fraction(m + 1, m)


def test_cf_evaluate_family_identity_small():
    for h in range(1, 30):
        for k in range(1, 30):
            value = cf_evaluate([2, k + 1] + [2] * h)
            assert value == Fraction((h + 1) * (2 * k - 1) + 2, (h + 1) * k + 1)


def test_cf_evaluate_refuses_non_int_coefficients():
    # a bool would be read as 0 or 1: [True, 2] as 1 - 1/2
    for bad in ([True, 2], [3, True], [3, 2.0], [Fraction(3), 2]):
        with pytest.raises(TypeError):
            cf_evaluate(bad)


def test_cf_evaluate_poles():
    assert cf_evaluate([]) is POLE
    assert cf_evaluate([2, 0]) is POLE  # 2 - 1/0: infinite
    # an interior pole resolves projectively: 3 - 1/(2 - 1/0) = 3 - 0 = 3
    assert cf_evaluate([3, 2, 0]) == 3


def test_lens_normalization():
    assert LensSpace.normalized(1, 1) == LensSpace(1, 0)
    assert LensSpace.normalized(4, 7) == LensSpace(4, 3)
    assert LensSpace.normalized(-3, 1) == LensSpace(3, 2)
    assert LensSpace.normalized(0, 5) == LensSpace(0, 1)
    assert LensSpace.normalized(6, 4) == LensSpace(3, 2)
    assert LensSpace.normalized(5, 0) == LensSpace(1, 0)


def test_lens_normalization_rejects_zero_over_zero():
    # 0/0 names no surgery coefficient; before, it fell into the q = 0 case
    with pytest.raises(ValueError, match="0/0"):
        LensSpace.normalized(0, 0)


def test_lens_invariant_validation():
    with pytest.raises(ValueError):
        LensSpace(4, 2)
    with pytest.raises(ValueError):
        LensSpace(4, 5)
    with pytest.raises(ValueError):
        LensSpace(-2, 1)
    # p and q are ints: 7.9 is not truncated to 7, nor True read as 1
    for p, q in ((1.0, 0), (True, 0), (0, True)):
        with pytest.raises(TypeError):
            LensSpace(p, q)
    for p, q in ((7.9, 2), (True, 2), (7, True), (5.0, 0), (Fraction(7), 2)):
        with pytest.raises(TypeError):
            LensSpace.normalized(p, q)


def test_chain_to_lens_examples():
    assert chain_to_lens([-2, -2, -2]) == LensSpace(4, 3)
    assert chain_to_lens([-7]) == LensSpace(7, 1)
    assert chain_to_lens([-2, -3, -2]) == LensSpace(8, 5)
    # degenerate chains
    assert chain_to_lens([0]) == LensSpace(0, 1)       # S1 x S2
    assert chain_to_lens([-2, 0]) == LensSpace(1, 0)   # cancelling pair: S3
    assert chain_to_lens([]) == LensSpace(1, 0)
    assert chain_to_lens([3]) == LensSpace(3, 2)       # +3 surgery


def test_chain_to_lens_accepts_diagrams():
    d = FramedLinkDiagram.build(
        [("x", -2), ("y", -3), ("z", -2)],
        {("x", "y"): 1, ("y", "z"): 1},
    )
    assert chain_to_lens(d.chain_framings()) == LensSpace(8, 5)


def test_chain_to_lens_rejects_rational_framings():
    with pytest.raises(ValueError):
        chain_to_lens([Fraction(-3, 2)])
    # floats and bools are not framings, even integral ones
    for bad in ([True, -2.0], [-2, -2.0], [False]):
        with pytest.raises(TypeError):
            chain_to_lens(bad)


def test_lens_equal():
    assert lens_equal(LensSpace(7, 2), LensSpace(7, 4), oriented=True)  # 2*4 = 8 = 1 mod 7
    assert lens_equal(LensSpace(4, 3), LensSpace(4, 3), oriented=True)
    assert not lens_equal(LensSpace(4, 1), LensSpace(4, 3), oriented=True)
    assert lens_equal(LensSpace(4, 1), LensSpace(4, 3), oriented=False)  # 1 = -3 mod 4
    assert not lens_equal(LensSpace(5, 1), LensSpace(7, 1))
    assert lens_equal(LensSpace(1, 0), LensSpace(1, 0))


def test_chain_reversal_gives_oriented_equal_lens():
    # reading a chain backwards inverts q mod p
    chains = [[-2, -3, -2], [-2, -2, -5], [-4, -3], [-2, -7, -2, -3]]
    for chain in chains:
        assert lens_equal(chain_to_lens(chain), chain_to_lens(chain[::-1]), oriented=True)


def test_family_lens():
    assert family_lens(1, 1) == LensSpace(4, 3)
    assert family_lens(2, 1) == LensSpace(5, 4)
    assert family_lens(1, 2) == LensSpace(8, 5)
    with pytest.raises(ValueError):
        family_lens(0, 1)


def test_family_lens_pairs_are_coprime():
    for h in range(1, 51):
        for k in range(1, 51):
            p = (h + 1) * (2 * k - 1) + 2
            q = (h + 1) * k + 1
            assert math.gcd(p, q) == 1
            assert family_lens(h, k) == LensSpace(p, q)
