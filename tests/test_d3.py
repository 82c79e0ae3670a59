import math
import random
from fractions import Fraction

import pytest

from openbooks import linalg
from openbooks.d3 import (
    INCONCLUSIVE,
    OVERTWISTED_CERTIFIED,
    PM1Presentation,
    census_size_formula,
    d3,
    family_presentation,
    overtwisted_verdict,
    tight_census,
)
from openbooks.lens import LensSpace, family_lens, neg_cf_expand
from openbooks.linalg import SingularMatrixError, signature, solve

from oracles import dense_det, jacobi_signature, leading_minors, signature_oracle

CANCELLING_PAIR = (((0, -1), (-1, -2)), (0, 0), 1)


def chain_pm1(chain, rot, q_plus=0):
    n = len(chain)
    q = [[0] * n for _ in range(n)]
    for i, a in enumerate(chain):
        q[i][i] = a
    for i in range(n - 1):
        q[i][i + 1] = q[i + 1][i] = 1
    return PM1Presentation(tuple(tuple(r) for r in q), tuple(rot), q_plus)


def insert_cancelling_pair(pres):
    n = pres.size
    q = [list(row) + [0, 0] for row in pres.q]
    q.append([0] * n + [0, -1])
    q.append([0] * n + [-1, -2])
    return PM1Presentation(
        tuple(tuple(r) for r in q), pres.rho + (0, 0), pres.q_plus + 1
    )


def test_calibration_empty_presentation():
    assert d3(PM1Presentation((), (), 0)) == Fraction(-1, 2)


def test_calibration_cancelling_pair():
    assert d3(PM1Presentation(*CANCELLING_PAIR)) == Fraction(-1, 2)


def test_family_1_1_exact_data():
    pres = family_presentation(1, 1)
    assert pres.q == ((-1, -2, -2), (-2, -1, -2), (-2, -2, -4))
    assert pres.rho == (-1, -1, -2)
    assert pres.q_plus == 2
    x = solve([list(r) for r in pres.q], list(pres.rho))
    assert x == [0, 0, Fraction(1, 2)]
    c2 = sum(xi * ri for xi, ri in zip(x, pres.rho))
    assert c2 == -1
    assert signature([list(r) for r in pres.q]) == -1
    assert d3(pres) == Fraction(1, 2)


def test_d3_rejects_singular_presentations():
    with pytest.raises(SingularMatrixError):
        d3(PM1Presentation(((0,),), (0,), 0))


def test_pm1_validation():
    with pytest.raises(ValueError):
        PM1Presentation(((0, 1), (2, 0)), (0, 0), 0)  # not symmetric
    with pytest.raises(ValueError):
        PM1Presentation(((1,),), (0, 0), 0)  # dimension mismatch


def test_census_l43():
    census = tight_census(LensSpace(4, 3))
    assert len(census) == 1
    (t,) = census
    assert t.chain == (-2, -2, -2)
    assert t.rot == (0, 0, 0)
    assert t.d3 == Fraction(1, 4)


def test_census_l41():
    census = tight_census(LensSpace(4, 1))
    assert len(census) == 3
    assert [t.rot for t in census] == [(-2,), (0,), (2,)]
    assert all(t.chain == (-4,) for t in census)
    assert [t.d3 for t in census] == [Fraction(-1, 2), Fraction(-1, 4), Fraction(-1, 2)]


def test_census_l21():
    census = tight_census(LensSpace(2, 1))
    assert len(census) == 1
    assert census[0].rot == (0,)


def test_census_denominators_exceed_four():
    # the honest d3 denominator bound is 4|det Q|, not 4
    census = tight_census(LensSpace(3, 1))
    assert sorted(t.d3 for t in census) == [Fraction(-1, 3), Fraction(-1, 3)]


def test_census_rejects_small_p():
    with pytest.raises(ValueError):
        tight_census(LensSpace(1, 0))
    with pytest.raises(ValueError):
        tight_census(LensSpace(0, 1))


def test_census_counts_small():
    import math

    for p in range(2, 41):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            space = LensSpace(p, q)
            census = tight_census(space)
            assert len(census) == census_size_formula(space)
            # one factorization per chain gives what d3 gives per entry
            for t in census:
                assert t.d3 == d3(chain_pm1(t.chain, t.rot))


def test_census_rot_ranges_and_parity():
    for t in tight_census(LensSpace(12, 5)):
        for a, r in zip(t.chain, t.rot):
            assert a + 2 <= r <= -a - 2
            assert (r - a) % 2 == 0


def test_cancelling_pair_insertion_never_changes_d3():
    rng = random.Random(31337)
    for _ in range(100):
        n = rng.randint(1, 6)
        chain = [-rng.randint(2, 6) for _ in range(n)]
        rot = [rng.choice(range(a + 2, -a - 1, 2)) for a in chain]
        pres = chain_pm1(chain, rot)
        value = d3(pres)
        assert d3(insert_cancelling_pair(pres)) == value


def test_d3_signature_path_matches_oracle():
    rng = random.Random(424242)
    for _ in range(200):
        n = rng.randint(1, 5)
        chain = [-rng.randint(2, 5) for _ in range(n)]
        pres = chain_pm1(chain, [0 if a % 2 == 0 else 1 for a in chain])
        m = [list(r) for r in pres.q]
        assert signature(m) == signature_oracle(m)


def test_det_and_signature_match_leading_minors():
    # the family Q for h, k <= 8 and every census chain with p <= 40: no
    # leading principal minor is 0, so Jacobi's rule gives the signature
    matrices = [[list(r) for r in family_presentation(h, k).q]
                for h in range(1, 9) for k in range(1, 9)]
    for p in range(2, 41):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                chain = [-a for a in neg_cf_expand(Fraction(p, q))]
                matrices.append([list(r) for r in chain_pm1(chain, [0] * len(chain)).q])
    for m in matrices:
        minors = leading_minors(m)
        assert all(minors)
        assert linalg.det(m) == minors[-1] == dense_det(m)
        assert linalg.signature(m) == jacobi_signature(minors)


def test_family_det_at_k_1_for_large_h():
    # |H1| of L(h + 3, h + 2); the elimination keeps the entries small
    for h in (24, 40, 60):
        assert abs(linalg.det([list(r) for r in family_presentation(h, 1).q])) == h + 3


def test_verdict_1_1(monkeypatch):
    calls = {"det": 0, "signature": 0}

    def counted(name):
        fn = getattr(linalg, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(linalg, name, counted(name))
    v = overtwisted_verdict(1, 1)
    # det and signature once for the family Q, once for the census chain
    assert calls == {"det": 2, "signature": 2}
    assert v.status == OVERTWISTED_CERTIFIED
    assert v.d3_value == Fraction(1, 2)
    assert v.census_d3 == (Fraction(1, 4),)
    assert v.lens == LensSpace(4, 3)
    assert abs(v.det) == 4
    assert v.sigma == -1
    assert v.c_squared == -1
    assert v.q_plus == 2


def test_verdict_consistency_and_lens_match():
    for h in range(1, 7):
        for k in range(1, 7):
            v = overtwisted_verdict(h, k)
            assert v.lens == family_lens(h, k)
            # the terms the verdict reads, computed directly
            pres = family_presentation(h, k)
            m = [list(r) for r in pres.q]
            x = linalg.solve(m, list(pres.rho))
            assert v.det == linalg.det(m)
            assert v.sigma == linalg.signature(m)
            assert v.c_squared == sum(xi * ri for xi, ri in zip(x, pres.rho))
            assert v.d3_value == d3(pres)
            assert abs(v.det) == (h + 1) * (2 * k - 1) + 2
            match = v.d3_value in v.census_d3
            if v.status == OVERTWISTED_CERTIFIED:
                assert not match
            else:
                assert v.status == INCONCLUSIVE
                assert match


def test_verdict_domain_errors():
    with pytest.raises(ValueError):
        overtwisted_verdict(0, 1)


def test_family_presentation_rejects_unexpanded():
    from openbooks.contact import presentation_for
    from openbooks.d3 import from_expanded_diagram

    with pytest.raises(ValueError):
        from_expanded_diagram(presentation_for(1, 2))
