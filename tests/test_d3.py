import math
import random
from fractions import Fraction

import pytest

from openbooks import linalg
from openbooks.contact import (
    ContactSurgeryDiagram,
    LegendrianUnknotData,
    expand_to_unit_coefficients,
    presentation_for,
)
from openbooks.d3 import (
    INCONCLUSIVE,
    OVERTWISTED_CERTIFIED,
    PM1Presentation,
    census_size_formula,
    d3,
    d3_terms,
    overtwisted_verdict,
    tight_census,
)
from openbooks.lens import LensSpace, cf_evaluate, family_lens, neg_cf_expand
from openbooks.linalg import SingularMatrixError, signature
from openbooks.report import run_family

from oracles import (
    dense_det,
    dense_solve,
    family_presentation,
    jacobi_signature,
    leading_minors,
    signature_oracle,
)
from test_linalg import solve_dense


def chain_pm1(chain, rot, q_plus=0):
    n = len(chain)
    q = [[0] * n for _ in range(n)]
    for i, a in enumerate(chain):
        q[i][i] = a
    for i in range(n - 1):
        q[i][i + 1] = q[i + 1][i] = 1
    return PM1Presentation(tuple(tuple(r) for r in q), tuple(rot), q_plus)


def insert_cancelling_pair(pres):
    n = len(pres.q)
    q = [list(row) + [0, 0] for row in pres.q]
    q.append([0] * n + [0, -1])
    q.append([0] * n + [-1, -2])
    return PM1Presentation(
        tuple(tuple(r) for r in q), pres.rho + (0, 0), pres.q_plus + 1
    )


def chain_diagram(chain, rot):
    """The chain as an expanded contact surgery diagram whose Q is
    chain_pm1(chain, rot).q: knot i has tb a_i + 1, rotation r_i and
    coefficient -1, and links its neighbours once."""
    knots = [LegendrianUnknotData(f"c{i}", a + 1, r, Fraction(-1))
             for i, (a, r) in enumerate(zip(chain, rot))]
    return ContactSurgeryDiagram.build(knots, {(f"c{i}", f"c{i + 1}"): 1 for i in range(len(chain) - 1)})


def insert_cancelling_knots(d, tb, rot, links):
    """d with a Legendrian unknot P (tb, rot) of coefficient +1 and its
    contact pushoff P1 of coefficient -1 added: P1 links P at tb, and both
    link each knot of d as `links` {id: lk} says."""
    pair = [LegendrianUnknotData(name, tb, rot, Fraction(sign)) for name, sign in (("P", 1), ("P1", -1))]
    linking = {(i, j): w for i, j, w in d.linking}
    linking["P", "P1"] = tb
    for c, w in links.items():
        linking[c, "P"] = linking[c, "P1"] = w
    return ContactSurgeryDiagram.build(d.knots + tuple(pair), linking)


def criterion_4_chains():
    """The 100 random (chain, rotation vector, q_+) that criterion 4 draws."""
    rng = random.Random(0xD3)
    for _ in range(100):
        n = rng.randint(1, 6)
        chain = [-rng.randint(2, 6) for _ in range(n)]
        rot = [rng.choice(range(a + 2, -a - 1, 2)) for a in chain]
        yield chain, rot, rng.randint(0, 2)


EMPTY = ContactSurgeryDiagram((), ())


def test_calibration_empty_presentation():
    assert d3_terms(EMPTY) == (Fraction(-1, 2), 1, 0, 0, 0)


def test_calibration_cancelling_pair():
    # the standard unknot with coefficient +1 and its pushoff with -1: Q is
    # [[0, -1], [-1, -2]], and S^3 keeps d3 = -1/2
    pair = insert_cancelling_knots(EMPTY, -1, 0, {})
    assert d3_terms(pair) == (Fraction(-1, 2), -1, 0, 0, 1)


def test_family_1_1_exact_data():
    pres = family_presentation(1, 1)
    assert pres.q == ((-1, -2, -2), (-2, -1, -2), (-2, -2, -4))
    assert pres.rho == (-1, -1, -2)
    assert pres.q_plus == 2
    q = [list(r) for r in pres.q]
    assert dense_solve(q, pres.rho) == [0, 0, Fraction(1, 2)]
    assert solve_dense(q, [pres.rho]) == (4, -1, [-1])  # det, sigma, c^2 = rho . x
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


def _oracle_census_d3(chain):
    """d3 of every census rotation vector r on the chain, by the dense oracle:
    c^2 = r . x with Q x = r, where x is the sum of r_j times dense_solve's
    column for e_j, so one solve per component with a nonzero rotation;
    sigma = -n, as a chain with every a_i <= -2 is irreducibly diagonally
    dominant with a negative diagonal, so negative definite; chi = 1 + n."""
    n = len(chain)
    q = [list(row) for row in chain_pm1(chain, [0] * n).q]
    columns = {j: dense_solve(q, [int(i == j) for i in range(n)])
               for j, a in enumerate(chain) if a <= -3}

    def value(rot):
        x = [sum(r * columns[j][i] for j, r in enumerate(rot) if r) for i in range(n)]
        c_squared = sum(r * xi for r, xi in zip(rot, x))
        return Fraction(c_squared - 2 * (1 + n) + 3 * n, 4)

    return value


def _random_census_chain(rng):
    """2-4 components framed -3..-5, so the support holds 2-4 of them and
    the census polarizes, with -2 components dealt in between and around."""
    chain = []
    for _ in range(rng.randint(2, 4)):
        chain += [-2] * rng.choice((0, 0, 1, 2)) + [-rng.randint(3, 5)]
    return chain + [-2] * rng.choice((0, 0, 1))


def test_census_counts_small():
    # every L(p, q) with p <= 60, and random chains whose support holds 2-4
    # components, so the census polarizes e_i + e_j: each entry's d3, from
    # the adj(Q) block on the support, must equal a whole elimination of its
    # own rotation vector and the dense oracle
    rng = random.Random(60061)
    spaces = []
    for _ in range(12):
        chain = _random_census_chain(rng)
        x = cf_evaluate([-a for a in chain])
        spaces.append((LensSpace(x.numerator, x.denominator), tuple(chain)))
    spaces += [(LensSpace(p, q), None) for p in range(2, 61) for q in range(1, p)
               if math.gcd(p, q) == 1]
    for space, chain in spaces:
        census = tight_census(space)
        assert len(census) == census_size_formula(space)
        assert chain is None or census[0].chain == chain
        oracle = _oracle_census_d3(census[0].chain)
        for t in census:
            assert t.d3 == d3(chain_pm1(t.chain, t.rot)) == oracle(t.rot)


def test_census_rot_ranges_and_parity():
    for t in tight_census(LensSpace(12, 5)):
        for a, r in zip(t.chain, t.rot):
            assert a + 2 <= r <= -a - 2
            assert (r - a) % 2 == 0


def test_cancelling_pair_insertion_never_changes_d3():
    # a knot of coefficient +1 and its contact pushoff of coefficient -1
    # cancel (Ding-Geiges-Stipsicz 2004) wherever the knot sits: on the
    # chains of criterion 4, written as diagrams, a random such pair linked
    # to the chain keeps d3, sigma and c^2, negates det Q (a hyperbolic
    # block splits off) and adds 1 to q_+; and the chain's d3 through the
    # verdict's rows is its d3 through the dense Q
    rng = random.Random(31337)
    for chain, rot, _ in criterion_4_chains():
        d = chain_diagram(chain, rot)
        value, det, sigma, c_squared, q_plus = d3_terms(d)
        assert value == d3(chain_pm1(chain, rot))
        tb = -rng.randint(1, 4)
        links = {c.id: rng.choice((-2, -1, 0, 0, 1, 2)) for c in d.knots}
        paired = insert_cancelling_knots(d, tb, rng.choice(range(tb + 1, -tb, 2)), links)
        assert d3_terms(paired) == (value, -det, sigma, c_squared, q_plus + 1)


def test_stack_slide_is_a_congruence():
    # _slid_rows writes each pushoff stack slid into a chain; the unstacked
    # diagram writes every pushoff with all its linking, so its rows are Q
    # itself: both give the same terms, det included (det P = 1)
    for h in range(1, 13):
        for k in range(1, 13):
            expanded = expand_to_unit_coefficients(presentation_for(h, k))
            assert d3_terms(expanded) == d3_terms(expanded.unstacked())


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


def _count_linalg_calls(monkeypatch, names):
    calls = dict.fromkeys(names, 0)

    def counted(name):
        fn = getattr(linalg, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(linalg, name, counted(name))
    return calls


def test_verdict_1_1(monkeypatch):
    calls = _count_linalg_calls(monkeypatch, ("det", "signature", "solve"))
    v = overtwisted_verdict(1, 1)
    # one solve for the family Q, one for the census chain
    assert calls == {"det": 0, "signature": 0, "solve": 2}
    assert v.status == OVERTWISTED_CERTIFIED
    assert v.d3_value == Fraction(1, 2)
    assert v.census_d3 == (Fraction(1, 4),)
    assert v.lens == LensSpace(4, 3)
    assert abs(v.det) == 4
    assert v.sigma == -1
    assert v.c_squared == -1
    assert v.q_plus == 2


def test_verdict_eliminates_twice_whatever_the_census_size(monkeypatch):
    # the family Q with its rotation vector, and the census chain with all
    # k of its rotation vectors as right-hand sides of one pass
    calls = _count_linalg_calls(monkeypatch, ("_pivots",))
    for h, k in ((1, 1), (2, 7), (1, 40)):
        calls["_pivots"] = 0
        v = overtwisted_verdict(h, k)
        assert len(v.census_d3) == k
        assert calls == {"_pivots": 2}


def test_family_solve_matches_dense_oracle_at_20_20():
    pres = family_presentation(20, 20)
    m = [list(r) for r in pres.q]
    x = dense_solve(m, pres.rho)
    c_squared = sum(xi * ri for xi, ri in zip(x, pres.rho))
    # sigma = k - h - 1, and c^2 = -(3hk - h + k + 1) / p with p = 821
    assert solve_dense(m, [pres.rho]) == (dense_det(m), -1, [c_squared])
    assert c_squared == Fraction(-1201, 821)


@pytest.mark.parametrize("h, k", [(100, 100), (199, 1), (1, 199)])
def test_verdict_at_the_size_limit_matches_closed_forms(h, k):
    # h + k + 1 = MAX_D3_FAMILY_DIM; closed forms of ROADMAP item 1
    p = (h + 1) * (2 * k - 1) + 2
    v = overtwisted_verdict(h, k)
    assert v.det == (-1) ** (h + 1) * p
    assert v.sigma == k - h - 1
    assert v.c_squared == Fraction(-(3 * h * k - h + k + 1), p)
    assert v.status == OVERTWISTED_CERTIFIED


def test_census_from_one_pass_matches_per_rotation_d3():
    # L(60, 1): one component, 59 rotations; L(997, 1): 995
    for p in (60, 997):
        census = tight_census(LensSpace(p, 1))
        assert len(census) == p - 1
        for t in census:
            assert t.chain == (-p,)
            assert t.d3 == d3(chain_pm1(t.chain, t.rot))


def test_census_work_does_not_grow_with_the_census_size(monkeypatch):
    # the elimination carries one right-hand side per support pair, not one
    # per rotation vector, so its exact divisions do not see the entry count
    def divisions(space):
        calls = _count_linalg_calls(monkeypatch, ("_exact_div",))
        census = tight_census(space)
        monkeypatch.undo()
        return calls["_exact_div"], len(census)

    assert divisions(LensSpace(997, 1)) == (divisions(LensSpace(60, 1))[0], 996)
    big, small = divisions(family_lens(2, 200)), divisions(family_lens(2, 100))
    assert big == (small[0], 200) and small[1] == 100


def test_d3_denominator_check_holds_for_rational_input():
    # Q = [[1/2]], r = (1): c^2 = 2 and d3 = -5/4, but 4|det Q| = 2
    with pytest.raises(ArithmeticError, match="denominator"):
        d3(PM1Presentation(((Fraction(1, 2),),), (1,), 0))
    # Q = [[1/2]], r = (1/2): d3 = (1/2 - 4 - 3)/4 = -13/8 and 2 * d3 is not whole
    with pytest.raises(ArithmeticError, match="denominator"):
        d3(PM1Presentation(((Fraction(1, 2),),), (Fraction(1, 2),), 0))


def test_verdict_consistency_and_lens_match():
    # run_family and overtwisted_verdict eliminate rows written from the
    # expanded diagram's edges; the dense Q of family_presentation, through
    # linalg's dense entry points and the oracles, must give the same terms
    for h in range(1, 13):
        for k in range(1, 13):
            v = run_family(h, k).verdict
            assert v == overtwisted_verdict(h, k)
            assert v.lens == family_lens(h, k)
            pres = family_presentation(h, k)
            m = [list(r) for r in pres.q]
            x = dense_solve(m, pres.rho)
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
