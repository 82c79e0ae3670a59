from fractions import Fraction

import pytest

from openbooks.contact import (
    STANDARD_UNKNOT_TB_ROT,
    ContactSurgeryDiagram,
    LegendrianUnknotData,
    UnsupportedCoefficientError,
    expand_to_unit_coefficients,
    negative_stabilization,
    presentation_for,
    smooth_diagram,
)
from openbooks.d3 import from_expanded_diagram

from oracles import all_pairs_expansion, contact_lk, h1_oracle, has_integer_framings


def order_formula(h, k):
    return (h + 1) * (2 * k - 1) + 2


def test_stabilization_bookkeeping():
    assert STANDARD_UNKNOT_TB_ROT == (-1, 0)
    assert negative_stabilization((-1, 0)) == (-2, -1)
    assert negative_stabilization((-2, -1)) == (-3, -2)


def test_presentation_components():
    p = presentation_for(1, 1)
    k_e, k_a = p.components
    assert (k_e.tb, k_e.rot, k_e.contact_coeff) == (-2, -1, Fraction(1, 2))
    assert (k_a.tb, k_a.rot, k_a.contact_coeff) == (-3, -2, Fraction(-1))
    assert contact_lk(p, "K_e", "K_a") == -2


def test_presentation_invariants_across_grid():
    for h in range(1, 11):
        for k in range(1, 11):
            p = presentation_for(h, k)
            k_e, k_a = p.components
            assert (k_e.tb, k_e.rot) == (-2, -1)
            assert (k_a.tb, k_a.rot) == (-3, -2)
            assert k_e.contact_coeff == Fraction(1, k + 1)
            assert k_a.contact_coeff == Fraction(-1, h)


def test_presentation_domain_errors():
    with pytest.raises(ValueError):
        presentation_for(0, 1)
    with pytest.raises(ValueError):
        presentation_for(1, 0)


def test_unknot_data_validation():
    with pytest.raises(ValueError):
        LegendrianUnknotData("x", 0, 0, Fraction(1))  # tb must be <= -1
    with pytest.raises(ValueError):
        LegendrianUnknotData("x", -2, 2, Fraction(1))  # |rot| <= |tb| - 1
    with pytest.raises(ValueError):
        LegendrianUnknotData("x", -2, 0, Fraction(1))  # parity of rot vs tb+1
    with pytest.raises(ValueError):
        LegendrianUnknotData("x", -1, 0, Fraction(0))  # nonzero coefficient


def test_smooth_diagram_framings():
    sm = smooth_diagram(presentation_for(1, 1))
    assert [v.framing for v in sm.vertices] == [Fraction(-3, 2), Fraction(-4)]
    assert sm.linking("K_e", "K_a") == -2
    for h in range(1, 8):
        for k in range(1, 8):
            sm = smooth_diagram(presentation_for(h, k))
            assert sm.framing("K_e") == -2 + Fraction(1, k + 1)
            assert sm.framing("K_a") == -3 - Fraction(1, h)


def test_smooth_single_unknot():
    d = ContactSurgeryDiagram.build(
        (LegendrianUnknotData("u", -1, 0, Fraction(-1)),), {}
    )
    assert smooth_diagram(d).framing("u") == -2


def test_rational_diagram_h1_matches_lens_order():
    # |det| of the generalized presentation matrix equals the lens order
    for h in range(1, 11):
        for k in range(1, 11):
            sm = smooth_diagram(presentation_for(h, k))
            assert sm.h1 == order_formula(h, k)
            assert h1_oracle(sm) == order_formula(h, k)


def test_expansion_for_1_1():
    e = expand_to_unit_coefficients(presentation_for(1, 1))
    assert [c.id for c in e.components] == ["K_e.1", "K_e.2", "K_a"]
    assert [c.contact_coeff for c in e.components] == [Fraction(1), Fraction(1), Fraction(-1)]
    # pushoffs of K_e link each other at tb(K_e) = -2
    assert contact_lk(e, "K_e.1", "K_e.2") == -2
    assert contact_lk(e, "K_e.1", "K_a") == -2
    assert contact_lk(e, "K_e.2", "K_a") == -2


def test_expansion_identity_when_coefficient_is_unit():
    comp = LegendrianUnknotData("u", -1, 0, Fraction(1))
    d = ContactSurgeryDiagram.build((comp,), {})
    assert expand_to_unit_coefficients(d) == d


def test_expansion_counts_match_twists():
    # k+1 positive coefficients (negative twists) and h negative ones
    for h in range(1, 11):
        for k in range(1, 11):
            e = expand_to_unit_coefficients(presentation_for(h, k))
            plus = sum(1 for c in e.components if c.contact_coeff == 1)
            minus = sum(1 for c in e.components if c.contact_coeff == -1)
            assert plus == k + 1
            assert minus == h


def test_expansion_preserves_h1():
    for h in range(1, 11):
        for k in range(1, 11):
            p = presentation_for(h, k)
            e = expand_to_unit_coefficients(p)
            sm = smooth_diagram(e)
            assert has_integer_framings(sm)
            assert sm.h1 == order_formula(h, k)
            assert h1_oracle(sm) == order_formula(h, k)


def test_expansion_rejects_general_coefficients():
    bad = ContactSurgeryDiagram.build(
        (LegendrianUnknotData("u", -2, -1, Fraction(2, 3)),), {}
    )
    with pytest.raises(UnsupportedCoefficientError):
        expand_to_unit_coefficients(bad)


def test_diagram_serialization_roundtrip():
    p = presentation_for(2, 3)
    assert ContactSurgeryDiagram.from_jsonable(p.to_jsonable()) == p
    e = expand_to_unit_coefficients(p)
    assert ContactSurgeryDiagram.from_jsonable(e.to_jsonable()) == e
    # the same inexact values inside the document are a ValueError; with no
    # linking, no edge check sees the component
    for key, bad in (("id", 5), ("tb", -2.0), ("tb", True), ("rot", -1.0), ("rot", True)):
        doc = p.to_jsonable()
        doc["components"][0][key] = bad
        doc["linking"] = []
        with pytest.raises(ValueError):
            ContactSurgeryDiagram.from_jsonable(doc)
    for bad in (-2.0, True):
        doc = p.to_jsonable()
        doc["linking"][0][2] = bad
        with pytest.raises(ValueError):
            ContactSurgeryDiagram.from_jsonable(doc)
    # a list given as an object or a string is refused, not read as empty
    for key, bad in (("components", {}), ("linking", ""), ("stacks", ""), ("linking", {}),
                     ("stacks", {})):
        doc = e.to_jsonable()
        doc[key] = bad
        with pytest.raises(ValueError, match="are lists"):
            ContactSurgeryDiagram.from_jsonable(doc)
    with pytest.raises(ValueError, match="are lists"):
        ContactSurgeryDiagram.from_jsonable({"components": {}, "linking": "", "stacks": ""})


def _expand_by_dict_and_build(d):
    # the expansion as a linking dict {(i, j): lk} handed to build, which
    # canonicalizes and re-checks every edge
    groups = []
    for c in d.components:
        count, sign = c.contact_coeff.denominator, c.contact_coeff.numerator
        members = [c] if count == 1 else [
            LegendrianUnknotData(f"{c.id}.{i}", c.tb, c.rot, Fraction(sign))
            for i in range(1, count + 1)
        ]
        groups.append((c, members))
    linking = {}
    for gi, (ci, grp_i) in enumerate(groups):
        for a in range(len(grp_i)):
            for b in range(a + 1, len(grp_i)):
                linking[(grp_i[a].id, grp_i[b].id)] = ci.tb
        for cj, grp_j in groups[gi + 1:]:
            w = contact_lk(d, ci.id, cj.id)
            if w:
                for pa in grp_i:
                    for pb in grp_j:
                        linking[(pa.id, pb.id)] = w
    return ContactSurgeryDiagram.build([p for _, grp in groups for p in grp], linking)


def test_expansion_writes_the_canonical_linking_of_dict_and_build():
    three = ContactSurgeryDiagram.build(
        (LegendrianUnknotData("z", -2, -1, Fraction(-1, 3)),
         LegendrianUnknotData("b", -1, 0, Fraction(1)),
         LegendrianUnknotData("a", -3, 0, Fraction(1, 11))),
        {("z", "a"): 2, ("b", "a"): -1},
    )
    cases = [presentation_for(h, k) for h in range(1, 13) for k in range(1, 13)] + [three]
    for d in cases:
        expanded = expand_to_unit_coefficients(d)
        # the stacks, written out, are the all-pairs oracle's expansion
        flat = expanded.unstacked()
        assert flat == all_pairs_expansion(d) == _expand_by_dict_and_build(d)
        assert expanded.components == flat.components == flat.knots
        assert smooth_diagram(expanded) == smooth_diagram(flat)
        assert from_expanded_diagram(expanded) == from_expanded_diagram(flat)
        ContactSurgeryDiagram(flat.knots, flat.linking)  # passes the edge rule


def test_expansion_keeps_the_knots_and_adds_one_stack_per_reciprocal_coefficient():
    for h in range(1, 13):
        for k in range(1, 13):
            d = presentation_for(h, k)
            e = expand_to_unit_coefficients(d)
            assert (e.knots, e.linking) == (d.knots, d.linking)
            assert e.stacks == ((("K_a", h, -1),) if h > 1 else ()) + (("K_e", k + 1, 1),)
            assert expand_to_unit_coefficients(e) == e
            assert [(c.id, count, coeff) for c, count, coeff in e.members()] == [
                ("K_e", k + 1, 1), ("K_a", h, -1)]


def test_stacked_json_round_trips_and_a_malformed_stack_is_a_value_error():
    e = expand_to_unit_coefficients(presentation_for(3, 2))
    doc = e.to_jsonable()
    assert doc["stacks"] == [{"companion": "K_a", "count": 3, "sign": -1},
                             {"companion": "K_e", "count": 3, "sign": 1}]
    assert ContactSurgeryDiagram.from_jsonable(doc) == e
    doc["stacks"].reverse()  # stacks are sorted on parsing, as edges are
    assert ContactSurgeryDiagram.from_jsonable(doc) == e
    bad_stacks = [
        {"companion": "K_e", "count": 0, "sign": 1},  # a count < 1
        {"companion": "K_e", "count": -3, "sign": -1},
        {"companion": "K_e", "count": 3, "sign": 0},  # a sign other than +-1
        {"companion": "K_e", "count": 3, "sign": 2},
        {"companion": "K_x", "count": 3, "sign": 1},  # an unknown companion
        {"companion": "K_e", "count": 2, "sign": 1},  # not K_e's coefficient 1/3
        {"companion": "K_e", "count": True, "sign": 1},  # bools and floats
        {"companion": "K_e", "count": 3, "sign": True},
        {"companion": "K_e", "count": 3.0, "sign": 1},
        {"companion": "K_e", "count": 3, "sign": 1.0},
        {"companion": 5, "count": 3, "sign": 1},
        {"companion": "K_e", "count": 3},
    ]
    for bad in bad_stacks:
        doc = e.to_jsonable()
        doc["stacks"][1] = bad
        with pytest.raises(ValueError):
            ContactSurgeryDiagram.from_jsonable(doc)
    doc = e.to_jsonable()
    doc["stacks"].append(dict(doc["stacks"][1]))  # a repeated companion
    with pytest.raises(ValueError):
        ContactSurgeryDiagram.from_jsonable(doc)
    for bad in (5, "K_e", None, [["K_e", 3, 1]]):
        doc = e.to_jsonable()
        doc["stacks"] = bad
        with pytest.raises(ValueError):
            ContactSurgeryDiagram.from_jsonable(doc)


def test_a_stack_refuses_a_pushoff_id_that_is_taken():
    def doc(other):
        return {"components": [{"id": "K", "tb": -1, "rot": 0, "coeff": "1/2"},
                               {"id": other, "tb": -1, "rot": 0, "coeff": "1"}],
                "linking": [], "stacks": [{"companion": "K", "count": 2, "sign": 1}]}

    for taken in ("K.1", "K.2"):
        with pytest.raises(ValueError, match="taken"):
            ContactSurgeryDiagram.from_jsonable(doc(taken))
    # ids that only look like pushoff ids of K
    for free in ("K.0", "K.01", "K.3", "K.1.1", "K.\u0661", "K1", "L.1"):
        d = ContactSurgeryDiagram.from_jsonable(doc(free))
        assert [c.id for c in d.components] == ["K.1", "K.2", free]


def test_expansion_refuses_a_pushoff_id_that_is_taken():
    # K at coefficient 1/2 expands to K.1 and K.2, and K.1 is already there
    d = ContactSurgeryDiagram.build(
        (LegendrianUnknotData("K", -1, 0, Fraction(1, 2)),
         LegendrianUnknotData("K.1", -1, 0, Fraction(1))),
        {("K", "K.1"): 1},
    )
    with pytest.raises(ValueError):
        expand_to_unit_coefficients(d)


def test_contact_coefficients_are_exact():
    for coeff in (0.5, True, "1/2", None):
        with pytest.raises(TypeError):
            LegendrianUnknotData("x", -1, 0, coeff)
    # the id is a str and tb and rot are ints
    for cid, tb, rot in ((5, -2, -1), ("x", -2.0, -1), ("x", -2, True), ("x", Fraction(-2), -1)):
        with pytest.raises(TypeError):
            LegendrianUnknotData(cid, tb, rot, 1)
    assert type(LegendrianUnknotData("x", -1, 0, -1).contact_coeff) is Fraction
