import random
from fractions import Fraction

import pytest

from openbooks.pages import (
    ARCS,
    BOUNDARY_CURVE,
    CURVES,
    FOUR_HOLED_SPHERE,
    PageSpec,
    TwistWord,
    family_word,
    geometric_intersection,
)


def test_family_word_examples():
    assert family_word(1, 1).letters == (("a", 1), ("b", 1), ("c", 1), ("d", 1), ("e", -2))
    assert family_word(2, 3).letters == (("a", 2), ("b", 1), ("c", 1), ("d", 1), ("e", -4))


@pytest.mark.parametrize("h,k", [(1, 0), (0, 1), (0, 0), (-1, 2)])
def test_family_word_domain_errors(h, k):
    with pytest.raises(ValueError):
        family_word(h, k)


def test_family_word_shape_across_grid():
    for h in range(1, 30):
        for k in range(1, 30):
            w = family_word(h, k)
            assert len(w.letters) == 5
            assert sum(exp for name, exp in w.letters if name == "e") == -(k + 1)
            assert sum(exp for name, exp in w.letters if name == "a") == h


def test_geometric_intersections():
    assert geometric_intersection("e", "γ_cd") == 0
    assert geometric_intersection("c", "γ_cd") == 1
    assert geometric_intersection("c", "γ_ab") == 0
    assert geometric_intersection("e", "γ_ab") == 0
    assert geometric_intersection(CURVES["d"], ARCS["γ_cd"]) == 1


def test_geometric_intersection_lookup_errors():
    with pytest.raises(KeyError):
        geometric_intersection("z", "γ_cd")
    with pytest.raises(KeyError):
        geometric_intersection("a", "γ_zz")


def test_boundary_parallel_curves_meet_exactly_their_arcs_once():
    # every boundary-parallel curve meets exactly the arcs ending on its
    # component, with intersection number one
    for name, curve in CURVES.items():
        if not curve.is_boundary_parallel:
            continue
        for arc in ARCS.values():
            expected = 1 if curve.boundary in arc.endpoints else 0
            assert geometric_intersection(name, arc.name) == expected


def test_arc_table_invariants():
    for arc in ARCS.values():
        assert geometric_intersection("e", arc.name) == 0
        assert all(n >= 0 for _, n in arc.intersections)
        assert len(arc.endpoints) == 2


def test_is_positive():
    assert TwistWord((("a", 2), ("b", 1))).is_positive()
    assert TwistWord(()).is_positive()
    assert not family_word(1, 1).is_positive()


def test_normal_form_merges_adjacent_letters():
    w = TwistWord((("a", 1), ("a", 2), ("b", 1), ("b", -1), ("a", 1)))
    # b's cancel, which makes the two a-groups adjacent and merged
    assert w.letters == (("a", 4),)


def test_normal_form_idempotent_on_random_words():
    rng = random.Random(99)
    names = list(CURVES)
    for _ in range(500):
        letters = tuple(
            (rng.choice(names), rng.randint(-3, 3)) for _ in range(rng.randint(0, 10))
        )
        once = TwistWord(letters)
        twice = TwistWord(once.letters)
        assert once.letters == twice.letters


def test_word_composition_and_serialization():
    u = TwistWord((("a", 2),))
    v = TwistWord((("a", 1), ("e", -2)))
    # composition is concatenation in normal form
    assert TwistWord(u.letters + v.letters).letters == (("a", 3), ("e", -2))
    w = family_word(3, 2)
    assert TwistWord.from_jsonable(w.to_jsonable()) == w


def test_word_rejects_unknown_curves_and_zero_exponents():
    with pytest.raises(KeyError):
        TwistWord((("z", 1),))
    # exponents are ints: 1.5 is not truncated to 1, nor True read as 1
    for exp in (1.5, -2.0, True, Fraction(2)):
        with pytest.raises(TypeError):
            TwistWord((("a", exp),))
    assert TwistWord((("a", 0),)).letters == ()


def test_page_specs():
    assert FOUR_HOLED_SPHERE.genus == 0
    assert len(FOUR_HOLED_SPHERE.boundaries) == 4
    assert len(PageSpec(0, ("∂1", "∂2", "∂3")).boundaries) == 3
    assert BOUNDARY_CURVE["∂d"] == "d"
    with pytest.raises(ValueError):
        PageSpec(1, ("x", "y", "z"))
    with pytest.raises(ValueError):
        PageSpec(0, ("x", "y"))


def test_separating_curve_partition():
    e = CURVES["e"]
    assert not e.is_boundary_parallel
    assert frozenset({"∂a", "∂b"}) in e.partition
    assert frozenset({"∂c", "∂d"}) in e.partition
