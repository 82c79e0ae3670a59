import gc
import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from openbooks.contact import presentation_for, smooth_diagram
from openbooks.d3 import overtwisted_verdict
from openbooks.diagram import (
    INFINITE,
    FramedLinkDiagram,
    InvariantViolationError,
    ScriptState,
    Vertex,
)
from openbooks.kirby import (
    MOVES,
    IllegalMoveError,
    blow_down,
    blow_up,
    handle_slide,
    inverse_slam_dunk,
    reduce_family_diagram,
    replay,
    reverse_orientation,
    slam_dunk,
)
from openbooks.lens import chain_to_lens, family_lens, lens_equal
from openbooks.linalg import det, signature
from openbooks.pages import family_word
from openbooks.report import run_family
from openbooks.serialize import canonical_dumps, canonical_line
from openbooks.veering import destabilization_report

from diagram_gen import (
    exercise_moves,
    exercise_long_script,
    exercise_script,
    is_forest,
    random_chain,
    random_cyclic,
    random_diagram,
    random_forest,
)
from oracles import h1_oracle, has_integer_framings, linking_matrix


def chain(*framings, weight=1):
    vs = [(f"c{i}", f) for i, f in enumerate(framings)]
    es = {(f"c{i}", f"c{i+1}"): weight for i in range(len(framings) - 1)}
    return FramedLinkDiagram.build(vs, es)


def test_h1_order_examples():
    assert FramedLinkDiagram.build([], {}).h1 == 1
    assert FramedLinkDiagram.build([("x", 0)], {}).h1 is INFINITE
    d = FramedLinkDiagram.build(
        [("x", Fraction(-3, 2)), ("y", -4)], {("x", "y"): -2}
    )
    assert d.h1 == 4  # det [[-3, -4], [-2, -4]]


def test_blow_down_chain_to_s1xs2():
    d = chain(-2, -1, -2)
    assert d.h1 is INFINITE
    d = blow_down(d, "c1")
    assert [v.framing for v in d.vertices] == [-1, -1]
    assert d.linking("c0", "c2") == 1
    assert d.h1 is INFINITE
    d = blow_down(d, "c0")
    assert [v.framing for v in d.vertices] == [0]
    assert d.h1 is INFINITE


def test_blow_down_split_unknot():
    d = FramedLinkDiagram.build([("x", 1)], {})
    assert blow_down(d, "x").vertices == ()


def test_blow_down_preconditions():
    with pytest.raises(IllegalMoveError):
        blow_down(chain(-2, -1), "c0")  # framing not +-1
    knotted = FramedLinkDiagram.build([("x", Fraction(1), False)], {})
    with pytest.raises(IllegalMoveError):
        blow_down(knotted, "x")
    with pytest.raises(IllegalMoveError):
        blow_down(chain(-2), "zz")


def test_blow_up_then_down_is_identity():
    d = chain(-2, 3, 7)
    up = blow_up(d, 1, {"c0": 1, "c2": -2}, new_id="b")
    assert blow_down(up, "b").same_diagram(d)
    up = blow_up(d, -1, {}, new_id="b")
    assert up.framing("b") == -1
    assert up.h1 == d.h1
    assert blow_down(up, "b").same_diagram(d)


def test_blow_up_family_step():
    # two +1-blowups linking both components raise both framings by 2
    # and the edge from -2 to 0
    from openbooks.contact import presentation_for, smooth_diagram

    d = smooth_diagram(presentation_for(1, 1))
    d = blow_up(d, 1, {"K_e": 1, "K_a": 1})
    d = blow_up(d, 1, {"K_e": 1, "K_a": 1})
    assert d.framing("K_e") == Fraction(-3, 2) + 2
    assert d.framing("K_a") == -2
    assert d.linking("K_e", "K_a") == 0


def test_inverse_slam_dunk_forced_splits():
    d = FramedLinkDiagram.build([("v", Fraction(1, 3))], {})
    d2 = inverse_slam_dunk(d, "v", n=0, leaf_id="w")
    assert d2.framing("v") == 0
    assert d2.framing("w") == -3
    assert d2.linking("v", "w") == 1

    d = FramedLinkDiagram.build([("v", Fraction(-3, 2))], {})
    d2 = inverse_slam_dunk(d, "v", n=-1, leaf_id="w")
    assert d2.framing("v") == -1
    assert d2.framing("w") == 2


def test_inverse_slam_dunk_canonical():
    d = FramedLinkDiagram.build([("v", Fraction(-3, 2))], {})
    d2 = inverse_slam_dunk(d, "v")
    assert d2.framing("v") == -2
    assert d2.framing("v_leaf") == -2
    assert Fraction(-2) - 1 / Fraction(-2) == Fraction(-3, 2)


def test_inverse_slam_dunk_errors():
    d = FramedLinkDiagram.build([("v", 3)], {})
    with pytest.raises(IllegalMoveError):
        inverse_slam_dunk(d, "v")  # integer framing, no forced split
    with pytest.raises(IllegalMoveError):
        inverse_slam_dunk(d, "v", n=3)  # split equal to the framing


def test_slam_dunk_undoes_inverse():
    d = chain(-2, -5, 4)
    d2 = inverse_slam_dunk(d, "c2", n=3, leaf_id="w")
    back = slam_dunk(d2, "w")
    assert back.same_diagram(d)


def test_slam_dunk_chain_of_two():
    d = chain(-2, -2)
    d2 = slam_dunk(d, "c1")
    assert [v.framing for v in d2.vertices] == [Fraction(-3, 2)]


def test_slam_dunk_family_chain_collapses_to_surgery_coefficient():
    for h in range(1, 7):
        for k in range(1, 7):
            framings = [-2, -(k + 1)] + [-2] * h
            d = chain(*framings)
            while len(d.vertices) > 1:
                leaf = d.vertices[-1].id
                d = slam_dunk(d, leaf)
            p = (h + 1) * (2 * k - 1) + 2
            q = (h + 1) * k + 1
            assert d.vertices[0].framing == Fraction(-p, q)


def test_slam_dunk_preconditions():
    with pytest.raises(IllegalMoveError):
        slam_dunk(chain(-2, -3, -2), "c1")  # not a leaf
    d = FramedLinkDiagram.build(
        [("v", Fraction(1, 2)), ("w", 4)], {("v", "w"): 1}
    )
    with pytest.raises(IllegalMoveError):
        slam_dunk(d, "w")  # neighbor framing is rational
    d = chain(-2, 0)
    with pytest.raises(IllegalMoveError):
        slam_dunk(d, "c1")  # 0-framed leaf


def test_handle_slide_preserves_det_and_signature():
    rng = random.Random(5)
    for _ in range(200):
        d = random_diagram(rng, rational_prob=0.0)
        ids = [v.id for v in d.vertices]
        if len(ids) < 2:
            continue
        i, j = rng.sample(ids, 2)
        s = rng.choice((1, -1))
        slid = handle_slide(d, i, j, s)
        m0, m1 = linking_matrix(d), linking_matrix(slid)
        assert det(m0) == det(m1)
        assert signature(m0) == signature(m1)
        assert slid.h1 == d.h1


def test_handle_slide_rejects_rational_framings():
    d = FramedLinkDiagram.build(
        [("v", Fraction(1, 2)), ("w", 4)], {("v", "w"): 1}
    )
    with pytest.raises(IllegalMoveError):
        handle_slide(d, "v", "w", 1)
    with pytest.raises(IllegalMoveError):
        handle_slide(d, "w", "w", 1)


def test_reverse_orientation_flips_incident_edges_only():
    d = chain(-2, -3, -2)
    r = reverse_orientation(d, "c1")
    assert r.linking("c0", "c1") == -1
    assert r.linking("c1", "c2") == -1
    assert [v.framing for v in r.vertices] == [v.framing for v in d.vertices]
    assert r.h1 == d.h1
    assert reverse_orientation(r, "c1").same_diagram(d)


def test_family_intermediate_pictures():
    # replay the scripted reduction by hand and check the two labeled
    # intermediate states: after the blowups and dunks, and after the
    # slide plus the two +1-blowdowns
    from openbooks.contact import presentation_for, smooth_diagram

    for h, k in [(1, 1), (3, 2), (2, 5)]:
        d = smooth_diagram(presentation_for(h, k))
        d = blow_up(d, 1, {"K_e": 1, "K_a": 1}, new_id="p1")
        d = blow_up(d, 1, {"K_e": 1, "K_a": 1}, new_id="p2")
        d = inverse_slam_dunk(d, "K_e", n=0, leaf_id="L_e")
        d = inverse_slam_dunk(d, "K_a", n=-1, leaf_id="L_a")
        # second picture: 0- and -1-framed components, two +1 circles,
        # leaves framed -(k+1) and h
        assert d.framing("K_e") == 0
        assert d.framing("K_a") == -1
        assert d.framing("p1") == d.framing("p2") == 1
        assert d.framing("L_e") == -(k + 1)
        assert d.framing("L_a") == h
        assert d.linking("K_e", "K_a") == 0

        d = handle_slide(d, "K_a", "K_e", -1)
        d = blow_down(d, "p1")
        d = blow_down(d, "p2")
        # third picture: the chain h, -1, -(k+1), -2
        assert sorted(v.id for v in d.vertices) == ["K_a", "K_e", "L_a", "L_e"]
        assert d.framing("L_a") == h
        assert d.framing("K_a") == -1
        assert d.framing("L_e") == -(k + 1)
        assert d.framing("K_e") == -2
        assert abs(d.linking("L_a", "K_a")) == 1
        assert abs(d.linking("K_a", "L_e")) == 1
        assert abs(d.linking("L_e", "K_e")) == 1
        assert d.is_linear_chain()


def test_move_log_records_have_constant_h1():
    d = reduce_family_diagram(3, 2)
    order = 4 * 3 + 2
    assert len(d.move_log) > 0
    for rec in d.move_log:
        assert rec.h1_before == order
        assert rec.h1_after == order


def test_reduce_family_examples():
    assert [v.framing for v in reduce_family_diagram(1, 1).vertices] == [-2, -2, -2]
    d21 = reduce_family_diagram(2, 1)
    assert sorted(v.framing for v in d21.vertices) == [-2, -2, -2, -2]
    assert d21.h1 == 5
    d12 = reduce_family_diagram(1, 2)
    assert d12.chain_framings() in ([-2, -3, -2], [-2, -3, -2][::-1])
    assert d12.h1 == 8


def test_reduce_family_chain_shape():
    for h in range(1, 9):
        for k in range(1, 9):
            d = reduce_family_diagram(h, k)
            assert d.is_linear_chain()
            assert all(w == 1 for _, _, w in d.edges)
            framings = d.chain_framings()
            expected = [Fraction(-2), Fraction(-(k + 1))] + [Fraction(-2)] * h
            assert framings in (expected, expected[::-1])
            assert lens_equal(
                chain_to_lens(framings), family_lens(h, k), oriented=True
            )


def test_reduce_family_signature_walk():
    # per-move signature bookkeeping on a replay of the recorded script:
    # +-1 blowups shift the signature by their sign, every other move
    # preserves it (slides by congruence, dunks and flips trivially)
    from openbooks.contact import presentation_for, smooth_diagram

    for h, k in [(1, 1), (2, 3), (4, 2), (5, 5)]:
        final = reduce_family_diagram(h, k)
        d = smooth_diagram(presentation_for(h, k))
        for rec in final.move_log:
            args = dict(rec.args)
            before_sig = (
                signature(linking_matrix(d)) if has_integer_framings(d) else None
            )
            if rec.move == "blow_up":
                d = blow_up(d, args["sign"], dict(args["star"]), args["id"])
                if before_sig is not None:
                    assert signature(linking_matrix(d)) == before_sig + args["sign"]
            elif rec.move == "blow_down":
                d = blow_down(d, args["vertex"])
                if before_sig is not None and has_integer_framings(d):
                    assert signature(linking_matrix(d)) == before_sig - args["sign"]
            elif rec.move == "inverse_slam_dunk":
                d = inverse_slam_dunk(d, args["vertex"], args["n"], args["leaf"])
            elif rec.move == "slam_dunk":
                d = slam_dunk(d, args["leaf"])
            elif rec.move == "handle_slide":
                d = handle_slide(d, args["slide"], args["over"], args["sign"])
                if before_sig is not None:
                    assert signature(linking_matrix(d)) == before_sig
            elif rec.move == "reverse_orientation":
                d = reverse_orientation(d, args["vertex"])
                if before_sig is not None:
                    assert signature(linking_matrix(d)) == before_sig
        assert d.same_diagram(final)


def test_replay_script_matches_direct_calls():
    d = chain(-2, Fraction(-7, 3))
    script = [
        {"move": "inverse_slam_dunk", "args": {"vertex": "c1", "leaf": "L"}},
        {"move": "blow_up", "args": {"sign": -1, "star": {"c0": 1, "c1": 1}, "id": "B"}},
        {"move": "blow_down", "args": {"vertex": "B"}},
        {"move": "reverse_orientation", "args": {"vertex": "c0"}},
    ]
    replayed = replay(d, script)
    direct = inverse_slam_dunk(d, "c1", leaf_id="L")
    direct = blow_up(direct, -1, {"c0": 1, "c1": 1}, new_id="B")
    direct = blow_down(direct, "B")
    direct = reverse_orientation(direct, "c0")
    assert replayed.same_diagram(direct)
    with pytest.raises(IllegalMoveError):
        replay(d, [{"move": "rolfsen_twist", "args": {}}])


def test_diagram_serialization_roundtrip():
    d = reduce_family_diagram(2, 2)
    back = FramedLinkDiagram.from_jsonable(d.to_jsonable())
    assert back.same_diagram(d)
    # lists given as an object or a string are refused, not read as empty
    # lists: {"vertices": {}, "edges": {}} once parsed to the empty diagram
    for doc in ({"vertices": {}, "edges": {}}, {"vertices": "", "edges": []},
                {"vertices": [], "edges": "ab"}, {"vertices": [], "edges": {}}):
        with pytest.raises(ValueError, match="are lists"):
            FramedLinkDiagram.from_jsonable(doc)


def test_linear_chain_walk():
    assert not FramedLinkDiagram.build([], {}).is_linear_chain()
    assert FramedLinkDiagram.build([("x", 3)], {}).chain_framings() == [3]
    # read from the endpoint that comes first in vertex order
    d = FramedLinkDiagram.build(
        [("m", -3), ("z", -4), ("a", -2)], {("a", "m"): 1, ("m", "z"): -1}
    )
    assert d.chain_framings() == [-4, -3, -2]
    not_chains = [
        {("c", "x"): 1, ("c", "y"): 1, ("c", "z"): 1, ("z", "t"): 1},  # a branch
        {("x", "y"): 1, ("y", "z"): 1, ("x", "z"): 1, ("t", "c"): 1},  # a cycle
        {("p", "q"): 1, ("q", "r"): 1, ("r", "s"): 1, ("q", "s"): 1},  # a loop, t apart
        {("c", "x"): 2, ("x", "y"): 1, ("y", "z"): 1, ("z", "t"): 1},  # weight 2
    ]
    for edges in not_chains:
        ids = sorted({v for pair in edges for v in pair} | {"t"})
        d = FramedLinkDiagram.build([(v, -2) for v in ids], edges)
        assert not d.is_linear_chain()
        with pytest.raises(ValueError):
            d.chain_framings()


def test_replay_accepts_its_own_json_move_log():
    # the log writes each blow-up star as [id, weight] pairs
    from openbooks.contact import presentation_for, smooth_diagram
    from openbooks.serialize import canonical_dumps

    d = reduce_family_diagram(3, 2)
    moves = json.loads(canonical_dumps(d.to_jsonable()))["moves"]
    assert any(isinstance(m["args"].get("star"), list) for m in moves)
    replayed = replay(smooth_diagram(presentation_for(3, 2)), moves)
    assert replayed.same_diagram(d)
    assert replayed.move_log == d.move_log


@pytest.mark.parametrize("step", [
    {"move": "blow_down", "args": {"vertex": ["c0"]}},
    {"move": "blow_down", "args": {"vertex": None}},
    {"move": "inverse_slam_dunk", "args": {"vertex": "c1", "n": [1]}},
    {"move": "inverse_slam_dunk", "args": {"vertex": "c1", "leaf": 3}},
    {"move": "blow_up", "args": {"sign": "1"}},
    {"move": "blow_up", "args": {"sign": True}},
    {"move": "blow_up", "args": {"sign": 1, "star": {"c0": "1"}}},
    {"move": "blow_up", "args": {"sign": 1, "star": [["c0"]]}},
    {"move": "blow_up", "args": {"sign": 1, "star": 5}},
    {"move": "handle_slide", "args": {"slide": "c0", "over": {"c1": 1}, "sign": 1}},
    # a star names each id at most once: the log would keep only one weight
    {"move": "blow_up", "args": {"sign": 1, "star": [["c0", 1], ["c0", 2]]}},
])
def test_replay_rejects_mistyped_arguments(step):
    with pytest.raises(ValueError, match="wrong type"):
        replay(chain(-2, -3), [step])


def test_a_script_never_touches_its_input():
    # replay runs its script on a private working copy; the parsed input,
    # its cached |H1| and the fold messages it carries stay as they were,
    # whether the script fails at a later step or succeeds
    jsonable = reduce_family_diagram(6, 2).to_jsonable()
    del jsonable["moves"]
    d = FramedLinkDiagram.from_jsonable(jsonable)
    ids = [v.id for v in d.vertices]

    def snapshot():
        return (d.vertices, d.edges, d.h1, [d.neighbors(i) for i in ids],
                [d.linking(i, j) for i in ids for j in ids])

    def one_move_at_each_vertex():
        # each refolds |H1| from the input's fold messages
        return [reverse_orientation(d, i) for i in ids] + [blow_up(d, 1, {i: 1}) for i in ids]

    before = snapshot()
    moved = one_move_at_each_vertex()
    steps = [
        {"move": "blow_up", "args": {"sign": -1, "star": {ids[1]: 1, ids[2]: 1}, "id": "y"}},
        {"move": "reverse_orientation", "args": {"vertex": ids[2]}},
        {"move": "handle_slide", "args": {"slide": ids[0], "over": ids[1], "sign": 1}},
        {"move": "blow_down", "args": {"vertex": "y"}},
    ]
    with pytest.raises(IllegalMoveError):
        replay(d, steps + [{"move": "blow_down", "args": {"vertex": "nope"}}])
    assert snapshot() == before
    result = replay(d, steps)
    assert [r.move for r in result.move_log] == [s["move"] for s in steps]
    assert snapshot() == before
    again = one_move_at_each_vertex()
    assert all(a.same_diagram(m) and a.move_log == m.move_log for a, m in zip(again, moved))
    assert reduce_family_diagram(40, 3).move_log == reduce_family_diagram(40, 3).move_log


def test_move_data_that_changes_h1_is_refused():
    # the congruence data of a real move keeps |H1|; data that does not is
    # an InvariantViolationError, on a chain (a local refold) and on a
    # triangle (the whole matrix)
    triangle = FramedLinkDiagram.build(
        [("a", 2), ("b", 3), ("c", 5)], {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1}
    )
    for d in (chain(-2, -3, -2), triangle):
        with pytest.raises(InvariantViolationError, match="changed"):
            d.apply_move("test", (), shifts={d.vertices[0].id: 1})
        assert d.h1 == h1_oracle(d)


def test_move_data_that_is_not_an_int_is_refused():
    # a float delta would write a float linking number and a bool or
    # Fraction shift would be read as an int: each is a TypeError through
    # both apply_move methods, raised before the state is edited
    d = FramedLinkDiagram.build([("a", -2), ("b", -3)], {("a", "b"): 1})
    for data in ({"deltas": {("a", "b"): 0.0}}, {"shifts": {"a": True}},
                 {"shifts": {"b": Fraction(1)}}):
        with pytest.raises(TypeError, match="must be an int"):
            d.apply_move("test", (), **data)
        s = ScriptState(d)
        with pytest.raises(TypeError, match="must be an int"):
            s.apply_move("test", (), framings={"a": -5}, **data)
        frozen = s.apply_move("nothing", ()).freeze()
        assert (frozen.vertices, frozen.edges, frozen.h1) == (d.vertices, d.edges, 5)
        assert d.edges == (("a", "b", 1),) and not d.move_log


def test_a_frozen_script_state_ends():
    # the frozen diagram takes over the state's maps, so a read or a move on
    # the state after freeze() fails instead of editing a diagram in place
    d = reduce_family_diagram(4, 2)
    v = d.vertices[1].id
    s = ScriptState(d)
    reverse_orientation(s, v)
    frozen = s.freeze()
    ids = [u.id for u in frozen.vertices]
    view = (frozen.vertices, frozen.edges, [frozen.neighbors(i) for i in ids],
            [frozen.linking(i, j) for i in ids for j in ids], frozen.move_log)
    for late in (lambda: v in s, lambda: s.linking(v, ids[0]), lambda: reverse_orientation(s, v),
                 lambda: blow_up(s, 1, {v: 1}), lambda: s.apply_move("x", (), {v: 1})):
        with pytest.raises((TypeError, AttributeError)):
            late()
    assert (frozen.vertices, frozen.edges, [frozen.neighbors(i) for i in ids],
            [frozen.linking(i, j) for i in ids for j in ids], frozen.move_log) == view
    assert frozen.same_diagram(reverse_orientation(d, v))
    assert ScriptState(d).freeze() is d


def test_a_script_builds_one_vertex_per_changed_vertex(monkeypatch):
    # inside a script framings are integer ratios, so a checked Vertex is
    # built only for the start diagram (2) and the seven move preconditions
    # that read one (an orientation flip tests only membership); freeze
    # builds one Vertex per appended or re-framed vertex from values checked
    # where they entered the script, without __post_init__.  A Vertex per
    # framing change would add two or three per move
    calls = []
    post_init = Vertex.__post_init__

    def counting(self):
        calls.append(self.id)
        post_init(self)

    monkeypatch.setattr(Vertex, "__post_init__", counting)
    checked = []
    for h in (40, 160):
        del calls[:]
        d = reduce_family_diagram(h, 3)
        assert len(d.move_log) == h + 9
        checked.append(len(calls))
        assert all(v == Vertex(v.id, v.framing, v.is_unknot) for v in d.vertices)
    assert checked[0] == checked[1] == 9


def test_an_appended_id_is_checked_where_it_enters_the_script():
    # freeze builds the appended vertices without Vertex's checks, so a
    # move refuses an id that is not a str before it edits anything; a
    # falsy one (0) is refused too, not replaced by the default id
    d = chain(-2, -3)
    for move in (lambda s: blow_up(s, 1, {}, new_id=5),
                 lambda s: blow_up(s, -1, {"c0": 1}, new_id=5),
                 lambda s: blow_up(s, 1, {}, new_id=0),
                 lambda s: inverse_slam_dunk(s, "c1", n=0, leaf_id=5),
                 lambda s: inverse_slam_dunk(s, "c1", n=0, leaf_id=0),
                 lambda s: s.apply_move("test", (), append=(None, 1))):
        with pytest.raises(TypeError, match="a vertex id is a str"):
            move(d)
        s = ScriptState(d)
        with pytest.raises(TypeError):
            move(s)
        assert s.freeze() is d
    # the star is checked before the id: an unknown vertex, then a bad weight
    with pytest.raises(IllegalMoveError, match="unknown vertex 'x'"):
        blow_up(d, 1, {"x": 1.5}, new_id=5)
    with pytest.raises(TypeError, match="a star weight"):
        blow_up(d, 1, {"c0": 1.5}, new_id=5)


def _fold_work(monkeypatch):
    """Per move from now on: (_Fold.fold_at calls, adjacency rows the
    script copied), read around each ScriptState.apply_move."""
    from openbooks.diagram import _Fold

    work = []
    calls = [0]
    fold_at, apply_move = _Fold.fold_at, ScriptState.apply_move

    def counting_fold_at(self, *args):
        calls[0] += 1
        return fold_at(self, *args)

    def counting_apply_move(self, *args, **kwargs):
        start, owned = calls[0], len(self._copied)
        apply_move(self, *args, **kwargs)
        work.append((calls[0] - start, len(self._copied) - owned))
        return self

    monkeypatch.setattr(_Fold, "fold_at", counting_fold_at)
    monkeypatch.setattr(ScriptState, "apply_move", counting_apply_move)
    return work


def test_each_family_loop_blow_up_does_the_same_fold_work_for_any_h(monkeypatch):
    # the loop's blow-ups refold three vertices and own one new row (the
    # appended vertex's) whatever h: no fold work or row copy grows with h
    work = _fold_work(monkeypatch)
    loops = []
    for h in (50, 500):
        del work[:]
        d = reduce_family_diagram(h, 2)
        assert len(work) == len(d.move_log) == h + 9
        # the loop's blow-ups append t1, t2, ...: the id is the first argument
        loop = [w for w, r in zip(work, d.move_log)
                if r.move == "blow_up" and r.args[0][1].startswith("t")]
        assert len(loop) == h - 1
        loops.append(set(loop))
    assert loops[0] == loops[1] == {(3, 1)}


def test_a_one_move_script_on_a_large_tree_copies_only_its_region_rows(monkeypatch):
    work = _fold_work(monkeypatch)
    rng = random.Random(2205)
    d = random_forest(rng, max_vertices=200, max_trees=1, min_vertices=200)
    assert d.h1 and d._messages is not None  # one tree, folded whole
    for v in rng.sample([u.id for u in d.vertices], 8):
        s = ScriptState(d)
        blow_up(s, 1, {v: 1}, new_id="new")
        # v's row (one delta, to the new vertex) and the new row: the rest
        # of the adjacency is still the input's own
        assert s._copied == {v, "new"}
        assert sum(s._adjacency[u.id] is not d._adjacency[u.id] for u in d.vertices) == 1
        assert work[-1][1] == 2
        assert s.freeze().move_log[-1].h1_after == d.h1


def test_frozen_framings_are_fractions():
    d = reduce_family_diagram(12, 3)
    moves = json.loads(canonical_dumps(d.to_jsonable()))["moves"]
    replayed = replay(smooth_diagram(presentation_for(12, 3)), moves)
    rational = FramedLinkDiagram.build([("a", Fraction(-7, 3)), ("b", 2), ("c", 1)],
                                       {("a", "b"): 1, ("b", "c"): 2})
    s = ScriptState(rational)
    inverse_slam_dunk(s, "a", leaf_id="x")
    handle_slide(s, "b", "c", 1)
    slam_dunk(s, "x")
    blow_up(s, -1, {"a": 1, "c": -2})
    scripted = s.freeze()
    assert scripted.h1 == h1_oracle(scripted) == h1_oracle(rational)
    for diagram in (d, replayed, scripted, blow_up(rational, 1, {"a": 3})):
        assert all(type(v.framing) is Fraction for v in diagram.vertices)


def test_a_blow_up_and_its_blow_down_restore_rational_framings_exactly():
    d = FramedLinkDiagram.build([("a", Fraction(-3, 2)), ("b", Fraction(7, 5)), ("c", 2)],
                                {("a", "b"): 2, ("b", "c"): 1})
    s = ScriptState(d)
    blow_up(s, 1, {"a": 2, "b": -1}, new_id="e")
    # framing += lk^2, an integer shift of the numerator, still in lowest terms
    assert [s.framing(v) for v in "abce"] == [Fraction(5, 2), Fraction(12, 5), 2, 1]
    assert all(q >= 1 and math.gcd(p, q) == 1 for p, q in s._ratios.values())
    blow_down(s, "e")
    restored = s.freeze()
    assert restored.same_diagram(d)
    assert [v.framing.as_integer_ratio() for v in restored.vertices] == [(-3, 2), (7, 5), (2, 1)]
    assert [r.h1_after for r in restored.move_log] == [h1_oracle(d)] * 2
    assert blow_down(blow_up(d, -1, {"a": 1, "b": 3}), "u").same_diagram(d)


def test_framings_are_exact():
    for bad in (0.1, 1.0, True, "1/2", None):
        with pytest.raises(TypeError):
            Vertex("x", bad)
        with pytest.raises(TypeError):
            FramedLinkDiagram.build([("a", bad)], {})
    with pytest.raises(TypeError):
        FramedLinkDiagram.build([("a", 0.1), ("b", True)], {("a", "b"): 1})
    # ids are strs and unknot flags bools; edge weights are ints, not
    # truncated, and check_edges keeps its ValueError
    for v in ((5, 1), (None, 1), ("x", 1, 1), ("x", 1, None)):
        with pytest.raises(TypeError):
            Vertex(*v)
    for w in (1.5, 1.0, True, False, Fraction(1)):
        with pytest.raises(ValueError, match="edge weights must be nonzero integers"):
            FramedLinkDiagram.build([("a", 1), ("b", 2)], {("a", "b"): w})
    d = FramedLinkDiagram.build([("a", 3)], {})
    assert type(d.vertices[0].framing) is Fraction
    for framings, append in (({"a": 0.5}, None), (None, ("b", 0.5)), (None, ("b", False))):
        with pytest.raises(TypeError):
            d.apply_move("test", (), framings, append=append)
    # a move's integer arguments are ints: int() would truncate 3/2 or read True as 1
    c = FramedLinkDiagram.build([("a", -2), ("b", 3)], {("a", "b"): 1})
    for bad in (1.5, Fraction(3, 2), 1.0, True):
        for move in (lambda: blow_up(c, 1, {"a": bad}), lambda: blow_up(c, bad),
                     lambda: inverse_slam_dunk(c, "a", n=bad),
                     lambda: handle_slide(c, "a", "b", bad)):
            with pytest.raises(TypeError):
                move()
    # so are the family's h and k, at each of its entry points; a float went
    # through some of them whole (family_word(1.5, 1) was a b c d e^-2)
    for entry in (family_word, presentation_for, reduce_family_diagram, family_lens,
                  overtwisted_verdict, run_family,
                  lambda h, k: destabilization_report(h, k, None, None)):
        for h, k in ((True, 1), (1, True)):
            with pytest.raises(TypeError):
                entry(h, k)
    for entry in (family_word, family_lens):
        with pytest.raises(TypeError):
            entry(1.5, 1)


def test_move_property_suite_small():
    rng = random.Random(2718)
    moves = 0
    for _ in range(250):
        d = random_diagram(rng)
        moves += exercise_moves(d, rng)
    assert moves >= 750


def test_h1_on_forests_matches_oracle():
    rng = random.Random(1618)
    infinite = 0
    for _ in range(400):
        d = random_forest(rng)
        assert d.h1 == h1_oracle(d)
        infinite += d.h1 is INFINITE
    for n in (1, 2, 100, 400):
        d = random_chain(rng, n)
        assert d.h1 == h1_oracle(d)
    assert infinite >= 20


def test_h1_eliminates_only_graphs_with_a_cycle(monkeypatch):
    import openbooks.diagram as diagram_mod

    calls = []
    eliminate = diagram_mod.det_sparse_rows

    def counting(rows, n):
        calls.append(n)
        return eliminate(rows, n)

    monkeypatch.setattr(diagram_mod, "det_sparse_rows", counting)
    rng = random.Random(1619)
    for _ in range(100):
        d = random_forest(rng)
        assert d.h1 == h1_oracle(d)
    assert calls == []
    # a cycle beside an isolated vertex: fewer edges than vertices
    beside = FramedLinkDiagram.build([("a", 1), ("b", 1), ("c", 1), ("d", 1)],
                                     {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1})
    for d in [*(random_cyclic(rng) for _ in range(100)), beside]:
        assert not is_forest(d)
        assert d.h1 == h1_oracle(d)
    assert len(calls) == 101


def test_h1_of_the_empty_and_one_vertex_diagrams():
    empty = FramedLinkDiagram()
    assert empty.h1 == 1 and empty._messages is None
    for framing, order in ((5, 5), (-3, 3), (0, INFINITE), (Fraction(-7, 2), 7)):
        d = FramedLinkDiagram.build([("x", framing)], {})
        assert d.h1 == order == h1_oracle(d)
        assert d._messages == {}  # one tree, its root carries no message
        up = blow_up(d, 1, {"x": 1})  # refolded from those messages
        assert up.move_log[-1].h1_after == order == h1_oracle(up)


def test_a_forest_carries_no_fold_messages_and_a_move_joining_its_trees_is_folded_whole():
    # c - a and a lone b: sliding a over the 2-framed b links a to b twice,
    # which joins the trees into the path c - a - b
    d = FramedLinkDiagram.build([("a", 3), ("b", 2), ("c", -2)], {("a", "c"): 1})
    assert d.h1 == h1_oracle(d) and d._messages is None
    joined = handle_slide(d, "a", "b", 1)
    assert is_forest(joined) and len(joined.edges) == 2
    assert joined.move_log[-1].h1_after == h1_oracle(joined) == d.h1
    assert joined._messages is not None
    # the joined tree's messages refold the next move
    up = blow_up(joined, -1, {"c": 1})
    assert up.move_log[-1].h1_after == h1_oracle(up) == d.h1


def test_a_long_chain_is_folded_and_refolded_without_recursion():
    # listed in reverse, the chain is folded from its root c19999, and the
    # blow-up at the other end, c00000, reroots all 20,000 messages;
    # recursion that deep would overflow the interpreter's stack
    h, k = 19_998, 3
    p = (h + 1) * (2 * k - 1) + 2
    ids = [f"c{i:05}" for i in range(h + 2)]
    d = FramedLinkDiagram.build(list(zip(ids, [-2, -(k + 1)] + [-2] * h))[::-1],
                                {(a, b): 1 for a, b in zip(ids, ids[1:])})
    assert d.vertices[0].id == ids[-1]
    assert d.h1 == p
    up = blow_up(d, -1, {ids[0]: 1})
    assert up.move_log[-1].h1_before == up.move_log[-1].h1_after == p


def test_random_move_scripts_record_oracle_h1():
    rng = random.Random(1620)
    moves = forests = 0
    for _ in range(60):
        applied, on_forests = exercise_script(random_forest(rng, max_vertices=8), rng, 12)
        moves += applied
        forests += on_forests
    assert moves >= 400
    assert 100 <= forests < moves  # both the expansion and elimination ran


def _count_whole_matrix_determinants(monkeypatch):
    """Count the whole-matrix determinants from now on: the compute_h1
    calls that end with no move region, folded or eliminated (a region that
    spans a cycle or no subtree is cleared)."""
    import openbooks.diagram as diagram_mod

    calls = []
    compute_h1 = diagram_mod.compute_h1

    def counting(vertices, adjacency, fold):
        order = compute_h1(vertices, adjacency, fold)
        calls.append(fold.region is None)
        return order

    monkeypatch.setattr(diagram_mod, "compute_h1", counting)
    return lambda: sum(calls)


def test_long_scripts_on_large_trees_record_full_matrix_h1(monkeypatch):
    # every move's |H1| against a diagram rebuilt without fold messages, on
    # trees and chains of 50-200 vertices and, for the oracle, up to 12
    count = _count_whole_matrix_determinants(monkeypatch)
    rng = random.Random(1707)
    starts = [random_chain(rng, rng.randint(50, 200)) for _ in range(3)]
    starts += [random_forest(rng, max_vertices=200, max_trees=1, min_vertices=50) for _ in range(3)]
    starts += [random_forest(rng, max_vertices=12, max_trees=1) for _ in range(6)]
    trail = [t for d in starts for t in exercise_long_script(d, rng, 100, count)]
    refolded = sum(1 for tree, tree_after, whole in trail if tree and tree_after and not whole)
    closed = sum(1 for tree, tree_after, _ in trail if tree and not tree_after)
    opened = sum(1 for tree, tree_after, _ in trail if not tree and tree_after)
    assert len(trail) >= 1000
    assert refolded >= 300 and closed >= 50 and opened >= 50
    # a graph with a cycle is never refolded
    assert all(whole for _, tree_after, whole in trail if not tree_after)


def test_moves_outside_one_closed_star_or_splitting_the_tree_are_not_refolded():
    # a - b - c - o with o a 0-framed leaf: sliding a over o adds only the
    # edge a-c (the a-o delta is 0), so the moved vertices a, c, o span a
    # path while the untouched b closes the cycle a-b-c
    d = FramedLinkDiagram.build([("a", 2), ("b", 3), ("c", -2), ("o", 0)],
                                {("a", "b"): 1, ("b", "c"): 1, ("c", "o"): 1})
    assert d.h1 == h1_oracle(d)
    slid = handle_slide(d, "a", "o", 1)
    assert not is_forest(slid)
    assert slid.move_log[-1].h1_after == h1_oracle(slid) == h1_oracle(d)
    # x - s = o with o a 2-framed leaf linking s twice: sliding s over o
    # with sign -1 cancels the edge s-o and splits off o, of |det| 2
    d = FramedLinkDiagram.build([("x", 3), ("s", -2), ("o", 2)],
                                {("x", "s"): 1, ("s", "o"): 2})
    assert d.h1 == h1_oracle(d)
    split = handle_slide(d, "s", "o", -1)
    assert ("s", "o") not in {(i, j) for i, j, _ in split.edges}
    assert split.move_log[-1].h1_after == h1_oracle(split) == h1_oracle(d)
    # the forest it leaves carries no fold messages, so the next move is
    # not refolded from one of its trees alone
    assert split._messages is None
    up = blow_up(split, 1, {"x": 1})
    assert up.move_log[-1].h1_after == h1_oracle(up) == h1_oracle(d)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_family_reduction_takes_as_many_whole_matrix_determinants_for_any_h(monkeypatch, k):
    # the chain loop's blow-ups and the last blow-down refold at the moved
    # vertices; only the start diagram, the four moves before the loop that
    # leave a cycle and the handle slide back to a tree (diagrams of at most
    # six vertices) take a whole-matrix determinant, whatever h
    count = _count_whole_matrix_determinants(monkeypatch)
    counts = []
    for h in (10, 100):
        start = count()
        d = reduce_family_diagram(h, k)
        counts.append(count() - start)
        assert len(d.move_log) == h + 9
    assert counts[0] == counts[1] == 6


def test_family_reduction_and_its_replay_check_h1_once_per_move_and_at_the_start(monkeypatch):
    # one diagram.compute_h1 call for the start diagram and one per move,
    # in the reduction and again in the replay of its log
    import openbooks.diagram as diagram_mod

    calls = []
    compute_h1 = diagram_mod.compute_h1

    def counting(*args):
        calls.append(1)
        return compute_h1(*args)

    monkeypatch.setattr(diagram_mod, "compute_h1", counting)
    for h in (10, 100):
        del calls[:]
        d = reduce_family_diagram(h, 3)
        assert len(calls) == h + 10
        moves = json.loads(canonical_dumps(d.to_jsonable()))["moves"]
        del calls[:]
        replayed = replay(smooth_diagram(presentation_for(h, 3)), moves)
        assert len(calls) == h + 10
        assert replayed.same_diagram(d) and replayed.move_log == d.move_log


def test_family_move_logs_golden():
    # the golden sweep writes no move log; this pins every record of the
    # reductions for h, k <= 8, byte for byte
    text = "".join(
        canonical_dumps(reduce_family_diagram(h, k).to_jsonable())
        for h in range(1, 9) for k in range(1, 9)
    )
    data = text.encode("utf-8")
    assert len(data) == 234_858
    assert hashlib.sha256(data).hexdigest() == (
        "d271fa9110c59264c8ddd02954957b4ea5e68c805001a037224c83790041a615"
    )


def test_reduce_serialize_replay_and_report_leave_no_cyclic_garbage():
    # a reference cycle left by a refolded move (closures calling each
    # other), a pretty JSON document or a report's certificate summary keeps
    # the move's messages and replaced vertices alive until the cycle
    # collector runs
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        reduced = reduce_family_diagram(40, 3)
        moves = json.loads(canonical_dumps(reduced.to_jsonable()))["moves"]
        start = smooth_diagram(presentation_for(40, 3)).to_jsonable()
        parsed = FramedLinkDiagram.from_jsonable(json.loads(canonical_dumps(start)))
        replayed = replay(parsed, moves)
        report = run_family(3, 4).to_jsonable()
        canonical_line(report)
        canonical_dumps(report)
        assert replayed.same_diagram(reduced) and len(moves) == 49
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# move-script fuzzing: each step is drawn against the current diagram, so
# most ids name its vertices; signs include 0 and +-2, splits may equal the
# framing, and a quarter of the steps are malformed
_SIGNS = st.sampled_from([1, -1, 1, -1, 0, 2, -2])
_JUNK = st.none() | st.booleans() | st.floats(-2, 2) | st.text(max_size=2) | st.integers(-2, 2)
_ARG_NAMES = sorted({a for arguments, _ in MOVES.values() for a, _, _ in arguments})


def _step(ids):
    stars = st.dictionaries(ids, st.integers(-2, 2), max_size=3) | st.lists(
        st.tuples(ids, st.integers(-2, 2)).map(list), max_size=3
    )

    def move(name, required, optional=None):
        args = st.fixed_dictionaries(required, optional=optional or {})
        return args.map(lambda a: {"move": name, "args": a})

    well_formed = st.one_of(
        move("blow_up", {"sign": _SIGNS}, {"star": stars, "id": ids}),
        move("blow_down", {"vertex": ids}),
        move("inverse_slam_dunk", {"vertex": ids}, {"n": st.integers(-3, 3), "leaf": ids}),
        move("slam_dunk", {"leaf": ids}),
        move("handle_slide", {"slide": ids, "over": ids, "sign": _SIGNS}),
        move("reverse_orientation", {"vertex": ids}),
    )
    malformed = st.one_of(
        _JUNK | st.lists(ids, max_size=2),  # not an object
        st.fixed_dictionaries({"move": st.sampled_from(["twist", "", None, 3]), "args": st.just({})}),
        st.fixed_dictionaries({"move": st.sampled_from(sorted(MOVES)), "args": _JUNK}),
        st.fixed_dictionaries({  # missing or mistyped arguments
            "move": st.sampled_from(sorted(MOVES)),
            "args": st.dictionaries(
                st.sampled_from(_ARG_NAMES), _JUNK | ids | stars | st.lists(ids, max_size=1), max_size=3
            ),
        }),
    )
    return st.one_of(well_formed, well_formed, well_formed, malformed)


_SHAPES = {"diagram": random_diagram, "forest": random_forest, "cyclic": random_cyclic}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(shape=st.sampled_from(sorted(_SHAPES)), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_replay_fuzz_raises_typed_errors_or_records_oracle_h1(shape, seed, data):
    start = d = _SHAPES[shape](random.Random(seed))
    with pytest.raises(ValueError):
        replay(start, data.draw(_JUNK))  # a script that is not a list
    script = []
    rejected = 0
    for _ in range(data.draw(st.integers(1, 8))):
        step = data.draw(_step(st.sampled_from([v.id for v in d.vertices] + ["zz"])))
        script.append(step)
        before = h1_oracle(d)
        try:
            d = replay(d, [step])
        except ValueError:  # IllegalMoveError is one; nothing else may escape
            rejected += 1
            continue
        rec = d.move_log[-1]
        assert rec.h1_before == rec.h1_after == before == h1_oracle(d)
    # the whole script stops at its first rejected step, or reproduces the
    # diagram and the log
    if rejected:
        with pytest.raises(ValueError):
            replay(start, script)
    else:
        result = replay(start, script)
        assert result.same_diagram(d)
        assert result.move_log == d.move_log
