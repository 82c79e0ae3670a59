"""Random framed link diagrams and the move property harnesses.

random_diagram draws diagrams with up to 8 vertices, integer or small
rational framings in [-5, 5] and edge weights in [-5, 5].  random_forest,
random_chain and random_cyclic draw the graph shapes that decide how
|H1| is computed: forests (chains included) are expanded over their edges,
graphs with a cycle are eliminated.

exercise_moves applies every move whose preconditions hold and checks
exact |H1| preservation against the independent dense oracle, round-trip
identities, and determinant/signature behavior on integer diagrams.
exercise_script runs a random move script and checks the |H1| recorded on
both sides of every move against the oracle of that step's diagram.
exercise_long_script does the same on large trees, with steps that mostly
keep the graph a tree and undo each cycle they close, so that the local
refold after a move, the whole-matrix path and the switches between them
all run.
"""

from fractions import Fraction

from openbooks import kirby
from openbooks.diagram import FramedLinkDiagram
from openbooks.linalg import det, signature

from oracles import h1_oracle, has_integer_framings, linking_matrix


def _random_framing(rng, rational_prob, bound=5):
    if rng.random() < rational_prob:
        q = rng.randint(2, 5)
        return Fraction(rng.randint(-bound, bound), q)
    return Fraction(rng.randint(-bound, bound))


def _random_weight(rng, bound):
    return rng.choice([w for w in range(-bound, bound + 1) if w])


def _shuffled_build(rng, vertices, edges):
    # vertex order is the matrix order; shuffle it so that trees are not
    # always listed root first
    rng.shuffle(vertices)
    return FramedLinkDiagram.build(vertices, edges)


def is_forest(d):
    """True when d's linking graph has no cycle (union-find over the edges)."""
    root = {v.id: v.id for v in d.vertices}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for a, b, _ in d.edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        root[ra] = rb
    return True


def random_forest(rng, max_vertices=12, max_trees=3, rational_prob=0.25, bound=2, min_vertices=1):
    """A forest of up to max_trees trees.  Framings in [-bound, bound] keep
    zero determinants (|H1| INFINITE) common."""
    n = rng.randint(min_vertices, max_vertices)
    trees = rng.randint(1, min(max_trees, n))
    vertices = [(f"v{i}", _random_framing(rng, rational_prob, bound)) for i in range(n)]
    # v0 .. v(trees-1) are the roots; every later vertex hangs off an earlier one
    edges = {
        (f"v{rng.randrange(i)}", f"v{i}"): _random_weight(rng, 3)
        for i in range(trees, n)
    }
    return _shuffled_build(rng, vertices, edges)


def random_chain(rng, n, rational_prob=0.25):
    """A linear chain of n unknots with linking weights +-1 or +-2."""
    vertices = [(f"c{i}", _random_framing(rng, rational_prob)) for i in range(n)]
    edges = {(f"c{i}", f"c{i + 1}"): _random_weight(rng, 2) for i in range(n - 1)}
    return _shuffled_build(rng, vertices, edges)


def random_cyclic(rng, max_vertices=12, rational_prob=0.25):
    """A cycle of 3 or more vertices with random trees hanging off it."""
    n = rng.randint(3, max_vertices)
    cycle = rng.randint(3, n)
    vertices = [(f"v{i}", _random_framing(rng, rational_prob)) for i in range(n)]
    edges = {(f"v{i}", f"v{(i + 1) % cycle}"): _random_weight(rng, 3) for i in range(cycle)}
    for i in range(cycle, n):
        edges[(f"v{rng.randrange(i)}", f"v{i}")] = _random_weight(rng, 3)
    return _shuffled_build(rng, vertices, edges)


def random_diagram(rng, max_vertices=8, rational_prob=0.25):
    n = rng.randint(1, max_vertices)
    vertices = [(f"v{i}", _random_framing(rng, rational_prob)) for i in range(n)]
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                w = rng.randint(-5, 5)
                if w:
                    edges[(f"v{i}", f"v{j}")] = w
    return FramedLinkDiagram.build(vertices, edges)


def exercise_moves(d, rng):
    """Apply every applicable move to d, checking invariants; returns the
    number of moves exercised."""
    moves = 0
    base_h1 = h1_oracle(d)
    assert d.h1 == base_h1
    integer = has_integer_framings(d)
    if integer:
        base_det = det(linking_matrix(d))
        base_sig = signature(linking_matrix(d))

    # blow up with a random star, then blow the new vertex back down
    sign = rng.choice((1, -1))
    star = {}
    for v in d.vertices:
        if rng.random() < 0.5:
            w = rng.randint(-2, 2)
            if w:
                star[v.id] = w
    up = kirby.blow_up(d, sign, star, new_id="bb")
    assert up.h1 == base_h1 == h1_oracle(up)
    if integer:
        # blowup is a congruence of (A + [sign]): signature shifts by the
        # sign, determinant picks up that factor
        assert signature(linking_matrix(up)) == base_sig + sign
        assert det(linking_matrix(up)) == base_det * sign
    down = kirby.blow_down(up, "bb")
    assert down.same_diagram(d)
    moves += 2

    # blow down an existing +-1-framed vertex when there is one
    for v in d.vertices:
        if v.framing in (1, -1):
            bd = kirby.blow_down(d, v.id)
            assert bd.h1 == base_h1 == h1_oracle(bd)
            if integer:
                assert signature(linking_matrix(bd)) == base_sig - int(v.framing)
                assert det(linking_matrix(bd)) == base_det * int(v.framing)
            moves += 1
            break

    # canonical inverse slam dunk on a rational vertex, then undo it
    for v in d.vertices:
        if v.framing.denominator > 1:
            isd = kirby.inverse_slam_dunk(d, v.id, leaf_id="leaf")
            assert isd.h1 == base_h1 == h1_oracle(isd)
            back = kirby.slam_dunk(isd, "leaf")
            assert back.same_diagram(d)
            moves += 2
            break

    # forced split on an integer vertex
    for v in d.vertices:
        if v.framing.denominator == 1:
            n = int(v.framing) + rng.choice((-2, -1, 1, 2))
            isd = kirby.inverse_slam_dunk(d, v.id, n=n, leaf_id="leaf")
            assert isd.h1 == base_h1 == h1_oracle(isd)
            back = kirby.slam_dunk(isd, "leaf")
            assert back.same_diagram(d)
            moves += 2
            break

    # handle slide between two integer-framed components
    int_ids = [v.id for v in d.vertices if v.framing.denominator == 1]
    if len(int_ids) >= 2:
        i, j = rng.sample(int_ids, 2)
        s = rng.choice((1, -1))
        slid = kirby.handle_slide(d, i, j, s)
        assert slid.h1 == base_h1 == h1_oracle(slid)
        if integer:
            m = linking_matrix(slid)
            assert det(m) == base_det
            assert signature(m) == base_sig
        moves += 1

    return moves


def _random_step(rng, d):
    """One random move script step on d; its preconditions may fail."""
    ids = [v.id for v in d.vertices]
    kind = rng.choice((
        "blow_up", "blow_down", "inverse_slam_dunk", "slam_dunk",
        "handle_slide", "reverse_orientation",
    ))
    if kind == "blow_up" or not ids:
        star = {u: rng.choice((-1, 1)) for u in rng.sample(ids, min(len(ids), rng.randint(0, 2)))}
        return {"move": "blow_up", "args": {"sign": rng.choice((-1, 1)), "star": star}}
    if kind == "blow_down":
        units = [v.id for v in d.vertices if v.framing in (1, -1)]
        return {"move": kind, "args": {"vertex": rng.choice(units or ids)}}
    if kind == "inverse_slam_dunk":
        v = rng.choice(d.vertices)
        args = {"vertex": v.id}
        if v.framing.denominator == 1:
            args["n"] = int(v.framing) + rng.choice((-2, -1, 1, 2))
        return {"move": kind, "args": args}
    if kind == "slam_dunk":
        leaves = [u for u in ids if len(d.neighbors(u)) == 1]
        return {"move": kind, "args": {"leaf": rng.choice(leaves or ids)}}
    if kind == "handle_slide" and len(ids) >= 2:
        slide, over = rng.sample(ids, 2)
        return {"move": kind, "args": {"slide": slide, "over": over, "sign": rng.choice((-1, 1))}}
    return {"move": "reverse_orientation", "args": {"vertex": rng.choice(ids)}}


def exercise_script(d, rng, steps):
    """Run a random move script of up to `steps` moves from d.

    Every move's h1_before and h1_after must equal the dense oracle of the
    diagram before and after it, and replaying the script from d must
    reproduce the diagram and the log.  Returns (moves applied, number of
    diagrams along the way that were forests).
    """
    start = d
    script = []
    forests = 0
    for _ in range(steps):
        step = _random_step(rng, d)
        try:
            after = kirby.replay(d, [step])
        except kirby.IllegalMoveError:
            continue
        rec = after.move_log[-1]
        assert rec.h1_before == h1_oracle(d)
        assert rec.h1_after == h1_oracle(after)
        forests += is_forest(after)
        script.append(step)
        d = after
    replayed = kirby.replay(start, script)
    assert replayed.same_diagram(d)
    assert replayed.move_log == d.move_log
    return len(script), forests


def _local_step(rng, d):
    """A random step around one vertex: a -1/+1 unknot inserted on one of
    its edges (cancelling the edge when the linking number is +-1, so the
    graph stays a tree), a new leaf, a blow-down, an orientation reversal,
    a (inverse) slam dunk, or one step of _random_step."""
    ids = [v.id for v in d.vertices]
    v = rng.choice(ids)
    nbrs = d.neighbors(v)
    kind = rng.random()
    if kind < 0.35 and nbrs:
        u, w = rng.choice(nbrs)
        sign, su = rng.choice((-1, 1)), rng.choice((-1, 1))
        sv = -w * sign * su if abs(w) == 1 else rng.choice((-1, 1))
        return {"move": "blow_up", "args": {"sign": sign, "star": {v: sv, u: su}}}
    if kind < 0.45:
        return {"move": "blow_up", "args": {"sign": rng.choice((-1, 1)), "star": {v: rng.choice((-1, 1))}}}
    if kind < 0.55:
        units = [x.id for x in d.vertices if x.framing in (1, -1)]
        return {"move": "blow_down", "args": {"vertex": rng.choice(units or ids)}}
    if kind < 0.62:
        return {"move": "reverse_orientation", "args": {"vertex": v}}
    if kind < 0.7:
        leaves = [u for u in ids if len(d.neighbors(u)) == 1]
        return {"move": "slam_dunk", "args": {"leaf": rng.choice(leaves or ids)}}
    if kind < 0.9:
        args = {"vertex": v}
        if d.framing(v).denominator == 1:
            args["n"] = int(d.framing(v)) + rng.choice((-2, -1, 1, 2))
        return {"move": "inverse_slam_dunk", "args": args}
    return _random_step(rng, d)


def _undo_step(before, rec):
    """The step that takes the diagram after `rec` back to `before`."""
    a = dict(rec.args)
    if rec.move == "blow_up":
        return {"move": "blow_down", "args": {"vertex": a["id"]}}
    if rec.move == "blow_down":
        star = dict(before.neighbors(a["vertex"]))
        return {"move": "blow_up", "args": {"sign": a["sign"], "star": star, "id": a["vertex"]}}
    if rec.move == "handle_slide":
        return {"move": "handle_slide", "args": {**a, "sign": -a["sign"]}}
    if rec.move == "inverse_slam_dunk":
        return {"move": "slam_dunk", "args": {"leaf": a["leaf"]}}
    if rec.move == "slam_dunk":
        n = int(before.framing(a["into"]))
        return {"move": "inverse_slam_dunk", "args": {"vertex": a["into"], "n": n, "leaf": a["leaf"]}}
    return {"move": rec.move, "args": a}


def exercise_long_script(d, rng, steps, whole_matrix):
    """Run `steps` random steps from d, undoing each cycle a step closes
    on a forest by the next step.  Both sides of every MoveRecord must equal |H1| of a
    diagram rebuilt from the step's vertices and edges (so it carries no
    fold messages), and h1_oracle up to 12 vertices; each moved diagram's
    vertex lookup and neighbour lists must equal the rebuilt one's; the
    script must replay to the same diagram and log.  `whole_matrix` counts
    whole-matrix determinants so far.  Returns, for each move applied,
    (is_forest before, is_forest after, whole-matrix determinants it took).
    """
    start = d
    script = []
    trail = []
    before = None
    expected = FramedLinkDiagram(d.vertices, d.edges).h1
    for _ in range(steps):
        if before is not None and trail[-1][0] and not trail[-1][1]:
            step = _undo_step(before, d.move_log[-1])
        else:
            step = _local_step(rng, d)
        whole = whole_matrix()
        try:
            after = kirby.replay(d, [step])
        except kirby.IllegalMoveError:
            continue
        whole = whole_matrix() - whole
        rec = after.move_log[-1]
        fresh = FramedLinkDiagram(after.vertices, after.edges)
        assert rec.h1_before == expected
        expected = fresh.h1
        assert rec.h1_after == expected
        if len(after.vertices) <= 12:
            assert rec.h1_after == h1_oracle(after)
        for v in fresh.vertices:
            assert after.vertex(v.id) == v
            assert after.neighbors(v.id) == fresh.neighbors(v.id)
        trail.append((is_forest(d), is_forest(after), whole))
        script.append(step)
        before, d = d, after
    replayed = kirby.replay(start, script)
    assert replayed.same_diagram(d)
    assert replayed.move_log == d.move_log
    return trail
