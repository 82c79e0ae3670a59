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
"""

from fractions import Fraction

from openbooks import kirby
from openbooks.diagram import FramedLinkDiagram
from openbooks.linalg import det, signature

from oracles import h1_oracle


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


def random_forest(rng, max_vertices=12, max_trees=3, rational_prob=0.25, bound=2):
    """A forest of up to max_trees trees.  Framings in [-bound, bound] keep
    zero determinants (|H1| INFINITE) common."""
    n = rng.randint(1, max_vertices)
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
    integer = d.has_integer_framings()
    if integer:
        base_det = det(d.linking_matrix())
        base_sig = signature(d.linking_matrix())

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
        assert signature(up.linking_matrix()) == base_sig + sign
        assert det(up.linking_matrix()) == base_det * sign
    down = kirby.blow_down(up, "bb")
    assert down.same_diagram(d)
    moves += 2

    # blow down an existing +-1-framed vertex when there is one
    for v in d.vertices:
        if v.framing in (1, -1):
            bd = kirby.blow_down(d, v.id)
            assert bd.h1 == base_h1 == h1_oracle(bd)
            if integer:
                assert signature(bd.linking_matrix()) == base_sig - int(v.framing)
                assert det(bd.linking_matrix()) == base_det * int(v.framing)
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
            m = slid.linking_matrix()
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
