"""Kirby calculus moves on framed link diagrams, done algebraically.

Moves act on the weighted-graph model of a diagram (framings on vertices,
linking numbers on edges), not on pictures.  Every move is a congruence of
the linking form plus at most one +-1 or leaf block (Gompf-Stipsicz,
4-Manifolds and Kirby Calculus, ch. 5), so this module holds only each
move's preconditions and its congruence data: integer framing shifts
(blow-ups, blow-downs, handle slides), replaced framings (slam dunks and
their inverses), linking-number deltas, and the vertex it drops or the
(id, framing) it appends; a twist does no Fraction arithmetic.  The
diagram module applies the data and checks that the order of the first
homology of the full post-move matrix equals the order before the move
(InvariantViolationError otherwise), since each move is supposed to be a
diffeomorphism of the underlying manifold; on a tree it refolds only the
vertices the move touches, so each blow-up of the family reduction's
chain loop costs the same whatever h.

A move function given a FramedLinkDiagram returns the moved diagram, a
script of one move; given a ScriptState it edits it and returns it.
replay and reduce_family_diagram run every step on one state private to
the call and freeze one diagram at the end; replay re-verifies every move.

Geometric validity (e.g. that a component really is an unknot after a
handle slide) is only guaranteed for diagrams built by this package's
constructors and for the scripted family reduction, which replays a fixed
sequence of moves whose pictures are known.  That reduction takes the
(h, k) surgery diagram to the chain [-2, -(k+1), -2 x h].
"""

from fractions import Fraction

from .contact import presentation_for, smooth_diagram
from .diagram import FramedLinkDiagram, InvariantViolationError, ScriptState, Vertex
from .pages import check_family
from .serialize import exact_int


class IllegalMoveError(ValueError):
    """The requested move's preconditions are not met."""


def _vertex(d: FramedLinkDiagram, vid: str) -> Vertex:
    try:
        return d.vertex(vid)
    except KeyError:
        raise IllegalMoveError(f"no vertex {vid!r}") from None


def _fresh_id(d: FramedLinkDiagram, base: str) -> str:
    if base not in d:
        return base
    n = 1
    while f"{base}{n}" in d:
        n += 1
    return f"{base}{n}"


def _twist(d, star, eps: int, new=None):
    """The rank-one twist by a +-1 unknot that links each u of the (u, lk)
    star lk times, in one loop that checks u is in d, then lk an int:
    framing_u += eps * lk_u^2, lk_uv += eps * lk_u * lk_v, and lk_u,new =
    lk_u for an appended `new`.  Returns the move's (shifts, deltas),
    integers only, and the (u, lk) with lk nonzero."""
    shifts, deltas, linked = {}, {}, []
    for u, w in star:
        if u not in d:
            raise IllegalMoveError(f"star references unknown vertex {u!r}")
        if exact_int(w, "a star weight"):
            for v, wv in linked:
                deltas[(v, u)] = eps * wv * w
            linked.append((u, w))
            shifts[u] = eps * w * w
            if new is not None:
                deltas[(u, new)] = w
    return shifts, deltas, linked


def blow_down(d: FramedLinkDiagram, vid: str) -> FramedLinkDiagram:
    """Remove a +1- or -1-framed unknot, twisting everything it links.

    For framing e = +-1: each remaining framing drops by e * lk^2 and each
    remaining linking number by e * lk_i * lk_j.
    """
    v = _vertex(d, vid)
    if v.framing not in (1, -1):
        raise IllegalMoveError(f"blow down needs framing +-1, got {v.framing}")
    if not v.is_unknot:
        raise IllegalMoveError(f"blow down needs an unknot at {vid!r}")
    eps = int(v.framing)
    shifts, deltas, _ = _twist(d, d.neighbors(vid), -eps)
    return d.apply_move("blow_down", (("vertex", vid), ("sign", eps)), deltas=deltas, drop=vid,
                        shifts=shifts)


def blow_up(d: FramedLinkDiagram, sign: int, star=None, new_id: str = None) -> FramedLinkDiagram:
    """Introduce a +-1-framed unknot with a prescribed star of linking numbers.

    The existing framings and linkings are adjusted by the inverse of the
    blow-down rule, so blow_down of the new vertex is the exact identity.
    """
    if exact_int(sign, "blow up sign") not in (1, -1):
        raise IllegalMoveError(f"blow up sign must be +-1, got {sign}")
    vid = _fresh_id(d, "u" if new_id is None else new_id)
    shifts, deltas, star = _twist(d, dict(star or {}).items(), sign, vid)
    args = (("id", vid), ("sign", sign), ("star", tuple(sorted(star))))
    return d.apply_move("blow_up", args, deltas=deltas, append=(vid, sign), shifts=shifts)


def _canonical_split(r: Fraction) -> int:
    # n - 1/x = r with the integer part rounded away from zero, so that
    # repeated splits of a rational < -1 produce entries <= -2 (and of a
    # rational > 1, entries >= 2).
    p, q = r.numerator, r.denominator
    if p > 0:
        return -((-p) // q)
    return p // q


def inverse_slam_dunk(d: FramedLinkDiagram, vid: str, n: int = None, leaf_id: str = None) -> FramedLinkDiagram:
    """Split a rational framing p/q as n - 1/x, hanging a new x-framed leaf.

    The vertex keeps its other edges and becomes n-framed; the new leaf
    links it exactly once.  Without a forced n the framing must be honestly
    rational (q >= 2) and the canonical split is used; a caller-forced n is
    accepted for any framing as long as n differs from it.
    """
    r = _vertex(d, vid).framing
    if n is None:
        if r.denominator in (0, 1):
            raise IllegalMoveError(
                f"framing {r} is an integer; a split must be forced to dunk it"
            )
        n = _canonical_split(r)
    elif exact_int(n, "a forced split n") == r:
        raise IllegalMoveError(f"forced split n={n} equals the framing itself")
    x = 1 / (n - r)  # n - 1/x = r
    leaf = _fresh_id(d, f"{vid}_leaf" if leaf_id is None else leaf_id)
    args = (("vertex", vid), ("n", n), ("leaf", leaf))
    return d.apply_move("inverse_slam_dunk", args, {vid: n}, {(vid, leaf): 1}, append=(leaf, x))


def slam_dunk(d: FramedLinkDiagram, leaf_id: str) -> FramedLinkDiagram:
    """Absorb a rational leaf into its integer-framed neighbor: n - 1/x.

    The leaf must link exactly one other component, once.  The neighbor's
    framing must be an integer (the move is not a diffeomorphism otherwise)
    and the leaf framing must be nonzero (a 0-framed leaf would send the
    neighbor's coefficient to infinity; cancel such pairs by other means).
    """
    x = _vertex(d, leaf_id).framing
    nbrs = d.neighbors(leaf_id)
    if len(nbrs) != 1:
        raise IllegalMoveError(f"slam dunk needs a leaf; {leaf_id!r} has {len(nbrs)} neighbors")
    (nid, w) = nbrs[0]
    if abs(w) != 1:
        raise IllegalMoveError(f"leaf must link its neighbor once, got {w}")
    n = d.framing(nid)
    if n.denominator != 1:
        raise IllegalMoveError(f"slam dunk needs an integer framing on the neighbor, got {n}")
    if x == 0:
        raise IllegalMoveError("0-framed leaf: coefficient would become infinite")
    args = (("leaf", leaf_id), ("into", nid))
    return d.apply_move("slam_dunk", args, {nid: n - 1 / x}, drop=leaf_id)


def handle_slide(d: FramedLinkDiagram, slide_id: str, over_id: str, sign: int) -> FramedLinkDiagram:
    """Slide one integer-framed component over another.

    On the linking matrix this is the congruence adding +-(row and column
    of `over_id`) to those of `slide_id`; it preserves the determinant and
    the signature.  The unknottedness flag of the slid component is kept,
    which is only geometrically sound for the scripted reductions replayed
    by this package.
    """
    if slide_id == over_id:
        raise IllegalMoveError("cannot slide a component over itself")
    if exact_int(sign, "slide sign") not in (1, -1):
        raise IllegalMoveError(f"slide sign must be +-1, got {sign}")
    fi, fj = _vertex(d, slide_id).framing, _vertex(d, over_id).framing
    if fi.denominator != 1 or fj.denominator != 1:
        raise IllegalMoveError("handle slide needs integer framings on both components")
    # the over-component's row: its linking off the slid pair, its framing on it
    deltas = {(slide_id, u): sign * w for u, w in d.neighbors(over_id) if u != slide_id}
    deltas[(slide_id, over_id)] = sign * fj.numerator
    shift = fj.numerator + 2 * sign * d.linking(slide_id, over_id)
    args = (("slide", slide_id), ("over", over_id), ("sign", sign))
    return d.apply_move("handle_slide", args, deltas=deltas, shifts={slide_id: shift})


def reverse_orientation(d: FramedLinkDiagram, vid: str) -> FramedLinkDiagram:
    """Reverse the orientation of one component: its linking numbers flip sign.

    A relabeling of the same diagram, recorded in the move log so replays
    stay complete; framings and all invariants are untouched.
    """
    if vid not in d:
        raise IllegalMoveError(f"no vertex {vid!r}")
    deltas = {(vid, u): -2 * w for u, w in d.neighbors(vid)}
    return d.apply_move("reverse_orientation", (("vertex", vid),), deltas=deltas)


# move name -> (((argument, kind, type), ...), the move applied to
# (diagram, args)), required arguments first.  kind is "required",
# "optional" or "logged": an argument the move log writes but the move
# works out itself, so replay does not pass it on and checks it against the
# move's own record instead.  A star is an object {id: weight} or the
# [id, weight] pairs that a move log records, each id at most once
MOVES = {
    "blow_down": ((("vertex", "required", str), ("sign", "logged", int)),
                  lambda d, a: blow_down(d, a["vertex"])),
    "blow_up": (
        (("sign", "required", int), ("star", "optional", dict), ("id", "optional", str)),
        lambda d, a: blow_up(d, a["sign"], a.get("star"), a.get("id")),
    ),
    "inverse_slam_dunk": (
        (("vertex", "required", str), ("n", "optional", int), ("leaf", "optional", str)),
        lambda d, a: inverse_slam_dunk(d, a["vertex"], a.get("n"), a.get("leaf")),
    ),
    "slam_dunk": ((("leaf", "required", str), ("into", "logged", str)),
                  lambda d, a: slam_dunk(d, a["leaf"])),
    "handle_slide": (
        (("slide", "required", str), ("over", "required", str), ("sign", "required", int)),
        lambda d, a: handle_slide(d, a["slide"], a["over"], a["sign"]),
    ),
    "reverse_orientation": ((("vertex", "required", str),),
                            lambda d, a: reverse_orientation(d, a["vertex"])),
}


def _is_star(value) -> bool:
    """An object {id: weight} or a list of [id, weight] pairs, each id a str
    at most once and each weight an int (not a bool), checked in one loop."""
    if not isinstance(value, (dict, list, tuple)):
        return False
    ids = set()
    for pair in value.items() if isinstance(value, dict) else value:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and isinstance(pair[0], str)
                and pair[0] not in ids and type(pair[1]) is int):
            return False
        ids.add(pair[0])
    return True


def replay(d: FramedLinkDiagram, script) -> FramedLinkDiagram:
    """Apply a JSON move script, a list of {"move": name, "args": {...}},
    to one ScriptState, and freeze it; `d` is never changed.

    A script that is not a list, a malformed step (not an object, missing a
    required argument, naming an argument the move does not have, or an
    argument of the wrong type, such as a star naming an id twice) is a
    ValueError; an unknown move, a failed precondition or a logged
    argument other than the one the move logs is an IllegalMoveError.
    Each step's arguments are checked before its move: the missing ones are
    named before an unknown one, and that before a mistyped one.  A step's
    other keys, such as the h1_before and h1_after of a move log, are not
    read.
    """
    if not isinstance(script, list):
        raise ValueError(f"move script must be a list of steps: {script!r}")
    state = ScriptState(d)
    for step in script:
        args = step.get("args", {}) if isinstance(step, dict) else None
        if not isinstance(args, dict):
            raise ValueError(f"move script step must be an object with object args: {step!r}")
        name = step.get("move")
        if not isinstance(name, str) or name not in MOVES:
            raise IllegalMoveError(f"unknown move {name!r}")
        arguments, apply = MOVES[name]
        missing, wrong, logged, known = [], [], [], 0
        for a, kind, type_ in arguments:
            if a not in args:
                missing += [a] if kind == "required" else []
                continue
            known += 1
            if kind != "required" and args[a] is None:
                continue
            if not (_is_star(args[a]) if type_ is dict else type(args[a]) is type_):
                wrong.append(a)
            elif kind == "logged":
                logged.append(a)
        if missing:
            raise ValueError(f"move {name!r} is missing argument {', '.join(missing)}")
        if known != len(args):
            unknown = [a for a in args if all(a != b for b, _, _ in arguments)]
            raise ValueError(f"move {name!r} has no argument {unknown[0]!r}")
        if wrong:
            raise ValueError(f"move {name!r}: argument {wrong[0]!r} has the wrong type: "
                             f"{args[wrong[0]]!r}")
        apply(state, args)
        for a in logged:
            value = dict(state.last_move.args)[a]
            if args[a] != value:
                raise IllegalMoveError(f"move {name!r}: argument {a!r} is {args[a]!r}, "
                                       f"but the move logs {value!r}")
    return state.freeze()


def reduce_family_diagram(h: int, k: int) -> FramedLinkDiagram:
    """Replay the scripted reduction of the (h, k) surgery diagram to a chain.

    From the two-component rational diagram (framings -2 + 1/(k+1) and
    -3 - 1/h, linking -2): two +1 blowups, two inverse slam dunks, one
    handle slide, two +1 blowdowns, an orientation normalization, then h-1
    blowups framed -1 and a final +1 blowdown that turn the h-framed
    component into a string of -2-framed unknots.  Returns the chain
    [-2, -(k+1), -2 x h] with all edges +1 and the full move log, run on
    one ScriptState; every move checks that |H_1| = (h+1)(2k-1)+2 holds.
    """
    check_family(h, k)
    s = ScriptState(smooth_diagram(presentation_for(h, k)))
    blow_up(s, +1, {"K_e": 1, "K_a": 1}, new_id="p1")
    blow_up(s, +1, {"K_e": 1, "K_a": 1}, new_id="p2")
    inverse_slam_dunk(s, "K_e", n=0, leaf_id="L_e")   # leaf framed -(k+1)
    inverse_slam_dunk(s, "K_a", n=-1, leaf_id="L_a")  # leaf framed h
    handle_slide(s, "K_a", "K_e", -1)
    blow_down(s, "p1")
    blow_down(s, "p2")
    # normalize the edge signs left by the slide before the chain conversion
    reverse_orientation(s, "K_a")
    reverse_orientation(s, "L_a")
    prev = "K_a"
    for j in range(1, h):
        nid = f"t{j}"
        blow_up(s, -1, {"L_a": 1, prev: 1}, new_id=nid)
        prev = nid
    blow_down(s, "L_a")
    d = s.freeze()

    expected_order = (h + 1) * (2 * k - 1) + 2
    if d.h1 != expected_order:
        raise InvariantViolationError(
            f"family reduction ({h}, {k}): |H_1| = {d.h1!r}, expected {expected_order}"
        )
    if not d.is_linear_chain() or any(w != 1 for _, _, w in d.edges):
        raise InvariantViolationError(
            f"family reduction ({h}, {k}) did not end on a +1-edge chain"
        )
    framings = d.chain_framings()
    expected = [Fraction(-2), Fraction(-(k + 1))] + [Fraction(-2)] * h
    if framings != expected:
        raise InvariantViolationError(
            f"family reduction ({h}, {k}) produced unexpected chain {framings}"
        )
    return d
