"""Framed link diagrams as weighted graphs, and their first homology order.

A diagram is a set of vertices (surgery components) carrying exact
rational framings, together with symmetric integer edge weights recording
pairwise linking numbers.  The presentation matrix of the first homology
of the surgered manifold has M_ii = p_i and M_ij = q_i * lk_ij, where the
framing of component i is p_i/q_i in lowest terms; the order of H_1 is
|det M|, with 0 reported as INFINITE.  compute_h1 folds a forest's
determinant (every chain and tree the family reduction passes through)
over its edges in O(n), children before parents (_Fold); any other graph
goes through linalg's sparse fraction-free Bareiss elimination
(linalg.det_sparse_rows).  Both give the determinant of the full matrix,
so no move check is ever partial.

This module alone knows how a diagram stores its graph: the canonical
edge rule (check_edges, shared with the contact surgery diagrams), the
vertices by id, the framings as integer ratios {id: (p, q)} and one
adjacency map {id: {neighbour: weight}}; compute_h1 reads the last two as
they are.

Diagrams are immutable values.  A Kirby move is a congruence of the
linking form plus at most one +-1 or leaf block; the kirby module holds
each move's preconditions and data, and this module applies it to a
ScriptState, the working copy of one script private to one call.  One pass
edits the copy in place (a framing as an exact integer shift (p + s*q, q)
or a replacement, an adjacency row copied on its first write) and collects
the vertices the move touches; |H_1| of the full post-move matrix is then
checked against the order before the move, and the MoveRecord that stores
both is appended.  freeze() ends the script with one new diagram, building
a Vertex, unchecked since its values were checked where they entered, only
for each appended or re-framed vertex; the diagram it started from never
changes.  FramedLinkDiagram.apply_move is a script of one move.

A diagram whose graph is one tree also carries the directed messages of
its last determinant fold: for each edge, the determinant of the subtree
on one side, and the same with its end vertex deleted.  When the vertices
a move touches lie in one closed star of that tree, every untouched
subtree hangs off them by one unchanged edge, so one walk refolds just
those vertices from the carried messages, at a cost of their degrees, not
of n, and finds on the way a cycle or a split that sends the move to the
whole matrix, as any other move and every diagram built from data go.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import NamedTuple

from .linalg import det_sparse_rows
from .serialize import exact_fraction, exact_int, fraction_str, parse_fraction


class _InfiniteOrder:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"


INFINITE = _InfiniteOrder()


def order_to_jsonable(order):
    return "INF" if order is INFINITE else order


@dataclass(frozen=True)
class Vertex:
    """A surgery component with a str id and a bool is_unknot; an int
    framing is stored as a Fraction.  Any other type is a TypeError."""

    id: str
    framing: Fraction
    is_unknot: bool = True

    def __post_init__(self):
        if type(self.framing) is not Fraction:
            object.__setattr__(self, "framing", exact_fraction(self.framing))
        if not isinstance(self.id, str) or type(self.is_unknot) is not bool:
            raise TypeError(f"a vertex id is a str and is_unknot a bool: {self.id!r}, "
                            f"{self.is_unknot!r}")


class MoveRecord(NamedTuple):
    """Audit entry for one move: kind, arguments, and the H_1 order check."""

    move: str
    args: tuple  # ((name, jsonable value), ...)
    h1_before: object
    h1_after: object

    def to_jsonable(self):
        return {
            "move": self.move,
            "args": {k: v for k, v in self.args},
            "h1_before": order_to_jsonable(self.h1_before),
            "h1_after": order_to_jsonable(self.h1_after),
        }


class InvariantViolationError(RuntimeError):
    """A move changed the order of the first homology; the diagram is corrupt."""


class _Reads:
    """The read API the Kirby moves use, over {id: Vertex} in vertex order
    (_by_id) and the adjacency {id: {neighbour: weight}} (_adjacency)."""

    __slots__ = ()

    def __contains__(self, vid) -> bool:
        return vid in self._by_id

    def vertex(self, vid: str) -> Vertex:
        return self._by_id[vid]

    def framing(self, vid: str) -> Fraction:
        return self.vertex(vid).framing

    def linking(self, i: str, j: str) -> int:
        return self._adjacency.get(i, {}).get(j, 0)

    def neighbors(self, vid: str):
        """[(neighbour, weight), ...] in edge order, which is id order."""
        return sorted(self._adjacency.get(vid, {}).items())


@dataclass(frozen=True)
class FramedLinkDiagram(_Reads):
    """Framed unknots with integer pairwise linking, plus a move log."""

    vertices: tuple = ()
    edges: tuple = ()  # ((id_i, id_j, weight), ...) with id_i < id_j, sorted
    move_log: tuple = ()

    def __post_init__(self):
        check_edges([v.id for v in self.vertices], self.edges)

    @staticmethod
    def build(vertices, edges: dict) -> "FramedLinkDiagram":
        """Construct from any iterable of vertices and an edge dict {(i, j): w};
        zero weights are dropped and pairs are canonicalized."""
        vs = tuple(v if isinstance(v, Vertex) else Vertex(*v) for v in vertices)
        return FramedLinkDiagram(vs, canonical_edges(edges))

    def apply_move(self, move, args, framings=None, deltas=None, drop=None,
                   append=None, shifts=None) -> "FramedLinkDiagram":
        """This diagram after one Kirby move, checked and logged: a script of
        one move (ScriptState.apply_move has the arguments)."""
        return ScriptState(self).apply_move(move, args, framings, deltas, drop, append,
                                            shifts).freeze()

    # -- accessors ---------------------------------------------------------

    @cached_property
    def _by_id(self):
        return {v.id: v for v in self.vertices}

    @cached_property
    def _ratios(self):
        return {v.id: v.framing.as_integer_ratio() for v in self.vertices}

    @cached_property
    def _adjacency(self):
        adj = {v.id: {} for v in self.vertices}
        for i, j, w in self.edges:
            adj[i][j] = w
            adj[j][i] = w
        return adj

    # -- invariants --------------------------------------------------------

    @cached_property
    def h1(self):
        """Order of H_1 of the surgered manifold; INFINITE when b_1 > 0."""
        fold = _Fold()
        order = compute_h1(self._ratios, self._adjacency, fold)
        self.__dict__["_messages"] = fold.messages
        return order

    @cached_property
    def _chain(self):
        """Vertex ids along the path, from the endpoint that appears first in
        vertex order, or None unless the diagram is a connected path with
        every linking weight +-1."""
        n = len(self.vertices)
        if n == 0 or len(self.edges) != n - 1 or any(abs(w) != 1 for _, _, w in self.edges):
            return None
        adj = self._adjacency
        # n - 1 edges leave some vertex of degree < 2; the walk starts there
        path = [next(v.id for v in self.vertices if len(adj[v.id]) < 2)]
        prev = None
        while len(path) < n:
            onward = [u for u in adj[path[-1]] if u != prev]
            if len(onward) != 1:  # a branch, or the end of a smaller component
                return None
            prev = path[-1]
            path.append(onward[0])
        return tuple(path)

    def is_linear_chain(self) -> bool:
        """Connected path with all linking weights of absolute value 1."""
        return self._chain is not None

    def chain_framings(self) -> list:
        """Framings read along the chain, starting from the endpoint that
        appears first in vertex order (deterministic)."""
        if self._chain is None:
            raise ValueError("diagram is not a linear chain")
        return [self.framing(v) for v in self._chain]

    # -- serialization -----------------------------------------------------

    def to_jsonable(self):
        return {
            "vertices": [
                {"id": v.id, "framing": fraction_str(v.framing), "unknot": v.is_unknot}
                for v in self.vertices
            ],
            "edges": [[i, j, w] for i, j, w in self.edges],
            "moves": [r.to_jsonable() for r in self.move_log],
        }

    @classmethod
    def from_jsonable(cls, data) -> "FramedLinkDiagram":
        """Parse a diagram document; any malformed input is a ValueError."""
        try:
            vertices, edges = data["vertices"], data.get("edges", [])
            if not isinstance(vertices, list) or not isinstance(edges, list):
                raise TypeError("vertices and edges are lists")
            vs = tuple(Vertex(v["id"], parse_fraction(v["framing"]), v.get("unknot", True))
                       for v in vertices)
            return cls(vs, tuple(sorted(map(tuple, edges))))
        except (KeyError, TypeError, AttributeError) as e:
            raise ValueError(f"malformed diagram JSON: {e!r}") from None

    def same_diagram(self, other: "FramedLinkDiagram") -> bool:
        """Equality of vertices and edges, ignoring the move logs."""
        return self.vertices == other.vertices and self.edges == other.edges


class ScriptState(_Reads):
    """The working copy of a diagram under one Kirby script, private to the
    call that runs it: the read API, apply_move, which edits the state in
    place, and freeze(), which ends the script with one new
    FramedLinkDiagram that takes over the state's maps.  Framings are
    ratios {id: (p, q)} in lowest terms, q >= 1; _changed {id: is_unknot}
    names the appended or re-framed vertices, whose entries in _by_id are
    stale until freeze() builds their Vertex.  The maps are copied when the
    state opens, each adjacency row on its first write (named in _copied),
    and the fold messages into the script's one _Fold at the first move, so
    the starting diagram never changes."""

    __slots__ = ("_source", "_by_id", "_ratios", "_changed", "_adjacency", "_copied", "_fold",
                 "_h1", "_records")

    def __init__(self, d: FramedLinkDiagram):
        self._source = d
        self._by_id = dict(d._by_id)
        self._ratios = dict(d._ratios)
        self._changed = {}
        self._adjacency = dict(d._adjacency)
        self._copied = set()
        self._fold, self._h1 = _Fold(), None  # d's messages and h1, read at the first move
        self._records = []

    def vertex(self, vid: str) -> Vertex:
        """The vertex as it stands, built if the script appended or re-framed it."""
        if vid in self._changed:
            return Vertex(vid, Fraction(*self._ratios[vid]), self._changed[vid])
        return self._by_id[vid]

    def apply_move(self, move, args, framings=None, deltas=None, drop=None,
                   append=None, shifts=None) -> "ScriptState":
        """Apply one Kirby move given as its congruence data, checked and
        logged; returns the state.

        framings {id: int or Fraction} replaces framings; shifts {id: s} adds
        the int s to framings, p/q becoming (p + s*q)/q; deltas {(i, j): dw},
        keyed by id pair in either order, adds the int dw to linking numbers
        (a float, bool or Fraction shift or delta is a TypeError, raised
        before anything is edited); `drop` names a vertex to remove with its
        edges and `append` is the (str id, framing) of a new unknot (the
        kirby module's preconditions make the data refer to current
        vertices).  One pass edits the state and collects the vertices the
        move touches.  Zero weights are dropped, |H_1| of the full post-move
        matrix (refolded at the move's region when it can be, see _region)
        must equal the order before the move, else InvariantViolationError,
        and the MoveRecord is appended.
        """
        if append is not None and type(append[0]) is not str:
            raise TypeError(f"a vertex id is a str: {append[0]!r}")
        for dw in deltas.values() if deltas else ():
            exact_int(dw, "a linking delta")
        for s in shifts.values() if shifts else ():
            exact_int(s, "a framing shift")
        new = None if append is None else append[0]
        fold = self._fold
        before = self._h1
        if before is None:
            before = self._h1 = self._source.h1
            if self._source._messages is not None:
                fold.messages = self._source._messages.copy()
        by_id, ratios, changed, adj, copied = (self._by_id, self._ratios, self._changed,
                                               self._adjacency, self._copied)
        touched = {}  # the vertices the move edits, in order
        for vid, framing in framings.items() if framings else ():
            ratios[vid] = _ratio(framing)
            touched[vid] = None
        for vid, s in shifts.items() if shifts else ():
            p, q = ratios[vid]
            ratios[vid] = (p + s * q, q)  # gcd(p + s*q, q) = gcd(p, q) = 1
            touched[vid] = None
        for vid in touched:
            if vid not in changed:
                changed[vid] = by_id[vid].is_unknot
        if drop is not None:
            del by_id[drop], ratios[drop]
            changed.pop(drop, None)
            for u in adj.pop(drop):
                del (adj[u] if u in copied else _own(adj, copied, u))[drop]
                touched[u] = None
            touched[drop] = None
        if new is not None:
            by_id[new] = None  # its place in vertex order
            ratios[new] = _ratio(append[1])
            changed[new] = True
            adj[new] = {}
            copied.add(new)
        for (i, j), dw in deltas.items() if deltas else ():
            row_i = adj[i] if i in copied else _own(adj, copied, i)
            row_j = adj[j] if j in copied else _own(adj, copied, j)
            w = row_i.get(j, 0) + dw
            if w:
                row_i[j] = row_j[i] = w
            else:
                row_i.pop(j, None)
                row_j.pop(i, None)
            touched[i] = touched[j] = None
        fold.region = None
        if fold.messages is not None and touched:
            fold.region = _region(touched, new, drop, fold.messages)
        after = compute_h1(ratios, adj, fold)
        if after != before:
            raise InvariantViolationError(
                f"move {move} with args {dict(args)} changed |H_1|: {before!r} -> {after!r}"
            )
        self._h1 = after
        self._records.append(MoveRecord(move, tuple(args), before, after))
        return self

    def freeze(self) -> FramedLinkDiagram:
        """The diagram at the end of the script, with its moves logged: the
        starting diagram itself when no move was applied.  It builds one
        Vertex per appended or re-framed vertex and takes over the state's
        maps, so the state ends here and a later read or move on it fails at
        once."""
        source, by_id, ratios, adj = self._source, self._by_id, self._ratios, self._adjacency
        changed, messages = self._changed, self._fold.messages
        self._by_id = self._ratios = self._changed = self._adjacency = self._fold = None
        if not self._records:
            return source
        # ids and framings were checked where they entered the script, so no
        # __post_init__ runs; equal framings share one Fraction, and h1 is the
        # order the last move checked
        blank, fractions = object.__new__, {}
        for vid, unknot in changed.items():
            framing = fractions.get(ratios[vid])
            if framing is None:
                framing = fractions[ratios[vid]] = Fraction(*ratios[vid])
            v = by_id[vid] = blank(Vertex)
            v.__dict__.update(id=vid, framing=framing, is_unknot=unknot)
        edges = sorted((i, j, w) for i, row in adj.items() for j, w in row.items() if i < j)
        d = blank(FramedLinkDiagram)
        d.__dict__.update(
            vertices=tuple(by_id.values()), edges=tuple(edges),
            move_log=source.move_log + tuple(self._records), h1=self._h1,
            _messages=messages, _by_id=by_id, _ratios=ratios, _adjacency=adj,
        )
        return d


def _ratio(x):
    """(p, q) of a framing that Vertex takes: an int, not a bool, or a Fraction."""
    return (x if type(x) is int else exact_fraction(x)).as_integer_ratio()


def _own(adjacency, copied, vid):
    """vid's adjacency row, copied on a script's first write to it."""
    row = adjacency[vid] = dict(adjacency[vid])
    copied.add(vid)
    return row


def _region(touched, new, drop, messages):
    """{vertex: None} over the vertices whose fold messages a move
    recomputes, root first: the appended `new` (the root when there is one,
    so a run of blow-ups along a chain keeps it in the next move's region),
    a centre whose closed star holds every `touched` vertex in the pre-move
    tree, and those, less the dropped one; None when there is no centre.
    The pre-move tree is read from the messages, each naming its vertex's
    neighbour toward the root, so the centre is a touched vertex or the
    parent of one.  Every untouched subtree then hangs off the region by
    one unchanged edge, so its message stays exact."""
    touched.pop(new, None)
    for v in touched:  # its parent, None at the root
        touched[v] = (messages.get(v) or (None,))[0]
    messages.pop(drop, None)
    for centre in chain(touched, touched.values()):
        above = (messages.get(centre) or (None,))[0]
        for v, parent in touched.items():
            if v != centre and parent != centre and v != above:
                break
        else:
            region = dict.fromkeys((centre,) if new is None else (new, centre))
            region.update(touched)
            region.pop(drop, None)
            return region
    return None


class _Fold:
    """compute_h1's in-out argument: the messages of a forest's determinant
    fold, and the move region to refold from them.

    Rooting each tree and working children before parents, with D_c the
    determinant of the subtree at c and E_c the same with c deleted (the
    product of D over c's children), the determinant of the subtree at v is

        D_v = a_vv * prod D_c - sum_c t_vc * E_c * prod_{c' != c} D_c'

    where t_vc = M_vc * M_cv: on a forest every permutation with a nonzero
    Leibniz term is a product of transpositions along edges.  fold_at
    applies it at one vertex over the framings {id: (p, q)} and the
    adjacency.

    messages[v] = (u, D, E) for every vertex v but the root of the fold: u
    is v's neighbour toward the root, D = D_v and E = E_v on v's side of
    the edge vu; None off a tree.  A ScriptState move sets region, the
    vertices from _region, and compute_h1 sets it to None when it folds the
    whole matrix instead.  fold_at and reroot call each other as methods:
    nested closures would form a reference cycle per move, holding the
    replaced vertices until the cycle collector ran.
    """

    __slots__ = ("messages", "region")

    def __init__(self):
        self.messages = self.region = None

    def walk(self, ratios, adjacency, roots, within):
        """Fold the forest `adjacency` spans on `within`, a tree from each of
        `roots` that no earlier tree reached, children before parents: (the
        product of the roots' D, the number of trees), or None on a cycle.
        Each vertex joins the walk at most once, which bounds every loop."""
        messages = self.messages
        parent = {}
        d = 1
        trees = 0
        for root in roots:
            if root in parent:
                continue
            parent[root] = None
            messages.pop(root, None)
            order = [root]
            for v in order:
                above = parent[v]
                for u in adjacency[v]:
                    if u != above and u in within:
                        if u in parent:
                            return None
                        parent[u] = v
                        order.append(u)
            for v in order[:0:-1]:  # children before parents, the root last
                messages[v] = self.fold_at(ratios, adjacency, v, parent[v])
            d *= self.fold_at(ratios, adjacency, root, None)[1]
            trees += 1
        return d, trees

    def fold_at(self, ratios, adjacency, v, skip):
        """v's message to skip, (skip, D, E), folded over the messages of its
        other neighbours."""
        messages = self.messages
        a, q = ratios[v]
        b = 1
        for u, w in adjacency[v].items():
            if u != skip:
                m = messages.get(u)
                if m is None or m[0] != v:
                    m = self.reroot(ratios, adjacency, u, v)
                t = w * w * q * ratios[u][1]
                a, b = a * m[1] - t * b * m[2], b * m[1]
        return skip, a, b

    def reroot(self, ratios, adjacency, u, v):
        """The message u -> v, folding back the path from u to the old root."""
        messages = self.messages
        path = [(u, v)]
        m = messages.get(u)
        while m is not None:
            if len(path) > len(messages):
                raise InvariantViolationError("carried fold messages do not form a tree")
            path.append((m[0], path[-1][0]))
            m = messages.get(m[0])
        for x, y in reversed(path):
            messages[x] = self.fold_at(ratios, adjacency, x, y)
        return messages[u]


def compute_h1(ratios, adjacency, fold):
    """|H_1| of the diagram with framings {id: (p, q)} in lowest terms, q >= 1,
    and `adjacency` {id: {neighbour: weight}}: |det| of the presentation
    matrix.

    With a move region set on the _Fold `fold`, one walk from the region's
    root refolds the region from the messages it carries, unless the region
    spans a cycle or more than one tree.  Otherwise those are dropped
    and the region cleared, and a forest is folded whole from the first
    vertex of each tree, with its determinant the product of the roots' D;
    a single tree leaves its messages in `fold`, and a graph with a cycle
    is eliminated.
    """
    region = fold.region
    if region is not None:
        walked = fold.walk(ratios, adjacency, region, region)
        if walked is not None and walked[1] == 1:
            return INFINITE if walked[0] == 0 else abs(walked[0])
        fold.region = None
    fold.messages = {}
    walked = fold.walk(ratios, adjacency, ratios, ratios)
    if walked is None:
        fold.messages = None
        idx = {vid: i for i, vid in enumerate(ratios)}
        rows = []
        for vid, (p, q) in ratios.items():
            row = {idx[u]: q * w for u, w in adjacency[vid].items()}
            if p:
                row[idx[vid]] = p
            rows.append(row)
        d = det_sparse_rows(rows, len(rows))
        return INFINITE if d == 0 else abs(d)
    d, trees = walked
    if trees != 1:  # the messages of a forest or the empty diagram are not kept
        fold.messages = None
    return INFINITE if d == 0 else abs(d)


def check_edges(ids, edges):
    """The canonical-edge rule of every diagram: distinct ids, and edges
    (i, j, w) between two of them with i < j, each pair once, w a nonzero
    integer."""
    idset = set(ids)
    if len(idset) != len(ids):
        raise ValueError("vertex ids must be distinct")
    seen = set()
    for i, j, w in edges:
        if i == j:
            raise ValueError(f"self-edge at {i!r}")
        if i not in idset or j not in idset:
            raise ValueError(f"edge ({i!r}, {j!r}) references unknown vertex")
        if type(w) is not int or w == 0:
            raise ValueError("edge weights must be nonzero integers")
        if (i, j) in seen or i > j:
            raise ValueError("edges must be canonical: id_i < id_j, unique")
        seen.add((i, j))


def canonical_edges(edges: dict) -> tuple:
    """Sorted (i, j, w) triples with i < j from {(i, j): w}; zero weights are
    dropped and a pair given in both orders is an error."""
    canon = {}
    for (i, j), w in edges.items():
        if w == 0 and type(w) is int:
            continue
        key = (i, j) if i < j else (j, i)
        if key in canon:
            raise ValueError(f"duplicate edge {key}")
        canon[key] = w
    return tuple(sorted((i, j, w) for (i, j), w in canon.items()))
