"""Framed link diagrams as weighted graphs, and their first homology order.

A diagram is a set of vertices (surgery components) carrying exact
rational framings, together with symmetric integer edge weights recording
pairwise linking numbers.  The presentation matrix of the first homology
of the surgered manifold has M_ii = p_i and M_ij = q_i * lk_ij, where the
framing of component i is p_i/q_i in lowest terms; the order of H_1 is
|det M|, with 0 reported as INFINITE.  When the linking graph is a forest
(every chain and tree the family reduction passes through) the
determinant is expanded over the edges in O(n) (linalg.det_forest); any
other graph goes through linalg's sparse fraction-free Bareiss elimination
(linalg.det_sparse_rows).  Both give the determinant of the full matrix,
so no move check is ever partial.

This module alone knows how a diagram stores its graph: the canonical
edge rule (check_edges, shared with the contact surgery diagrams), the
id index, and one adjacency map {id: {neighbour: weight}}, built on first
use in edge order, that linking numbers, neighbour lists and the path
walk behind the chain queries all read.

Diagrams are immutable values.  This module also owns the move
bookkeeping: every Kirby move is a congruence of the linking form plus
at most one +-1 or leaf block, and FramedLinkDiagram.apply_move takes a
move as that data, builds the new diagram, checks |H_1| of the full
post-move matrix against the order before the move, and appends the
MoveRecord that stores both.  The kirby module holds each move's
preconditions and congruence data.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .linalg import det_forest, det_sparse_rows
from .serialize import fraction_str, parse_fraction


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
    id: str
    framing: Fraction
    is_unknot: bool = True

    def __post_init__(self):
        object.__setattr__(self, "framing", Fraction(self.framing))


@dataclass(frozen=True)
class MoveRecord:
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


@dataclass(frozen=True)
class FramedLinkDiagram:
    """Framed unknots with integer pairwise linking, plus a move log."""

    vertices: tuple = ()
    edges: tuple = ()  # ((id_i, id_j, weight), ...) with id_i < id_j, sorted
    move_log: tuple = ()

    def __post_init__(self):
        check_edges([v.id for v in self.vertices], self.edges)

    @staticmethod
    def build(vertices, edges: dict, move_log=()) -> "FramedLinkDiagram":
        """Construct from any iterable of vertices and an edge dict {(i, j): w};
        zero weights are dropped and pairs are canonicalized."""
        vs = tuple(
            v if isinstance(v, Vertex) else Vertex(v[0], Fraction(v[1]), *(v[2:] or (True,)))
            for v in vertices
        )
        return FramedLinkDiagram(vs, canonical_edges(edges), tuple(move_log))

    def apply_move(self, move, args, framings=None, deltas=None, drop=None,
                   append=None) -> "FramedLinkDiagram":
        """Apply one Kirby move given as its congruence data, checked and logged.

        framings {id: framing} replaces framings; deltas {(i, j): dw}, keyed
        by id pair in either order, adds to linking numbers; `drop` names a
        vertex to remove with its edges and `append` is a new Vertex.  The
        move's preconditions (the kirby module) make the data refer to this
        diagram's vertices.  Zero weights are dropped, |H_1| of the full
        post-move matrix must equal this diagram's (InvariantViolationError
        otherwise), and the MoveRecord (move, args, both orders) is appended.
        """
        vertices = list(self.vertices)
        idx = self._index
        for vid, framing in (framings or {}).items():
            i = idx[vid]
            vertices[i] = Vertex(vid, framing, vertices[i].is_unknot)
        if drop is None:
            edges = {(i, j): w for i, j, w in self.edges}
        else:
            del vertices[idx[drop]]
            edges = {(i, j): w for i, j, w in self.edges if drop != i and drop != j}
        if append is not None:
            vertices.append(append)
        for (i, j), dw in (deltas or {}).items():
            key = (i, j) if i < j else (j, i)
            edges[key] = edges.get(key, 0) + dw
        vertices = tuple(vertices)
        edges = tuple(sorted((i, j, w) for (i, j), w in edges.items() if w))
        before, after = self.h1, compute_h1(vertices, edges)
        if after != before:
            raise InvariantViolationError(
                f"move {move} with args {dict(args)} changed |H_1|: {before!r} -> {after!r}"
            )
        # canonical by construction, so __post_init__ is skipped; h1 is the
        # order just checked
        moved = object.__new__(FramedLinkDiagram)
        moved.__dict__.update(
            vertices=vertices, edges=edges, h1=after,
            move_log=self.move_log + (MoveRecord(move, tuple(args), before, after),),
        )
        return moved

    # -- accessors ---------------------------------------------------------

    @cached_property
    def _index(self):
        return {v.id: i for i, v in enumerate(self.vertices)}

    def __contains__(self, vid) -> bool:
        return vid in self._index

    @cached_property
    def _adjacency(self):
        adj = {v.id: {} for v in self.vertices}
        for i, j, w in self.edges:
            adj[i][j] = w
            adj[j][i] = w
        return adj

    def vertex(self, vid: str) -> Vertex:
        return self.vertices[self._index[vid]]

    def framing(self, vid: str) -> Fraction:
        return self.vertex(vid).framing

    def linking(self, i: str, j: str) -> int:
        return self._adjacency.get(i, {}).get(j, 0)

    def neighbors(self, vid: str):
        """[(neighbour, weight), ...] in edge order."""
        return list(self._adjacency.get(vid, {}).items())

    def has_integer_framings(self) -> bool:
        return all(v.framing.denominator == 1 for v in self.vertices)

    # -- invariants --------------------------------------------------------

    @cached_property
    def h1(self):
        """Order of H_1 of the surgered manifold; INFINITE when b_1 > 0."""
        return compute_h1(self.vertices, self.edges)

    def linking_matrix(self):
        """Symmetric integer linking matrix (framings on the diagonal).

        Only defined when every framing is an integer.
        """
        if not self.has_integer_framings():
            raise ValueError("linking matrix needs integer framings")
        n = len(self.vertices)
        idx = self._index
        m = [[0] * n for _ in range(n)]
        for i, v in enumerate(self.vertices):
            m[i][i] = v.framing.numerator
        for a, b, w in self.edges:
            ia, ib = idx[a], idx[b]
            m[ia][ib] = w
            m[ib][ia] = w
        return m

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
            vs = tuple(
                Vertex(v["id"], parse_fraction(v["framing"]), v.get("unknot", True))
                for v in data["vertices"]
            )
            es = data.get("edges", [])
            if not (all(isinstance(v.id, str) and isinstance(v.is_unknot, bool) for v in vs)
                    and is_json_edge_list(es)):
                raise ValueError("diagram JSON needs string ids, boolean unknot flags and "
                                 "[id, id, integer] edges")
            return cls(vs, tuple(sorted(map(tuple, es))))
        except (KeyError, TypeError, AttributeError) as e:
            raise ValueError(f"malformed diagram JSON: {e!r}") from None

    def same_diagram(self, other: "FramedLinkDiagram") -> bool:
        """Equality of vertices and edges, ignoring the move logs."""
        return self.vertices == other.vertices and self.edges == other.edges


def compute_h1(vertices, edges):
    """H_1 order from raw vertex/edge data: |det| of the presentation matrix.

    Forests (the chains and trees the family reduction passes through) are
    expanded over their edges; any other graph is eliminated.  Both give the
    determinant of the full matrix.
    """
    n = len(vertices)
    if n == 0:
        return 1
    idx = {}
    ps = []
    qs = []
    for i, v in enumerate(vertices):
        idx[v.id] = i
        p, q = v.framing.as_integer_ratio()
        ps.append(p)
        qs.append(q)
    # an edge contributes the product of its two entries, q_a w * q_b w
    if qs.count(1) == n:  # integer framings
        products = [(idx[a], idx[b], w * w) for a, b, w in edges]
    else:
        products = [(idx[a], idx[b], qs[idx[a]] * qs[idx[b]] * w * w) for a, b, w in edges]
    d = det_forest(ps, products)
    if d is None:
        rows = [{i: p} if p else {} for i, p in enumerate(ps)]
        for a, b, w in edges:
            ia, ib = idx[a], idx[b]
            rows[ia][ib] = qs[ia] * w
            rows[ib][ia] = qs[ib] * w
        d = det_sparse_rows(rows, n)
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
        if not isinstance(w, int) or w == 0:
            raise ValueError("edge weights must be nonzero integers")
        if (i, j) in seen or i > j:
            raise ValueError("edges must be canonical: id_i < id_j, unique")
        seen.add((i, j))


def is_json_edge_list(edges) -> bool:
    """True when every entry of a parsed JSON edge list is [str, str, int]."""
    return all(isinstance(e, list) and len(e) == 3 and isinstance(e[0], str)
               and isinstance(e[1], str) and type(e[2]) is int for e in edges)


def canonical_edges(edges: dict) -> tuple:
    """Sorted (i, j, w) triples with i < j from {(i, j): w}; zero weights are
    dropped and a pair given in both orders is an error."""
    canon = {}
    for (i, j), w in edges.items():
        if w == 0:
            continue
        key = (i, j) if i < j else (j, i)
        if key in canon:
            raise ValueError(f"duplicate edge {key}")
        canon[key] = int(w)
    return tuple(sorted((i, j, w) for (i, j), w in canon.items()))
