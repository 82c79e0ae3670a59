"""Exact linear algebra over Z and Q.

Everything in here is integer or fractions.Fraction arithmetic; no floats.
One sparse integer elimination (Bareiss 1968: fraction-free, every division
by the previous pivot exact) is behind det_sparse_rows, det, signature and
solve.  Its pivots are leading principal minors, so the last one is the
determinant and, by Jacobi's rule, their signs give the signature; solve
reads r^T Q^-1 r off the determinant of Q bordered by r.  The move
engine's determinants run tens of thousands of times on chain- and
tree-shaped matrices; det_forest expands those in O(n) over the edges,
and hands back the subtree determinants it folded, from which the
diagram module refolds a tree after a move at the moved vertices only.
"""

from fractions import Fraction
from math import lcm


class SingularMatrixError(ValueError):
    """Raised when solve meets a singular matrix."""


def det_forest(diag, edges, messages=None):
    """Determinant of an integer matrix whose off-diagonal pattern is a forest.

    The matrix has diagonal `diag` and, for each (i, j, t) in `edges`, a
    pair of nonzero entries a_ij, a_ji with t = a_ij * a_ji; every other
    entry is 0.  Returns None when the edges do not form a forest on the
    n = len(diag) vertices (a cycle, a repeated pair or a self-loop), so
    the caller can eliminate instead.

    On a forest every permutation with a nonzero Leibniz term is a product
    of transpositions along edges, so the determinant is a sum over
    matchings.  Rooting each tree and working bottom-up, with D_c the
    determinant of the subtree at c and E_c = prod of D over c's children,

        D_v = a_vv * prod D_c - sum_c t_vc * E_c * prod_{c' != c} D_c'

    which costs O(n) exact integer operations on subtree determinants.
    Leaves are folded into their neighbors one at a time, so each tree is
    rooted wherever its last vertex happens to be.

    A list `messages` of n entries receives the fold's directed messages:
    messages[v] = (u, D, E) when v is folded into its neighbour u, D being
    the determinant of the subtree on v's side of the edge vu and E the same
    with v deleted.  The last vertex of each tree keeps its entry.
    """
    n = len(diag)
    if edges and len(edges) >= n:  # more edges than any forest on n vertices
        return None
    # Peel leaves.  A vertex keeps the XOR of its remaining neighbors and
    # the sum of their t, so once it is a leaf these name its one neighbor
    # and that edge's t.
    deg = [0] * n
    nbr = [0] * n
    tsum = [0] * n
    for i, j, t in edges:
        deg[i] += 1
        deg[j] += 1
        nbr[i] ^= j
        nbr[j] ^= i
        tsum[i] += t
        tsum[j] += t
    # a[v]: det of the part of the tree folded into v so far;
    # b[v]: the same with v deleted, i.e. the product of the folded D
    a = list(diag)
    b = [1] * n
    leaves = [v for v in range(n) if deg[v] < 2]
    peeled = 0
    result = 1
    while leaves:
        v = leaves.pop()
        peeled += 1
        if not deg[v]:  # the last vertex of its tree
            result *= a[v]
            continue
        u = nbr[v]
        t = tsum[v]
        av = a[v]
        if messages is not None:
            messages[v] = (u, av, b[v])
        a[u] = a[u] * av - t * b[u] * b[v]
        b[u] *= av
        nbr[u] ^= v
        tsum[u] -= t
        deg[u] -= 1
        if deg[u] == 1:
            leaves.append(u)
    # vertices on a cycle never become leaves
    return result if peeled == n else None


def _exact_div(x, d):
    q, rem = divmod(x, d)
    if rem:
        raise ArithmeticError("exact division failed in fraction-free elimination")
    return q


def _pivots(rows, n):
    """Yield the pivots d_1, d_2, ... of a sparse integer Bareiss elimination.

    The n x n matrix is given as dict rows {column: nonzero int}, which are
    consumed.  Pivots are diagonal, first remaining index first.  If every
    remaining diagonal entry is 0, row and column j are added to row and
    column i for an a_ij != 0, so a_ii = a_ij + a_ji (2 a_ij on symmetric
    input), or the row alone if that is 0, so a_ii = a_ji.  Both keep det,
    and the congruence keeps the signature: d_t is the t-th leading
    principal minor of such a transform of the input.  An empty row is
    dropped with a yielded 0; on symmetric input its column is empty too.

    Each division by the previous pivot is checked to be exact.  A row the
    pivot column misses stays at level[r], the step it was last updated
    at, and is multiplied by d_t / d_level when next touched, so with the
    column occupancy index chain-shaped matrices cost O(n).
    """
    d = [1]  # d[t]: the t-th pivot
    level = [0] * n
    col_rows = [set() for _ in range(n)]
    for r, row in enumerate(rows):
        for c in row:
            col_rows[c].add(r)
    remaining = list(range(n))

    def lift(r):
        """Row r, brought up to the current step."""
        row = rows[r]
        s = level[r]
        if s != len(d) - 1:
            for c, x in row.items():
                row[c] = _exact_div(x * d[-1], d[s])
            level[r] = len(d) - 1
        return row

    def add(r, c, x):
        """a_rc += x, keeping the occupancy index."""
        row = rows[r]
        y = row.get(c, 0) + x
        if y:
            row[c] = y
            col_rows[c].add(r)
        else:
            del row[c]
            col_rows[c].discard(r)

    while remaining:
        for p in remaining:
            if p in rows[p] or not rows[p]:
                break
        else:  # a nonzero remainder with a zero diagonal
            p = remaining[0]
            j = next(iter(rows[p]))
            row_j = lift(j)
            congruence = lift(p)[j] + row_j.get(p, 0)
            for c, x in row_j.items():
                add(p, c, x)
            if congruence:
                for r in list(col_rows[j]):
                    add(r, p, rows[r][j])
        remaining.remove(p)
        if not rows[p]:
            yield 0
            continue
        prow = lift(p)
        for c in prow:
            col_rows[c].discard(p)
        piv = prow.pop(p)
        for r in col_rows[p]:
            row = lift(r)
            v = row.pop(p)
            new = {c: piv * x for c, x in row.items()}
            for c, y in prow.items():
                new[c] = new.get(c, 0) - v * y
            new = {c: _exact_div(x, d[-1]) for c, x in new.items() if x}
            for c in row:
                if c not in new:
                    col_rows[c].discard(r)
            for c in new:
                if c not in row:
                    col_rows[c].add(r)
            rows[r] = new
            level[r] = len(d)
        col_rows[p] = ()
        d.append(piv)
        yield piv


def _integer_rows(matrix):
    """Dict rows of a square int or Fraction matrix times a positive common
    denominator, and that denominator; any other entry is a TypeError, since
    int(x * scale) would truncate a float."""
    n = len(matrix)
    scale = 1
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
        for x in row:
            if isinstance(x, Fraction):
                scale = lcm(scale, x.denominator)
            elif not isinstance(x, int):
                raise TypeError(f"matrix entries must be int or Fraction, got {x!r}")
    return [{j: int(x * scale) for j, x in enumerate(row) if x} for row in matrix], scale


def det_sparse_rows(rows, n):
    """Determinant of an n x n integer matrix given as a list of dict rows:
    the last pivot, or 0 when the elimination finds the rank short.

    Entries must be nonzero (sparse convention); the rows are consumed.
    """
    last = 1
    for last in _pivots(rows, n):
        if not last:
            return 0
    return last


def det(matrix):
    """Determinant of a square matrix with int or Fraction entries, exact."""
    rows, scale = _integer_rows(matrix)
    return Fraction(det_sparse_rows(rows, len(rows)), scale ** len(rows))


def signature(matrix):
    """Signature of a symmetric matrix with int or Fraction entries.

    By Jacobi's rule each nonzero pivot d_t contributes sign(d_(t-1) d_t),
    with d_0 = 1; null directions contribute nothing.
    """
    rows, _ = _integer_rows(matrix)
    if any(rows[j].get(i) != x for i, row in enumerate(rows) for j, x in row.items()):
        raise ValueError("matrix is not symmetric")
    signs = [1] + [1 if piv > 0 else -1 for piv in _pivots(rows, len(rows)) if piv]
    return sum(a * b for a, b in zip(signs, signs[1:]))


def solve(matrix, rhs, det):
    """rhs^T matrix^-1 rhs, exact, for a square int or Fraction matrix of
    determinant det, which the caller already has; SingularMatrixError if 0.

    By Schur's formula det [[Q, r], [r^T, 0]] = -det Q * r^T Q^-1 r: one
    elimination of the bordered matrix, in any pivot order, so the
    congruence step may reach the border.  The name is kept from the
    Fraction solver this replaced, for the benchmark's linalg.solve layer.
    """
    if not det:
        raise SingularMatrixError("matrix is singular")
    if len(rhs) != len(matrix):
        raise ValueError("right-hand side has wrong length")
    rows, scale = _integer_rows(
        [list(row) + [b] for row, b in zip(matrix, rhs)] + [list(rhs) + [0]]
    )
    bordered = 0
    for bordered in _pivots(rows, len(rows)):
        if not bordered:
            break
    return Fraction(-bordered, scale ** len(rows) * det)
