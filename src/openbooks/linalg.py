"""Exact linear algebra over Z and Q.

Everything in here is integer or fractions.Fraction arithmetic; no floats.
One sparse integer elimination (Bareiss 1968: fraction-free, every division
by the previous pivot exact), _pivots, is behind det_sparse_rows, det,
signature and solve.  It pivots on the diagonal, each time on a remaining
row with the fewest entries (minimum degree, George-Liu 1989), so a tree
with a few chords eliminates in near-linear time instead of filling in.
That order is a symmetric permutation P^T Q P, which keeps det (det P^2 =
1), sigma (a congruence; Jacobi's rule applies to the leading principal
minors of P^T Q P) and every bordered corner below (r is permuted with
Q).  The pivots are those leading minors, so the last one is the
determinant and, by Jacobi's rule, their signs give the signature.  On a
symmetric Q it also carries right-hand sides r: each pivot row's entry
u_t in r's column updates the corner of Q bordered by r,
acc <- (d_t acc - u_t^2) / d_(t-1), to det [[Q, r], [r^T, 0]] =
-r^T adj(Q) r.  solve takes Q and its right-hand sides as sparse integer
rows, as the d3 module writes them from a diagram's pushoff stacks or a
chain, and returns det Q, sigma(Q) and those corners, all integers, from
one pass; a caller holding a dense int or Fraction matrix converts it
with symmetric_rows first, which also slides each row over its twin (a
handle slide, e_i -> e_i - e_(i-1), where rows i-1 and i agree off
columns i-1 and i): det, sigma and every corner stay, and a dense stack
of parallel contact pushoffs becomes a chain, which the pass eliminates
in O(n) instead of O(n^3).  The move engine's determinants on
chain- and tree-shaped matrices are folded over the tree in the diagram
module; only a graph with a cycle comes here, through det_sparse_rows.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import lcm
from operator import itemgetter


class SingularMatrixError(ValueError):
    """Raised when solve meets a singular matrix."""


def _exact_div(x, d):
    q, rem = divmod(x, d)
    if rem:
        raise ArithmeticError("exact division failed in fraction-free elimination")
    return q


def _pivots(rows, n, bordered=()):
    """Yield the pivots d_1, d_2, ... of a sparse integer Bareiss elimination.

    The n x n matrix is given as dict rows {column: nonzero int}, which are
    consumed: a row is set to None once it is taken.  Pivots are diagonal.
    Each step takes, among the remaining rows with a nonzero diagonal
    entry, one with the fewest entries, the lowest index on a tie (minimum
    degree, George-Liu 1989).  The candidates sit in a lazy heap of (row
    length, index), pushed again whenever an update changes the row; a
    popped entry that no longer matches its row is skipped.  When no
    candidate is left, the first remaining row i is taken: with no entry
    left below column n it is dropped with a yielded 0 (on symmetric input
    its column is empty too); otherwise row and column j < n are added to
    row and column i for an a_ij != 0, so a_ii = a_ij + a_ji (2 a_ij on
    symmetric input), or the row alone if that is 0, so a_ii = a_ji.  Both
    keep det, and the congruence keeps the signature.

    Pivoting out of index order is a symmetric permutation P^T A P, with
    det P^2 = 1: d_t is the t-th leading principal minor of such a
    transform of the input, so the last pivot is det A, and Jacobi's rule
    on the pivots gives the signature of P^T Q P, which is that of Q.  The
    order is chosen step by step, not ahead of time, so a zero diagonal
    entry that fill creates still reaches the congruence step.

    Columns n, n+1, ... are right-hand sides r_0, r_1, ...: they ride along
    in every row update but are never pivoted on.  `bordered` is a list of
    one int per right-hand side, 0 on entry and updated in place.  On
    symmetric input the pivot row's entry u_t in column n+i, at step t - 1,
    is both border entries of the step-t Bareiss update of
    [[Q, r_i], [r_i^T, 0]], so its corner follows
    bordered[i] <- (d_t bordered[i] - u_t^2) / d_(t-1) and ends as
    det [[Q, r_i], [r_i^T, 0]]; permuting Q permutes r with it, which
    keeps r^T adj(Q) r and so every corner.

    A row the pivot column misses stays at level[r], the step it was last
    written at, standing for d_(t-1) / d_level times itself.  An update
    at step t divides by the pivot of that level, (d_t row - v prow) /
    d_level, which equals lifting the row to step t - 1 first and then
    dividing by d_(t-1); only the pivot row is lifted.  Every division is
    checked to be exact.  With the column occupancy index, which the
    general, non-symmetric matrices of det need, a chain or a tree with a
    few chords costs about O(n log n).
    """
    d = [1]  # d[t]: the t-th pivot
    level = [0] * n
    col_rows = [set() for _ in range(n + len(bordered))]
    for r, row in enumerate(rows):
        for c in row:
            col_rows[c].add(r)
    heap = [(len(row), r) for r, row in enumerate(rows) if r in row]
    heapify(heap)
    first = 0  # no row below it remains
    for _ in range(n):
        while heap:
            size, p = heappop(heap)
            prow = rows[p]
            if prow is not None and len(prow) == size and p in prow:
                break
        else:  # every remaining row has a zero diagonal entry
            while rows[first] is None:
                first += 1
            p = first
            prow = rows[p]
            j = next((c for c in prow if c < n), None)
            if j is None:
                rows[p] = None
                yield 0
                continue
            top = d[-1]
            for r in (p, j):  # both rows up to the current step
                s = level[r]
                if s != len(d) - 1:
                    rows[r] = {c: _exact_div(x * top, d[s]) for c, x in rows[r].items()}
                    level[r] = len(d) - 1
            prow, row_j = rows[p], rows[j]
            congruence = prow[j] + row_j.get(p, 0)
            for c, x in row_j.items():
                y = prow.get(c, 0) + x
                if y:
                    prow[c] = y
                    col_rows[c].add(p)
                else:
                    del prow[c]
                    col_rows[c].discard(p)
            if congruence:
                for r in col_rows[j]:
                    row = rows[r]
                    y = row.get(p, 0) + row[j]
                    if y:
                        row[p] = y
                        col_rows[p].add(r)
                    else:
                        del row[p]
                        col_rows[p].discard(r)
        rows[p] = None
        top = d[-1]
        s = level[p]
        if s != len(d) - 1:
            prow = {c: _exact_div(x * top, d[s]) for c, x in prow.items()}
        for c in prow:
            col_rows[c].discard(p)
        piv = prow.pop(p)
        t = len(d)
        for r in col_rows[p]:
            row = rows[r]
            v = row.pop(p)
            below = d[level[r]]
            new = {}
            for c, x in row.items():
                y = prow.get(c)
                if y is None:
                    new[c] = _exact_div(piv * x, below)
                else:
                    x = piv * x - v * y
                    if x:
                        new[c] = _exact_div(x, below)
                    else:
                        col_rows[c].discard(r)
            for c, y in prow.items():
                if c not in row:
                    new[c] = _exact_div(-v * y, below)
                    col_rows[c].add(r)
            rows[r] = new
            level[r] = t
            if r in new:
                heappush(heap, (len(new), r))
        for i, corner in enumerate(bordered):
            u = prow.get(n + i, 0)
            bordered[i] = _exact_div(piv * corner - u * u, top)
        col_rows[p] = ()
        d.append(piv)
        yield piv


def _integer_rows(matrix, rhs=()):
    """Dict rows of a square int or Fraction matrix, with the vectors `rhs`
    appended as columns n, n+1, ..., all times one positive common
    denominator, and that denominator; any other entry (a float, a bool) is
    a TypeError, since int(x * scale) would truncate a float or read True as
    1.  An all-int matrix, the usual case, takes one type scan and scale 1."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    if any(len(r) != n for r in rhs):
        raise ValueError("right-hand side has wrong length")
    dense = [[*row, *extra] for row, extra in zip(matrix, zip(*rhs))] if rhs else matrix
    if set(map(type, chain.from_iterable(dense))) <= {int}:
        return [dict(filter(itemgetter(1), enumerate(row))) for row in dense], 1
    scale = 1
    for row in dense:
        for x in row:
            if isinstance(x, Fraction):
                scale = lcm(scale, x.denominator)
            elif type(x) is not int:
                raise TypeError(f"matrix entries must be int or Fraction, got {x!r}")
    return [{j: int(x * scale) for j, x in enumerate(row) if x} for row in dense], scale


def _slide_twins(rows, n):
    """Slide each row over its twin in place: a unimodular congruence that
    leaves det, sigma and every r^T Q^-1 r alone and makes pushoff stacks
    sparse.

    Rows i-1 and i of the symmetric Q are twins when they agree in every
    column but i-1 and i, right-hand sides included, as parallel pushoffs of
    one knot do.  For each such i the basis vector e_i becomes
    e_i - e_(i-1) (a handle slide): Q' = P^T Q P and r' = P^T r with
    det P = 1.  Since row i - row i-1 of Q is zero off columns i-1 and i,
    a slid row i of Q' has entries only at i-1, i and, if i+1 is slid too,
    i+1, and r'_i = r_i - r_(i-1) = 0; an unslid row keeps its entries in
    unslid columns and gains Q'_(i-1,i) when i is slid.  So a stack of
    pushoffs becomes a chain hanging off its first member.
    """
    slid = [i for i in range(1, n)
            if {**rows[i - 1], i - 1: 0, i: 0} == {**rows[i], i - 1: 0, i: 0}]
    if not slid:
        return
    # Q'_(i,i-1) = Q_(i,i-1) - Q_(i-1,i-1), and Q'_ii
    below = {i: rows[i].get(i - 1, 0) - rows[i - 1].get(i - 1, 0) for i in slid}
    diag = {i: rows[i].get(i, 0) - rows[i - 1].get(i, 0) - below[i] for i in slid}
    is_slid = set(slid)
    for c in slid:  # Q symmetric: the rows holding column c are row c's columns
        for r in rows[c]:
            if r < n and r not in is_slid:
                del rows[r][c]
    for i in slid:
        row = {i - 1: below[i], i: diag[i]}
        if i + 1 in is_slid:
            row[i + 1] = below[i + 1]
        rows[i] = {c: x for c, x in row.items() if x}
        if i - 1 not in is_slid and below[i]:
            rows[i - 1][i] = below[i]


def symmetric_rows(matrix, rhs=()):
    """_integer_rows of a matrix that must be symmetric (ValueError if not),
    twins slid (_slide_twins): the rows solve takes, for a caller that holds
    Q and its right-hand sides densely, and the common denominator they
    were scaled by.  The rows are those of a unimodular congruence of Q,
    with the same det, sigma and r^T Q^-1 r."""
    rows, scale = _integer_rows(matrix, rhs)
    if list(map(tuple, matrix)) != list(zip(*matrix)):
        raise ValueError("matrix is not symmetric")
    _slide_twins(rows, len(matrix))
    return rows, scale


def _jacobi(pivots):
    """Jacobi's rule: each nonzero pivot d_t contributes sign(d_(t-1) d_t),
    with d_0 = 1; null directions contribute nothing."""
    signs = [1] + [1 if piv > 0 else -1 for piv in pivots if piv]
    return sum(a * b for a, b in zip(signs, signs[1:]))


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
    """Signature of a symmetric matrix with int or Fraction entries."""
    rows, _ = symmetric_rows(matrix)
    return _jacobi(_pivots(rows, len(rows)))


def solve(rows, n, count):
    """det Q, sigma(Q) and the bordered corner det [[Q, r], [r^T, 0]] =
    -r^T adj(Q) r of each right-hand side r, exact, from one elimination.

    `rows` are the n dict rows {column: nonzero int} of a symmetric integer
    Q, with the `count` right-hand sides in columns n, ..., n + count - 1;
    they are consumed.  Symmetry is the caller's to keep (symmetric_rows
    checks a dense Q), since the corner recurrence of _pivots reads u_t for
    both border entries.  The last pivot of _pivots is det Q, Jacobi's rule
    on its pivots gives sigma, and by Schur's formula r^T Q^-1 r =
    -corner / det Q.  SingularMatrixError if det Q = 0.  The name is kept
    from the Fraction solver this replaced, for the benchmark's
    linalg.solve layer.
    """
    bordered = [0] * count
    pivots = []
    for piv in _pivots(rows, n, bordered):
        if not piv:
            raise SingularMatrixError("matrix is singular")
        pivots.append(piv)
    return (pivots[-1] if pivots else 1), _jacobi(pivots), bordered
