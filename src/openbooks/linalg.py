"""Exact linear algebra over Z and Q, on symmetric matrices only.

Everything in here is integer or fractions.Fraction arithmetic; no floats.
Every matrix the program eliminates is symmetric, the linking forms behind
|H_1| and the contact linking matrix Q behind d3, and so is every input
here: a dense matrix that is not is a ValueError (symmetric_rows), and
sparse rows are the caller's to keep symmetric.
One sparse integer elimination (Bareiss 1968: fraction-free, every division
by the previous pivot exact), _pivots, is behind det_sparse_rows, det,
signature and solve.  It pivots on the diagonal, each time on a remaining
row with the fewest entries (minimum degree, George-Liu 1989), so a tree
with a few chords eliminates in near-linear time instead of filling in.
That order is a symmetric permutation P^T Q P, which keeps det (det P^2 =
1), sigma (a congruence; Jacobi's rule applies to the leading principal
minors of P^T Q P) and every bordered corner below (r is permuted with
Q).  The pivots are those leading minors, so the last one is the
determinant and, by Jacobi's rule, their signs give the signature.  It
also carries right-hand sides r: each pivot row's entry
u_t in r's column updates the corner of Q bordered by r,
acc <- (d_t acc - u_t^2) / d_(t-1), to det [[Q, r], [r^T, 0]] =
-r^T adj(Q) r.  solve takes Q and its right-hand sides as sparse integer
rows, as the d3 module writes them from a diagram's pushoff stacks or a
chain, and returns det Q, sigma(Q) and those corners, all integers, from
one pass; it is the only entry the program's d3 work takes.  det and
signature take a dense int or Fraction matrix through symmetric_rows.
The move engine's determinants on chain- and tree-shaped matrices are
folded over the tree in the diagram module; only a graph with a cycle
comes here, through det_sparse_rows.
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
    """Yield the pivots d_1, d_2, ... of a sparse integer Bareiss elimination
    of a symmetric matrix.

    The symmetric n x n matrix is given as dict rows {column: nonzero int},
    which are consumed: a row is set to None once it is taken.  Every step
    keeps the remaining rows symmetric, so the rows a pivot updates are
    read off its own row, as its columns below n.  Pivots are diagonal.
    Each step takes, among the remaining rows with a nonzero diagonal
    entry, one with the fewest entries, the lowest index on a tie (minimum
    degree, George-Liu 1989).  The candidates sit in a lazy heap of (row
    length, index), pushed again whenever an update changes the row; a
    popped entry that no longer matches its row is skipped.  When no
    candidate is left, the first remaining row i is taken: with no entry
    left below column n it is dropped with a yielded 0 (its column is
    empty too); otherwise row and column j < n are added to row and column
    i for an a_ij != 0, so a_ii = 2 a_ij, since a_jj = 0 as well.  That
    congruence keeps det and the signature.

    Pivoting out of index order is a symmetric permutation P^T A P, with
    det P^2 = 1: d_t is the t-th leading principal minor of such a
    transform of the input, so the last pivot is det A, and Jacobi's rule
    on the pivots gives the signature of P^T Q P, which is that of Q.  The
    order is chosen step by step, not ahead of time, so a zero diagonal
    entry that fill creates still reaches the congruence step.

    Columns n, n+1, ... are right-hand sides r_0, r_1, ...: they ride along
    in every row update but are never pivoted on.  `bordered` is a list of
    one int per right-hand side, 0 on entry and updated in place.  The
    pivot row's entry u_t in column n+i, at step t - 1, is both border
    entries of the step-t Bareiss update of [[Q, r_i], [r_i^T, 0]], so its
    corner follows bordered[i] <- (d_t bordered[i] - u_t^2) / d_(t-1) and
    ends as det [[Q, r_i], [r_i^T, 0]]; permuting Q permutes r with it,
    which keeps r^T adj(Q) r and so every corner.

    A row the pivot column misses stays at level[r], the step it was last
    written at, standing for d_(t-1) / d_level times itself.  An update
    at step t divides by the pivot of that level, (d_t row - v prow) /
    d_level, which equals lifting the row to step t - 1 first and then
    dividing by d_(t-1); only the pivot row is lifted.  Every division is
    checked to be exact.  A chain or a tree with a few chords costs about
    O(n log n).
    """
    d = [1]  # d[t]: the t-th pivot
    level = [0] * n
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
            for c, x in row_j.items():
                y = prow.get(c, 0) + x
                if y:
                    prow[c] = y
                else:
                    del prow[c]
            for r in row_j:  # column j's rows, p among them
                if r < n:
                    row = rows[r]
                    y = row.get(p, 0) + row[j]
                    if y:
                        row[p] = y
                    else:
                        del row[p]
        rows[p] = None
        top = d[-1]
        s = level[p]
        if s != len(d) - 1:
            prow = {c: _exact_div(x * top, d[s]) for c, x in prow.items()}
        piv = prow.pop(p)
        t = len(d)
        for r in prow:  # column p's rows
            if r >= n:
                continue
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
            for c, y in prow.items():
                if c not in row:
                    new[c] = _exact_div(-v * y, below)
            rows[r] = new
            level[r] = t
            if r in new:
                heappush(heap, (len(new), r))
        for i, corner in enumerate(bordered):
            u = prow.get(n + i, 0)
            bordered[i] = _exact_div(piv * corner - u * u, top)
        d.append(piv)
        yield piv


def symmetric_rows(matrix):
    """Dict rows of a square symmetric int or Fraction matrix, times one
    positive common denominator, and that denominator: the rows _pivots
    takes, for det and signature, which hold a matrix densely.  A matrix
    that is not square or not symmetric is a ValueError; any other entry (a
    float, a bool) is a TypeError, since int(x * scale) would truncate a
    float or read True as 1.  An all-int matrix, the usual case, takes one
    type scan and scale 1."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    if list(map(tuple, matrix)) != list(zip(*matrix)):
        raise ValueError("matrix is not symmetric")
    if set(map(type, chain.from_iterable(matrix))) <= {int}:
        return [dict(filter(itemgetter(1), enumerate(row))) for row in matrix], 1
    scale = 1
    for row in matrix:
        for x in row:
            if isinstance(x, Fraction):
                scale = lcm(scale, x.denominator)
            elif type(x) is not int:
                raise TypeError(f"matrix entries must be int or Fraction, got {x!r}")
    return [{j: int(x * scale) for j, x in enumerate(row) if x} for row in matrix], scale


def _jacobi(pivots):
    """Jacobi's rule: each nonzero pivot d_t contributes sign(d_(t-1) d_t),
    with d_0 = 1; null directions contribute nothing."""
    signs = [1] + [1 if piv > 0 else -1 for piv in pivots if piv]
    return sum(a * b for a, b in zip(signs, signs[1:]))


def det_sparse_rows(rows, n):
    """Determinant of a symmetric n x n integer matrix given as a list of
    dict rows: the last pivot, or 0 when the elimination finds the rank
    short.

    Entries must be nonzero (sparse convention) and the rows symmetric, as
    for every input of _pivots; the rows are consumed.
    """
    last = 1
    for last in _pivots(rows, n):
        if not last:
            return 0
    return last


def det(matrix):
    """Determinant of a square symmetric matrix with int or Fraction
    entries, exact; ValueError if it is not symmetric."""
    rows, scale = symmetric_rows(matrix)
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
    they are consumed.  Symmetry is the caller's to keep, as for every
    input of _pivots.  The last pivot of
    _pivots is det Q, Jacobi's rule on its pivots gives sigma, and by
    Schur's formula r^T Q^-1 r = -corner / det Q.  SingularMatrixError if
    det Q = 0.  The name is kept from the Fraction solver this replaced,
    for the benchmark's linalg.solve layer.
    """
    bordered = [0] * count
    pivots = []
    for piv in _pivots(rows, n, bordered):
        if not piv:
            raise SingularMatrixError("matrix is singular")
        pivots.append(piv)
    return (pivots[-1] if pivots else 1), _jacobi(pivots), bordered
