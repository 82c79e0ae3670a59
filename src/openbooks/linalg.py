"""Exact linear algebra over Z and Q.

Everything in here is integer or fractions.Fraction arithmetic; no floats.
The matrices that show up downstream are small (a few dozen rows) but the
determinants sit on the hot path of the move engine, where they run tens
of thousands of times on chain- and tree-shaped matrices.  Two integer
routines serve it: det_forest expands matrices whose off-diagonal pattern
is a forest in O(n), and det_sparse_rows eliminates any other sparse
matrix; neither uses Fraction objects.
"""

from fractions import Fraction
from math import gcd


class SingularMatrixError(ValueError):
    """Raised when a linear solve meets a singular coefficient matrix."""


def det_forest(diag, edges):
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
        a[u] = a[u] * av - t * b[u] * b[v]
        b[u] *= av
        nbr[u] ^= v
        tsum[u] -= t
        deg[u] -= 1
        if deg[u] == 1:
            leaves.append(u)
    # vertices on a cycle never become leaves
    return result if peeled == n else None


def det_sparse_rows(rows, n):
    """Determinant of an n x n integer matrix given as a list of dict rows.

    Fraction-free row elimination: each combined row is scaled by the pivot,
    and the accumulated scalings are divided out at the end.  A column
    occupancy index keeps every step proportional to the number of rows
    that actually meet the pivot column, so chain-shaped matrices cost
    O(n) instead of O(n^3).

    Entries must be nonzero (sparse convention); the rows are consumed.
    """
    if n == 0:
        return 1
    col_rows = [set() for _ in range(n)]
    for r in range(n):
        for c in rows[r]:
            col_rows[c].add(r)
    unused = set(range(n))
    perm = [0] * n  # perm[c] = original index of the pivot row for column c
    num = 1
    den = 1
    for c in range(n):
        cand = col_rows[c] & unused
        if not cand:
            return 0
        piv = min(cand)
        unused.discard(piv)
        perm[c] = piv
        prow = rows[piv]
        pval = prow[c]
        num *= pval
        for r in cand:
            if r == piv:
                continue
            row = rows[r]
            v = row.pop(c)
            col_rows[c].discard(r)
            den *= pval
            newrow = {j: pval * rv for j, rv in row.items()}
            for j, pv in prow.items():
                if j == c:
                    continue
                x = newrow.get(j, 0) - v * pv
                if x:
                    newrow[j] = x
                else:
                    newrow.pop(j, None)
            rows[r] = newrow
            for j in row:
                if j not in newrow:
                    col_rows[j].discard(r)
            for j in newrow:
                if j not in row:
                    col_rows[j].add(r)
    # parity of the pivot-row permutation, by cycle decomposition
    sign = 1
    seen = [False] * n
    for c in range(n):
        if seen[c]:
            continue
        length = 0
        j = c
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    d, rem = divmod(sign * num, den)
    if rem:
        raise ArithmeticError("exact division failed in fraction-free elimination")
    return d


def det(matrix):
    """Determinant of a square matrix with int or Fraction entries, exact.

    Fraction entries are cleared row by row; the row denominators are divided
    back out of the integer determinant at the end.
    """
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    rows = []
    scale = 1
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
        d = 1
        for x in row:
            if isinstance(x, Fraction):
                q = x.denominator
                d = d * q // gcd(d, q)
        scale *= d
        rows.append({j: int(x * d) for j, x in enumerate(row) if x})
    return Fraction(det_sparse_rows(rows, n), scale)


def signature(matrix):
    """Signature of a symmetric matrix with int or Fraction entries.

    Diagonalizes by congruence: a nonzero diagonal pivot contributes its
    sign and is cleared by a Schur complement; if every remaining diagonal
    entry vanishes but some off-diagonal entry a survives, the corresponding
    hyperbolic pair contributes 0 and is split off in one step.  Works for
    singular matrices (null directions contribute nothing).
    """
    n = len(matrix)
    rows = {}
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise ValueError("matrix is not square")
        rows[i] = {j: Fraction(x) for j, x in enumerate(row) if x}
        if any(matrix[i][j] != matrix[j][i] for j in range(i)):
            raise ValueError("matrix is not symmetric")
    active = set(range(n))
    sig = 0
    while active:
        piv = next((i for i in active if rows[i].get(i)), None)
        if piv is not None:
            a = rows[piv][piv]
            sig += 1 if a > 0 else -1
            active.discard(piv)
            col = [(j, rows[j][piv]) for j in active if rows[j].get(piv)]
            for j, vj in col:
                rj = rows[j]
                rj.pop(piv, None)
                for k, vk in col:
                    if k < j:
                        continue
                    x = rj.get(k, 0) - vj * vk / a
                    rk = rows[k]
                    if x:
                        rj[k] = x
                        rk[j] = x
                    else:
                        rj.pop(k, None)
                        rk.pop(j, None)
            continue
        pair = None
        for i in active:
            for j, v in rows[i].items():
                if j in active and j != i and v:
                    pair = (i, j, v)
                    break
            if pair:
                break
        if pair is None:
            break
        i, j, a = pair
        active.discard(i)
        active.discard(j)
        coli = [(k, rows[k][i]) for k in active if rows[k].get(i)]
        colj = [(k, rows[k][j]) for k in active if rows[k].get(j)]
        di = dict(coli)
        dj = dict(colj)
        for k in active:
            rows[k].pop(i, None)
            rows[k].pop(j, None)
        touched = set(di) | set(dj)
        for k in touched:
            rk = rows[k]
            for l in touched:
                if l < k:
                    continue
                # Schur complement of the block [[0, a], [a, 0]]
                x = rk.get(l, 0) - (di.get(k, 0) * dj.get(l, 0) + dj.get(k, 0) * di.get(l, 0)) / a
                rl = rows[l]
                if x:
                    rk[l] = x
                    rl[k] = x
                else:
                    rk.pop(l, None)
                    rl.pop(k, None)
    return sig


def solve(matrix, rhs):
    """Solve matrix @ x = rhs exactly over Q.

    Raises SingularMatrixError when the matrix is singular.  Entries may be
    ints or Fractions; the result is a list of Fractions.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    if len(rhs) != n:
        raise ValueError("right-hand side has wrong length")
    aug = [
        {j: Fraction(x) for j, x in enumerate(row) if x}
        for row in matrix
    ]
    b = [Fraction(x) for x in rhs]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r].get(c)), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        if piv != c:
            aug[c], aug[piv] = aug[piv], aug[c]
            b[c], b[piv] = b[piv], b[c]
        prow = aug[c]
        pval = prow[c]
        for r in range(c + 1, n):
            row = aug[r]
            v = row.pop(c, None)
            if not v:
                continue
            f = v / pval
            for j, pv in prow.items():
                if j == c:
                    continue
                x = row.get(j, 0) - f * pv
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
            b[r] -= f * b[c]
    x = [Fraction(0)] * n
    for c in range(n - 1, -1, -1):
        row = aug[c]
        acc = b[c]
        for j, v in row.items():
            if j != c:
                acc -= v * x[j]
        x[c] = acc / row[c]
    return x
