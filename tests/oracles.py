"""Independent oracles for the test suite.

These deliberately share no code with the library: the determinant is a
Leibniz permutation sum, the signature comes from the characteristic
polynomial via Descartes' rule (exact for the real-rooted polynomials of
symmetric matrices) or, when no leading principal minor vanishes, from
the signs of those minors by Jacobi's rule; continued fractions are
evaluated by plain Fraction division, and homology orders and leading
minors by dense fraction elimination.
"""

import itertools
from fractions import Fraction

from openbooks.diagram import INFINITE
from openbooks.lens import POLE


def leibniz_det(m):
    """Permutation-sum determinant; fine up to 6 x 6."""
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for c in range(n):
            if seen[c]:
                continue
            length, j = 0, c
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        p = Fraction(sign)
        for i in range(n):
            p *= m[i][perm[i]]
        total += p
    return total


def _variations(seq):
    seq = [s for s in seq if s != 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if (a > 0) != (b > 0))


def signature_oracle(m):
    """Signature from the characteristic polynomial.

    coeff of x^(n-k) is (-1)^k * (sum of k x k principal minors); since a
    symmetric matrix has only real eigenvalues, Descartes' rule counts the
    positive and negative roots exactly.
    """
    n = len(m)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    for k in range(1, n + 1):
        e = Fraction(0)
        for subset in itertools.combinations(range(n), k):
            sub = [[Fraction(m[i][j]) for j in subset] for i in subset]
            e += leibniz_det(sub)
        coeffs[n - k] = (-1) ** k * e
    z = 0
    while coeffs[z] == 0:
        z += 1
    cs = coeffs[z:]
    pos = _variations(cs)
    neg = _variations([c if i % 2 == 0 else -c for i, c in enumerate(cs)])
    return pos - neg


def cf_oracle(coeffs):
    """Plain right-to-left Fraction evaluation; POLE on any division by zero.

    Suitable for pole-free inputs such as negative continued fraction
    expansions, where it is a genuinely independent evaluation.
    """
    value = None
    for a in reversed(coeffs):
        if value is None:
            value = Fraction(a)
        else:
            if value == 0:
                return POLE
            value = a - 1 / value
    return POLE if value is None else value


def dense_det(mat):
    """Dense Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in mat]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                for j in range(c, n):
                    m[r][j] -= f * m[c][j]
    return det


def leading_minors(m):
    """dense_det of each leading principal k x k block, k = 1..n."""
    return [dense_det([row[:k] for row in m[:k]]) for k in range(1, len(m) + 1)]


def jacobi_signature(minors):
    """Signature of a symmetric matrix from its leading principal minors, none
    of them 0 (Jacobi): each sign change in 1, D_1, ..., D_n is one negative
    eigenvalue, so sigma is the sum of sign(D_(k-1) * D_k)."""
    signs = [1] + [1 if d > 0 else -1 for d in minors]
    return sum(a * b for a, b in zip(signs, signs[1:]))


def presentation_matrix(d):
    """Dense integer presentation matrix of H1: rows p_i, q_i * lk."""
    n = len(d.vertices)
    idx = {v.id: i for i, v in enumerate(d.vertices)}
    m = [[0] * n for _ in range(n)]
    for i, v in enumerate(d.vertices):
        m[i][i] = v.framing.numerator
    for a, b, w in d.edges:
        ia, ib = idx[a], idx[b]
        m[ia][ib] = d.vertices[ia].framing.denominator * w
        m[ib][ia] = d.vertices[ib].framing.denominator * w
    return m


def h1_oracle(d):
    """|H1| of a framed link diagram by dense elimination on the
    presentation matrix."""
    if not d.vertices:
        return 1
    det = dense_det(presentation_matrix(d))
    return INFINITE if det == 0 else abs(int(det))
