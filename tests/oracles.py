"""Independent oracles for the test suite.

These deliberately share no code with the library: the determinant is a
Leibniz permutation sum, the signature comes from the characteristic
polynomial (Faddeev-LeVerrier) via Descartes' rule (exact for the real-rooted polynomials of
symmetric matrices) or, when no leading principal minor vanishes, from
the signs of those minors by Jacobi's rule; continued fractions are
evaluated by plain Fraction division, and homology orders, leading
minors and linear solves by dense fraction elimination.  d3_oracle puts
the last three together into the d3 formula on a dense presentation.  The
canonical pretty JSON document is json's own indent=2 encoder.

family_presentation is the one exception: it is the library's own dense
presentation of the (h, k) family, kept here for the tests that pin it
and feed it to the dense entry points and the oracles above.
all_pairs_expansion is the pushoff expansion written out pair by pair,
which the library's pushoff stacks must instantiate to.
"""

import itertools
import json
import math
from fractions import Fraction

from openbooks.contact import (
    ContactSurgeryDiagram,
    LegendrianUnknotData,
    expand_to_unit_coefficients,
    presentation_for,
)
from openbooks.d3 import from_expanded_diagram
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

    Its coefficients come from the Faddeev-LeVerrier recurrence
    M_k = m M_(k-1) + c_(n-k+1) I, c_(n-k) = -tr(m M_k) / k, exact; since
    a symmetric matrix has only real eigenvalues, Descartes' rule counts
    the positive and negative roots exactly.
    """
    n = len(m)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    power = [[0] * n for _ in range(n)]  # M_0
    for k in range(1, n + 1):
        power = [[sum(m[i][t] * power[t][j] for t in range(n))
                  + (coeffs[n - k + 1] if i == j else 0) for j in range(n)]
                 for i in range(n)]
        c = Fraction(-sum(m[i][t] * power[t][i] for i in range(n) for t in range(n)), k)
        coeffs[n - k] = c.numerator if c.denominator == 1 else c
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


def dense_solve(mat, rhs):
    """x with mat @ x = rhs, by dense Gaussian elimination over Fractions and
    back substitution; None when mat is singular."""
    n = len(mat)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(mat, rhs)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        _eliminate_below(m, c)
    x = [Fraction(0)] * n
    for c in reversed(range(n)):
        x[c] = (m[c][n] - sum(m[c][j] * x[j] for j in range(c + 1, n))) / m[c][c]
    return x


def _eliminate_below(m, c):
    """Subtract multiples of row c of the Fraction rows m from the rows
    below it, clearing column c there; columns left of c are not read."""
    top = m[c]
    for row in m[c + 1:]:
        f = row[c] / top[c]
        if f:
            for j in range(c + 1, len(top)):
                row[j] -= f * top[j]


def leading_minors(m):
    """The determinant D_k of each leading principal k x k block, k = 1..n:
    while no pivot is 0, dense fraction elimination without row exchanges
    has the k-th pivot D_k / D_(k-1); from a 0 pivot on, dense_det of each
    block."""
    a = [[Fraction(x) for x in row] for row in m]
    minors = []
    for c in range(len(a)):
        if not a[c][c]:
            return minors + [dense_det([row[:k] for row in m[:k]]) for k in range(c + 1, len(m) + 1)]
        minors.append(a[c][c] * (minors[-1] if minors else 1))
        _eliminate_below(a, c)
    return minors


def jacobi_signature(minors):
    """Signature of a symmetric matrix from its leading principal minors, none
    of them 0 (Jacobi): each sign change in 1, D_1, ..., D_n is one negative
    eigenvalue, so sigma is the sum of sign(D_(k-1) * D_k)."""
    signs = [1] + [1 if d > 0 else -1 for d in minors]
    return sum(a * b for a, b in zip(signs, signs[1:]))


def d3_oracle(q, rho, q_plus):
    """d3 = (c^2 - 2 chi - 3 sigma) / 4 + q_+ (Ding-Geiges-Stipsicz 2004) of
    a +-1 contact surgery presentation given densely: the symmetric integer
    linking matrix q, the rotation numbers rho and the count q_plus of +1
    coefficients.  chi = 1 + n; c^2 = rho . x with q x = rho (dense_solve);
    sigma by Jacobi's rule on the leading minors, or from the
    characteristic polynomial when one of them is 0.  None when q is
    singular."""
    n = len(q)
    x = dense_solve(q, rho)
    if x is None:
        return None
    minors = leading_minors(q)
    sigma = jacobi_signature(minors) if all(minors) else signature_oracle(q)
    c_squared = sum(r * xi for r, xi in zip(rho, x))
    return Fraction(c_squared - 2 * (1 + n) - 3 * sigma, 4) + q_plus


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


def symmetrized_presentation_rows(d):
    """The sparse rows {column: nonzero int} of diag(q) L diag(q), L the
    linking matrix with the framings p_i/q_i on its diagonal: q_i q_j lk_ij
    off the diagonal and p_i q_i on it, symmetric and integral, with
    determinant det M * prod q_i for the presentation matrix M; and
    prod q_i."""
    idx = {v.id: i for i, v in enumerate(d.vertices)}
    q = [v.framing.denominator for v in d.vertices]
    rows = [{i: v.framing.numerator * q[i]} if v.framing else {}
            for i, v in enumerate(d.vertices)]
    for a, b, w in d.edges:
        ia, ib = idx[a], idx[b]
        rows[ia][ib] = rows[ib][ia] = q[ia] * q[ib] * w
    return rows, math.prod(q)


def has_integer_framings(d):
    return all(v.framing.denominator == 1 for v in d.vertices)


def linking_matrix(d):
    """Symmetric integer linking matrix (framings on the diagonal): the
    presentation matrix of a diagram whose framings are all integers.  Any
    other diagram is a ValueError."""
    if not has_integer_framings(d):
        raise ValueError("linking matrix needs integer framings")
    return presentation_matrix(d)


def h1_oracle(d):
    """|H1| of a framed link diagram by dense elimination on the
    presentation matrix."""
    if not d.vertices:
        return 1
    det = dense_det(presentation_matrix(d))
    return INFINITE if det == 0 else abs(int(det))


def family_presentation(h, k):
    """(Q, rho, q_+) of the expanded +-1 presentation of the (h, k) family:
    k+1 positive coefficients on the tb = -2 pushoffs and h negative ones on
    tb = -3."""
    q, rho = from_expanded_diagram(expand_to_unit_coefficients(presentation_for(h, k)))
    return q, rho, k + 1


def all_pairs_expansion(d):
    """Replace each 1/m coefficient of an unstacked contact diagram by |m|
    contact pushoffs K.1, ..., K.|m| of coefficient +-1, every pairwise
    linking written out: pushoffs of one knot keep its (tb, rot) and link
    each other at tb, and inherit its linking to every other component.
    Components whose coefficient is already +-1 pass through as themselves;
    an id that is taken twice is a ValueError."""
    components = []
    owner = {}  # expanded id -> the knot it came from
    for c in d.knots:
        num, den = c.contact_coeff.numerator, c.contact_coeff.denominator
        if abs(num) != 1:
            raise ValueError(f"coefficient {c.contact_coeff} of {c.id!r} is not of the form 1/m")
        members = [c] if den == 1 else [
            LegendrianUnknotData(f"{c.id}.{i}", c.tb, c.rot, Fraction(num)) for i in range(1, den + 1)
        ]
        components += members
        owner.update((p.id, c) for p in members)
    if len(owner) != len(components):
        raise ValueError("vertex ids must be distinct")
    lk = {frozenset((i, j)): w for i, j, w in d.linking}
    ids = sorted(owner)
    linking = []
    for a, i in enumerate(ids):
        ci = owner[i]
        for j in ids[a + 1:]:
            cj = owner[j]
            w = ci.tb if ci is cj else lk.get(frozenset((ci.id, cj.id)), 0)
            if w:
                linking.append((i, j, w))
    return ContactSurgeryDiagram(tuple(components), tuple(linking))


def contact_lk(d, i, j):
    """The linking number of components i and j of a contact diagram, its
    stacks written out."""
    return {frozenset((a, b)): w for a, b, w in d.unstacked().linking}.get(frozenset((i, j)), 0)


def json_pretty(obj):
    """The canonical pretty document as json.dumps writes it with indent=2."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
