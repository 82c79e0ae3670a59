import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from openbooks import linalg
from openbooks.linalg import (
    SingularMatrixError,
    _pivots,
    det,
    det_sparse_rows,
    signature,
    solve,
    symmetric_rows,
)

from openbooks.diagram import INFINITE, FramedLinkDiagram

from diagram_gen import random_chain, random_forest
from oracles import (
    dense_det,
    dense_solve,
    jacobi_signature,
    leading_minors,
    leibniz_det,
    presentation_matrix,
    signature_oracle,
    symmetrized_presentation_rows,
)


def solve_dense(m, rhs):
    """solve on a dense int or Fraction system: det Q, sigma(Q) and
    r^T Q^-1 r for each r in rhs, exact.  symmetric_rows writes the bordered
    [[Q, R], [R^T, 0]], whose first n rows are Q's with the right-hand sides
    in columns n, n+1, ..., all over one common denominator."""
    n = len(m)
    bordered = [[*row, *(r[i] for r in rhs)] for i, row in enumerate(m)]
    bordered += [[*r, *[0] * len(rhs)] for r in rhs]
    rows, scale = symmetric_rows(bordered)
    det_q, sigma, corners = solve(rows[:n], n, len(rhs))
    return Fraction(det_q, scale ** n), sigma, [Fraction(-c, scale * det_q) for c in corners]


def _sparse_rows(m):
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def _variants(m):
    """m; its skew part m - m^T; the hyperbolic m + m^T with the diagonal
    cleared, whose zero diagonal forces the elimination's congruence step;
    and m with its last row replaced by the sum of the others (singular)."""
    n = len(m)
    skew = [[m[i][j] - m[j][i] for j in range(n)] for i in range(n)]
    hyperbolic = [[m[i][j] + m[j][i] if i != j else 0 for j in range(n)] for i in range(n)]
    singular = m[:-1] + [[sum(row[j] for row in m[:-1]) for j in range(n)]] if n else m
    return m, skew, hyperbolic, singular


def _symmetric_variants(m):
    """m + m^T; the hyperbolic variant of _variants; and m + m^T with its
    last index replaced by index 0, singular when n >= 2."""
    n = len(m)
    sym = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
    idx = [*range(n - 1), 0] if n > 1 else range(n)
    return sym, _variants(m)[2], [[sym[i][j] for j in idx] for i in idx]


def _is_symmetric(m):
    return all(m[i][j] == m[j][i] for i in range(len(m)) for j in range(i))


def test_det_matches_leibniz_on_random_integer_matrices():
    # det takes symmetric matrices only, as every caller has them: a
    # symmetric variant matches Leibniz, and m and its skew part, unless
    # they are symmetric, are refused
    with pytest.raises(ValueError, match="not symmetric"):
        det([[1, 2], [0, 1]])
    rng = random.Random(20240)
    for _ in range(1500):
        n = rng.randint(0, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        for v in _symmetric_variants(m):
            assert det(v) == leibniz_det(v)
        for v in _variants(m)[:2]:
            if not _is_symmetric(v):
                with pytest.raises(ValueError, match="not symmetric"):
                    det(v)


def test_det_matches_leibniz_on_rational_matrices():
    with pytest.raises(ValueError, match="not symmetric"):
        det([[Fraction(1, 2), 1], [Fraction(1, 3), 1]])
    rng = random.Random(20241)
    for _ in range(400):
        n = rng.randint(1, 4)
        m = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
        for v in _symmetric_variants(m):
            assert det(v) == leibniz_det(v)
        for v in _variants(m)[:2]:
            if not _is_symmetric(v):
                with pytest.raises(ValueError, match="not symmetric"):
                    det(v)


def test_det_empty_matrix_is_one():
    assert det([]) == 1


def test_signature_matches_charpoly_oracle():
    rng = random.Random(20242)
    for _ in range(600):
        n = rng.randint(1, 5)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randint(-4, 4)
                m[i][j] = v
                m[j][i] = v
        assert signature(m) == signature_oracle(m)


def test_signature_handles_zero_diagonal_blocks():
    # hyperbolic pair: signature 0
    assert signature([[0, 1], [1, 0]]) == 0
    assert signature([[0, 3], [3, 0]]) == 0
    # definite cases
    assert signature([[2, 0], [0, 5]]) == 2
    assert signature([[-1, 0], [0, -7]]) == -2
    assert signature([[0]]) == 0
    # singular, and hyperbolic pairs beside other blocks
    assert signature([[0, 0], [0, 0]]) == 0
    assert signature([[1, 1], [1, 1]]) == 1
    assert signature([[0, 1, 0], [1, 0, 0], [0, 0, -3]]) == -1
    assert signature([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == -1
    assert signature([[0, Fraction(1, 2)], [Fraction(1, 2), 0]]) == 0
    rng = random.Random(20247)
    for _ in range(300):
        n = rng.randint(2, 5)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        for sym in (_variants(m)[2], [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]):
            # index 0 repeated in place of the last: symmetric and singular
            idx = [*range(n - 1), 0]
            singular = [[sym[i][j] for j in idx] for i in idx]
            assert signature(sym) == signature_oracle(sym)
            assert signature(singular) == signature_oracle(singular)


def test_inexact_entries_are_rejected():
    # a float would be truncated to an integer, not used exactly, and a bool
    # read as 0 or 1
    with pytest.raises(TypeError):
        det([[0.5]])
    with pytest.raises(TypeError):
        signature([[-0.5]])
    with pytest.raises(TypeError):
        solve_dense([[2]], [[0.5]])
    with pytest.raises(TypeError):
        det([[True]])
    with pytest.raises(TypeError):
        signature([[True, False], [False, True]])


def test_signature_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        signature([[1, 2], [3, 4]])


# Zero-diagonal symmetric systems on which the congruence step would pick
# the right-hand side's column if it could; it may pick only columns of Q
_BORDER_CONGRUENCE = [
    ([[0, 2, 2, 2], [2, 0, 0, 0], [2, 0, 0, 1], [2, 0, 1, 0]], [0, 0, 1, 0]),
    ([[0, -1, -1, 2], [-1, 0, 0, 0], [-1, 0, 0, 1], [2, 0, 1, 0]], [0, -1, 0, 0]),
    ([[0, -1, 1, 0], [-1, 0, 0, 2], [1, 0, 0, -1], [0, 2, -1, 0]], [0, 0, 1, 0]),
    ([[0, -1, 1, 0], [-1, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]], [0, 0, -1, 0]),
]


def _quadratic_form(m, b):
    """b^T m^-1 b by the dense oracle."""
    return sum(Fraction(bi) * xi for bi, xi in zip(b, dense_solve(m, b)))


def test_solve_roundtrip_on_random_systems():
    # general, skew and zero-diagonal symmetric systems, each also with
    # rational entries: the symmetric ones against the dense oracle, and
    # the others refused, since solve's corner recurrence needs symmetry
    rng = random.Random(20243)
    systems = list(_BORDER_CONGRUENCE)
    kinds = [0, 0, 0]
    while min(kinds) < 100:
        n = rng.randint(1, 6)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        b = [rng.randint(-5, 5) for _ in range(n)]
        for kind, v in enumerate(_variants(m)[:3]):
            if dense_det(v) != 0:
                kinds[kind] += 1
                systems.append((v, b))
                scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
                systems.append(([[x * scale for x in row] for row in v],
                                [Fraction(x, rng.randint(1, 3)) for x in b]))
    for m, b in systems:
        if any(m[i][j] != m[j][i] for i in range(len(m)) for j in range(i)):
            with pytest.raises(ValueError, match="not symmetric"):
                solve_dense(m, [b])
        else:
            assert solve_dense(m, [b])[2] == [_quadratic_form(m, b)]


def test_solve_raises_on_singular():
    m = [[1, 2], [2, 4]]
    assert dense_solve(m, [1, 1]) is None
    with pytest.raises(SingularMatrixError):
        solve_dense(m, [[1, 1]])
    with pytest.raises(ValueError):
        solve_dense([[1]], [[1, 2]])


def _random_symmetric(rng, n, zero_diagonal, rational):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + zero_diagonal, n):
            x = rng.choice((0, rng.randint(-5, 5)))
            if rational:
                x = Fraction(x, rng.randint(1, 4))
            m[i][j] = m[j][i] = x
    return m


def _oracle_signature(m, rng):
    """Jacobi's rule on the leading minors of P m P^T for a random invertible
    P, which keeps the signature (Sylvester), until none of them is 0."""
    n = len(m)
    congruent = m
    while not all(minors := leading_minors(congruent)):
        p = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if dense_det(p):
            pm = [[sum(p[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
            congruent = [[sum(pm[i][k] * p[j][k] for k in range(n)) for j in range(n)]
                         for i in range(n)]
    return jacobi_signature(minors)


def test_one_pass_matches_oracles_with_several_right_hand_sides():
    # det, sigma and every c^2 of 1-6 right-hand sides from one elimination,
    # on symmetric systems with a nonzero diagonal and with a zero one (the
    # congruence step), each kind also with rational entries
    rng = random.Random(20248)
    kinds = {(zero_diagonal, rational): 0 for zero_diagonal in (0, 1) for rational in (0, 1)}
    while min(kinds.values()) < 100:
        kind = min(kinds, key=kinds.get)
        n = rng.randint(1, 6)
        m = _random_symmetric(rng, n, *kind)
        if not kind[0]:
            for i in range(n):
                m[i][i] = m[i][i] or rng.choice((-3, 2))
        d = dense_det(m)
        if d == 0:
            with pytest.raises(SingularMatrixError):
                solve_dense(m, [[1] * n])
            continue
        kinds[kind] += 1
        rhs = [[rng.choice((0, rng.randint(-4, 4))) for _ in range(n)]
               for _ in range(rng.randint(1, 6))]
        if kind[1]:
            rhs = [[Fraction(x, rng.randint(1, 3)) for x in r] for r in rhs]
        assert solve_dense(m, rhs) == (d, _oracle_signature(m, rng), [_quadratic_form(m, r) for r in rhs])
    e0 = [1, 0, 0, 0]
    for m, b in _BORDER_CONGRUENCE:
        assert solve_dense(m, [b, e0]) == (
            dense_det(m), _oracle_signature(m, rng), [_quadratic_form(m, b), _quadratic_form(m, e0)]
        )


def _order(det_m):
    return INFINITE if det_m == 0 else abs(det_m)


def _symmetrized_det(d):
    """det of d's presentation matrix M by the elimination, which takes the
    symmetric diag(q) L diag(q) = M diag(q) and is divided by prod q."""
    rows, scale = symmetrized_presentation_rows(d)
    return Fraction(det_sparse_rows(rows, len(rows)), scale)


def test_tree_fold_matches_elimination_and_dense_oracle():
    # a forest's |H1| comes from the diagram module's tree fold, never from
    # elimination; both must give the same determinant
    rng = random.Random(20244)
    zero = several_trees = 0
    for _ in range(600):
        d = random_forest(rng)
        m = presentation_matrix(d)
        value = d.h1
        assert value == _order(_symmetrized_det(d)) == _order(dense_det(m))
        zero += value is INFINITE
        several_trees += len(d.edges) < len(d.vertices) - 1
    assert zero >= 30 and several_trees >= 200


def test_tree_fold_on_long_chains():
    rng = random.Random(20245)
    for n in (1, 2, 3, 50, 199, 400):
        d = random_chain(rng, n)
        m = presentation_matrix(d)
        value = d.h1
        assert value == _order(_symmetrized_det(d)) == _order(dense_det(m))
    # the family's chain [-2, -(k+1), -2 x h] has determinant +-p
    h, k = 399, 3
    ids = [f"c{i:03}" for i in range(h + 2)]
    d = FramedLinkDiagram.build(zip(ids, [-2, -(k + 1)] + [-2] * h),
                                {(a, b): 1 for a, b in zip(ids, ids[1:])})
    assert d.h1 == (h + 1) * (2 * k - 1) + 2


def _has_twin_rows(m, rhs):
    """Whether some rows i-1 and i of m agree off columns i-1 and i, the
    entries of every right-hand side included."""
    n = len(m)
    return any(all(m[i - 1][j] == m[i][j] for j in range(n) if j not in (i - 1, i))
               and all(r[i - 1] == r[i] for r in rhs) for i in range(1, n))


def _planted_twins(rng):
    """D + U C U^T: 1-3 groups of 1-5 indices, U their indicator columns,
    C a random symmetric matrix and D a diagonal of offsets in -2..2, so
    that neighbours in one group are twin rows; with two right-hand sides,
    constant on groups or not.  A group's indices are consecutive, or the
    groups are dealt out in turn (interleaved), and then only a longest
    group's tail can hold twins."""
    sizes = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
    interleaved = len(sizes) > 1 and rng.random() < 0.25
    if interleaved:
        group = [g for t in range(max(sizes)) for g, size in enumerate(sizes) if t < size]
    else:
        group = [g for g, size in enumerate(sizes) for _ in range(size)]
    c = _random_symmetric(rng, len(sizes), 0, 0)
    offset = [rng.randint(-2, 2) for _ in group]
    m = [[c[g][h] + (offset[i] if i == j else 0) for j, h in enumerate(group)]
         for i, g in enumerate(group)]
    values = [rng.randint(-3, 3) for _ in sizes]
    rhs = [[values[g] for g in group], [rng.randint(-3, 3) for _ in group]]
    if rng.random() < 0.25:
        rhs.pop()  # only the one constant on groups, so twins stay twins
    if rng.random() < 0.2:
        scale = Fraction(rng.randint(1, 3), rng.randint(2, 4))
        m = [[x * scale for x in row] for row in m]
        rhs = [[Fraction(x, 3) for x in r] for r in rhs]
    return m, rhs, interleaved


def test_solve_and_signature_match_oracles_on_planted_twins():
    # dense D + U C U^T systems, whose neighbours in one group are twin rows
    # as a stack of contact pushoffs gives them: det, sigma and each c^2 of
    # solve_dense and signature must come out as the dense oracles say, on
    # singular and zero-diagonal systems too, and where no row is a twin
    rng = random.Random(20249)
    seen = dict.fromkeys(("twins", "no twins", "singular", "zero diagonal", "interleaved"), 0)
    systems = [([[a, 1], [1, b]], [[x, x]], False)  # the length-2 chain, equal rotations
               for a in range(-3, 4) for b in range(-3, 4) for x in (-1, 2)]
    systems += [_planted_twins(rng) for _ in range(300)]
    for m, rhs, interleaved in systems:
        seen["twins" if _has_twin_rows(m, rhs) else "no twins"] += 1
        seen["zero diagonal"] += any(m[i][i] == 0 for i in range(len(m)))
        seen["interleaved"] += interleaved
        sigma = signature_oracle(m)
        assert signature(m) == sigma
        d = dense_det(m)
        if d == 0:
            seen["singular"] += 1
            with pytest.raises(SingularMatrixError):
                solve_dense(m, rhs)
        else:
            assert solve_dense(m, rhs) == (d, sigma, [_quadratic_form(m, r) for r in rhs])
    assert min(seen.values()) >= 20, seen


def _tree_with_chords(rng, n, chords, diagonal, shuffled=True):
    """The sparse symmetric rows of a random tree on n vertices plus up to
    `chords` extra edges, weights +-1 or +-2 and diagonal entries drawn by
    `diagonal`.  Each vertex hangs off a random earlier one, in random
    order if `shuffled`, else in index order, root first."""
    perm = list(range(n))
    if shuffled:
        rng.shuffle(perm)
    edges = {frozenset((perm[rng.randrange(i)], perm[i])) for i in range(1, n)}
    target = len(edges) + min(chords, n * (n - 1) // 2 - len(edges))
    while len(edges) < target:
        edges.add(frozenset(rng.sample(range(n), 2)))
    rows = [{i: x} if (x := diagonal(rng)) else {} for i in range(n)]
    for i, j in edges:
        rows[i][j] = rows[j][i] = rng.choice((-2, -1, 1, 2))
    return rows


@settings(derandomize=True, max_examples=300, deadline=None)
@given(n=st.integers(1, 12), chords=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_trees_with_chords_match_dense_oracles(n, chords, seed):
    # a quarter of the diagonal entries 0, so that about one case in seven
    # runs out of nonzero diagonals (the congruence step or a dropped row);
    # det and solve against the dense oracles, and a chord-free tree's fold
    # against the elimination
    rng = random.Random(seed)
    rows = _tree_with_chords(rng, n, chords, lambda rng: rng.choice((0, 0, -3, -2, -1, 1, 2, 3)))
    m = [[row.get(j, 0) for j in range(n)] for row in rows]
    # the first pivot is the diagonal entry of the row with the fewest
    # entries among those with a nonzero diagonal, the lowest index first
    candidates = [(sum(map(bool, row)), i) for i, row in enumerate(m) if row[i]]
    if candidates:
        first = min(candidates)[1]
        assert next(_pivots(_sparse_rows(m), n)) == m[first][first]
    d = dense_det(m)
    assert det_sparse_rows(_sparse_rows(m), n) == d
    r = [rng.randint(-3, 3) for _ in range(n)]
    if d == 0:
        assert signature(m) == signature_oracle(m)
        with pytest.raises(SingularMatrixError):
            solve_dense(m, [r])
    else:
        assert solve_dense(m, [r]) == (d, _oracle_signature(m, rng), [_quadratic_form(m, r)])
    if chords == 0:
        ids = [f"v{i:02}" for i in range(n)]
        tree = FramedLinkDiagram.build(
            [(ids[i], m[i][i]) for i in range(n)],
            {(ids[j], ids[i]): m[i][j] for i in range(n) for j in range(i) if m[i][j]},
        )
        assert tree.h1 == _order(det_sparse_rows(_sparse_rows(m), n))


def test_sparse_elimination_work_is_near_linear(monkeypatch):
    # a tree with three chords, numbered root first: the smallest-row pivot
    # rule eliminates the leaves first and fills in only around the chords,
    # so the exact divisions about double from 500 to 1000 vertices (index
    # order starts at the root and fills in, superlinearly)
    calls = [0]

    def counted(x, d, div=linalg._exact_div):
        calls[0] += 1
        return div(x, d)

    monkeypatch.setattr(linalg, "_exact_div", counted)
    counts = []
    for n in (500, 1000):
        rows = _tree_with_chords(random.Random(n), n, 3, lambda rng: rng.choice((-3, 2, 5)), False)
        calls[0] = 0
        det_sparse_rows(rows, n)
        counts.append(calls[0])
    assert 0 < counts[1] <= 2.2 * counts[0], counts
