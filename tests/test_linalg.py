import random
from fractions import Fraction

import pytest

from openbooks.linalg import (
    SingularMatrixError,
    det,
    det_forest,
    det_sparse_rows,
    signature,
    solve,
)

from diagram_gen import random_chain, random_cyclic, random_forest
from oracles import dense_det, leibniz_det, presentation_matrix, signature_oracle


def _forest_input(m):
    """det_forest's arguments for a matrix with a symmetric nonzero pattern."""
    n = len(m)
    edges = [(i, j, m[i][j] * m[j][i]) for i in range(n) for j in range(i + 1, n) if m[i][j]]
    return [m[i][i] for i in range(n)], edges


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


def test_det_matches_leibniz_on_random_integer_matrices():
    rng = random.Random(20240)
    for _ in range(1500):
        n = rng.randint(0, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        for v in _variants(m):
            assert det(v) == leibniz_det(v)


def test_det_matches_leibniz_on_rational_matrices():
    rng = random.Random(20241)
    for _ in range(400):
        n = rng.randint(1, 4)
        m = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
        for v in _variants(m):
            assert det(v) == leibniz_det(v)


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


def test_signature_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        signature([[1, 2], [3, 4]])


def test_solve_roundtrip_on_random_systems():
    rng = random.Random(20243)
    solved = 0
    while solved < 300:
        n = rng.randint(1, 6)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if det(m) == 0:
            continue
        b = [rng.randint(-5, 5) for _ in range(n)]
        x = solve(m, b)
        for i in range(n):
            assert sum(Fraction(m[i][j]) * x[j] for j in range(n)) == b[i]
        solved += 1


def test_solve_raises_on_singular():
    with pytest.raises(SingularMatrixError):
        solve([[1, 2], [2, 4]], [1, 1])


def test_det_forest_matches_elimination_and_dense_oracle():
    rng = random.Random(20244)
    zero = several_trees = 0
    for _ in range(600):
        d = random_forest(rng)
        m = presentation_matrix(d)
        value = det_forest(*_forest_input(m))
        assert value == det_sparse_rows(_sparse_rows(m), len(m)) == dense_det(m)
        zero += value == 0
        several_trees += len(d.edges) < len(d.vertices) - 1
    assert zero >= 30 and several_trees >= 200


def test_det_forest_on_long_chains():
    rng = random.Random(20245)
    for n in (1, 2, 3, 50, 199, 400):
        m = presentation_matrix(random_chain(rng, n))
        value = det_forest(*_forest_input(m))
        assert value == det_sparse_rows(_sparse_rows(m), n) == dense_det(m)
    # the family's chain [-2, -(k+1), -2 x h] has determinant +-p
    h, k = 399, 3
    framings = [-2, -(k + 1)] + [-2] * h
    edges = [(i, i + 1, 1) for i in range(len(framings) - 1)]
    assert abs(det_forest(framings, edges)) == (h + 1) * (2 * k - 1) + 2


def test_det_forest_declines_graphs_with_a_cycle():
    rng = random.Random(20246)
    for _ in range(200):
        m = presentation_matrix(random_cyclic(rng))
        assert det_forest(*_forest_input(m)) is None
    # a cycle beside an isolated vertex: fewer edges than vertices
    assert det_forest([1, 1, 1, 1], [(0, 1, 1), (1, 2, 1), (0, 2, 1)]) is None
    # a repeated pair and a self-loop are not forests either
    assert det_forest([1, 1, 1], [(0, 1, 1), (0, 1, 1)]) is None
    assert det_forest([1, 1], [(0, 0, 1)]) is None
    assert det_forest([], []) == 1
