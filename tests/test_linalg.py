"""Fraction-free integer rank and solve against Fraction elimination."""

import random
from fractions import Fraction

from oracles import frac_rank

from polystrat.linalg import SingularMatrixError, int_rank, int_solve, \
    mat_solve


def _random_matrix(rng, rows, cols):
    """Random integers; about half the time a product of rank at most k."""
    if rng.random() < 0.5:
        k = rng.randint(0, min(rows, cols))
        left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rows)]
        right = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(k)]
        return [[sum(left[i][t] * right[t][j] for t in range(k))
                 for j in range(cols)] for i in range(rows)]
    return [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]


def _solve_or_none(solve, a, b):
    try:
        return solve(a, b)
    except SingularMatrixError:
        return None


def test_int_rank_and_int_solve_match_fraction_elimination():
    rng = random.Random(11)
    deficient = singular = 0
    for _ in range(500):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols)
        rank = frac_rank(m)
        deficient += rank < min(rows, cols)
        assert int_rank(m) == rank, m

        a = _random_matrix(rng, rows, rows)
        b = [rng.randint(-20, 20) for _ in range(rows)]
        want = _solve_or_none(mat_solve, a, b)
        got = _solve_or_none(int_solve, a, b)
        singular += want is None
        assert got == want, (a, b)
        if got is not None:
            assert all(isinstance(x, Fraction) for x in got)
            assert all(sum(r * x for r, x in zip(row, got)) == v
                       for row, v in zip(a, b))
    # the seeded draws cover rank-deficient and singular inputs
    assert deficient > 100 and singular > 50


def test_int_rank_of_no_rows_and_zero_rows():
    assert int_rank([]) == 0
    assert int_rank([[0, 0], [0, 0]]) == 0
    assert int_rank([[0, 2], [0, 3]]) == 1
