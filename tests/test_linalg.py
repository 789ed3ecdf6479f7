"""Fraction-free rank and solve against field elimination and sympy."""

import random
from fractions import Fraction

import pytest

from oracles import backsub_int_solve_scaled, backsub_poly_solve_scaled, \
    gj_rank, gj_solve, greedy_independent_rows, \
    sym_element, sym_rank, sym_solve

from polystrat.ambient import admissible_index_sets
from polystrat.linalg import SingularMatrixError, _independent_rows, \
    _poly_step, _solve_scaled, int_rank, int_solve, mat_rank, mat_solve
from polystrat.report import parse_spec
from polystrat.scalars import ParamRegistry, over_common_denominator


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
        rank = gj_rank(m)
        deficient += rank < min(rows, cols)
        assert int_rank(m) == rank, m

        a = _random_matrix(rng, rows, rows)
        b = [rng.randint(-20, 20) for _ in range(rows)]
        want = _solve_or_none(gj_solve, a, b)
        got = _solve_or_none(int_solve, a, b)
        singular += want is None
        assert got == want, (a, b)
        if got is not None:
            assert all(isinstance(x, Fraction) for x in got)
            assert all(sum(r * x for r, x in zip(row, got)) == v
                       for row, v in zip(a, b))
    # the seeded draws cover rank-deficient and singular inputs
    assert deficient > 100 and singular > 50


def test_independent_rows_match_the_greedy_choice():
    """One elimination of the transpose picks the rows that one rank per
    row picks, repeated and zero rows included."""
    rng = random.Random(22)
    deficient = repeated = 0
    for _ in range(500):
        rows, cols = rng.randint(1, 8), rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols)
        for _ in range(rng.choice([0, 0, 1, 2])):
            i = rng.randrange(rows)
            m.insert(rng.randint(0, len(m)),
                     list(m[i]) if rng.random() < 0.5 else [0] * cols)
            repeated += 1
        m = m[:8]
        want = greedy_independent_rows(m)
        deficient += len(want) < min(len(m), cols)
        assert _independent_rows(m) == want, m
        assert len(want) == gj_rank(m)
    assert deficient > 100 and repeated > 100
    assert _independent_rows([]) == greedy_independent_rows([]) == []


def test_int_rank_of_no_rows_and_zero_rows():
    assert int_rank([]) == 0
    assert int_rank([[0, 0], [0, 0]]) == 0
    assert int_rank([[0, 2], [0, 3]]) == 1


# -- symbolic solves ----------------------------------------------------------

def _random_poly(rng, params, terms):
    """A sum of terms c * m, c a small integer, m a squarefree monomial."""
    out = 0
    for _ in range(terms):
        term = rng.randint(-3, 3)
        for x in params:
            if rng.random() < 0.5:
                term = term * x
        out = term + out
    return out


def _random_entry(rng, reg, params, dens):
    """A polynomial, or a polynomial over one of dens."""
    num = reg.scalar(0) + _random_poly(rng, params, rng.randint(1, 2))
    return num if rng.random() < 0.6 else num / rng.choice(dens)


def _random_row(rng, reg, params, dens, n):
    """Small integers with up to two symbolic entries (one when n > 3)."""
    row = [reg.scalar(rng.randint(-3, 3)) for _ in range(n)]
    count = rng.randint(0, min(n, 2)) if n <= 3 else rng.randint(0, 1)
    for j in rng.sample(range(n), count):
        row[j] = _random_entry(rng, reg, params, dens)
    return row


def _random_system(rng):
    """A square system over one or two parameters with two denominators.

    About a third of the systems get a row that is a Scalar combination
    of the others (a zero row when n = 1), so they are singular.
    """
    reg = ParamRegistry(["p", "q"][:rng.randint(1, 2)])
    params = [reg.param(nm) for nm in reg.names]
    pool = [params[0], params[-1], params[0] + 1, params[0] - 2 * params[-1],
            params[0] * params[-1] + 1]
    dens = [x for x in rng.sample(pool, 2) if x]
    n = rng.choice((1, 2, 2, 3, 3, 4, 5))
    a = [_random_row(rng, reg, params, dens, n) for _ in range(n)]
    if rng.random() < 0.3:
        k = rng.randrange(n)
        combo = [reg.zero()] * n
        for i in range(n):
            if i != k:
                c = rng.choice([reg.scalar(rng.randint(-2, 2)),
                                _random_entry(rng, reg, params, dens)])
                combo = [x + c * y for x, y in zip(combo, a[i])]
        a[k] = combo
    b = _random_row(rng, reg, params, dens, n)
    return reg, a, b


def test_symbolic_solve_matches_gauss_jordan_and_sympy():
    rng = random.Random(23)
    singular = 0
    seen_sizes = set()
    for _ in range(300):
        reg, a, b = _random_system(rng)
        seen_sizes.add((len(a), reg.arity))
        want = _solve_or_none(gj_solve, a, b)
        ref = sym_solve(reg, [[str(x) for x in row] for row in a],
                        [str(x) for x in b])
        assert (want is None) == (ref is None), (a, b)
        if want is None:
            singular += 1
            with pytest.raises(SingularMatrixError):
                mat_solve(a, b)
            continue
        got = mat_solve(a, b)
        assert got == want, (a, b)
        assert [str(x) for x in got] == [str(x) for x in want]
        assert [sym_element(reg, str(x)) for x in got] == ref, (a, b)
    # the seeded draws cover every size, both arities and singular systems
    assert seen_sizes == {(n, m) for n in range(1, 6) for m in (1, 2)}
    assert singular > 50


def test_symbolic_solve_with_matrix_right_hand_side():
    reg = ParamRegistry(["p"])
    p = reg.param("p")
    a = [[p, reg.one()], [reg.one() / p, 1 / (p + 1)]]
    b = [[p, reg.zero(), reg.one()], [reg.one(), p * p, 2 / p]]
    got = mat_solve(a, b)
    assert got == gj_solve(a, b)
    for col in range(3):
        assert mat_solve(a, [row[col] for row in b]) == \
            [row[col] for row in got]


# -- symbolic ranks -----------------------------------------------------------

def _low_rank_matrix(rng, kind):
    """L @ R with inner size k, so the rank is at most k.

    L has small integers; unless the entries are integers, a fifth of
    them get the first parameter added, so some dependencies hold only
    over the rational functions.  R has
    integer, polynomial or rational-function entries; the latter share
    a pool of two denominators, as the kernel vectors that reach
    mat_rank do.
    """
    reg = ParamRegistry(["p", "q"][:rng.randint(1, 2)])
    params = [reg.param(nm) for nm in reg.names]
    dens = [params[0] + 1, params[-1], params[0] - 2 * params[-1]]
    rows, cols = rng.randint(1, 5), rng.randint(1, 6)
    k = rng.randint(0, min(rows, cols))
    if kind == "integer":
        right = [[reg.scalar(rng.randint(-3, 3)) for _ in range(cols)]
                 for _ in range(k)]
    elif kind == "polynomial":
        right = [_random_row(rng, reg, params, [reg.one()], cols)
                 for _ in range(k)]
    else:
        right = [_random_row(rng, reg, params, rng.sample(dens, 2), cols)
                 for _ in range(k)]
    shift = 0 if kind == "integer" else params[0]
    left = [[rng.randint(-2, 2) + (shift if rng.random() < 0.2 else 0)
             for _ in range(k)] for _ in range(rows)]
    m = [[sum((left[i][t] * right[t][j] for t in range(k)), reg.zero())
          for j in range(cols)] for i in range(rows)]
    return reg, m, k


def test_symbolic_rank_matches_sympy_and_gauss_jordan():
    rng = random.Random(31)
    kinds = ("integer", "polynomial", "rational function")
    deficient = 0
    for i in range(300):
        kind = kinds[i % 3]
        reg, m, k = _low_rank_matrix(rng, kind)
        got = mat_rank(m)
        assert got == sym_rank(reg, m), (kind, m)
        assert got <= k
        if kind != "rational function":
            assert got == gj_rank(m), (kind, m)
        deficient += got < min(len(m), len(m[0]))
    # the seeded draws cover rank-deficient matrices of every kind
    assert deficient > 100


# -- Gauss-Jordan against back substitution -----------------------------------

def _scaled_or_none(solve, *args):
    try:
        return solve(*args)
    except SingularMatrixError:
        return None


def test_gauss_jordan_solve_matches_back_substitution_on_ints():
    """(d, d * x) agree exactly, the sign of d included, for 1x1 to 6x6
    systems with up to four right-hand sides."""
    rng = random.Random(41)
    negative = singular = 0
    sizes = set()
    for _ in range(600):
        n, k = rng.randint(1, 6), rng.randint(1, 4)
        a = _random_matrix(rng, n, n)
        bm = [[rng.randint(-20, 20) for _ in range(k)] for _ in range(n)]
        want = _scaled_or_none(backsub_int_solve_scaled, a, bm)
        got = _scaled_or_none(_solve_scaled, a, bm)
        assert got == want, (a, bm)
        if want is None:
            singular += 1
            continue
        sizes.add(n)
        negative += want[0] < 0
        d, dx = got
        assert all(sum(r * x[j] for r, x in zip(row, dx)) == d * v[j]
                   for row, v in zip(a, bm) for j in range(k))
    assert sizes == set(range(1, 7))
    assert negative > 100 and singular > 50


def test_gauss_jordan_solve_matches_back_substitution_on_polynomials(
        oracle_specs):
    """[M_I | pi] on the cleared normal rows of the oracle specs at up to
    twelve admissible I each; a repeated row makes M_I singular."""
    solved = singular = 0
    for name, spec in oracle_specs.items():
        p = parse_spec(spec)[0]
        rows = [over_common_denominator(row)[0] for row in zip(*p.normals)]
        sets = list(admissible_index_sets(p))
        for i_set in random.Random(name).sample(sets, min(12, len(sets))):
            a = [[row[h - 1] for h in i_set] for row in rows]
            unit = p.registry._unit
            assert _solve_scaled(a, rows, _poly_step, unit) == \
                backsub_poly_solve_scaled(a, rows, unit), (name, i_set)
            solved += 1
            a[-1] = a[0]
            with pytest.raises(SingularMatrixError):
                _solve_scaled(a, rows, _poly_step, unit)
            with pytest.raises(SingularMatrixError):
                backsub_poly_solve_scaled(a, rows, unit)
            singular += 1
    assert solved == singular > 200
