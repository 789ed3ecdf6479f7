"""Exact dense linear algebra by fraction-free elimination.

Every rank, solve and kernel vector runs one forward loop, Bareiss
(1968): after each pivot step every entry below the pivot row is a minor
of the input, so the division by the previous pivot is exact.  Integer
matrices (the constraint rows at the evaluation point) are eliminated on
ints.  Scalar matrices are cleared row by row to polynomials with
integer coefficients and eliminated in Z[p_1, ..., p_m], so a rank
normalizes no Scalar and a solve builds one Scalar per entry of the
solution.  The pivot is the first nonzero entry of its column, which
keeps results deterministic.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import _p_div_exact, _p_mul, _p_sub, _reduced, \
    over_common_denominator


class SingularMatrixError(ArithmeticError):
    pass


def _int_step(row, top, c, prev):
    """A row below the pivot top[c], updated on ints."""
    pv, f = top[c], row[c]
    return [(pv * x - f * y) // prev for x, y in zip(row, top)]


def _poly_step(row, top, c, prev):
    """The same on polynomial term dicts; both rows are zero left of c."""
    pv, f = top[c], row[c]
    return [{}] * (c + 1) + [
        _p_div_exact(_p_sub(_p_mul(pv, x), _p_mul(f, y)), prev)
        for x, y in zip(row[c + 1:], top[c + 1:])]


def _bareiss(m, step, prev):
    """Fraction-free forward elimination in place; returns pivot columns.

    step updates one row below the pivot and prev is the ring's one.
    After the step at pivot (r, c) every entry below row r is the
    (r + 2)-minor on the pivot rows and columns so far, so step's
    division by the previous pivot is exact.  Both rings test zero by
    truthiness.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        for i in range(r + 1, nrows):
            m[i] = step(m[i], top, c, prev)
        prev = top[c]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def mat_rank(rows) -> int:
    """Rank of a Scalar matrix over the field of rational functions."""
    if not rows or not rows[0]:
        return 0
    m = [over_common_denominator(row)[0] for row in rows]
    return len(_bareiss(m, _poly_step, rows[0][0].registry._unit))


def mat_solve(a, b):
    """Solve a @ x = b for a square invertible Scalar matrix a.

    b is a vector or a matrix of column right-hand sides, and the result
    has its shape.  Rows of [a | b] are cleared to polynomials and solved
    by _poly_solve_scaled; each entry of d * x over d is one Scalar.
    """
    vector = b and not isinstance(b[0], list)
    bm = [[x] for x in b] if vector else b
    n = len(a)
    m = [over_common_denominator([*a[i], *bm[i]])[0] for i in range(n)]
    reg = a[0][0].registry
    d, dx = _poly_solve_scaled([row[:n] for row in m],
                               [row[n:] for row in m], reg._unit)
    sol = [[_reduced(reg, v, d) for v in row] for row in dx]
    return [row[0] for row in sol] if vector else sol


def _poly_solve_scaled(a, bm, unit):
    """(d, d * x) with a @ x = bm for polynomial term dicts, unit the
    ring's one, as _int_solve_scaled does on ints.  Back substitution runs
    on d * x, polynomial for d the last pivot (+-det a)."""
    n = len(a)
    m = [[*row, *rhs] for row, rhs in zip(a, bm)]
    if _bareiss(m, _poly_step, unit)[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    d = m[n - 1][n - 1]
    dx = [None] * n
    for i in range(n - 1, -1, -1):
        acc = [_p_mul(d, v) for v in m[i][n:]]
        for j in range(i + 1, n):
            acc = [_p_sub(s, _p_mul(m[i][j], v)) for s, v in zip(acc, dx[j])]
        dx[i] = [_p_div_exact(s, m[i][i]) for s in acc]
    return d, dx


def int_rank(rows) -> int:
    """Rank of an integer matrix."""
    return len(_bareiss([list(row) for row in rows], _int_step, 1))


def _independent_rows(rows):
    """Positions of the rows independent of the rows before them: the
    pivot columns of one elimination of the transpose."""
    return _bareiss([list(col) for col in zip(*rows)], _int_step, 1)


def _int_solve_scaled(a, bm):
    """(d, d * x) with a @ x = bm, bm's rows holding any number of
    right-hand sides, in one elimination.  Back substitution runs on d * x,
    integral for d the last pivot (+-det a), so each divide is exact."""
    n = len(a)
    m = [[*row, *rhs] for row, rhs in zip(a, bm)]
    if _bareiss(m, _int_step, 1)[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    d = m[n - 1][n - 1]
    dx = [None] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        acc = [d * v for v in row[n:]]
        for j in range(i + 1, n):
            acc = [s - row[j] * v for s, v in zip(acc, dx[j])]
        dx[i] = [s // row[i] for s in acc]
    return d, dx


def int_solve(a, b) -> list[Fraction]:
    """Solve a @ x = b for a square invertible integer a and integer b."""
    d, dx = _int_solve_scaled(a, [[v] for v in b])
    return [Fraction(row[0], d) for row in dx]
