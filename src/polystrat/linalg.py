"""Exact dense linear algebra.

Solves are fraction-free (Bareiss 1968): each intermediate entry is a
minor of the input, so divisions are exact.  Integer matrices (the
constraint rows at the evaluation point) are eliminated on ints, Scalar
matrices on polynomials, so a Scalar is normalized once per entry of the
solution.  Gauss-Jordan reduction (rref) over Fractions or Scalars is
kept only for mat_rank and the recession kernel; it pivots on the first
nonzero entry, which keeps results deterministic.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar, _p_div_exact, _p_mul, _p_sub, \
    over_common_denominator


class SingularMatrixError(ArithmeticError):
    pass


def _pivot(m, row, col):
    """Gauss-Jordan step in place: scale the pivot row, clear its column."""
    pv = m[row][col]
    m[row] = [x / pv for x in m[row]]
    for i in range(len(m)):
        if i != row and m[i][col]:
            f = m[i][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[row])]


def rref(rows):
    """Reduced row echelon form.

    Returns (matrix, pivot_columns).  The input is not modified.
    """
    m = [[Fraction(x) if isinstance(x, int) else x for x in row]
         for row in rows]
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
        _pivot(m, r, c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def mat_rank(rows) -> int:
    if not rows:
        return 0
    return len(rref(rows)[1])


def mat_solve(a, b):
    """Solve a @ x = b for a square invertible Scalar matrix a.

    b is a vector or a matrix of column right-hand sides, and the result
    has its shape.  Rows of [a | b] are cleared to polynomials; back
    substitution runs on d * x, polynomial for d = +-det, the last pivot.
    """
    vector = b and not isinstance(b[0], list)
    bm = [[x] for x in b] if vector else b
    n = len(a)
    m = [over_common_denominator([*a[i], *bm[i]])[0] for i in range(n)]
    reg = a[0][0].registry
    prev = {(0,) * reg.arity: Fraction(1)}  # the pivot before the first
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c]), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        m[c], m[pivot_row] = m[pivot_row], m[c]
        top, pv = m[c], m[c][c]
        for i in range(c + 1, n):
            f = m[i][c]
            m[i] = [{}] * (c + 1) + [
                _p_div_exact(_p_sub(_p_mul(pv, x), _p_mul(f, y)), prev)
                for x, y in zip(m[i][c + 1:], top[c + 1:])]
        prev = pv
    dx = [None] * n
    for i in range(n - 1, -1, -1):
        acc = [_p_mul(prev, v) for v in m[i][n:]]
        for j in range(i + 1, n):
            acc = [_p_sub(s, _p_mul(m[i][j], v)) for s, v in zip(acc, dx[j])]
        dx[i] = [_p_div_exact(s, m[i][i]) for s in acc]
    sol = [[Scalar(reg, v, prev) for v in row] for row in dx]
    return [row[0] for row in sol] if vector else sol


def _bareiss(m):
    """Fraction-free forward elimination in place; returns pivot columns.

    After the step at pivot (r, c) every entry below row r is the
    (r + 2)-minor on the pivot rows and columns so far, so the division
    by the previous pivot is exact.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    prev = 1
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
        pv = top[c]
        for i in range(r + 1, nrows):
            row = m[i]
            f = row[c]
            m[i] = [(pv * x - f * y) // prev for x, y in zip(row, top)]
        prev = pv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def int_rank(rows) -> int:
    """Rank of an integer matrix."""
    return len(_bareiss([list(row) for row in rows]))


def int_solve(a, b) -> list[Fraction]:
    """Solve a @ x = b for a square invertible integer a and integer b.

    Back substitution runs on d * x, which is integral for d the last
    pivot (plus or minus det a), so each divide is exact.
    """
    n = len(a)
    m = [list(row) + [v] for row, v in zip(a, b)]
    if _bareiss(m)[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    d = m[n - 1][n - 1]
    dx = [0] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        acc = d * row[n]
        for j in range(i + 1, n):
            acc -= row[j] * dx[j]
        dx[i] = acc // row[i]
    return [Fraction(v, d) for v in dx]
