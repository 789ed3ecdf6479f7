"""Exact dense linear algebra over a field.

Matrices are lists of lists whose entries are Fractions or Scalars (any
type with exact +, -, *, /, truthiness as a zero test, and int/Fraction
coercion).  Plain int entries are promoted to Fraction on input so that
integer division never silently produces floats.  Pivoting picks the
first nonzero entry, which keeps results deterministic.
"""

from __future__ import annotations

from fractions import Fraction


class SingularMatrixError(ArithmeticError):
    pass


def _promote(x):
    return Fraction(x) if isinstance(x, int) else x


def coerce_matrix(rows) -> list[list]:
    return [[_promote(x) for x in row] for row in rows]


def coerce_vector(vec) -> list:
    return [_promote(x) for x in vec]


def rref(rows):
    """Reduced row echelon form.

    Returns (matrix, pivot_columns).  The input is not modified.
    """
    m = coerce_matrix(rows)
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
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
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
    """Solve a @ x = b for square invertible a.

    b may be a vector or a matrix of column right-hand sides; the result
    has the same shape.
    """
    vector = b and not isinstance(b[0], list)
    bm = [[x] for x in coerce_vector(b)] if vector else coerce_matrix(b)
    n = len(a)
    aug = [list(coerce_vector(a[i])) + bm[i] for i in range(n)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    sol = [row[n:] for row in red[:n]]
    return [row[0] for row in sol] if vector else sol
