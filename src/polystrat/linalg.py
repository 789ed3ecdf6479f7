"""Exact dense linear algebra over a field.

Matrices are lists of lists whose entries are Fractions or Scalars (any
type with exact +, -, *, /, truthiness as a zero test, and int/Fraction
coercion).  Plain int entries are promoted to Fraction on input so that
integer division never silently produces floats.  Pivoting picks the
first nonzero entry, which keeps results deterministic.

Integer matrices (the polytope's constraint rows at the evaluation
point) have their own fraction-free elimination (Bareiss 1968): every
intermediate entry is a minor of the input, so divisions are exact and
no Fraction is built until a solution is returned.
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
