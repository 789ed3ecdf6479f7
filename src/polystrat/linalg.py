"""Exact dense linear algebra by fraction-free elimination.

Every rank, solve and kernel vector runs one pivot step, Bareiss (1968),
whose division by the previous pivot is exact (_bareiss).  Ranks stop at
echelon form; a solve also clears the rows above each pivot
(Gauss-Jordan) and reads d * x off the reduced rows, d the last pivot.
Integer matrices (the constraint rows at the evaluation point) are
eliminated on ints.  Scalar matrices are cleared row by row to
polynomials with integer coefficients and eliminated in Z[p_1, ...,
p_m], so a rank normalizes no Scalar and a solve builds one Scalar per
entry of the solution.  The pivot is the first nonzero entry of its
column, which keeps results deterministic.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import _p_div_exact, _p_mul, _p_sub, _reduced, \
    over_common_denominator


class SingularMatrixError(ArithmeticError):
    pass


def _int_step(row, top, c, prev):
    """A row other than the pivot row top, updated on ints."""
    pv, f = top[c], row[c]
    return [(pv * x - f * y) // prev for x, y in zip(row, top)]


def _poly_step(row, top, c, prev):
    """The same on polynomial term dicts, skipping the pivot column, which
    the step clears, and the columns zero in both rows."""
    pv, f = top[c], row[c]
    return [_p_div_exact(_p_sub(_p_mul(pv, x), _p_mul(f, y)), prev)
            if j != c and (x or y) else {}
            for j, (x, y) in enumerate(zip(row, top))]


def _bareiss(m, step, prev, jordan=False):
    """Fraction-free elimination in place; returns pivot columns.

    step updates a row against the pivot row; prev is the ring's one.
    The rows below each pivot are updated, and with jordan those above
    it too.  After k pivots on rows R and columns C, entry (i, j) is up
    to sign a minor of the input: for i below R the one on R + i and
    C + j; with jordan, for i in R the one on R and C with i's pivot
    column replaced by j (Cramer's numerator).  Sylvester's identity
    makes step's numerator prev times that minor, so the division is
    exact, and with jordan every row of R holds the k-th pivot, the
    minor on R and C, on its own pivot column and 0 on the others.
    Both rings test zero by truthiness.
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
        for i in range(0 if jordan else r + 1, nrows):
            if i != r:
                m[i] = step(m[i], top, c, prev)
        prev = top[c]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _solve_scaled(a, bm, step=_int_step, one=1):
    """(d, d * x) with a @ x = bm, bm's rows holding any number of
    right-hand sides, by Gauss-Jordan on [a | bm]: reduced row i is d,
    the last pivot (+-det a), on column i and d * x_i on bm's columns."""
    n = len(a)
    m = [[*row, *rhs] for row, rhs in zip(a, bm)]
    if _bareiss(m, step, one, jordan=True)[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return m[n - 1][n - 1], [row[n:] for row in m]


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
    by _solve_scaled; each entry of d * x over d is one Scalar.
    """
    vector = b and not isinstance(b[0], list)
    bm = [[x] for x in b] if vector else b
    n = len(a)
    m = [over_common_denominator([*a[i], *bm[i]])[0] for i in range(n)]
    reg = a[0][0].registry
    d, dx = _solve_scaled([row[:n] for row in m], [row[n:] for row in m],
                          _poly_step, reg._unit)
    sol = [[_reduced(reg, v, d) for v in row] for row in dx]
    return [row[0] for row in sol] if vector else sol


def int_rank(rows) -> int:
    """Rank of an integer matrix."""
    return len(_bareiss([list(row) for row in rows], _int_step, 1))


def _independent_rows(rows):
    """Positions of the rows independent of the rows before them: the
    pivot columns of one elimination of the transpose."""
    return _bareiss([list(col) for col in zip(*rows)], _int_step, 1)


def int_solve(a, b) -> list[Fraction]:
    """Solve a @ x = b for a square invertible integer a and integer b."""
    d, dx = _solve_scaled(a, [[v] for v in b])
    return [Fraction(row[0], d) for row in dx]
