"""Integer-matrix normal forms and lattice utilities.

Everything here works on plain Python ints (arbitrary precision) in
lists of lists.  The Smith normal form drives kernel computation,
divisibility-aware linear solving, and the structure of finitely
generated abelian groups presented by relation matrices.
"""

from __future__ import annotations


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(a):
    """Smith normal form D = U @ A @ V with U, V unimodular.

    Returns (d, u, v) where d is diagonal with nonnegative entries, each
    dividing the next, and all nonzero entries come first.
    """
    a = [[int(x) for x in row] for row in a]
    n = len(a)
    m = len(a[0]) if n else 0
    u = _identity(n)
    v = _identity(m)
    t = 0
    while t < min(n, m):
        # locate a nonzero entry of least magnitude in the trailing block
        pivot = None
        for i in range(t, n):
            for j in range(t, m):
                if a[i][j] and (pivot is None
                                or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        while True:
            # clear column t by row operations
            dirty = False
            for i in range(t + 1, n):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                        u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        u[t], u[i] = u[i], u[t]
                        dirty = True
            # clear row t by column operations
            for j in range(t + 1, m):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                        for row in v:
                            row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        for row in v:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
            if not dirty and all(a[i][t] == 0 for i in range(t + 1, n)) \
                    and all(a[t][j] == 0 for j in range(t + 1, m)):
                break
        # enforce divisibility of the remaining block by a[t][t]
        offender = None
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if a[i][j] % a[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            u[t] = [x + y for x, y in zip(u[t], u[offender])]
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return a, u, v


def invariant_factors(a) -> list[int]:
    d, _, _ = smith_normal_form(a)
    out = []
    for i in range(min(len(d), len(d[0]) if d else 0)):
        if d[i][i]:
            out.append(d[i][i])
    return out


def integer_kernel(a) -> list[list[int]]:
    """Basis of {x in Z^m : a @ x = 0}; the basis spans a saturated lattice."""
    n = len(a)
    m = len(a[0]) if n else 0
    if n == 0:
        return [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    d, _, v = smith_normal_form(a)
    r = sum(1 for i in range(min(n, m)) if d[i][i])
    return [[v[i][j] for i in range(m)] for j in range(r, m)]


def solve_integer(a, b) -> list[int] | None:
    """One integer solution of a @ x = b, or None if none exists."""
    n = len(a)
    m = len(a[0]) if n else 0
    d, u, v = smith_normal_form(a)
    ub = [sum(u[i][k] * b[k] for k in range(n)) for i in range(n)]
    y = [0] * m
    for i in range(n):
        di = d[i][i] if i < min(n, m) else 0
        if di:
            if ub[i] % di:
                return None
            y[i] = ub[i] // di
        elif ub[i]:
            return None
    return [sum(v[i][k] * y[k] for k in range(m)) for i in range(m)]


def quotient_structure(rel_rows, ncols: int) -> tuple[int, list[int]]:
    """Structure of Z^ncols / (row span of rel_rows).

    Returns (free_rank, torsion) with torsion the invariant factors > 1.
    """
    if not rel_rows:
        return ncols, []
    facs = invariant_factors(rel_rows)
    return ncols - len(facs), [f for f in facs if f > 1]
