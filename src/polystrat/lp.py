"""Exact rational linear programming via a two-phase simplex method.

Small and deterministic: Fraction pivoting with Bland's rule, so the
solver terminates on degenerate problems and identical inputs always
produce identical answers.  Variables are free; the conversion to
standard form happens internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import _pivot


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    value: Fraction | None
    x: list | None


def _run_simplex(tab, basis, allowed_cols):
    """Maximize the objective held in the last tableau row.

    The objective row stores negative reduced costs: it represents the
    identity z = -(row @ x) + row[-1] on the feasible set, so row ops
    uniform with the constraint rows keep it valid.
    """
    nrows = len(tab) - 1
    while True:
        obj = tab[-1]
        enter = None
        for j in allowed_cols:
            if obj[j] < 0:
                enter = j
                break
        if enter is None:
            return "optimal"
        leave = None
        best = None
        for i in range(nrows):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or \
                        (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return "unbounded"
        _pivot(tab, leave, enter)
        basis[leave] = enter


def lp_maximize(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> LpResult:
    """Maximize c @ x subject to a_ub @ x <= b_ub and a_eq @ x == b_eq.

    All variables are free.  Inputs may be ints or Fractions; the answer
    is exact.
    """
    a_ub = [list(map(Fraction, row)) for row in (a_ub or [])]
    b_ub = [Fraction(x) for x in (b_ub or [])]
    a_eq = [list(map(Fraction, row)) for row in (a_eq or [])]
    b_eq = [Fraction(x) for x in (b_eq or [])]
    c = [Fraction(x) for x in c]
    nvar = len(c)
    nslack = len(a_ub)
    rows = []
    rhs = []
    for row, b in zip(a_ub, b_ub):
        rows.append(row)
        rhs.append(b)
    for row, b in zip(a_eq, b_eq):
        rows.append(row)
        rhs.append(b)
    m = len(rows)
    # columns: u (nvar), w (nvar), slacks (nslack), artificials (m)
    ncols = 2 * nvar + nslack + m

    tab = []
    for i in range(m):
        row = rows[i]
        line = ([x for x in row] + [-x for x in row]
                + [Fraction(0)] * nslack + [Fraction(0)] * m + [rhs[i]])
        if i < nslack:
            line[2 * nvar + i] = Fraction(1)
        if line[-1] < 0:
            line = [-x for x in line]
        line[2 * nvar + nslack + i] = Fraction(1)
        tab.append(line)

    # phase 1: maximize minus the sum of artificials
    obj = [Fraction(0)] * (ncols + 1)
    for i in range(m):
        obj = [o - t for o, t in zip(obj, tab[i])]
    for i in range(m):
        obj[2 * nvar + nslack + i] = Fraction(0)
    tab.append(obj)
    basis = [2 * nvar + nslack + i for i in range(m)]
    allowed = list(range(2 * nvar + nslack))
    _run_simplex(tab, basis, allowed)
    if tab[-1][-1] < 0:
        return LpResult("infeasible", None, None)

    # drive artificials out of the basis; drop redundant rows
    art0 = 2 * nvar + nslack
    keep = []
    for i in range(m):
        if basis[i] >= art0:
            col = next((j for j in range(art0) if tab[i][j]), None)
            if col is None:
                continue  # redundant constraint row
            _pivot(tab, i, col)
            basis[i] = col
        keep.append(i)
    tab = [tab[i][:art0] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2: original objective (z = c @ (u - w), negated coefficients)
    obj = ([-x for x in c] + [x for x in c]
           + [Fraction(0)] * nslack + [Fraction(0)])
    for i, b in enumerate(basis):
        if obj[b]:
            f = obj[b]
            obj = [a - f * t for a, t in zip(obj, tab[i])]
    tab.append(obj)
    status = _run_simplex(tab, basis, list(range(art0)))
    if status == "unbounded":
        return LpResult("unbounded", None, None)
    xs = [Fraction(0)] * art0
    for i, b in enumerate(basis):
        xs[b] = tab[i][-1]
    x = [xs[j] - xs[nvar + j] for j in range(nvar)]
    value = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    return LpResult("optimal", value, x)


def open_feasible_point(strict_rows, strict_rhs, nonneg=(), zero=()):
    """A rational point with strict_rows @ x > strict_rhs, if one exists.

    nonneg lists variable indices constrained to x_i >= 0, zero lists
    indices pinned to x_i == 0.  Returns the point or None.  Decided by
    maximizing the least slack t (capped at 1) and checking t > 0.
    """
    if not strict_rows:
        nvar = 0
    else:
        nvar = len(strict_rows[0])
    # variables: x_0..x_{nvar-1}, t
    c = [Fraction(0)] * nvar + [Fraction(1)]
    a_ub = []
    b_ub = []
    for row, b in zip(strict_rows, strict_rhs):
        # row @ x - t >= b
        a_ub.append([-Fraction(v) for v in row] + [Fraction(1)])
        b_ub.append(-Fraction(b))
    for i in nonneg:
        line = [Fraction(0)] * (nvar + 1)
        line[i] = Fraction(-1)
        a_ub.append(line)
        b_ub.append(Fraction(0))
    cap = [Fraction(0)] * (nvar + 1)
    cap[nvar] = Fraction(1)
    a_ub.append(cap)
    b_ub.append(Fraction(1))
    a_eq = []
    b_eq = []
    for i in zero:
        line = [Fraction(0)] * (nvar + 1)
        line[i] = Fraction(1)
        a_eq.append(line)
        b_eq.append(Fraction(0))
    res = lp_maximize(c, a_ub, b_ub, a_eq, b_eq)
    if res.status != "optimal" or res.value <= 0:
        return None
    return res.x[:nvar]
