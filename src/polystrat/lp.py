"""Exact rational linear programming via a two-phase simplex method.

The tests' reference simplex: their oracles solve LPs with it, and no
other module of the package calls it.  It stays importable because
perfbench/tracer.py hooks lp_maximize and open_feasible_point by name.
Fraction pivoting with Bland's rule, so the solver terminates on
degenerate problems and identical inputs give identical answers.
Variables are free; the conversion to standard form happens internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    value: Fraction | None
    x: list | None


def _pivot(m, row, col):
    """Gauss-Jordan step in place: scale the pivot row, clear its column."""
    pv = m[row][col]
    m[row] = [x / pv for x in m[row]]
    for i in range(len(m)):
        if i != row and m[i][col]:
            f = m[i][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[row])]


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
    nslack = len(a_ub or ())
    rows = [list(map(Fraction, row)) for row in [*(a_ub or ()), *(a_eq or ())]]
    rhs = [Fraction(x) for x in [*(b_ub or ()), *(b_eq or ())]]
    c = [Fraction(x) for x in c]
    nvar = len(c)
    m = len(rows)
    # columns: u (nvar), w (nvar), slacks (nslack), artificials (m)
    art0 = 2 * nvar + nslack
    ncols = art0 + m

    # initial basis: a row's slack if its rhs is >= 0, else its artificial
    tab = []
    basis = []
    obj = [Fraction(0)] * (ncols + 1)
    for i, row in enumerate(rows):
        line = (row + [-x for x in row]
                + [Fraction(0)] * (nslack + m) + [rhs[i]])
        if i < nslack:
            line[2 * nvar + i] = Fraction(1)
        if line[-1] < 0:
            line = [-x for x in line]
        if i < nslack and rhs[i] >= 0:
            basis.append(2 * nvar + i)
        else:
            obj = [o - t for o, t in zip(obj, line)]
            line[art0 + i] = Fraction(1)
            basis.append(art0 + i)
        tab.append(line)

    # phase 1: maximize minus the sum of artificials
    tab.append(obj)
    _run_simplex(tab, basis, range(art0))
    if tab[-1][-1] < 0:
        return LpResult("infeasible", None, None)

    # drive artificials out of the basis; drop redundant rows
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
        if f := obj[b]:
            obj = [a - f * t for a, t in zip(obj, tab[i])]
    tab.append(obj)
    status = _run_simplex(tab, basis, range(art0))
    if status == "unbounded":
        return LpResult("unbounded", None, None)
    xs = [Fraction(0)] * art0
    for i, b in enumerate(basis):
        xs[b] = tab[i][-1]
    x = [xs[j] - xs[nvar + j] for j in range(nvar)]
    value = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    return LpResult("optimal", value, x)


def least_slack(strict_rows, strict_rhs, nonneg=(), zero=()) -> LpResult:
    """Maximize the least slack t of strict_rows @ x >= strict_rhs, t <= 1.

    nonneg lists variable indices constrained to x_i >= 0, zero lists
    indices pinned to x_i == 0.  The variables are x then t, and the LP
    is always feasible and bounded: value < 0 means the closed system
    is empty, value == 0 that it has no strict solution, and value > 0
    that x is one.
    """
    nvar = len(strict_rows[0]) if strict_rows else 0

    def unit(i, v):
        line = [0] * (nvar + 1)
        line[i] = v
        return line

    nonneg = list(nonneg)
    # row @ x - t >= b, -x_i <= 0, t <= 1
    a_ub = [[-v for v in row] + [1] for row in strict_rows]
    a_ub += [unit(i, -1) for i in nonneg] + [unit(nvar, 1)]
    b_ub = [-b for b in strict_rhs] + [0] * len(nonneg) + [1]
    a_eq = [unit(i, 1) for i in zero]
    return lp_maximize(unit(nvar, 1), a_ub, b_ub, a_eq, [0] * len(a_eq))


def open_feasible_point(strict_rows, strict_rhs, nonneg=(), zero=()):
    """A rational point with strict_rows @ x > strict_rhs, if one exists.

    Arguments as for least_slack.  Returns the point or None.
    """
    res = least_slack(strict_rows, strict_rhs, nonneg, zero)
    return res.x[:-1] if res.value > 0 else None
