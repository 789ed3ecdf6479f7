"""Exact rational simplex, cross-checked against scipy.optimize.linprog."""

import random
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from polystrat.lp import lp_maximize, open_feasible_point


def test_known_maximum():
    # max x + y st x <= 1, y <= 2, x,y >= 0 (nonnegativity via rows)
    res = lp_maximize(
        c=[1, 1],
        a_ub=[[1, 0], [0, 1], [-1, 0], [0, -1]],
        b_ub=[1, 2, 0, 0])
    assert res.status == "optimal"
    assert res.value == 3
    assert list(res.x) == [1, 2]


def test_unbounded_detected():
    res = lp_maximize(c=[1], a_ub=[[-1]], b_ub=[0])
    assert res.status == "unbounded"


def test_infeasible_detected():
    res = lp_maximize(c=[1], a_ub=[[1], [-1]], b_ub=[1, -2])
    assert res.status == "infeasible"


def test_equality_constraints():
    # max x st x + y = 2, x <= 1, both free otherwise
    res = lp_maximize(c=[1, 0], a_ub=[[1, 0]], b_ub=[1],
                      a_eq=[[1, 1]], b_eq=[2])
    assert res.status == "optimal"
    assert res.value == 1
    assert res.x[0] + res.x[1] == 2


def _random_lp(rng):
    nvar = rng.randrange(2, 5)
    ncon = rng.randrange(2, 7)
    a = [[Fraction(rng.randrange(-4, 5)) for _ in range(nvar)]
         for _ in range(ncon)]
    b = [Fraction(rng.randrange(-3, 7)) for _ in range(ncon)]
    c = [Fraction(rng.randrange(-3, 4)) for _ in range(nvar)]
    # box constraints keep every instance bounded
    for i in range(nvar):
        row = [Fraction(0)] * nvar
        row[i] = Fraction(1)
        a.append(row[:])
        b.append(Fraction(rng.randrange(1, 6)))
        row = [Fraction(0)] * nvar
        row[i] = Fraction(-1)
        a.append(row)
        b.append(Fraction(rng.randrange(1, 6)))
    return c, a, b


def test_random_instances_match_scipy():
    rng = random.Random(424242)
    checked = 0
    for _ in range(40):
        c, a, b = _random_lp(rng)
        mine = lp_maximize(c=c, a_ub=a, b_ub=b)
        ref = linprog(
            c=[-float(x) for x in c],
            A_ub=np.array([[float(x) for x in row] for row in a]),
            b_ub=[float(x) for x in b],
            bounds=[(None, None)] * len(c),
            method="highs")
        if mine.status == "infeasible":
            assert ref.status == 2
            continue
        assert mine.status == "optimal"  # boxed, so never unbounded
        assert ref.status == 0
        assert abs(float(mine.value) + ref.fun) <= 1e-7
        # the exact point satisfies every constraint exactly
        for row, rhs in zip(a, b):
            assert sum(x * v for x, v in zip(row, mine.x)) <= rhs
        checked += 1
    assert checked >= 20


def test_open_feasible_point_simple():
    # x > 0, 1 - x > 0 in one variable
    pt = open_feasible_point([[1], [-1]], [0, -1])
    assert pt is not None
    assert 0 < pt[0] < 1


def test_open_feasible_point_infeasible():
    # x > 0 and -x > 0 cannot both hold
    assert open_feasible_point([[1], [-1]], [0, 0]) is None


def test_open_feasible_point_boundary_only_is_rejected():
    # x > 1 and x < 1 admits only the boundary point, hence no open point
    assert open_feasible_point([[1], [-1]], [1, -1]) is None


def test_open_feasible_point_with_zero_and_nonneg():
    # y pinned to 0, x nonnegative, x - y > 2
    pt = open_feasible_point([[1, -1]], [2], nonneg=[0, 1], zero=[1])
    assert pt is not None
    assert pt[1] == 0
    assert pt[0] > 2


def test_open_feasible_point_exactness():
    rng = random.Random(99)
    for _ in range(25):
        nvar = rng.randrange(1, 4)
        rows = [[Fraction(rng.randrange(-3, 4)) for _ in range(nvar)]
                for _ in range(rng.randrange(1, 5))]
        rhs = [Fraction(rng.randrange(-2, 3)) for _ in rows]
        pt = open_feasible_point(rows, rhs, nonneg=range(nvar))
        if pt is None:
            continue
        assert all(x >= 0 for x in pt)
        for row, b in zip(rows, rhs):
            assert sum(r * x for r, x in zip(row, pt)) > b
