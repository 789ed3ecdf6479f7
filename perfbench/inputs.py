"""Seeded input specs for the benchmark workloads.

Every generated polytope carries one parameter ``p1`` that scales the
first coordinate before a change of coordinates.  The seed draws the
value of ``p1`` (a prime) and an integer unimodular matrix ``U``; the
spec's normals are the rows ``X_j U``, so every number the program sees
changes with the seed while the face lattice does not.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


def _linear(c1: int, c0: int) -> str:
    """Spec string for c1*p1 + c0."""
    if c1 == 0:
        return str(c0)
    head = {1: "p1", -1: "-p1"}.get(c1, f"{c1}*p1")
    if c0 == 0:
        return head
    return f"{head} {'+' if c0 > 0 else '-'} {abs(c0)}"


def unimodular(n: int, rng: random.Random) -> list[list[int]]:
    """A random signed permutation matrix (det U = +-1).

    Shears would also be unimodular, but they grow the entries, and the
    work with them, by an amount that depends on the seed.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    u = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        u[i][j] = rng.choice((-1, 1))
    return u


def _spec(rows, offsets, rng: random.Random) -> dict:
    """Spec for <mu, X_j> >= offsets[j], X_j = (p1*a_1, a_2, ..., a_n) U.

    ``rows`` hold the integer vectors a_j before the p1 scaling.
    """
    n = len(rows[0])
    u = unimodular(n, rng)
    normals = []
    for a in rows:
        # entry k of (p1*a_1, a_2, ...) U is p1*a_1*U[0][k] + sum_{i>0} a_i U[i][k]
        normals.append([_linear(a[0] * u[0][k],
                                sum(a[i] * u[i][k] for i in range(1, n)))
                        for k in range(n)])
    return {
        "dimension": n,
        "parameters": [{"name": "p1", "value": str(rng.choice(PRIMES))}],
        "normals": normals,
        "offsets": [str(c) for c in offsets],
        "quasilattice": "normals",
        "options": {"samples": 20, "seed": 0, "epsilon": "1"},
    }


def cross_polytope(n: int, rng: random.Random) -> dict:
    """|p1*mu_1| + |mu_2| + ... + |mu_n| <= 1: d = 2^n, every vertex singular for n >= 3."""
    rows = [[-s for s in signs]
            for signs in itertools.product((1, -1), repeat=n)]
    return _spec(rows, [-1] * len(rows), rng)


def cell24(rng: random.Random) -> dict:
    """|mu_i| + |mu_j| <= 1 for i < j in R^4, mu_1 scaled by p1: the 24-cell."""
    rows = []
    for i, j in itertools.combinations(range(4), 2):
        for si, sj in itertools.product((1, -1), repeat=2):
            a = [0] * 4
            a[i], a[j] = -si, -sj
            rows.append(a)
    return _spec(rows, [-1] * len(rows), rng)


def cross_pyramid(rng: random.Random) -> dict:
    """Pyramid over the 4-cross-polytope: mu_5 >= 0 and
    |p1*mu_1| + |mu_2| + |mu_3| + |mu_4| <= 1 - mu_5."""
    rows = [[0, 0, 0, 0, 1]]
    rows += [[-s for s in signs] + [-1]
             for signs in itertools.product((1, -1), repeat=4)]
    return _spec(rows, [0] + [-1] * 16, rng)


# -- closed forms the reports are checked against ------------------------

def cross_f_vector(n: int) -> list[int]:
    return [2 ** (k + 1) * comb(n, k + 1) for k in range(n)]


def cross_pyramid_f_vector(n: int) -> list[int]:
    """Faces of a pyramid: base faces plus cones over base faces and the apex."""
    base = cross_f_vector(n) + [1]
    return [base[k] + (base[k - 1] if k else 1) for k in range(n + 1)]


def cross_pyramid_singular_count(n: int) -> int:
    """Base k-faces lie on 2^(n-k-1) side facets plus the base facet;
    cones over them (and the apex, k = -1) on 2^(n-k-1) side facets."""
    count = 0
    for k, f in enumerate(cross_f_vector(n)):
        sides = 2 ** (n - k - 1)
        count += f * (sides + 1 > n + 1 - k)   # base face, dim k
        count += f * (sides > n - k)           # cone over it, dim k+1
    return count + (2 ** n > n + 1)            # apex


CELL24_F_VECTOR = [24, 96, 96, 24]
CELL24_SINGULAR = 24   # vertices lie on 6 facets; edges on 3, triangles on 2


def cross_admissible_count(n: int) -> int:
    """n-subsets of a vertex's active normals that are linearly independent
    (the same for all 2n vertices), summed over the vertices."""

    def rank(rows):
        m = [[Fraction(x) for x in r] for r in rows]
        rk = 0
        for c in range(len(m[0])):
            piv = next((i for i in range(rk, len(m)) if m[i][c]), None)
            if piv is None:
                continue
            m[rk], m[piv] = m[piv], m[rk]
            for i in range(len(m)):
                if i != rk and m[i][c]:
                    f = m[i][c] / m[rk][c]
                    m[i] = [x - f * y for x, y in zip(m[i], m[rk])]
            rk += 1
        return rk

    active = [[1] + list(s) for s in itertools.product((1, -1), repeat=n - 1)]
    per_vertex = sum(rank(sub) == n
                     for sub in itertools.combinations(active, n))
    return 2 * n * per_vertex


def write_spec(spec: dict, path: Path) -> Path:
    path.write_text(json.dumps(spec, indent=1, sort_keys=True) + "\n")
    return path
