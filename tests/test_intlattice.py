"""Integer lattices: quotient structures against sympy, kernels and
integer solves by substitution, and a relation matrix that once hung."""

import json
import os
import pathlib
import random
import subprocess
import sys
from math import prod

from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors

from families import family
import polystrat
from polystrat.intlattice import integer_kernel, quotient_structure, \
    solve_integer
from polystrat.linalg import int_rank

# Relations that ran the Smith loop for over 20 s
SLOW_SMITH = [[0, -652481, 790703, 998342, 958051, 299726],
              [0, 0, -2933, -806207, -520661, 0],
              [-79303, 0, -679633, 500566, 0, 0]]


def _sym_factors(rows):
    """The nonzero invariant factors of an integer matrix, by sympy."""
    return [abs(int(f)) for f in invariant_factors(Matrix(rows), domain=ZZ)
            if f]


def _random_rows(rng, rows, cols, bound):
    """Integers up to bound, a third of them zero; sometimes a row is a
    combination of two others, so the rank drops."""
    m = [[rng.randint(-bound, bound) if rng.random() < 0.67 else 0
          for _ in range(cols)] for _ in range(rows)]
    if rows > 2 and rng.random() < 0.3:
        m[-1] = [x - 3 * y for x, y in zip(m[0], m[1])]
    return m


def test_quotient_structure_matches_sympy_invariant_factors():
    rng = random.Random(51)
    torsion = deficient = 0
    for k in range(400):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        bound = (3, 10 ** 6, 10 ** 40)[k % 3]
        m = _random_rows(rng, rows, cols, bound)
        facs = _sym_factors(m)
        free, tors = quotient_structure(m, cols)
        assert (free, tors) == (cols - len(facs), [f for f in facs if f > 1])
        torsion += bool(tors)
        deficient += len(facs) < min(rows, cols)
    assert torsion > 100 and deficient > 50
    facs = _sym_factors(SLOW_SMITH)
    assert quotient_structure(SLOW_SMITH, 6) == (6 - len(facs), [])
    assert quotient_structure([], 3) == (3, [])
    assert quotient_structure([[0, 0]], 2) == (2, [])
    assert quotient_structure([[2, 0], [0, 6], [4, 6]], 2) == (0, [2, 6])


def test_integer_kernel_is_a_kernel_basis_of_full_size():
    rng = random.Random(52)
    for _ in range(200):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        m = _random_rows(rng, rows, cols, 9)
        basis = integer_kernel(m)
        assert len(basis) == cols - int_rank(m), m
        for v in basis:
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in m)
        assert int_rank(basis) == len(basis)


def test_solve_integer_by_substitution():
    rng = random.Random(53)
    solvable = unsolvable = 0
    for _ in range(200):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_rows(rng, rows, cols, 9)
        x = [rng.randint(-5, 5) for _ in range(cols)]
        b = [sum(u * v for u, v in zip(row, x)) for row in m]
        for rhs in (b, [v + rng.randint(-2, 2) for v in b]):
            got = solve_integer(m, rhs)
            # rhs lies in the column lattice exactly when appending it
            # keeps the rank and the product of the invariant factors
            cols_m = [list(c) for c in zip(*m)]
            facs = _sym_factors(cols_m)
            more = _sym_factors(cols_m + [rhs])
            lies = len(more) == len(facs) and prod(more) == prod(facs)
            assert (got is not None) == lies, (m, rhs)
            if got is None:
                unsolvable += 1
                continue
            solvable += 1
            assert [sum(u * v for u, v in zip(row, got)) for row in m] == rhs
    assert solvable > 200 and unsolvable > 50


def test_bipyramid_groups_and_charts_finish(tmp_path):
    """The second seeded bipyramid of the Delzant-likeness cases gives
    quotient relations that the Smith loop never finished on."""
    rng = random.Random("choice-bipyramid")
    family(rng, "bipyramid")
    normals, offsets = family(rng, "bipyramid")
    spec = tmp_path / "bipyramid.json"
    spec.write_text(json.dumps({
        "dimension": 3, "parameters": [],
        "normals": [[str(x) for x in row] for row in normals],
        "offsets": [str(x) for x in offsets]}))
    package_root = str(pathlib.Path(polystrat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    for section in ("groups", "charts"):
        proc = subprocess.run(
            [sys.executable, "-m", "polystrat", "analyze", str(spec),
             "--only", section], env=env, capture_output=True, text=True,
            timeout=10)
        assert proc.returncode == 0, (section, proc.stderr)
        assert section in json.loads(proc.stdout)
