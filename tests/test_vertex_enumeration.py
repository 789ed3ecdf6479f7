"""Vertices by double description against two oracles, at scale and on failure.

The brute force that solves every n-subset of constraints
(oracles.brute_force_vertices) must give the same Vertex tuples, and
scipy's HalfspaceIntersection, a floating-point dual hull, the same
points.  The cross-polytopes at n = 5 and 6 put 2^(n-1) facets through
every vertex, which subset solving cannot reach at n = 6.
"""

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from oracles import brute_force_vertices
from scipy.spatial import HalfspaceIntersection

from polystrat import cli
from polystrat.links import link_tree
from polystrat.polytope import HPolytope
from polystrat.report import parse_spec
from polystrat.scalars import ParamRegistry

FIXTURE_NAMES = ("pyramid", "tent", "pyramid_unit", "tent_unit", "cube3",
                 "simplex3")


@pytest.fixture(scope="module")
def validated(request, bench_inputs):
    """Every fixture and the seed-1 benchmark polytopes, validated."""
    out = {nm: request.getfixturevalue(nm)[0] for nm in FIXTURE_NAMES}
    for nm, spec in {
            "cross3": bench_inputs.cross_polytope(3, random.Random(1)),
            "cross4": bench_inputs.cross_polytope(4, random.Random(1)),
            "cell24": bench_inputs.cell24(random.Random(1)),
            "cross_pyramid": bench_inputs.cross_pyramid(random.Random(1)),
    }.items():
        out[nm] = parse_spec(spec)[0]
    return out


def _float_vertices(p):
    """Distinct points of scipy's halfspace intersection, seeded inside."""
    halfspaces = np.array([[-float(x) for x in row] + [float(l)]
                           for row, l in zip(p.numeric_normals(),
                                             p.numeric_offsets())])
    inside = np.array([float(x) for x in p.interior_point()])
    points = []
    for q in HalfspaceIntersection(halfspaces, inside).intersections:
        # a vertex on more than n facets comes once per simplex of the
        # triangulated dual facet
        if not any(np.abs(q - r).max() < 1e-7 for r in points):
            points.append(q)
    return points


def test_vertices_match_both_oracles(validated):
    for name, p in validated.items():
        assert p.vertices == brute_force_vertices(p), name
        points = _float_vertices(p)
        assert len(points) == len(p.vertices), name
        for v in p.vertices:
            exact = np.array([float(x) for x in v.coords])
            assert min(np.abs(q - exact).max() for q in points) < 1e-9, \
                (name, v.coords)


def test_link_vertices_match_brute_force(tent):
    p, _, options = tent
    nodes = [node for root in link_tree(p, options) for node in root.walk()]
    assert nodes
    for node in nodes:
        poly = node.link.polytope
        assert poly.vertices == brute_force_vertices(poly), node.chain


def _random_system(rng, through_vertex, scaled):
    """A box in R^n with 1 to 4 integer cuts, built with validate=False.

    A cut through a vertex of the system so far is tight there, and
    either slices the polytope or supports it at that vertex; any other
    cut keeps the best vertex for its normal, so no system is empty.
    Scaling multiplies each row by a positive rational, which leaves
    the primitive integer rows as they are.
    """
    n = rng.randint(2, 4)
    half = rng.randint(1, 3)
    reg = ParamRegistry([])
    normals = [[int(i == k) * s for k in range(n)]
               for i in range(n) for s in (1, -1)]
    offsets = [-half] * (2 * n)
    for _ in range(rng.randint(1, 4)):
        c = [0] * n
        while not any(c):
            c = [rng.randint(-3, 3) for _ in range(n)]
        values = [sum(a * x for a, x in zip(c, v.coords)) for v in
                  HPolytope(reg, normals, offsets, validate=False).vertices]
        normals.append(c)
        offsets.append(rng.choice(values) if through_vertex
                       else rng.randint(int(min(values)), int(max(values))))
    if scaled:
        scales = [Fraction(rng.randint(1, 30), rng.randint(1, 30))
                  for _ in normals]
        normals = [[a * s for a in row] for row, s in zip(normals, scales)]
        offsets = [b * s for b, s in zip(offsets, scales)]
    return HPolytope(reg, normals, offsets, validate=False)


def test_random_degenerate_systems_match_brute_force():
    rng = random.Random(20261018)
    for i in range(300):
        p = _random_system(rng, through_vertex=i % 5 < 3, scaled=i % 2 == 1)
        assert p.vertices == brute_force_vertices(p), (i, p._int_x, p._int_l)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_cross_polytope_faces_at_scale(n, bench_inputs, tmp_path, capsys):
    # n = 7 and 8 take well under a second with the graded lattice and
    # about 7 s with a meet closure, so a return of that shows in the
    # suite's time
    path = tmp_path / f"cross{n}.json"
    bench_inputs.write_spec(bench_inputs.cross_polytope(n, random.Random(1)),
                            path)
    assert cli.main(["analyze", str(path), "--only", "faces"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)["polytope"]
    f = report["f_vector"]
    assert f == bench_inputs.cross_f_vector(n)
    assert sum((-1) ** k * fk for k, fk in enumerate(f)) == 1 - (-1) ** n
    # a k-face lies on 2^(n-k-1) facets
    want = sum(fk for k, fk in enumerate(f) if 2 ** (n - k - 1) > n - k)
    assert sum(face["singular"] for face in report["faces"]) == want
    if n == 6:
        assert want == 472


@pytest.mark.parametrize("normals, offsets", [
    ([[1, 0], [0, 1], [-1, 0]], [0, 0, -1]),    # 0 <= x <= 1, y >= 0
    ([[1, 0], [-1, 0], [2, 0]], [0, -1, -1]),   # 0 <= x <= 1, y free
], ids=["ray", "line"])
def test_unbounded_system_has_no_vertex_list(normals, offsets):
    p = HPolytope(ParamRegistry([]), normals, offsets, validate=False)
    with pytest.raises(RuntimeError, match="unbounded"):
        p.vertices
