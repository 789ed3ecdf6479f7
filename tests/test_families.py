"""Seeded nonsimple families (families.py) against independent oracles.

Every polytope must pass validation, its vertices must equal the
brute force over all n-subsets of constraints, its f-vector must
satisfy Euler's relation and equal the one scipy's ConvexHull gives:
facets are the vertex sets of the hull's merged triangles, faces their
intersections, and a face's dimension the rank of its points.
"""

import random

import pytest
from families import family
from oracles import brute_force_vertices

from polystrat.polytope import HPolytope
from polystrat.scalars import ParamRegistry

KINDS = ("pyramid", "bipyramid", "polygon-prism", "pyramid-prism")


def _hull_f_vector(points, n):
    np = pytest.importorskip("numpy")
    spatial = pytest.importorskip("scipy.spatial")
    pts = np.array([[float(x) for x in p] for p in points])
    hull = spatial.ConvexHull(pts)
    faces = {frozenset(int(i) for i in np.flatnonzero(
        np.abs(pts @ eq[:-1] + eq[-1]) < 1e-9)) for eq in hull.equations}
    work = list(faces)
    while work:
        f = work.pop()
        for g in list(faces):
            meet = f & g
            if meet and meet not in faces:
                faces.add(meet)
                work.append(meet)
    counts = [0] * n
    for f in faces:
        idx = sorted(f)
        counts[int(np.linalg.matrix_rank(pts[idx[1:]] - pts[idx[0]]))
               if len(idx) > 1 else 0] += 1
    return tuple(counts)


@pytest.mark.parametrize("kind", KINDS)
def test_nonsimple_families_match_oracles(kind):
    rng = random.Random(f"families-{kind}")
    for _ in range(12):
        normals, offsets = family(rng, kind)
        p = HPolytope(ParamRegistry([]), normals, offsets)  # validates
        assert p.d == len(normals)
        assert p.vertices == brute_force_vertices(p), (normals, offsets)
        fv = p.face_lattice.f_vector()
        assert sum((-1) ** k * f for k, f in enumerate(fv)) == \
            1 - (-1) ** p.n
        assert fv == _hull_f_vector([v.coords for v in p.vertices], p.n), \
            (normals, offsets)
        # only the prism over a polygon is simple
        assert p.is_simple == (kind == "polygon-prism")
