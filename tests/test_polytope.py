"""Vertex enumeration, face lattice, singularity classification, validation."""

import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from oracles import bound_loop_first_code, frac_active_set, \
    frac_constraint_value, frac_contains, gj_rref, rref_kernel_vector

from polystrat.links import link_tree
from polystrat.polytope import (
    Face,
    HPolytope,
    ValidationError,
    classify_face,
)
from polystrat.report import parse_spec
from polystrat.scalars import ParamRegistry


# -- fixture combinatorics -------------------------------------------------

def test_pyramid_vertices(pyramid):
    p, _, _ = pyramid
    coords = {v.coords for v in p.vertices}
    assert coords == {(0, 0, 1), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 0)}
    apex = next(v for v in p.vertices if v.coords == (0, 0, 1))
    assert apex.active == (1, 2, 3, 4)


def test_pyramid_f_vector_and_singularity(pyramid):
    p, _, _ = pyramid
    lat = p.face_lattice
    assert lat.f_vector() == (5, 8, 5)
    sing = lat.singular_faces()
    assert len(sing) == 1
    assert sing[0].index_set == (1, 2, 3, 4)
    assert sing[0].dim == 0 and sing[0].r == 4
    assert not p.is_simple


def test_tent_vertices(tent):
    p, _, _ = tent
    by_coords = {v.coords: v.active for v in p.vertices}
    assert len(by_coords) == 6
    assert by_coords[(1, -1, 0, 0)] == (1, 2, 3, 4, 6, 7)
    assert by_coords[(0, 0, 1, -1)] == (1, 2, 3, 4, 5, 8)
    for i in range(4):
        e = tuple(1 if j == i else 0 for j in range(4))
        assert e in by_coords
    # every vertex of this polytope is active on exactly six constraints
    assert all(len(a) == 6 for a in by_coords.values())


def test_tent_f_vector_and_singular_faces(tent):
    p, _, _ = tent
    lat = p.face_lattice
    assert lat.f_vector() == (6, 15, 18, 9)
    sing = lat.singular_faces()
    assert len(sing) == 15
    sing_vertices = [f for f in sing if f.dim == 0]
    sing_edges = [f for f in sing if f.dim == 1]
    assert len(sing_vertices) == 6 and len(sing_edges) == 9
    assert all(f.r == 4 for f in sing_edges)
    assert lat.face((1, 2, 3, 4)).dim == 1  # the ridge between the two peaks
    assert not p.is_simple


def test_cube_is_simple_with_all_vertices(cube3):
    p, _, _ = cube3
    assert len(p.vertices) == 8
    assert p.is_simple
    assert p.face_lattice.singular_faces() == ()
    assert all(len(v.active) == 3 for v in p.vertices)


def test_simplex_face_lattice_is_boolean(simplex3):
    p, _, _ = simplex3
    lat = p.face_lattice
    assert lat.f_vector() == (4, 6, 4)
    # every constraint subset of size <= n cuts out a face
    keys = set(lat.by_index_set)
    expected = {()}
    for k in range(1, 4):
        expected |= set(itertools.combinations(range(1, 5), k))
    assert keys == expected
    assert all(v.active and len(v.active) == 3 for v in p.vertices)
    assert p.is_simple


def _octahedron():
    reg = ParamRegistry([])
    normals = [[-sx, -sy, -sz]
               for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    offsets = [-1] * 8
    return HPolytope(reg, normals, offsets)


def test_octahedron_combinatorics():
    # cross-polytope: 6 vertices of degree 4, all singular, simple nowhere
    p = _octahedron()
    lat = p.face_lattice
    assert lat.f_vector() == (6, 12, 8)
    assert {v.coords for v in p.vertices} == {
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)}
    sing = lat.singular_faces()
    assert len(sing) == 6
    assert all(f.dim == 0 and f.r == 4 for f in sing)
    assert not p.is_simple


def test_facets_are_never_singular(pyramid, tent):
    for fx in (pyramid, tent):
        p = fx[0]
        for f in p.face_lattice.faces_of_dim(p.n - 1):
            assert f.r == 1
            assert not f.singular


def test_euler_relation(pyramid, tent, cube3, simplex3):
    for fx in (pyramid, tent, cube3, simplex3):
        p = fx[0]
        fv = p.face_lattice.f_vector()
        assert sum((-1) ** i * c for i, c in enumerate(fv)) == 1 - (-1) ** p.n
    fv = _octahedron().face_lattice.f_vector()
    assert sum((-1) ** i * c for i, c in enumerate(fv)) == 2


def test_classify_face_matches_flag():
    f = Face(index_set=(1, 2, 3, 4), dim=0, r=4, singular=True,
             vertex_ids=(0,))
    assert classify_face(f, 3) == "singular"
    g = Face(index_set=(1, 2, 3), dim=0, r=3, singular=False,
             vertex_ids=(0,))
    assert classify_face(g, 3) == "nonsingular"
    with pytest.raises(ValueError):
        classify_face(Face((1,), 0, 1, False, ()), 3)


# -- partial order ---------------------------------------------------------

def test_lattice_order_is_reverse_inclusion(pyramid):
    p, _, _ = pyramid
    lat = p.face_lattice
    apex = lat.face((1, 2, 3, 4))
    top = lat.top
    assert top.index_set == ()
    assert lat.leq(apex, top)
    assert not lat.leq(top, apex)
    for g in lat.superfaces(apex):
        assert set(g.index_set) < set(apex.index_set)
        assert g.dim > apex.dim
    for g in lat.subfaces(top):
        assert lat.leq(g, top)
    assert len(lat.subfaces(top)) == len(lat.faces) - 1


def test_vertex_ids_are_consistent(tent):
    p, _, _ = tent
    for f in p.face_lattice.faces:
        for vid in f.vertex_ids:
            v = p.vertices[vid]
            assert set(f.index_set) <= set(v.active)


# -- membership ------------------------------------------------------------

def test_contains_and_active_set_match_direct_evaluation(pyramid, tent):
    rng = random.Random(3)
    for fx in (pyramid, tent):
        p = fx[0]
        xs = [[x.evaluate() for x in row] for row in p.normals]
        ls = [l.evaluate() for l in p.offsets]
        for _ in range(60):
            pt = [Fraction(rng.randrange(-8, 9), 4) for _ in range(p.n)]
            slacks = [sum(a * b for a, b in zip(pt, row)) - l
                      for row, l in zip(xs, ls)]
            assert p.contains(pt) == all(s >= 0 for s in slacks)
            assert p.contains(pt, strict=True) == all(s > 0 for s in slacks)
            if p.contains(pt):
                assert p.active_set(pt) == tuple(
                    j for j, s in enumerate(slacks, start=1) if s == 0)


FIXTURE_NAMES = ("pyramid", "tent", "pyramid_unit", "tent_unit", "cube3",
                 "simplex3")


def _rescaled(p, rng):
    """The same polytope with every constraint times a random positive rational."""
    scales = [Fraction(rng.randint(1, 30), rng.randint(1, 30))
              for _ in range(p.d)]
    return HPolytope(p.registry,
                     [[x * s for x in row] for row, s in zip(p.normals, scales)],
                     [l * s for l, s in zip(p.offsets, scales)])


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_integer_predicates_match_fraction_oracle(name, request):
    rng = random.Random(sum(map(ord, name)))
    base = request.getfixturevalue(name)[0]
    for p in (base, _rescaled(base, rng)):
        for row, b, m in zip(p._int_x, p._int_l, p._int_scale):
            assert m > 0 and math.gcd(*row, b) == 1
        lo = [min(v.coords[i] for v in p.vertices) - 1 for i in range(p.n)]
        hi = [max(v.coords[i] for v in p.vertices) + 1 for i in range(p.n)]
        points = [v.coords for v in p.vertices]
        for _ in range(80):
            den = rng.randint(1, 12)
            points.append(tuple(
                l + (h - l) * Fraction(rng.randint(0, 4 * den), 4 * den)
                for l, h in zip(lo, hi)))
        for pt in points:
            assert p.contains(pt) == frac_contains(p, pt)
            assert p.contains(pt, strict=True) == frac_contains(
                p, pt, strict=True)
            assert p.active_set(pt) == frac_active_set(p, pt)
            assert p.slacks(pt) == [frac_constraint_value(p, j, pt)
                                    for j in range(1, p.d + 1)]
        for v in p.vertices:
            assert v.active == frac_active_set(p, v.coords)
        assert [v.coords for v in p.vertices] == \
            [v.coords for v in base.vertices]


def test_interior_point_is_strictly_inside(pyramid, tent, cube3,
                                          bench_inputs):
    cell24 = parse_spec(bench_inputs.cell24(random.Random(1)))[0]
    # a link polytope is built with validate=False
    link = link_tree(tent[0], tent[2])[0].link.polytope
    for p in (pyramid[0], tent[0], cube3[0], cell24, link):
        assert p.contains(p.interior_point(), strict=True)


def test_vertex_coordinates_are_symbolic(pyramid):
    p, _, _ = pyramid
    apex_id = next(i for i, v in enumerate(p.vertices)
                   if v.coords == (0, 0, 1))
    sym = p.vertex_point(apex_id)
    assert tuple(str(c) for c in sym) == ("0", "0", "1")


# -- validation ------------------------------------------------------------

def _reg():
    return ParamRegistry([])


def test_validation_too_few_constraints():
    with pytest.raises(ValidationError) as err:
        HPolytope(_reg(), [[1, 0], [0, 1]], [0, 0])
    assert "too-few-constraints" in err.value.codes


def test_validation_zero_normal():
    with pytest.raises(ValidationError) as err:
        HPolytope(_reg(), [[1, 0], [0, 0], [0, 1]], [0, 0, 0])
    assert "zero-normal" in err.value.codes


def test_validation_unbounded():
    with pytest.raises(ValidationError) as err:
        HPolytope(_reg(), [[1, 0], [0, 1], [-1, 0]], [0, 0, -1])
    assert "unbounded" in err.value.codes


def test_validation_empty():
    with pytest.raises(ValidationError) as err:
        HPolytope(_reg(), [[1, 0], [-1, 0], [0, 1], [0, -1]],
                  [1, 0, 0, -1])
    assert "empty" in err.value.codes


def test_validation_lower_dimensional():
    with pytest.raises(ValidationError) as err:
        HPolytope(_reg(), [[1, 0], [-1, 0], [0, 1], [0, -1]],
                  [0, 0, 0, -1])
    assert "lower-dimensional" in err.value.codes


def test_validation_redundant_constraint():
    with pytest.raises(ValidationError) as err:
        HPolytope(_reg(),
                  [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 0]],
                  [0, 0, -1, -1, -5])
    assert "redundant-constraint" in err.value.codes


def test_validation_shape_errors():
    with pytest.raises(ValidationError) as err:
        HPolytope(_reg(), [[1, 0], [0, 1, 2], [-1, -1]], [0, 0, -1])
    assert "shape" in err.value.codes
    with pytest.raises(ValidationError) as err:
        HPolytope(_reg(), [[1, 0], [0, 1], [-1, -1]], [0, 0])
    assert "shape" in err.value.codes


def test_degenerate_point_detected_outside_generic_locus():
    # the slanted cut passes through the corner (1,1) only at p1 = 2
    reg = ParamRegistry(["p1"])  # evaluation point p1 = 2
    p = HPolytope(reg,
                  [[1, 0], [0, 1], [-1, 0], [0, -1], [-1, -1]],
                  [0, 0, -1, -1, reg.parse("-p1")],
                  validate=False)
    corner = next(i for i, v in enumerate(p.vertices)
                  if v.coords == (1, 1))
    with pytest.raises(ValidationError) as err:
        p.vertex_point(corner)
    assert "degenerate-point" in err.value.codes


def test_validate_false_skips_checks():
    # unbounded data accepted when validation is disabled
    p = HPolytope(_reg(), [[1, 0], [0, 1], [-1, 0]], [0, 0, -1],
                  validate=False)
    assert p.d == 3


def _ray_in(err):
    text = re.search(r"direction \(([^)]*)\)", str(err)).group(1)
    return [Fraction(x) for x in text.split(", ")]


@pytest.mark.parametrize("normals, offsets", [
    ([[1, 0], [0, 1], [-1, 0]], [0, 0, -1]),  # a ray
    ([[0, 1], [0, -1], [0, 3]], [0, -1, -2]),  # a line, rank 1
    ([[1, 1], [1, -1], [2, 1], [1, 3]], [0, -1, -4, -9]),  # a cone
    ([[Fraction(2, 3), 0], [0, 7], [Fraction(-1, 5), 0]], [0, 0, -1]),
])
def test_unbounded_diagnostic_names_a_recession_direction(normals, offsets):
    with pytest.raises(ValidationError) as err:
        HPolytope(_reg(), normals, offsets)
    assert err.value.codes == ["unbounded"]
    y = _ray_in(err.value)
    assert any(y)
    assert all(sum(Fraction(a) * b for a, b in zip(row, y)) >= 0
               for row in normals)


def test_unbounded_diagnostic_names_the_reduced_kernel_vector():
    """A line's direction is the primitive kernel vector of the reduced
    row echelon form, 1 on its first free column; sign and scale count."""
    rng = random.Random(20261019)
    checked = 0
    while checked < 120:
        n = rng.choice((2, 3, 4))
        basis = [[rng.randint(-3, 3) for _ in range(n - 1)] + [1]
                 for _ in range(rng.randint(1, n - 1))]
        normals, d = [], n + rng.randint(1, 3)
        while len(normals) < d:
            coef = [rng.randint(-2, 2) for _ in basis]
            a = [sum(k * b[i] for k, b in zip(coef, basis))
                 for i in range(n)]
            if any(a):
                normals.append(a)
        pivots = gj_rref(normals)[1]
        if min(set(range(n)) - set(pivots)) == n - 1:
            continue  # the free column is last
        want = rref_kernel_vector(normals)
        c = [rng.randint(-2, 2) for _ in range(n)]
        offsets = [sum(x * y for x, y in zip(a, c)) - rng.randint(1, 3)
                   for a in normals]
        scales = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                  for _ in normals]
        scaled = ([[m * x for x in row] for m, row in zip(scales, normals)],
                  [m * x for m, x in zip(scales, offsets)])
        for rows, rhs in ((normals, offsets), scaled):
            with pytest.raises(ValidationError) as err:
                HPolytope(_reg(), rows, rhs)
            assert err.value.codes == ["unbounded"]
            assert _ray_in(err.value) == want, (rows, rhs)
        checked += 1


def _random_system(rng, kind, n):
    """Integer rows and offsets of one kind, around a strict point c."""
    c = [rng.randint(-2, 2) for _ in range(n)]

    def row():
        while True:
            a = [rng.randint(-3, 3) for _ in range(n)]
            if any(a):
                return a

    def through(a, slack):
        return sum(x * y for x, y in zip(a, c)) - slack

    def flat(u):
        """A primitive nonzero row orthogonal to u."""
        uu = sum(x * x for x in u)
        while True:
            a = row()
            au = sum(x * y for x, y in zip(a, u))
            a = [uu * x - au * y for x, y in zip(a, u)]
            if any(a):
                return [x // math.gcd(*a) for x in a]

    normals, offsets = [], []
    if kind in ("bounded", "empty", "lower-dimensional"):
        for i in range(n):
            for s in (1, -1):
                e = [0] * n
                e[i] = s
                normals.append(e)
                offsets.append(through(e, rng.randint(1, 3)))
    elif kind in ("ray", "flat-ray"):
        u = row()
        for _ in range(n + rng.randint(1, 3)):
            a = row()
            if sum(x * y for x, y in zip(a, u)) < 0:
                a = [-x for x in a]
            normals.append(a)
            offsets.append(through(a, rng.randint(1, 3)))
    elif kind == "line":
        k = rng.randrange(n)
        for _ in range(n + rng.randint(1, 3)):
            a = row()
            a[k] = 0
            if not any(a):
                a[(k + 1) % n] = 1
            normals.append(a)
            offsets.append(through(a, rng.randint(1, 3)))
    elif kind == "empty-low-rank":
        # rows of rank < n: all orthogonal to u
        u = row()
        for _ in range(n + rng.randint(1, 3)):
            a = flat(u)
            normals.append(a)
            offsets.append(through(a, rng.randint(1, 3)))
    # cuts through or near c; ray, line and low-rank systems keep their
    # direction
    extra = {"random": n + 3, "ray": 0, "line": 0, "flat-ray": 0,
             "empty-low-rank": 0}.get(kind)
    for _ in range(rng.randint(0, 3) if extra is None else extra):
        a = row()
        normals.append(a)
        offsets.append(through(a, rng.randint(-1, 3)) if kind != "random"
                       else rng.randint(-6, 2))
    if kind in ("empty", "lower-dimensional", "empty-low-rank", "flat-ray"):
        # a slab of width -1 (empty) or 0 through c (lower-dimensional);
        # the flat ray's slab contains its direction u
        a = flat(u) if kind in ("empty-low-rank", "flat-ray") else row()
        width = -1 if kind.startswith("empty") else 0
        normals += [a, [-x for x in a]]
        offsets += [through(a, 0), -through(a, 0) - width]
    return normals, offsets


def _first_code(normals, offsets):
    try:
        HPolytope(_reg(), normals, offsets)
    except ValidationError as e:
        return e.codes[0], e
    return None, None


def test_validation_matches_bound_loop_oracle():
    rng = random.Random(20261018)
    kinds = ("bounded", "ray", "line", "empty", "lower-dimensional",
             "random", "empty-low-rank", "flat-ray")
    # two kinds decide by construction: rows of rank < n with an empty
    # slab, and a ray inside a zero-width slab (unbounded comes first)
    forced = {"empty-low-rank": "empty", "flat-ray": "unbounded"}
    seen = Counter()
    for i in range(320):
        kind = kinds[i % len(kinds)]
        normals, offsets = _random_system(rng, kind, rng.choice((2, 3, 4)))
        want = bound_loop_first_code(normals, offsets)
        assert want == forced.get(kind, want), (kind, normals, offsets)
        seen[want] += 1
        # each constraint times a positive rational describes the same set
        scales = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                  for _ in normals]
        scaled = ([[m * x for x in row] for m, row in zip(scales, normals)],
                  [m * x for m, x in zip(scales, offsets)])
        for rows, rhs in ((normals, offsets), scaled):
            got, err = _first_code(rows, rhs)
            assert got == want, (kind, rows, rhs)
            if got == "unbounded":
                y = _ray_in(err)
                assert any(y)
                assert all(sum(a * b for a, b in zip(r, y)) >= 0
                           for r in rows)
    assert {None, "empty", "unbounded", "lower-dimensional",
            "redundant-constraint"} <= set(seen), seen
