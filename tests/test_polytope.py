"""Vertex enumeration, face lattice, singularity classification, validation."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from oracles import frac_active_set, frac_constraint_value, frac_contains

from polystrat.polytope import (
    Face,
    HPolytope,
    ValidationError,
    classify_face,
)
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
            for j in range(1, p.d + 1):
                assert p.constraint_value(j, pt) == frac_constraint_value(
                    p, j, pt)
        for v in p.vertices:
            assert v.active == frac_active_set(p, v.coords)
        assert [v.coords for v in p.vertices] == \
            [v.coords for v in base.vertices]


def test_interior_point_is_strictly_inside(pyramid, tent, cube3):
    for fx in (pyramid, tent, cube3):
        p = fx[0]
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
