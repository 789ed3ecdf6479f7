"""Cone sections, link polytopes, fibration data, and recursion trees.

The face-transfer checks here recompute the expected correspondence
from the two face lattices directly instead of trusting the checks
built into link_polytope, and rebuild each link by the intrinsic route
(validation, which link_polytope skips).
"""

import random
from fractions import Fraction

import pytest
from families import family

import polystrat.links as L
from oracles import flag_chart_fibration, fraction_cone_section, \
    intrinsic_polytope, symbolic_section
from polystrat import scalars
from polystrat.cli import fixture_spec
from polystrat.polytope import HPolytope, ValidationError
from polystrat.report import parse_spec
from polystrat.scalars import ParamRegistry


def _recheck_transfer(parent_poly, face, lp):
    """Independent bijection + dimension + singularity audit.

    The slice rebuilt with validation must have the same vertices and
    face lattice.
    """
    sup = {g.index_set: g
           for g in parent_poly.face_lattice.superfaces(face)}
    sup[()] = parent_poly.face_lattice.top
    lat = lp.polytope.face_lattice
    labels = lp.section.face_index_set
    assert set(lp.to_parent) == {g.index_set for g in lat.faces}
    assert sorted(lp.to_parent.values()) == sorted(sup)
    for g in lat.faces:
        assert lp.to_parent[g.index_set] == tuple(
            labels[t - 1] for t in g.index_set)
        target = sup[lp.to_parent[g.index_set]]
        assert target.dim == g.dim + face.dim + 1
        if g.index_set != () and target.index_set != ():
            assert g.singular == target.singular
    oracle = intrinsic_polytope(lp.polytope)
    assert oracle.vertices == lp.polytope.vertices
    assert oracle.face_lattice.faces == lat.faces


# -- sections -------------------------------------------------------------


def test_apex_section_pinned(pyramid):
    p, _, _ = pyramid
    apex = p.face_lattice.face((1, 2, 3, 4))
    sec = L.cone_section(p, apex, b={4: "p2"})
    assert sec.epsilon == Fraction(1)
    assert sec.y_num == (0, 0, -3)
    assert sec.xi0 == (0, 0, Fraction(2, 3))
    assert [str(s) for s in sec.b] == ["1", "1", "1", "p2"]


def test_apex_link_is_a_square(pyramid):
    p, _, _ = pyramid
    apex = p.face_lattice.face((1, 2, 3, 4))
    lp = L.link_polytope(p, L.cone_section(p, apex, b={4: "p2"}))
    assert lp.polytope.n == 2
    assert lp.polytope.face_lattice.f_vector() == (4, 4)
    assert lp.polytope.face_lattice.singular_faces() == ()
    _recheck_transfer(p, apex, lp)


def test_tent_vertex_link(tent):
    p, _, _ = tent
    nu1 = p.face_lattice.face((1, 2, 3, 4, 6, 7))
    lp = L.link_polytope(p, L.cone_section(p, nu1))
    assert lp.polytope.n == 3
    sv = lp.polytope.face_lattice.singular_faces()
    assert sorted(lp.to_parent[g.index_set] for g in sv) == [
        (1, 2, 3, 4), (1, 3, 6, 7), (2, 4, 6, 7)]
    assert all(g.dim == 0 for g in sv)
    _recheck_transfer(p, nu1, lp)


def test_tent_edge_link(tent):
    p, _, _ = tent
    edge = p.face_lattice.face((1, 2, 3, 4))
    lp = L.link_polytope(p, L.cone_section(p, edge))
    assert lp.polytope.n == 2
    assert lp.polytope.face_lattice.f_vector() == (4, 4)
    assert lp.polytope.is_simple
    _recheck_transfer(p, edge, lp)


# -- fibration data -------------------------------------------------------


def test_apex_fibration(pyramid):
    p, _, _ = pyramid
    apex = p.face_lattice.face((1, 2, 3, 4))
    fib = L.fibration_data(L.cone_section(p, apex, b={4: "p2"}))
    assert not fib.closed
    assert fib.split_ok
    assert flag_chart_fibration(p, apex, fib.y_tilde) == (True, 2)
    assert [str(s) for s in fib.y_tilde] == ["1", "1", "1", "p2"]
    rational = L.fibration_data(L.cone_section(p, apex))
    assert rational.closed and rational.split_ok


def test_tent_edge_fibration(tent):
    p, _, _ = tent
    edge = p.face_lattice.face((1, 2, 3, 4))
    fib = L.fibration_data(L.cone_section(p, edge, b={2: "p1"}))
    assert [str(s) for s in fib.y_tilde] == ["1", "p1", "1", "1"]
    assert not fib.closed
    assert fib.split_ok


def _nodes(p, forest):
    """(polytope holding the node's face, node) for every node of a forest."""
    for node in forest:
        yield p, node
        yield from _nodes(node.link.polytope, node.children)


def test_fibration_split_matches_flag_chart_oracle(
        pyramid, tent, pyramid_unit, tent_unit, cube3, simplex3, cross3):
    """At every node Y and xi0 are the evaluated symbolic Y and level, the
    split holds and agrees with the flag-chart rank, and that rank is
    r_F - (n - dim F) + 1: b extends the stabilizer rows."""
    polys = [fx[0] for fx in (pyramid, tent, pyramid_unit, tent_unit,
                              cube3, simplex3, cross3)]
    for kind in ("pyramid", "bipyramid", "polygon-prism", "pyramid-prism"):
        rng = random.Random(f"links-{kind}")
        polys += [HPolytope(ParamRegistry([]), *family(rng, kind))
                  for _ in range(3)]
    for p in polys:
        nodes = list(_nodes(p, L.link_tree(p)))
        assert nodes or p.is_simple
        for poly, node in nodes:
            face = poly.face_lattice.face(node.face_index_set)
            section = node.link.section
            y, level = symbolic_section(poly, face, section.b,
                                        section.epsilon)
            y_num = tuple(s.evaluate() for s in y)
            yy = sum(c * c for c in y_num)
            assert section.y_num == y_num
            assert section.xi0 == tuple(level.evaluate() * c / yy
                                        for c in y_num)
            split, rank = flag_chart_fibration(poly, face,
                                               node.fibration.y_tilde)
            assert node.fibration.split_ok is True
            assert node.fibration.split_ok == split
            assert rank == face.r - (poly.n - face.dim) + 1


def test_integer_sections_match_fraction_oracle(oracle_specs):
    """At every node of every link forest, for three epsilons and the
    fixtures' b, the section and its link rows are those of Gram-Schmidt
    on the evaluated Fraction normals."""
    for name, spec in oracle_specs.items():
        p, _, options = parse_spec(spec)
        for eps in (Fraction(1), Fraction(1, 3), Fraction(7, 2)):
            nodes = list(_nodes(p, L.link_tree(p, {**options,
                                                   "epsilon": eps})))
            assert nodes or p.is_simple, name
            for poly, node in nodes:
                section = node.link.section
                want = fraction_cone_section(
                    poly, poly.face_lattice.face(node.face_index_set),
                    b=section.b, epsilon=eps)
                assert section[:-1] == want[:-1], (name, eps, node.chain)
                got, ref = section.polytope, want.polytope
                assert got.numeric_normals() == ref.numeric_normals()
                assert got.numeric_offsets() == ref.numeric_offsets()


def test_parameter_free_link_forest_evaluates_no_polynomial(monkeypatch):
    # every value of a parameter-free link is a rational constant
    p, _, options = parse_spec(fixture_spec("tent_unit"))
    calls = []
    inner = scalars._p_eval
    monkeypatch.setattr(scalars, "_p_eval",
                        lambda *args: calls.append(args) or inner(*args))
    assert list(_nodes(p, L.link_tree(p, options)))
    assert calls == []


def test_link_tree_builds_no_chart():
    """Only the report's top-level embedding constants read a flag chart."""
    for name in ("tent", "pyramid"):
        p, _, _ = parse_spec(fixture_spec(name))
        polys = [p] + [node.link.polytope
                       for _, node in _nodes(p, L.link_tree(p))]
        for poly in polys:
            assert not [k for k in poly.memo
                        if k[0] in ("chart", "change_of_basis")]


# -- recursion trees ------------------------------------------------------


def test_pyramid_tree(pyramid):
    p, _, _ = pyramid
    forest = L.link_tree(p)
    assert len(forest) == 1
    node = forest[0]
    assert node.face_index_set == (1, 2, 3, 4)
    assert node.chain == ((1, 2, 3, 4),)
    assert node.depth == 1 and node.children == ()
    assert node.fibration.closed
    assert node.link.polytope.is_simple


def test_tent_tree(tent):
    p, _, _ = tent
    forest = L.link_tree(p)
    assert len(forest) == 15
    by_face = {n.face_index_set: n for n in forest}

    n1 = by_face[(1, 2, 3, 4, 6, 7)]
    assert n1.depth == 2 and len(n1.children) == 3
    for c in n1.children:
        assert c.children == ()
        assert c.chain[0] == (1, 2, 3, 4, 6, 7) and len(c.chain) == 2
        assert c.link.polytope.n == 2
        assert c.link.polytope.face_lattice.f_vector() == (4, 4)
    assert sorted(c.chain[1] for c in n1.children) == [
        (1, 2, 3, 4), (1, 3, 6, 7), (2, 4, 6, 7)]

    assert by_face[(1, 2, 3, 4)].depth == 1
    assert max(n.depth for n in forest) == 2

    for node in forest:
        for sub in node.walk():
            if not sub.children:
                assert sub.link.polytope.is_simple


def test_tree_transfer_recheck_every_node(pyramid, tent, cross3):
    for fx in (pyramid, tent, cross3):
        p, _, _ = fx
        for root in L.link_tree(p):
            stack = [(p, root)]
            while stack:
                poly, node = stack.pop()
                face = poly.face_lattice.face(node.face_index_set)
                _recheck_transfer(poly, face, node.link)
                stack.extend((node.link.polytope, c)
                             for c in node.children)


def test_tree_options(pyramid):
    p, _, _ = pyramid
    forest = L.link_tree(p, {"epsilon": Fraction(1, 3),
                             "b": {(1, 2, 3, 4): {4: "p2"}}})
    assert len(forest) == 1
    assert not forest[0].fibration.closed
    assert forest[0].link.polytope.face_lattice.f_vector() == (4, 4)
    # b for a face that is not singular is rejected, not ignored
    with pytest.raises(ValueError, match="not singular"):
        L.link_tree(p, {"b": {(1, 2): ["7"]}})


def test_simple_fixtures_have_empty_forests(cube3, simplex3):
    for fx in (cube3, simplex3):
        p, _, _ = fx
        assert p.is_simple
        assert L.link_tree(p) == ()


# -- invariance and rejection paths ---------------------------------------


def test_section_invariance_in_epsilon_and_b(pyramid, tent):
    p, _, _ = pyramid
    apex = p.face_lattice.face((1, 2, 3, 4))
    assert L.section_invariance_check(p, apex, eps1=Fraction(1),
                                      eps2=Fraction(2))
    assert L.section_invariance_check(p, apex, eps1=Fraction(1, 3),
                                      eps2=Fraction(2))
    assert L.section_invariance_check(p, apex, eps1=1, eps2=1,
                                      b2={4: "p2"})

    t, _, _ = tent
    nu1 = t.face_lattice.face((1, 2, 3, 4, 6, 7))
    assert L.section_invariance_check(t, nu1, eps1=Fraction(1),
                                      eps2=Fraction(1, 3))
    assert L.section_invariance_check(
        t, nu1, eps1=1, eps2=1,
        b2=[1, Fraction(1, 2), 1, 1, Fraction(3, 4), 1])


def test_nonsingular_face_rejected(pyramid):
    p, _, _ = pyramid
    with pytest.raises(ValueError, match="not singular"):
        L.cone_section(p, p.face_lattice.face((3,)))


def test_bad_coefficients_rejected(pyramid):
    p, _, _ = pyramid
    apex = p.face_lattice.face((1, 2, 3, 4))
    with pytest.raises(ValueError, match="b_4 must be positive"):
        L.cone_section(p, apex, b=[1, 1, 1, 0])
    with pytest.raises(ValueError, match="epsilon"):
        L.cone_section(p, apex, epsilon=0)
    # b above 1 is accepted
    L.cone_section(p, apex, b=[1, 1, 1, 2])
    # a b_j for a label outside the face is rejected, not ignored
    with pytest.raises(ValueError, match=r"\[9\] outside the face"):
        L.cone_section(p, apex, b={9: 5})
    with pytest.raises(ValueError, match="b must list 4"):
        L.cone_section(p, apex, b=[1, 1])


def test_link_vertices_must_match_the_parent_lattice(tent):
    p, _, _ = tent
    nu1 = p.face_lattice.face((1, 2, 3, 4, 6, 7))
    section = L.cone_section(p, nu1)
    poly = section.polytope
    # push the slice's constraint 3 outward until it is redundant
    offsets = [x.evaluate() - (1 if t == 3 else 0)
               for t, x in enumerate(poly.offsets, start=1)]
    with pytest.raises(ValidationError) as err:
        HPolytope(poly.registry, poly.normals, offsets)
    assert err.value.codes == ["redundant-constraint"]
    pushed = section._replace(polytope=HPolytope(
        poly.registry, poly.normals, offsets, validate=False))
    with pytest.raises(RuntimeError, match=r"\(1, 2, 3, 4, 6, 7\)"):
        L.link_polytope(p, pushed)
