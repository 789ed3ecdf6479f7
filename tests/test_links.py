"""Cone sections, link polytopes, fibration data, and recursion trees.

The face-transfer checks here recompute the expected correspondence
from the two face lattices directly instead of trusting the checks
built into link_polytope.
"""

from fractions import Fraction

import pytest

import polystrat.links as L


def _recheck_transfer(parent_poly, face, lp):
    """Independent bijection + dimension + singularity audit."""
    sup = {g.index_set: g
           for g in parent_poly.face_lattice.superfaces(face)}
    sup[()] = parent_poly.face_lattice.top
    lat = lp.polytope.face_lattice
    assert set(lp.to_parent) == {g.index_set for g in lat.faces}
    assert sorted(lp.to_parent.values()) == sorted(sup)
    for g in lat.faces:
        assert lp.to_parent[g.index_set] == lp.parent_labels(g.index_set)
        target = sup[lp.to_parent[g.index_set]]
        assert target.dim == g.dim + face.dim + 1
        if g.index_set != () and target.index_set != ():
            assert g.singular == target.singular


# -- sections -------------------------------------------------------------


def test_apex_section_pinned(pyramid):
    p, _, _ = pyramid
    apex = p.face_lattice.face((1, 2, 3, 4))
    sec = L.cone_section(p, apex, b={4: "p2"})
    assert [str(s) for s in sec.y] == ["0", "0", "-p2 - 1"]
    assert str(sec.level) == "-p2"
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
    fib = L.fibration_data(p, apex, b={4: "p2"})
    assert not fib.closed
    assert fib.split_ok and fib.augmented_rank == 2
    assert [str(s) for s in fib.y_tilde] == ["1", "1", "1", "p2"]
    rational = L.fibration_data(p, apex)
    assert rational.closed and rational.split_ok


def test_tent_edge_fibration(tent):
    p, _, _ = tent
    edge = p.face_lattice.face((1, 2, 3, 4))
    fib = L.fibration_data(p, edge, b={2: "p1"})
    assert [str(s) for s in fib.y_tilde] == ["1", "p1", "1", "1"]
    assert not fib.closed
    assert fib.split_ok


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


def test_tree_transfer_recheck_every_node(pyramid, tent):
    for fx in (pyramid, tent):
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
