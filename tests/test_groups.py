"""Discrete chart groups, face groups, splittings, structure reports.

Finite cases are checked against a breadth-first enumeration of the
subgroup of (Q/Z)^n (oracles.qz_subgroup); infinite cases against the
exact subgroup-equality test and pinned generator exponents.
"""

import random
from fractions import Fraction

import pytest

from oracles import int_det, order_multiset, orders_of_abelian_type, \
    qz_subgroup
from polystrat.ambient import Quasilattice, adapted_kernel_basis, \
    admissible_index_sets, find_flag_index_set
from polystrat.groups import (
    GroupDescriptor,
    gamma_face_group,
    gamma_group,
    group_structure,
    split_gamma,
    stabilizer_dim,
    stabilizer_report,
)
from polystrat.polytope import HPolytope
from polystrat.scalars import ParamRegistry


# -- pinned chart groups -----------------------------------------------------

def test_pyramid_chart_group_generators(pyramid):
    p, q, _ = pyramid
    g = gamma_group(p, q, (2, 3, 4))
    assert g.support == (2, 3, 4)
    expected = GroupDescriptor(p.registry, (2, 3, 4), [
        [p.registry.parse(s) for s in ("1/p2", "-1", "1")],
        [p.registry.parse(s) for s in ("-p5/p2", "0", "-p5")],
    ])
    assert g.same_group(expected)
    assert not g.structure().is_finite


def test_pyramid_unit_chart_group_trivial(pyramid_unit):
    p, q, _ = pyramid_unit
    g = gamma_group(p, q, (2, 3, 4))
    assert g.structure().is_trivial
    assert g.structure().label == "trivial"


def test_unit_fixtures_all_chart_groups_trivial(pyramid_unit, tent_unit):
    for fx in (pyramid_unit, tent_unit):
        p, q, _ = fx
        fam = admissible_index_sets(p)
        for i_set in fam:
            assert gamma_group(p, q, i_set).structure().is_trivial


def test_unimodular_cube_groups_trivial(cube3):
    p, q, _ = cube3
    fam = admissible_index_sets(p)
    for i_set in fam:
        assert gamma_group(p, q, i_set).structure().is_trivial


def test_gamma_group_rejects_inadmissible(pyramid):
    p, q, _ = pyramid
    fam = admissible_index_sets(p)
    with pytest.raises(ValueError):
        gamma_group(p, q, (1, 3, 5))


# -- face groups ---------------------------------------------------------------

def test_tent_edge_face_group_display(tent):
    p, q, _ = tent
    edge = p.face_lattice.face((1, 2, 3, 4))
    g = gamma_face_group(p, q, edge, (1, 2, 3, 6))
    assert g.support == (1, 2, 3)
    assert g.essential_support == (1,)
    expected = GroupDescriptor(p.registry, (1, 2, 3), [
        [p.registry.parse("1/p1"), p.registry.zero(), p.registry.zero()],
    ])
    assert g.same_group(expected)
    assert not g.structure().is_finite


def test_tent_edge_face_group_trivial_at_unit(tent_unit):
    p, q, _ = tent_unit
    edge = p.face_lattice.face((1, 2, 3, 4))
    g = gamma_face_group(p, q, edge, (1, 2, 3, 6))
    assert g.structure().is_trivial


def test_face_group_flag_condition_enforced(tent):
    p, q, _ = tent
    edge = p.face_lattice.face((1, 2, 3, 4))
    # I = I_{nu2} subset works through vertex nu2, but a set meeting the
    # edge in too few labels must be rejected
    bad = (1, 5, 6, 8)  # meets {1,2,3,4} in one label, need n - p = 3
    with pytest.raises(ValueError):
        gamma_face_group(p, q, edge, bad)
    # an admissible I at the edge's vertex nu2 that meets it in two labels
    # fails the same check in every caller
    at_vertex = (1, 2, 6, 7)
    for call in (lambda: adapted_kernel_basis(p, at_vertex, face=edge),
                 lambda: gamma_face_group(p, q, edge, at_vertex),
                 lambda: split_gamma(p, q, edge, at_vertex)):
        with pytest.raises(ValueError, match="flag condition fails"):
            call()


# -- splitting ----------------------------------------------------------------

def test_tent_edge_split_complement_exponents(tent):
    p, q, _ = tent
    edge = p.face_lattice.face((1, 2, 3, 4))
    split = split_gamma(p, q, edge, (1, 2, 3, 6))
    assert split.face_part.support == (1, 2, 3)
    assert split.complement_part.support == (6,)
    # the subgroup generated by the exponents p5, -1, p8 on coordinate 6
    display = GroupDescriptor(p.registry, (6,), [
        [p.registry.param("p5")],
        [p.registry.scalar(-1)],
        [p.registry.param("p8")],
    ])
    assert split.complement_part.same_group(display)
    assert split.complement_part.structure().label == "Z^2"
    gamma = gamma_group(p, q, (1, 2, 3, 6))
    assert len(split.pairs) == len(gamma.generators)


def test_split_parts_trivial_for_delzant_data(tent_unit):
    p, q, _ = tent_unit
    fam = admissible_index_sets(p)
    for face in p.face_lattice.singular_faces():
        i_set, _ = find_flag_index_set(p, face)
        split = split_gamma(p, q, face, i_set)
        assert split.face_part.structure().is_trivial
        assert split.complement_part.structure().is_trivial


def test_split_projections_recombine(pyramid):
    p, q, _ = pyramid
    apex = p.face_lattice.face((1, 2, 3, 4))
    split = split_gamma(p, q, apex, (2, 3, 4))
    gamma = gamma_group(p, q, (2, 3, 4))
    for gen, (fpart, cpart) in zip(gamma.generators, split.pairs):
        merged = dict(zip(split.face_part.support, fpart))
        merged.update(zip(split.complement_part.support, cpart))
        assert tuple(merged[h] for h in gamma.support) == gen


# -- stabilizer dimensions ------------------------------------------------------

def test_stabilizer_dims(pyramid, tent):
    p, _, _ = pyramid
    apex = p.face_lattice.face((1, 2, 3, 4))
    assert stabilizer_dim(apex, p.n) == 1

    t, _, _ = tent
    nu1 = t.face_lattice.face((1, 2, 3, 4, 6, 7))
    edge = t.face_lattice.face((1, 2, 3, 4))
    assert stabilizer_dim(nu1, t.n) == 2
    assert stabilizer_dim(edge, t.n) == 1


def test_stabilizer_report(tent):
    p, _, _ = tent
    edge = p.face_lattice.face((1, 2, 3, 4))
    rep = stabilizer_report(p, edge)
    assert rep.face_index_set == (1, 2, 3, 4)
    assert rep.dim == 1
    assert len(set(rep.index_set) & set(edge.index_set)) == p.n - edge.dim


# -- abstract structure ----------------------------------------------------------

def _const_group(entries_list):
    reg = ParamRegistry([])
    n = len(entries_list[0]) if entries_list else 1
    support = tuple(range(1, n + 1))
    gens = [[reg.scalar(Fraction(x)) for x in row] for row in entries_list]
    return GroupDescriptor(reg, support, gens)


def test_structure_half_third():
    g = _const_group([(Fraction(1, 2), 0), (0, Fraction(1, 3))])
    st = group_structure(g)
    assert st.free_rank == 0
    assert st.order == 6
    elements = qz_subgroup(g_numeric(g))
    assert len(elements) == 6
    assert order_multiset(elements) == orders_of_abelian_type(st.torsion)


def g_numeric(g):
    return [[x.evaluate() for x in gen] for gen in g.generators]


def test_structure_generic_parameter_is_infinite_cyclic():
    reg = ParamRegistry(["p5"])
    g = GroupDescriptor(reg, (1,), [[reg.param("p5")]])
    st = group_structure(g)
    assert st.label == "Z"
    assert st.order is None


def test_structure_no_generators_trivial():
    reg = ParamRegistry([])
    g = GroupDescriptor(reg, (1, 2), [])
    assert group_structure(g).is_trivial


def test_contains_membership():
    g = _const_group([(Fraction(1, 2), 0), (0, Fraction(1, 3))])
    assert g.contains((Fraction(1, 2), Fraction(2, 3)))
    assert g.contains((Fraction(3, 2), Fraction(-1, 3)))  # mod Z
    assert not g.contains((Fraction(1, 4), Fraction(0)))


def test_random_finite_groups_match_enumeration_oracle():
    rng = random.Random(11)
    checked = 0
    while checked < 8:
        n = rng.randrange(1, 4)
        gens = [
            tuple(Fraction(rng.randrange(0, 6), rng.choice([1, 2, 3, 4, 6]))
                  for _ in range(n))
            for _ in range(rng.randrange(1, 4))]
        elements = qz_subgroup(gens)
        if elements is None or len(elements) > 50:
            continue
        g = _const_group(gens)
        st = group_structure(g)
        assert st.is_finite
        assert st.order == len(elements)
        assert orders_of_abelian_type(st.torsion) == order_multiset(elements)
        checked += 1
    assert checked >= 5


def test_rational_group_order_equals_lattice_index():
    reg = ParamRegistry([])
    p = HPolytope(reg, [[2, 0], [0, 3], [-1, 0], [0, -1]],
                  [0, 0, -1, -1])
    q = Quasilattice(reg, [[1, 0], [0, 1]])
    cases = {(1, 2): 6, (1, 4): 2, (3, 4): 1}
    for i_set, expected in cases.items():
        st = gamma_group(p, q, i_set).structure()
        assert st.order == expected
        det = int_det([[p.normals[h - 1][i].evaluate() for i in range(2)]
                       for h in i_set])
        assert abs(det) == expected


def test_same_group_is_an_equivalence(pyramid):
    p, q, _ = pyramid
    g = gamma_group(p, q, (2, 3, 4))
    assert g.same_group(g)
    doubled = GroupDescriptor(
        p.registry, g.support,
        list(g.generators) + [g.generators[0]])
    assert g.same_group(doubled) and doubled.same_group(g)
