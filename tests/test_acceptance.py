"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with -s to see the lines on success; on failure pytest replays the
captured output.  Tolerances are stated inline and never loosened.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

from oracles import check_vertex_lambda_identity, intrinsic_polytope, \
    order_multiset, orders_of_abelian_type, qz_subgroup
from polystrat.ambient import adapted_kernel_basis, admissible_index_sets, \
    change_of_basis
from polystrat.charts import psi_equations
from polystrat.groups import GroupDescriptor, gamma_group, group_structure, \
    split_gamma, stabilizer_dim
from polystrat.links import cone_section, link_polytope, link_tree, \
    section_invariance_check
from polystrat.report import build_report


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL {desc}")
        raise
    print(f"ACCEPTANCE {num} PASS {desc}")


def _strs(rows):
    return [[str(x) for x in row] for row in rows]


def _recheck_transfer(parent_poly, face, lp):
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
    # the intrinsic route: the slice validated, its lattice closed from
    # its own vertices
    oracle = intrinsic_polytope(lp.polytope)
    assert oracle.vertices == lp.polytope.vertices
    assert oracle.face_lattice.faces == lat.faces


def test_criterion_1_pyramid_exact_data(pyramid):
    with criterion(1, "pyramid chart matrix, level-set table, lone apex"):
        p, q, options = pyramid
        assert _strs(change_of_basis(p, (2, 3, 4))) == [
            ["1/p2", "1", "0", "0", "-p5/p2"],
            ["-1", "0", "1", "0", "0"],
            ["1", "0", "0", "1", "-p5"],
        ]
        eqs = psi_equations(p, adapted_kernel_basis(p, (2, 3, 4)))
        assert [([str(x) for x in v], str(c)) for v, c in eqs] == [
            (["1", "-1/p2", "1", "-1", "0"], "0"),
            (["0", "p5/p2", "0", "p5", "1"], "-p5"),
        ]
        sing = p.face_lattice.singular_faces()
        assert len(sing) == 1
        assert sing[0].index_set == (1, 2, 3, 4) and sing[0].dim == 0
        report, _ = build_report(p, q, options, sections=("faces",))
        assert report["polytope"]["regular_stratum_dimension"] == 6
        apex_entry = next(f for f in report["polytope"]["faces"]
                          if f["index_set"] == [1, 2, 3, 4])
        assert apex_entry["stratum_dimension"] == 0


def test_criterion_2_tent_exact_data(tent):
    with criterion(2, "tent chart matrix, vertex index sets, singular census"):
        p, _, _ = tent
        assert _strs(change_of_basis(p, (1, 2, 3, 6))) == [
            ["1", "0", "0", "1/p1", "0", "0", "-1/p1", "0", "-1/p1"],
            ["0", "1", "0", "1", "-p5", "0", "0", "0", "-1"],
            ["0", "0", "1", "-1", "0", "0", "1", "-p8", "0"],
            ["0", "0", "0", "0", "-p5", "1", "1", "-p8", "0"],
        ]
        lat = p.face_lattice
        nu1 = next(v for v in p.vertices if v.coords == (1, -1, 0, 0))
        nu2 = next(v for v in p.vertices if v.coords == (0, 0, 1, -1))
        assert nu1.active == (1, 2, 3, 4, 6, 7)
        assert nu2.active == (1, 2, 3, 4, 5, 8)
        edge = lat.face((1, 2, 3, 4))
        assert edge.dim == 1
        assert set(nu1.active) & set(nu2.active) == {1, 2, 3, 4}
        assert all(f.r == 6 for f in lat.faces_of_dim(0))
        vertex_sets = {f.index_set for f in lat.faces_of_dim(0)}
        r4_edges = {f.index_set for f in lat.faces_of_dim(1) if f.r == 4}
        assert len(vertex_sets) == 6 and len(r4_edges) == 9
        assert {f.index_set for f in lat.singular_faces()} \
            == vertex_sets | r4_edges
        assert stabilizer_dim(lat.face(nu1.active), p.n) == 2
        assert stabilizer_dim(edge, p.n) == 1


def test_criterion_3_group_displays(tent, pyramid_unit, tent_unit):
    with criterion(3, "edge quotient group display; unit data trivial"):
        p, q, _ = tent
        edge = p.face_lattice.face((1, 2, 3, 4))
        split = split_gamma(p, q, edge, (1, 2, 3, 6))
        reg = p.registry
        display = GroupDescriptor(reg, (6,), [
            [reg.param("p5")], [reg.scalar(-1)], [reg.param("p8")],
        ])
        assert split.complement_part.support == (6,)
        assert split.complement_part.same_group(display)
        assert split.complement_part.structure().label == "Z^2"
        for fx in (pyramid_unit, tent_unit):
            up, uq, _ = fx
            fam = admissible_index_sets(up)
            for i_set in fam:
                assert gamma_group(up, uq, i_set).structure().is_trivial


def test_criterion_4_link_polytopes(pyramid, tent, cross3):
    with criterion(4, "apex link square, tent vertex link, transfer checks"):
        p, _, _ = pyramid
        t, _, _ = tent

        apex = p.face_lattice.face((1, 2, 3, 4))
        lp = link_polytope(p, cone_section(p, apex))
        assert lp.polytope.n == 2
        assert lp.polytope.face_lattice.f_vector() == (4, 4)
        assert lp.polytope.is_simple

        nu1 = t.face_lattice.face((1, 2, 3, 4, 6, 7))
        lp1 = link_polytope(t, cone_section(t, nu1))
        assert lp1.polytope.n == 3
        sv = lp1.polytope.face_lattice.singular_faces()
        assert all(g.dim == 0 for g in sv)
        mapped = sorted(lp1.to_parent[g.index_set] for g in sv)
        assert mapped == [(1, 2, 3, 4), (1, 3, 6, 7), (2, 4, 6, 7)]
        assert all(t.face_lattice.face(i).dim == 1 for i in mapped)

        for poly in (p, t, cross3[0]):
            stack = [(poly, node) for node in link_tree(poly)]
            while stack:
                parent, node = stack.pop()
                face = parent.face_lattice.face(node.face_index_set)
                _recheck_transfer(parent, face, node.link)
                if not node.children:
                    assert node.link.polytope.is_simple
                stack.extend((node.link.polytope, c)
                             for c in node.children)


def test_criterion_5_numeric_soundness(pyramid, tent):
    with criterion(5, "100-sample residuals within stated tolerances"):
        for fx in (pyramid, tent):
            p, q, options = fx
            report, ok = build_report(p, q, dict(options, samples=100),
                                      sections=("verify",))
            block = report["verification"]
            assert ok and block["pass"]
            assert block["samples"] == 100
            assert float(block["max_lift_residual"]) <= 1e-9
            assert float(block["max_regular_slice_residual"]) <= 1e-9
            assert float(block["max_singular_slice_residual"]) <= 1e-9
            assert float(block["max_torus_residual"]) <= 1e-9
            assert float(block["max_embedding_residual"]) <= 1e-8


def test_criterion_6_property_suites(pyramid, tent, cube3, simplex3):
    with criterion(6, "exact identities, invariances, group order oracle"):
        for fx in (pyramid, tent):
            p, _, _ = fx
            fam = admissible_index_sets(p)
            zero = p.registry.zero()
            for i_set in fam:
                i_sorted = tuple(sorted(i_set))
                a = change_of_basis(p, i_set)
                for j in range(1, p.d + 1):
                    for i in range(p.n):
                        rebuilt = sum(
                            (a[pos][j - 1] * p.normals[h - 1][i]
                             for pos, h in enumerate(i_sorted)), zero)
                        assert rebuilt == p.normals[j - 1][i]
                basis = adapted_kernel_basis(p, i_set)
                ok, slacks = check_vertex_lambda_identity(
                    p, basis.vertex_id, i_sorted)
                assert ok
                outside = set(range(1, p.d + 1)) - set(basis.vertex_index_set)
                assert set(slacks) == outside
                assert all(s.sign() > 0 for s in slacks.values())
                for vec in basis.kernel:
                    for i in range(p.n):
                        tot = sum((vec[j] * p.normals[j][i]
                                   for j in range(p.d)), zero)
                        assert tot == zero

        p, _, _ = pyramid
        t, _, _ = tent
        eps_values = (Fraction(1, 3), Fraction(1), Fraction(2))
        for poly, key in ((p, (1, 2, 3, 4)), (t, (1, 2, 3, 4, 6, 7)),
                          (t, (1, 2, 3, 4))):
            face = poly.face_lattice.face(key)
            for e1 in eps_values:
                for e2 in eps_values:
                    assert section_invariance_check(poly, face,
                                                    eps1=e1, eps2=e2)

        for fx in (cube3, simplex3):
            sp, _, _ = fx
            assert sp.face_lattice.singular_faces() == ()
            assert link_tree(sp) == ()

        rng = random.Random(29)
        checked = 0
        while checked < 6:
            n = rng.randrange(1, 4)
            gens = [tuple(Fraction(rng.randrange(0, 6),
                                   rng.choice([1, 2, 3, 4, 6]))
                          for _ in range(n))
                    for _ in range(rng.randrange(1, 4))]
            elements = qz_subgroup(gens)
            if elements is None or len(elements) > 50:
                continue
            from polystrat.scalars import ParamRegistry
            reg = ParamRegistry([])
            g = GroupDescriptor(reg, tuple(range(1, n + 1)),
                                [[reg.scalar(x) for x in gen]
                                 for gen in gens])
            st = group_structure(g)
            assert st.is_finite and st.order == len(elements)
            assert orders_of_abelian_type(st.torsion) \
                == order_multiset(elements)
            checked += 1
        assert checked >= 5
