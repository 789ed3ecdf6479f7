"""Chart domains, moment maps, slices, and the local cone embedding.

Pinned numbers are computed by hand from the fixture data at the
evaluation point (pyramid p2=2, p5=3; tent p1=2, p5=3, p8=5); float
routes are cross-checked against the exact change-of-basis data.
"""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import polystrat.charts as C
from polystrat.ambient import admissible_index_sets, change_of_basis


@pytest.fixture(scope="module")
def pyr(pyramid):
    p, q, _ = pyramid
    return p, admissible_index_sets(p)


@pytest.fixture(scope="module")
def tnt(tent):
    p, q, _ = tent
    return p, admissible_index_sets(p)


# -- regular charts -------------------------------------------------------


def test_pyramid_chart_blocks(pyr):
    p, fam = pyr
    ch = C.regular_chart(p, (2, 3, 4))
    assert ch.index_set == (2, 3, 4)
    assert p.vertices[ch.vertex_id].coords == (0, 0, 1)
    assert ch.mid_labels == (1,)
    assert ch.out_labels == (5,)
    assert ch.slacks == {5: Fraction(3)}
    assert ch.i_star == ()
    assert ch.pi1_rank == 0


def test_pyramid_chart_matrix(pyr):
    p, fam = pyr
    ch = C.regular_chart(p, (2, 3, 4))
    assert ch.a_num == (
        (Fraction(1, 2), Fraction(1), Fraction(0), Fraction(0),
         Fraction(-3, 2)),
        (Fraction(-1), Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(0), Fraction(1), Fraction(-3)),
    )


def test_psi_equations_symbolic(pyr):
    p, fam = pyr
    ch = C.regular_chart(p, (2, 3, 4))
    table = C.psi_equations(p, ch.basis)
    assert len(table) == 2
    v1, c1 = table[0]
    v5, c5 = table[1]
    assert [str(x) for x in v1] == ["1", "-1/p2", "1", "-1", "0"]
    assert str(c1) == "0"
    assert [str(x) for x in v5] == ["0", "p5/p2", "0", "p5", "1"]
    assert str(c5) == "-p5"


def test_tent_chart_blocks(tnt):
    p, fam = tnt
    ch = C.regular_chart(p, (1, 2, 3, 6))
    assert p.vertices[ch.vertex_id].coords == (1, -1, 0, 0)
    assert ch.mid_labels == (4, 7)
    assert ch.out_labels == (5, 8, 9)
    assert ch.slacks == {5: Fraction(3), 8: Fraction(5), 9: Fraction(1)}
    assert ch.i_star == ()


def test_pi1_rank_zero_on_all_fixture_charts(pyr, tnt, cube3):
    pc, _, _ = cube3
    for p, fam in (pyr, tnt, (pc, admissible_index_sets(pc))):
        for i_set in fam:
            rank, star = C.chart_pi1_rank(p, i_set)
            assert rank == 0 and star == (), i_set


def test_i_star_synthetic_systems():
    # rho_0 > 0 forces the rho_0 = 0 slice to be empty
    assert C.i_star_of_system([[1, 0]], [Fraction(0)], range(2)) == (0,)
    # rho_0 + rho_1 > 0 leaves both slices nonempty
    assert C.i_star_of_system([[1, 1]], [Fraction(0)], range(2)) == ()
    assert C.i_star_of_system([[1, 0], [0, 1]],
                              [Fraction(0), Fraction(0)], range(2)) == (0, 1)
    assert C.i_star_of_system([], [], range(2)) == ()


@pytest.mark.parametrize("name", ["pyramid", "cube3", "simplex3", "tent"])
def test_facet_witness_agrees_with_exact_lp(request, name):
    # regular_chart skips the LP where a facet-interior point certifies
    # the slice; the LP over every position must find the same I*
    p, _, _ = request.getfixturevalue(name)
    for i_set in admissible_index_sets(p):
        ch = C.regular_chart(p, i_set)
        labels = ch.mid_labels + ch.out_labels
        rows = [[ch.a_num[pos][l - 1] for pos in range(p.n)] for l in labels]
        bounds = [-ch.slacks.get(l, Fraction(0)) for l in labels]
        star = C.i_star_of_system(rows, bounds, range(p.n))
        assert tuple(ch.index_set[h] for h in star) == ch.i_star, i_set


# -- lifts and moment values ----------------------------------------------


def test_apex_lift_pinned(pyr):
    p, fam = pyr
    z = C.lift_point(p, (Fraction(0), Fraction(0), Fraction(1)))
    assert list(z[:4]) == [0, 0, 0, 0]
    assert z[4] == pytest.approx(math.sqrt(3), abs=1e-15)
    ch = C.regular_chart(p, (2, 3, 4))
    _, psi, phi = C.moment_values(p, z, ch.basis)
    assert max(abs(v) for v in psi) <= 1e-12
    assert np.allclose(phi, [0, 0, 1], atol=1e-12)


def test_lift_vanishes_exactly_on_active_labels(pyr, tnt):
    for p, _fam in (pyr, tnt):
        for v in p.vertices:
            z = C.lift_point(p, v.coords)
            for j in range(1, p.d + 1):
                if j in v.active:
                    assert z[j - 1] == 0
                else:
                    assert abs(z[j - 1]) > 0


def test_lift_rejects_outside_point(pyr):
    p, _ = pyr
    with pytest.raises(C.DomainError) as err:
        C.lift_point(p, (5, 5, 5))
    assert 1 <= err.value.label <= p.d


def test_upsilon_at_origin_equals_offsets(pyr, tnt):
    for p, fam in (pyr, tnt):
        ch = C.regular_chart(p, next(iter(fam)))
        ups, _, _ = C.moment_values(p, np.zeros(p.d, dtype=complex), ch.basis)
        assert ups == [float(l) for l in p.numeric_offsets()]


def test_lift_phi_roundtrip_sampled(pyr, tnt):
    rng = random.Random(11)
    for p, fam in (pyr, tnt):
        ch = C.regular_chart(p, next(iter(fam)))
        for mu in C.sample_polytope_points(p, 12, rng, strict=True):
            z = C.lift_point(p, mu)
            _, psi, phi = C.moment_values(p, z, ch.basis)
            assert max(abs(v) for v in psi) <= 1e-12
            assert max(abs(a - float(b)) for a, b in zip(phi, mu)) <= 1e-9


# -- regular slices -------------------------------------------------------


def test_pyramid_slice_domain_error(pyr):
    p, fam = pyr
    ch = C.regular_chart(p, (2, 3, 4))
    with pytest.raises(C.DomainError) as err:
        C.regular_slice(p, ch, [1, 1, 1])
    assert err.value.label == 5


def test_slice_boundary_is_rejected(pyr):
    p, fam = pyr
    ch = C.regular_chart(p, (2, 3, 4))
    # rho = (4, 9/4, 1/4) zeroes the mid inequality exactly; dyadic
    # moduli keep the float radicand at exactly 0.0
    with pytest.raises(C.DomainError) as err:
        C.regular_slice(p, ch, [2, 1.5, 0.5])
    assert err.value.label == 1


def test_slice_copies_u_block_exactly(pyr):
    p, fam = pyr
    ch = C.regular_chart(p, (2, 3, 4))
    u = [0.3 + 0.4j, -0.2, 0.5j]
    z = C.regular_slice(p, ch, u)
    for pos, h in enumerate(ch.index_set):
        assert z[h - 1] == complex(u[pos])


def test_slice_lands_on_zero_level_sampled(pyr, tnt):
    rng = random.Random(23)
    for p, fam in (pyr, tnt):
        for i_set in list(fam)[:3]:
            ch = C.regular_chart(p, i_set)
            for _mu, u in C.sample_regular_domain(p, ch, 8, rng):
                z = C.regular_slice(p, ch, u)
                ups, psi, phi = C.moment_values(p, z, ch.basis)
                assert max(abs(v) for v in psi) <= 1e-9
                # phi comes from a LAPACK solve; pairing it with every
                # normal must reproduce Upsilon
                nx = p.numeric_normals()
                for r in range(1, p.d + 1):
                    pair = sum(phi[i] * float(nx[r - 1][i])
                               for i in range(p.n))
                    assert abs(pair - ups[r - 1]) <= 1e-8


# -- torus action ---------------------------------------------------------


def test_torus_zero_vector_is_identity(pyr):
    p, fam = pyr
    z = C.lift_point(p, p.interior_point())
    z2 = C.torus_action(p, (2, 3, 4), [0, 0, 0], z)
    assert np.array_equal(z, z2)


def test_torus_phases_match_basis_columns(pyr):
    p, _ = pyr
    i_set = (2, 3, 4)
    a = change_of_basis(p, i_set)
    z = np.ones(p.d, dtype=complex)
    nx = p.numeric_normals()
    for j in range(1, p.d + 1):
        z2 = C.torus_action(p, i_set, [float(v) for v in nx[j - 1]], z)
        for pos, h in enumerate(i_set):
            want = cmath.exp(2j * math.pi * float(a[pos][j - 1].evaluate()))
            assert abs(z2[h - 1] - want) <= 1e-9
        for r in range(1, p.d + 1):
            if r not in i_set:
                assert z2[r - 1] == z[r - 1]


def test_torus_preserves_moment_values_sampled(pyr, tnt):
    rng = random.Random(37)
    for p, fam in (pyr, tnt):
        ch = C.regular_chart(p, next(iter(fam)))
        z = C.lift_point(p, p.interior_point())
        _, psi0, phi0 = C.moment_values(p, z, ch.basis)
        for _ in range(8):
            x = [rng.uniform(-2, 2) for _ in range(p.n)]
            z2 = C.torus_action(p, ch.index_set, x, z)
            _, psi, phi = C.moment_values(p, z2, ch.basis)
            assert max(abs(a - b) for a, b in zip(phi, phi0)) <= 1e-9
            assert max(abs(a - b) for a, b in zip(psi, psi0)) <= 1e-9


# -- singular charts and slices -------------------------------------------


def test_apex_singular_chart_blocks(pyr):
    p, fam = pyr
    apex = p.face_lattice.face((1, 2, 3, 4))
    sch = C.singular_chart(p, apex, (2, 3, 4))
    assert sch.common == (2, 3, 4)
    assert sch.w_labels == ()
    assert sch.mid_labels == ()
    assert sch.out_labels == (5,)
    assert sch.dim == 0 == apex.dim
    assert sch.basis.stabilizer_count == 1


def test_tent_edge_singular_chart_blocks(tnt):
    p, fam = tnt
    edge = p.face_lattice.face((1, 2, 3, 4))
    sch = C.singular_chart(p, edge, (1, 2, 3, 6))
    assert sch.common == (1, 2, 3)
    assert sch.w_labels == (6,)
    assert sch.mid_labels == (7,)
    assert sch.out_labels == (5, 8, 9)
    assert sch.dim == 1 == edge.dim


def test_singular_chart_blocks_partition_labels(pyr, tnt):
    for p, fam in (pyr, tnt):
        for face in p.face_lattice.singular_faces():
            sch = C.singular_chart(p, face)
            assert sch.index_set in fam
            assert sch.dim == face.dim
            labels = sorted(set(face.index_set) | set(sch.w_labels)
                            | set(sch.mid_labels) | set(sch.out_labels))
            assert labels == list(range(1, p.d + 1))


def test_tent_singular_slice_pinned(tnt):
    p, fam = tnt
    edge = p.face_lattice.face((1, 2, 3, 4))
    sch = C.singular_chart(p, edge, (1, 2, 3, 6))
    w = math.sqrt(0.5) * cmath.exp(0.37j)
    z = C.singular_slice(p, sch, [w])
    assert list(z[:4]) == [0, 0, 0, 0]
    assert z[5] == w
    assert abs(z[4]) == pytest.approx(math.sqrt(1.5), abs=1e-12)
    assert abs(z[6]) == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert abs(z[7]) == pytest.approx(math.sqrt(2.5), abs=1e-12)
    assert abs(z[8]) == pytest.approx(1.0, abs=1e-12)


def test_singular_slice_rejects_zero_w(tnt):
    p, fam = tnt
    edge = p.face_lattice.face((1, 2, 3, 4))
    sch = C.singular_chart(p, edge, (1, 2, 3, 6))
    with pytest.raises(C.DomainError) as err:
        C.singular_slice(p, sch, [0])
    assert err.value.label == 6


def test_singular_slice_lands_on_zero_level(tnt):
    p, fam = tnt
    rng = random.Random(41)
    edge = p.face_lattice.face((1, 2, 3, 4))
    sch = C.singular_chart(p, edge, (1, 2, 3, 6))
    for _mu, w in C.sample_singular_domain(p, sch, 8, rng):
        z = C.singular_slice(p, sch, w)
        _, psi, _ = C.moment_values(p, z, sch.basis)
        assert max(abs(v) for v in psi) <= 1e-9


# -- cones ----------------------------------------------------------------


def test_apex_cone_tip_and_homogeneity(pyr):
    p, fam = pyr
    apex = p.face_lattice.face((1, 2, 3, 4))
    sch = C.singular_chart(p, apex, (2, 3, 4))
    psi, phi = C.moment_map_cone(p, sch, (0, 0, 0, 0))
    assert psi == [0.0]
    assert phi == (-2.0, 0.0, 0.0)
    zf = (0.3 + 0.1j, 0.2, -0.4j, 0.25)
    psi1, phi1 = C.moment_map_cone(p, sch, zf)
    psi2, phi2 = C.moment_map_cone(p, sch, tuple(0.5 * v for v in zf))
    assert abs(psi2[0] - 0.25 * psi1[0]) <= 1e-12
    lam = p.numeric_offsets()
    for h, a, b in zip(sch.common, phi1, phi2):
        assert abs((b - float(lam[h - 1]))
                   - 0.25 * (a - float(lam[h - 1]))) <= 1e-12


def test_apex_cone_neighborhood_pinned(pyr):
    p, fam = pyr
    apex = p.face_lattice.face((1, 2, 3, 4))
    sch = C.singular_chart(p, apex, (2, 3, 4))
    nb = C.cone_neighborhood(p, sch)
    assert nb.b == (1, 1, 1, 1)
    assert nb.box_lo == () and nb.box_hi == ()
    assert nb.c is None
    assert nb.epsilon == Fraction(1, 2)


def test_tent_edge_neighborhood_pinned(tnt):
    p, fam = tnt
    edge = p.face_lattice.face((1, 2, 3, 4))
    sch = C.singular_chart(p, edge, (1, 2, 3, 6))
    nb = C.cone_neighborhood(p, sch)
    assert nb.box_lo == (Fraction(1, 4),)
    assert nb.box_hi == (Fraction(3, 4),)
    assert nb.c == Fraction(1, 8)
    assert nb.epsilon == Fraction(1, 80)


def test_cone_neighborhood_b_override(pyr):
    p, fam = pyr
    apex = p.face_lattice.face((1, 2, 3, 4))
    sch = C.singular_chart(p, apex, (2, 3, 4))
    nb = C.cone_neighborhood(p, sch, b={1: 1, 2: 1, 3: 1, 4: 2})
    assert nb.b == (1, 1, 1, 2)
    assert nb.epsilon == Fraction(1)
    with pytest.raises(ValueError, match="positive"):
        C.cone_neighborhood(p, sch, b={1: 1, 2: 0, 3: 1, 4: 1})


def test_apex_cone_embedding_pinned(pyr):
    p, fam = pyr
    apex = p.face_lattice.face((1, 2, 3, 4))
    sch = C.singular_chart(p, apex, (2, 3, 4))
    nb = C.cone_neighborhood(p, sch)
    # squared moduli (1, 2, 1, 1)/16 satisfy the cone equation
    # rho_1 - rho_2/2 + rho_3 - rho_4 = 0 with ball 5/16 < 1/2
    zf = [0.25, math.sqrt(2) / 4 * cmath.exp(1.1j), 0.25j, -0.25]
    z = C.cone_embedding(p, sch, nb, [], zf)
    for j, v in zip((1, 2, 3, 4), zf):
        assert z[j - 1] == complex(v)
    assert abs(z[4]) == pytest.approx(math.sqrt(21 / 8), abs=1e-12)
    _, psi, _ = C.moment_values(p, z, sch.basis)
    assert max(abs(v) for v in psi) <= 1e-9


def test_cone_embedding_rejections(pyr, tnt):
    p, fam = pyr
    apex = p.face_lattice.face((1, 2, 3, 4))
    sch = C.singular_chart(p, apex, (2, 3, 4))
    nb = C.cone_neighborhood(p, sch)
    with pytest.raises(C.DomainError, match="face cone") as err:
        C.cone_embedding(p, sch, nb, [], [0.5, 0, 0, 0])
    assert err.value.label == 0
    # on the cone but outside the epsilon ball
    big = [math.sqrt(v) for v in (0.2, 0.4, 0.2, 0.2)]
    with pytest.raises(C.DomainError, match="epsilon"):
        C.cone_embedding(p, sch, nb, [], big)

    t, tfam = tnt
    edge = t.face_lattice.face((1, 2, 3, 4))
    tch = C.singular_chart(t, edge, (1, 2, 3, 6))
    tnb = C.cone_neighborhood(t, tch)
    with pytest.raises(C.DomainError) as err:
        C.cone_embedding(t, tch, tnb, [math.sqrt(0.9)], [0, 0, 0, 0])
    assert err.value.label == 6


def test_cone_embedding_at_zero_matches_singular_slice(tnt):
    p, fam = tnt
    edge = p.face_lattice.face((1, 2, 3, 4))
    sch = C.singular_chart(p, edge, (1, 2, 3, 6))
    nb = C.cone_neighborhood(p, sch)
    w = [math.sqrt(0.5) * cmath.exp(2j * math.pi * 0.37)]
    z0 = C.singular_slice(p, sch, w)
    z1 = C.cone_embedding(p, sch, nb, w, [0, 0, 0, 0])
    assert max(abs(a - b) for a, b in zip(z0, z1)) <= 1e-12


def test_sampled_cone_points_embed(pyr):
    p, fam = pyr
    rng = random.Random(53)
    apex = p.face_lattice.face((1, 2, 3, 4))
    sch = C.singular_chart(p, apex, (2, 3, 4))
    nb = C.cone_neighborhood(p, sch)
    for zf in C.sample_cone_points(p, sch, nb, 6, rng):
        psi, _ = C.moment_map_cone(p, sch, zf)
        assert max(abs(v) for v in psi) <= 1e-9
        z = C.cone_embedding(p, sch, nb, [], zf)
        _, full_psi, _ = C.moment_values(p, z, sch.basis)
        assert max(abs(v) for v in full_psi) <= 1e-9


# -- sampling helpers -----------------------------------------------------


def test_sample_polytope_points_inside(pyr):
    p, _ = pyr
    rng = random.Random(61)
    pts = C.sample_polytope_points(p, 10, rng, strict=True)
    assert len(pts) == 10
    for mu in pts:
        assert p.contains(mu, strict=True)


def test_face_interior_point_active_set(pyr, tnt):
    rng = random.Random(67)
    p, _ = pyr
    t, _ = tnt
    for poly, key in ((p, (1, 2, 3, 4)), (p, (1,)),
                      (t, (1, 2, 3, 4)), (t, (1, 2, 3, 4, 6, 7))):
        face = poly.face_lattice.face(key)
        mu = C.face_interior_point(poly, face, rng)
        assert poly.active_set(mu) == key
