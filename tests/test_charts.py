"""Chart domains, moment maps, slices, and the local cone embedding.

Pinned numbers are computed by hand from the fixture data at the
evaluation point (pyramid p2=2, p5=3; tent p1=2, p5=3, p8=5); float
routes are cross-checked against the exact change-of-basis data, and
the float solve and moment maps against numpy at the same points.
"""

import cmath
import math
import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from families import family
from oracles import check_vertex_lambda_identity, evaluated_chart, \
    face_interior_point, frac_sample_cone_points, \
    frac_sample_polytope_points, frac_sample_singular_domain, gesv_solve, \
    psi_constant_sum

import polystrat.charts as C
from polystrat.ambient import adapted_kernel_basis, admissible_index_sets, \
    change_of_basis, vertex_of
from polystrat.links import link_tree
from polystrat.lp import open_feasible_point
from polystrat.polytope import HPolytope
from polystrat.scalars import ParamRegistry


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
    table = C.psi_equations(p, adapted_kernel_basis(p, (2, 3, 4)))
    assert len(table) == 2
    v1, c1 = table[0]
    v5, c5 = table[1]
    assert [str(x) for x in v1] == ["1", "-1/p2", "1", "-1", "0"]
    assert str(c1) == "0"
    assert [str(x) for x in v5] == ["0", "p5/p2", "0", "p5", "1"]
    assert str(c5) == "-p5"


def _check_slack_table(p, rng):
    """vertex_slacks and psi_equations against the A_I-based sums.

    Every admissible I is checked at the whole polytope and at one
    seeded random face through its vertex that meets the flag condition.
    """
    for i_set in admissible_index_sets(p):
        vid = vertex_of(p, i_set)
        active = p.vertices[vid].active
        table = p.vertex_slacks(vid)
        assert len(table) == p.d
        ok, slacks = check_vertex_lambda_identity(p, vid, i_set)
        assert ok
        assert all(table[k - 1].is_zero() for k in active)
        assert {r: table[r - 1] for r in range(1, p.d + 1)
                if r not in active} == slacks
        faces = [f for f in p.face_lattice.faces if vid in f.vertex_ids
                 and len(set(f.index_set) & set(i_set)) == p.n - f.dim]
        for face in (None, rng.choice(faces)):
            basis = adapted_kernel_basis(p, i_set, face=face)
            for vec, const in C.psi_equations(p, basis):
                assert const == psi_constant_sum(p, vec)


@pytest.mark.parametrize("name", ["pyramid", "tent", "pyramid_unit",
                                  "tent_unit", "cube3", "simplex3"])
def test_vertex_slacks_match_the_offset_identity_oracle(name, request):
    p, _q, _options = request.getfixturevalue(name)
    _check_slack_table(p, random.Random(79))


def test_link_vertex_slacks_match_the_offset_identity_oracle(tent):
    p, _q, options = tent
    rng = random.Random(83)
    links = [node.link.polytope for root in link_tree(p, options)
             for node in root.walk()]
    assert len(links) == 33
    for poly in links:
        _check_slack_table(poly, rng)


def test_tent_chart_blocks(tnt):
    p, fam = tnt
    ch = C.regular_chart(p, (1, 2, 3, 6))
    assert p.vertices[ch.vertex_id].coords == (1, -1, 0, 0)
    assert ch.mid_labels == (4, 7)
    assert ch.out_labels == (5, 8, 9)
    assert ch.slacks == {5: Fraction(3), 8: Fraction(5), 9: Fraction(1)}


def _chart_pairs(p):
    """(face, I): every admissible I at the whole polytope, and every I
    meeting the flag condition at every singular face."""
    fam = admissible_index_sets(p)
    pairs = [(p.face_lattice.top, i_set) for i_set in fam]
    for face in p.face_lattice.singular_faces():
        pairs += [(face, i_set) for i_set in fam
                  if vertex_of(p, i_set) in face.vertex_ids
                  and len(set(face.index_set) & set(i_set))
                  == p.n - face.dim]
    return pairs


def _check_against_evaluated_charts(polys):
    """Each chart equals the evaluated symbolic chart, field for field;
    returns the number of flag charts checked."""
    flags = 0
    for p in polys:
        for face, i_set in _chart_pairs(p):
            ref = evaluated_chart(p, face, i_set)
            ch = C.singular_chart(p, face, i_set)
            assert {k: getattr(ch, k) for k in ref} == ref, \
                (face.index_set, i_set)
            flags += bool(face.index_set)
    return flags


def _with_links(p, options=None):
    return [p] + [node.link.polytope for root in link_tree(p, options)
                  for node in root.walk()]


@pytest.mark.parametrize("name", ["pyramid", "tent", "pyramid_unit",
                                  "tent_unit", "cube3", "simplex3", "cross3"])
def test_charts_equal_the_evaluated_symbolic_charts(name, request):
    p, _q, options = request.getfixturevalue(name)
    flags = _check_against_evaluated_charts(_with_links(p, options))
    assert flags or p.is_simple


@pytest.mark.parametrize("kind", ["pyramid", "bipyramid", "polygon-prism",
                                  "pyramid-prism"])
def test_family_charts_equal_the_evaluated_symbolic_charts(kind):
    rng = random.Random(f"charts-{kind}")
    for _ in range(3):
        p = HPolytope(ParamRegistry([]), *family(rng, kind))
        flags = _check_against_evaluated_charts([p])
        assert bool(flags) == (kind != "polygon-prism")


def i_star_of_system(rows, bounds, positions):
    """Exact-LP oracle: the positions h whose hyperplane misses the cone.

    The cone is {rho >= 0 : rows @ rho > bounds}; feasibility of each
    slice {rho_h = 0} is decided by exact linear programming.
    """
    if not rows:
        return ()
    nvar = len(rows[0])
    return tuple(h for h in positions
                 if open_feasible_point(rows, bounds, nonneg=range(nvar),
                                        zero=[h]) is None)


def test_i_star_synthetic_systems():
    # rho_0 > 0 forces the rho_0 = 0 slice to be empty
    assert i_star_of_system([[1, 0]], [Fraction(0)], range(2)) == (0,)
    # rho_0 + rho_1 > 0 leaves both slices nonempty
    assert i_star_of_system([[1, 1]], [Fraction(0)], range(2)) == ()
    assert i_star_of_system([[1, 0], [0, 1]],
                            [Fraction(0), Fraction(0)], range(2)) == (0, 1)
    assert i_star_of_system([], [], range(2)) == ()


@pytest.mark.parametrize("name", ["pyramid", "cube3", "simplex3", "tent"])
def test_facet_witness_agrees_with_exact_lp(request, name):
    # regular_chart reports I* empty, relying on each facet's vertex
    # average; the LP over every position must find no h either
    p, _, _ = request.getfixturevalue(name)
    for i_set in admissible_index_sets(p):
        ch = C.regular_chart(p, i_set)
        labels = ch.mid_labels + ch.out_labels
        rows = [[ch.a_num[pos][l - 1] for pos in range(p.n)] for l in labels]
        bounds = [-ch.slacks.get(l, Fraction(0)) for l in labels]
        assert i_star_of_system(rows, bounds, range(p.n)) == (), i_set


# -- lifts and moment values ----------------------------------------------


def test_apex_lift_pinned(pyr):
    p, fam = pyr
    z = C.lift_point(p, (Fraction(0), Fraction(0), Fraction(1)))
    assert list(z[:4]) == [0, 0, 0, 0]
    assert z[4] == pytest.approx(math.sqrt(3), abs=1e-15)
    ch = C.regular_chart(p, (2, 3, 4))
    _, psi, phi = C.moment_values(p, z, ch)
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


@pytest.mark.parametrize("cut", [-1, 1])
def test_points_of_the_wrong_length_are_rejected(pyr, cut):
    # short or long points used to end in a bare IndexError, or in a
    # short point from torus_action
    p, _ = pyr
    ch = C.regular_chart(p, (2, 3, 4))
    mu = p.interior_point()
    z = C.lift_point(p, mu)
    mu_bad = mu[:cut] if cut < 0 else mu + (Fraction(0),)
    z_bad = z[:cut] if cut < 0 else z + [0j]
    x = [0.5, 0.0, 0.25]
    x_bad = x[:cut] if cut < 0 else x + [0.0]
    with pytest.raises(ValueError, match="must have 3 coordinates"):
        C.lift_point(p, mu_bad)
    with pytest.raises(ValueError, match="must have 5 coordinates"):
        C.moment_values(p, z_bad, ch)
    for args in ((x_bad, z), (x, z_bad)):
        with pytest.raises(ValueError, match="must have 3 coordinates "
                                             "and z 5"):
            C.torus_action(p, ch.index_set, *args)


def test_upsilon_at_origin_equals_offsets(pyr, tnt):
    for p, fam in (pyr, tnt):
        ch = C.regular_chart(p, next(iter(fam)))
        ups, _, _ = C.moment_values(p, np.zeros(p.d, dtype=complex), ch)
        assert ups == [float(l) for l in p.numeric_offsets()]


def test_lift_phi_roundtrip_sampled(pyr, tnt):
    rng = random.Random(11)
    for p, fam in (pyr, tnt):
        ch = C.regular_chart(p, next(iter(fam)))
        for mu in C.sample_polytope_points(p, 12, rng, strict=True):
            z = C.lift_point(p, mu)
            _, psi, phi = C.moment_values(p, z, ch)
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
                ups, psi, phi = C.moment_values(p, z, ch)
                assert max(abs(v) for v in psi) <= 1e-9
                # phi comes from a float solve; pairing it with every
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
        _, psi0, phi0 = C.moment_values(p, z, ch)
        for _ in range(8):
            x = [rng.uniform(-2, 2) for _ in range(p.n)]
            z2 = C.torus_action(p, ch.index_set, x, z)
            _, psi, phi = C.moment_values(p, z2, ch)
            assert max(abs(a - b) for a, b in zip(phi, phi0)) <= 1e-9
            assert max(abs(a - b) for a, b in zip(psi, psi0)) <= 1e-9


# -- the float solve against numpy and the elimination it replays ---------


def _rel_err(got, want, scale=None):
    """Largest entry error over scale, by default the largest |want|."""
    want = np.asarray(want)
    if scale is None:
        scale = np.abs(want).max()
    return np.abs(np.asarray(got) - want).max() / scale


def _dense(vec, d):
    """A chart's float kernel vector with its zero entries put back."""
    out = [0.0] * d
    for pos, x in vec:
        out[pos] = x
    return out


def test_solve_block_matches_numpy_solve():
    # entries are multiples of 1/8 in [-4, 4], as rational normals are;
    # every third system has a zero leading pivot, forcing a row swap
    rng = random.Random(89)
    swaps = 0
    for t in range(300):
        n = rng.randint(1, 6)
        while True:
            a = [[rng.randint(-32, 32) / 8 for _ in range(n)]
                 for _ in range(n)]
            if t % 3 == 0 and n > 1:
                a[0][0] = 0.0
            if np.linalg.matrix_rank(a) == n:
                break
        swaps += a[0][0] == 0.0
        b = [rng.randint(1, 64) / 16 * rng.choice((-1, 1)) for _ in range(n)]
        i_set = tuple(range(1, n + 1))
        lu = C._lu_factor(a, i_set)
        got = C._lu_solve(*lu, b)
        assert all(type(x) is float for x in got)
        assert _rel_err(got, np.linalg.solve(a, b)) <= 1e-12, (a, b)
        # the factors replay the elimination on [block | rhs] bit for
        # bit, for the block and its transpose, on every right-hand side
        assert got == gesv_solve(a, b, i_set)
        lu_t = C._lu_factor(zip(*a), i_set)
        for rhs in (b, b[::-1]):
            assert _bits(C._lu_solve(*lu, rhs)) == _bits(
                gesv_solve(a, rhs, i_set)), (a, rhs)
            assert _bits(C._lu_solve(*lu_t, rhs)) == _bits(
                gesv_solve(zip(*a), rhs, i_set)), (a, rhs)
    assert swaps >= 80


def _bits(xs):
    return [x.hex() for x in xs]


@pytest.mark.parametrize("name", ["pyramid", "tent"])
def test_moment_values_and_torus_match_numpy(request, name):
    # numpy reference at the same points: |z|^2 + lambda, the float
    # kernel times Upsilon, and LAPACK solves of the block and its transpose
    p, _q, _options = request.getfixturevalue(name)
    rng = random.Random(97)
    lam = np.array([float(l) for l in p.numeric_offsets()])
    for i_set in admissible_index_sets(p):
        ch = C.regular_chart(p, i_set)
        rows = np.array([[float(x) for x in p.numeric_normals()[h - 1]]
                         for h in ch.index_set])
        pos = [h - 1 for h in ch.index_set]
        for _mu, u in C.sample_regular_domain(p, ch, 3, rng):
            z = C.regular_slice(p, ch, u)
            assert all(type(v) is complex for v in z)
            ups, psi, phi = C.moment_values(p, z, ch)
            ups_ref = np.abs(np.array(z)) ** 2 + lam
            assert _rel_err(ups, ups_ref) <= 1e-12
            # Psi cancels to about 0 on the slice: scale by its terms
            kernel = np.array([_dense(vec, p.d) for vec in ch.float_kernel])
            assert _rel_err(psi, kernel @ ups_ref,
                            (np.abs(kernel) @ np.abs(ups_ref)).max()) <= 1e-12
            assert _rel_err(phi, np.linalg.solve(rows, ups_ref[pos])) <= 1e-12
            x = [rng.uniform(-2, 2) for _ in range(p.n)]
            z2 = C.torus_action(p, ch.index_set, x, z)
            want = np.array(z)
            want[pos] *= np.exp(2j * np.pi * np.linalg.solve(rows.T, x))
            assert _rel_err(z2, want) <= 1e-12


def _sum_hex(values):
    # only the sign of a zero sum may differ when zero products are skipped
    return [float.hex(abs(x) if x == 0 else x) for x in values]


@pytest.mark.parametrize("name", ("pyramid", "tent", "pyramid_unit",
                                  "tent_unit", "cube3", "simplex3"))
def test_sparse_psi_sums_match_the_dense_sums(name, request):
    # Psi and Psi_F sum the at most n + 1 nonzero entries of each kernel
    # vector; the dense sums over all d labels, in label order, add only
    # exact-zero products more, so every sum is the same float.  Slice
    # points, where Psi cancels, and random points, on every chart
    p = request.getfixturevalue(name)[0]
    rng = random.Random(103)
    for face, i_set in _chart_pairs(p):
        ch = C.singular_chart(p, face, i_set)
        assert all(len(vec) <= p.n + 1 for vec in ch.float_kernel)
        dense = [_dense(vec, p.d) for vec in ch.float_kernel]
        points = [[complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                   for _ in range(p.d)] for _ in range(3)]
        if not face.index_set:
            points += [C.regular_slice(p, ch, u)
                       for _mu, u in C.sample_regular_domain(p, ch, 3, rng)]
        for z in points:
            ups, psi, _phi = C.moment_values(p, z, ch)
            assert _sum_hex(psi) == _sum_hex(
                sum(vec[j] * ups[j] for j in range(p.d)) for vec in dense)
        i_f = face.index_set
        for _ in range(3):
            z_f = [rng.uniform(0, 2) for _ in i_f]
            psi_f, _phi_f = C.moment_map_cone(p, ch, z_f)
            sq = {j: abs(complex(v)) ** 2 for j, v in zip(i_f, z_f)}
            assert _sum_hex(psi_f) == _sum_hex(
                sum(vec[j - 1] * sq[j] for j in i_f)
                for vec in dense[:ch.stabilizer_count])


def test_torus_action_rejects_a_rank_deficient_block(pyr, tnt):
    # a rank-deficient block is a ValueError naming I, not a
    # ZeroDivisionError from the elimination
    p, _ = pyr
    z = C.lift_point(p, p.interior_point())
    with pytest.raises(ValueError, match=r"I=\(1, 3, 5\)"):
        C.torus_action(p, (5, 3, 1), [0.5, 0, 0], z)
    # an I with fewer or more than n labels is refused before factoring
    with pytest.raises(ValueError, match=r"I=\(1, 2\) must have 3 labels"):
        C.torus_action(p, (1, 2), [0.5, 0, 0], z)
    with pytest.raises(ValueError,
                       match=r"I=\(1, 2, 3, 4\) must have 3 labels"):
        C.torus_action(p, (1, 2, 3, 4), [0.5, 0, 0], z)
    # labels outside 1..d are refused by name: unchecked, label 0 would
    # rotate z_d, and label d + 1 overruns
    for bad in ((0, 1, 2), (-1, 1, 2), (1, 2, 6)):
        with pytest.raises(ValueError, match=re.escape(f"set {bad} needs")):
            C.torus_action(p, bad, [0.5, 0, 0], z)
    t, _ = tnt
    with pytest.raises(ValueError, match=r"I=\(3, 5, 7, 9\)"):
        C.torus_action(t, (3, 5, 7, 9), [1, 0, 0, 0], [1j] * t.d)
    # singular in exact arithmetic but not after rounding: LAPACK gives
    # a finite answer here, the float factors still refuse it, as the
    # elimination they replaced did
    block = [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]]
    with pytest.raises(ValueError, match="not a basis"):
        C._lu_factor(block, (1, 2, 3))
    with pytest.raises(ValueError, match="not a basis"):
        gesv_solve(block, [1.0, 2.0, 3.0], (1, 2, 3))
    with pytest.raises(ValueError, match="not a basis"):
        C._lu_factor([[0.0, 0.0], [0.0, 0.0]], (1, 2))


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
    assert sch.stabilizer_count == 1


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
        _, psi, _ = C.moment_values(p, z, sch)
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
    # labels left out default to 1, as in cone_section
    assert C.cone_neighborhood(p, sch, b={1: 1}) == C.cone_neighborhood(p, sch)
    with pytest.raises(ValueError, match="outside the face"):
        C.cone_neighborhood(p, sch, b={9: 5})


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
    _, psi, _ = C.moment_values(p, z, sch)
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
        _, full_psi, _ = C.moment_values(p, z, sch)
        assert max(abs(v) for v in full_psi) <= 1e-9


# -- sampling helpers -----------------------------------------------------


def test_sample_polytope_points_inside(pyr):
    p, _ = pyr
    rng = random.Random(61)
    pts = C.sample_polytope_points(p, 10, rng, strict=True)
    assert len(pts) == 10
    for mu in pts:
        assert p.contains(mu, strict=True)


@pytest.mark.parametrize("name", ("pyramid", "tent", "pyramid_unit",
                                  "tent_unit", "cube3", "simplex3"))
def test_sampler_matches_fraction_oracle(name, request):
    # the same points from the same draws as the triangulation draw on
    # Fractions: tent's 3,000 strict samples pick among three simplices
    # and draw again on a zero weight a few times, and the inlined draws
    # must stay randrange's stream through both
    p = request.getfixturevalue(name)[0]
    count = 3000 if name == "tent" else 40
    for seed, strict in ((71, True), (72, False)):
        rng, ref = random.Random(seed), random.Random(seed)
        pts = C.sample_polytope_points(p, count, rng, strict=strict)
        assert pts == frac_sample_polytope_points(p, count, ref,
                                                  strict=strict, grid=C._GRID)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("name", ("pyramid", "tent", "pyramid_unit",
                                  "tent_unit", "cube3", "simplex3", "thirds"))
def test_grid_samples_give_the_floats_of_the_exact_points(name, request):
    # verification reads each sample's floats from its integers by
    # integer true division, which rounds correctly as float() of the
    # Fraction does: the same points, bit for bit.  The fixtures' grids
    # are dyadic; the triangle's vertices have denominators 3 and 7, so
    # its coordinates round too
    if name == "thirds":
        p = HPolytope(ParamRegistry([]), [[1, 0], [0, 1], [-1, -1]],
                      [Fraction(1, 3), Fraction(1, 7), -1])
    else:
        p = request.getfixturevalue(name)[0]
    for seed, strict in ((71, True), (72, False)):
        rng, ref = random.Random(seed), random.Random(seed)
        got = C._float_samples(p, 40, rng, strict)
        want = C.sample_polytope_points(p, 40, ref, strict=strict)
        assert rng.getstate() == ref.getstate()
        assert len(got) == len(want) == 40
        for (mu, slacks), exact in zip(got, want):
            assert _bits(mu) == _bits(map(float, exact))
            assert _bits(slacks) == _bits(map(float, p.slacks(exact)))


def test_sampler_setup_is_kept_per_strictness():
    """The memoized triangulation serves open and closed sampling alike:
    strict samples of the unit square have no coordinate at 0 or 1, and
    closed samples after them still reach the boundary.

    A closed sample lies on the square's boundary when its smaller draw
    is 0 or its larger is _GRID, about 4 in 4,097 samples, so 10,000
    samples expect about 10 there.
    """
    sq = HPolytope(ParamRegistry([]), [[1, 0], [0, 1], [-1, 0], [0, -1]],
                   [0, 0, -1, -1])
    for strict in (True, False, True):
        rng, ref = random.Random(73), random.Random(73)
        pts = C.sample_polytope_points(sq, 10000, rng, strict=strict)
        assert pts == frac_sample_polytope_points(sq, 10000, ref,
                                                  strict=strict, grid=C._GRID)
        on_boundary = sum(0 in pt or 1 in pt for pt in pts)
        assert on_boundary == 0 if strict else on_boundary > 0


def test_face_interior_point_active_set(pyr, tnt):
    rng = random.Random(67)
    p, _ = pyr
    t, _ = tnt
    for poly, key in ((p, (1, 2, 3, 4)), (p, (1,)),
                      (t, (1, 2, 3, 4)), (t, (1, 2, 3, 4, 6, 7))):
        face = poly.face_lattice.face(key)
        mu = face_interior_point(poly, face, rng, C._WEIGHTS)
        assert poly.active_set(mu) == key
        # the integer face point is the same exact point from the same draws
        state = rng.getstate()
        top, xs = C._face_point(poly, face, rng)
        exact = tuple(Fraction(x, top) for x in xs)
        assert poly.active_set(exact) == key
        rng.setstate(state)
        assert exact == face_interior_point(poly, face, rng, C._WEIGHTS)


def _singular_cases(p):
    """(face, chart, neighborhood) over every singular face with b
    defaulted and random, each with epsilon 1, 1/7 and 1/1000."""
    rng = random.Random(79)
    for face in p.face_lattice.singular_faces():
        chart = C.singular_chart(p, face)
        rand_b = {j: Fraction(rng.randrange(1, 30), rng.randrange(1, 30))
                  for j in face.index_set}
        for b in (None, rand_b):
            nb = C.cone_neighborhood(p, chart, b=b)
            for eps in (Fraction(1), Fraction(1, 7), Fraction(1, 1000)):
                yield face, chart, nb._replace(epsilon=eps)


def _complex_bits(zs):
    return [(z.real.hex(), z.imag.hex()) for z in zs]


@pytest.mark.parametrize("name", ("pyramid", "tent", "pyramid_unit",
                                  "tent_unit", "cube3", "simplex3"))
def test_face_and_cone_samples_match_fraction_oracles(name, request):
    # the integer samples are the Fraction samples' floats bit for bit,
    # drawn by the same calls: on every singular face, with epsilon small
    # enough that the ball scale runs
    p = request.getfixturevalue(name)[0]
    scaled = Counter()
    for seed, (face, chart, nb) in enumerate(_singular_cases(p)):
        rng, ref = random.Random(seed), random.Random(seed)
        got = C.sample_singular_domain(p, chart, 4, rng)
        want = frac_sample_singular_domain(p, chart, 4, ref)
        assert rng.getstate() == ref.getstate()
        for (mu, w), (exact, w_ref) in zip(got, want, strict=True):
            assert _bits(mu) == _bits(map(float, exact))
            assert _complex_bits(w) == _complex_bits(w_ref)
        got = C.sample_cone_points(p, chart, nb, 4, rng)
        want = frac_sample_cone_points(p, chart, nb, 4, ref)
        assert rng.getstate() == ref.getstate()
        assert [_complex_bits(z) for z in got] == \
            [_complex_bits(z) for z in want]
        # a scaled sample lands on the ball of radius epsilon / 2
        for z in got:
            ball = sum(float(b) * abs(v) ** 2 for b, v in zip(nb.b, z))
            scaled[math.isclose(ball, nb.epsilon / 2, rel_tol=1e-9)] += 1
    if p.face_lattice.singular_faces():
        assert scaled[True] and scaled[False]
