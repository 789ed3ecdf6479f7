"""Projection, admissible index sets, change of basis, adapted kernels."""

import itertools
import random
from collections import Counter

import pytest

from families import KINDS, family
from oracles import check_vertex_lambda_identity, gj_rank, \
    scan_flag_index_set, symbolic_delzant_like
from polystrat import ambient, linalg, polytope
from polystrat.ambient import (
    adapted_kernel_basis,
    admissible_index_sets,
    basis_coordinates,
    change_of_basis,
    classify_choice,
    find_flag_index_set,
    projection_matrix,
    vertex_of,
)
from polystrat.cli import FIXTURES, fixture_spec
from polystrat.groups import gamma_group
from polystrat.polytope import HPolytope, Quasilattice
from polystrat.report import build_report, parse_spec
from polystrat.scalars import ParamRegistry


def _strs(rows):
    return [[str(x) for x in row] for row in rows]


# -- projection ------------------------------------------------------------

def test_projection_matrix_columns_are_the_normals(pyramid, tent):
    for fx in (pyramid, tent):
        p = fx[0]
        pi = projection_matrix(p)
        assert len(pi.matrix) == p.n
        assert all(len(row) == p.d for row in pi.matrix)
        for j in range(p.d):
            col = tuple(pi.matrix[i][j] for i in range(p.n))
            assert col == p.normals[j]


def test_pyramid_normal_table(pyramid):
    p, _, _ = pyramid
    assert _strs(p.normals) == [
        ["-1", "0", "-1"],
        ["0", "-p2", "-p2"],
        ["1", "0", "0"],
        ["0", "1", "0"],
        ["0", "0", "p5"],
    ]


def test_tent_normal_table(tent):
    p, _, _ = tent
    assert _strs(p.normals) == [
        ["0", "0", "p1", "p1"],
        ["1", "1", "0", "0"],
        ["-1", "0", "-1", "0"],
        ["2", "1", "2", "1"],
        ["-p5", "-p5", "-p5", "0"],
        ["0", "0", "1", "0"],
        ["-1", "0", "-1", "-1"],
        ["p8", "0", "0", "0"],
        ["-1", "-1", "-1", "-1"],
    ]


# -- admissible index sets ---------------------------------------------------

def test_admissible_sets_match_rank_oracle(pyramid, tent):
    for fx in (pyramid, tent):
        p = fx[0]
        fam = admissible_index_sets(p)
        xs = [[x.evaluate() for x in row] for row in p.normals]
        for vid, v in enumerate(p.vertices):
            expected = {
                s for s in itertools.combinations(v.active, p.n)
                if gj_rank([xs[j - 1] for j in s]) == p.n}
            assert {s for s in fam if vertex_of(p, s) == vid} == expected
            # vertex_of decides each subset of the active set on its own
            for s in itertools.combinations(v.active, p.n):
                assert (vertex_of(p, s) == vid) == (s in expected)
        # an n-subset that no active set contains has no vertex
        outside = next(s for s in itertools.combinations(range(1, p.d + 1),
                                                          p.n)
                       if not any(set(s) <= set(v.active)
                                  for v in p.vertices))
        assert vertex_of(p, outside) is None


def test_base_vertex_of_pyramid_has_unique_index_set(pyramid):
    p, _, _ = pyramid
    fam = admissible_index_sets(p)
    mu1 = next(i for i, v in enumerate(p.vertices) if v.coords == (1, 0, 0))
    assert tuple(s for s in fam if vertex_of(p, s) == mu1) == ((1, 4, 5),)


def test_named_index_sets_are_admissible(pyramid, tent):
    p, _, _ = pyramid
    fam = admissible_index_sets(p)
    assert (2, 3, 4) in fam
    apex = next(i for i, v in enumerate(p.vertices) if v.coords == (0, 0, 1))
    assert vertex_of(p, (2, 3, 4)) == apex

    t, _, _ = tent
    fam_t = admissible_index_sets(t)
    assert (1, 2, 3, 6) in fam_t
    nu1 = next(i for i, v in enumerate(t.vertices)
               if v.coords == (1, -1, 0, 0))
    assert vertex_of(t, (1, 2, 3, 6)) == nu1


def test_index_sets_are_owned_by_a_single_vertex(tent):
    p, _, _ = tent
    fam = admissible_index_sets(p)
    owners = Counter(i_set for v in p.vertices for i_set in fam
                     if set(i_set) <= set(v.active))
    assert set(owners.values()) == {1}
    assert len(owners) == len(fam)


# -- change of basis ---------------------------------------------------------

def test_pyramid_change_of_basis_exact_strings(pyramid):
    p, _, _ = pyramid
    a = change_of_basis(p, (2, 3, 4))
    assert _strs(a) == [
        ["1/p2", "1", "0", "0", "-p5/p2"],
        ["-1", "0", "1", "0", "0"],
        ["1", "0", "0", "1", "-p5"],
    ]


def test_tent_change_of_basis_exact_strings(tent):
    p, _, _ = tent
    a = change_of_basis(p, (1, 2, 3, 6))
    assert _strs(a) == [
        ["1", "0", "0", "1/p1", "0", "0", "-1/p1", "0", "-1/p1"],
        ["0", "1", "0", "1", "-p5", "0", "0", "0", "-1"],
        ["0", "0", "1", "-1", "0", "0", "1", "-p8", "0"],
        ["0", "0", "0", "0", "-p5", "1", "1", "-p8", "0"],
    ]


def test_identity_block_on_own_columns(pyramid, tent):
    for fx in (pyramid, tent):
        p = fx[0]
        fam = admissible_index_sets(p)
        for i_set in fam:
            a = change_of_basis(p, i_set)
            for pos, h in enumerate(i_set):
                col = [a[r][h - 1] for r in range(p.n)]
                assert all(
                    (c == p.registry.one()) == (r == pos)
                    for r, c in enumerate(col))
                assert all(c.is_zero() for r, c in enumerate(col) if r != pos)


def test_reconstruction_for_every_admissible_set(pyramid, tent):
    # X_j = sum_h a_hj X_h must hold as exact scalars, all I, all j
    for fx in (pyramid, tent):
        p = fx[0]
        fam = admissible_index_sets(p)
        for i_set in fam:
            a = change_of_basis(p, i_set)
            for j in range(p.d):
                for i in range(p.n):
                    lhs = p.normals[j][i]
                    rhs = sum(
                        (a[pos][j] * p.normals[h - 1][i]
                         for pos, h in enumerate(i_set)),
                        p.registry.zero())
                    assert rhs == lhs


def _with_values(name, values):
    spec = fixture_spec(name)
    spec["parameters"] = [{"name": nm, "value": v}
                          for nm, v in values.items()]
    return spec


def test_exchange_pivots_match_fresh_solves(oracle_specs):
    """Every admissible A_I equals a fresh solve of [M_I | pi] as strings,
    with the sets requested in sorted, reversed and shuffled order, so
    that each vertex's tableau pivots from many different bases."""
    specs = {**oracle_specs,
             "pyramid-values": _with_values("pyramid",
                                            {"p2": "5", "p5": "7/2"}),
             "tent-values": _with_values("tent", {"p1": "7", "p5": "11/2",
                                                  "p8": "13"})}
    for name, spec in specs.items():
        p = parse_spec(spec)[0]
        sets = list(admissible_index_sets(p))
        if len(sets) > 500:
            # the cross-pyramid has 3472; a seeded sample of them still
            # makes the tableau at the apex exchange several labels at once
            sets = sorted(random.Random(name).sample(sets, 300))
        rows = [list(row) for row in zip(*p.normals)]
        want = {i: _strs(ambient._solve_in_basis(i, rows, rows))
                for i in sets}
        shuffled = sets[:]
        random.Random(name).shuffle(shuffled)
        for order in (sets, sets[::-1], shuffled):
            fresh = parse_spec(spec)[0]
            for i in order:
                assert _strs(change_of_basis(fresh, i)) == want[i], (name, i)


def test_charts_section_solves_once_per_vertex(bench_inputs, monkeypatch):
    p, q, options = parse_spec(bench_inputs.cross_polytope(
        4, random.Random(1)))
    fills = []
    for module in (linalg, ambient):
        monkeypatch.setattr(module, "_poly_solve_scaled", lambda *args,
                            inner=module._poly_solve_scaled: (
                                fills.append(args) or inner(*args)))
    build_report(p, q, options, sections=("charts",))
    assert len(admissible_index_sets(p)) == 464
    assert len(p.vertices) == len(fills) == 8


def test_change_of_basis_rejects_non_basis():
    reg = ParamRegistry([])
    # square: normals 1 and 3 are parallel
    from polystrat.polytope import HPolytope
    p = HPolytope(reg, [[1, 0], [0, 1], [-1, 0], [0, -1]],
                  [0, 0, -1, -1])
    with pytest.raises(ValueError):
        change_of_basis(p, (1, 3))
    with pytest.raises(ValueError):
        change_of_basis(p, (1,))
    # labels outside 1..d, or repeated, are refused by name: unchecked,
    # row[h - 1] reads label 0 as label d, and label d + 1 overruns
    q = Quasilattice(reg, [[1, 0], [0, 1]])
    for i_set in ((0, 1), (-1, 2), (1, 5), (2, 2)):
        match = rf"index set \({i_set[0]}, {i_set[1]}\)"
        for call in (change_of_basis, vertex_of):
            with pytest.raises(ValueError, match=match):
                call(p, i_set)
        with pytest.raises(ValueError, match=match):
            basis_coordinates(p, q, i_set)


# -- adapted kernel bases ----------------------------------------------------

def test_pyramid_kernel_vectors(pyramid):
    p, _, _ = pyramid
    basis = adapted_kernel_basis(p, (2, 3, 4))
    assert basis.kernel_labels == (1, 5)
    v1, v5 = basis.kernel
    assert [str(x) for x in v1] == ["1", "-1/p2", "1", "-1", "0"]
    assert [str(x) for x in v5] == ["0", "p5/p2", "0", "p5", "1"]


def test_tent_kernel_vectors_annihilated(tent):
    p, _, _ = tent
    basis = adapted_kernel_basis(p, (1, 2, 3, 6))
    assert basis.kernel_labels == (4, 5, 7, 8, 9)
    assert len(basis.kernel) == 5
    for vec, label in zip(basis.kernel, basis.kernel_labels):
        assert vec[label - 1] == p.registry.one()


def test_kernel_vectors_in_kernel_of_projection(pyramid, tent):
    for fx in (pyramid, tent):
        p = fx[0]
        fam = admissible_index_sets(p)
        for i_set in fam:
            basis = adapted_kernel_basis(p, i_set)
            for vec in basis.kernel:
                for i in range(p.n):
                    img = sum((vec[j] * p.normals[j][i]
                               for j in range(p.d)), p.registry.zero())
                    assert img.is_zero()


def test_adapted_basis_with_face_puts_stabilizer_first(tent):
    p, _, _ = tent
    lat = p.face_lattice
    edge = lat.face((1, 2, 3, 4))
    fam = admissible_index_sets(p)
    i_set, _vid = find_flag_index_set(p, edge)
    basis = adapted_kernel_basis(p, i_set, face=edge)
    assert basis.stabilizer_count == 1  # r - n + p = 4 - 4 + 1
    common = set(edge.index_set) & set(i_set)
    for vec in basis.kernel[:basis.stabilizer_count]:
        support = {j + 1 for j in range(p.d) if not vec[j].is_zero()}
        assert support <= set(edge.index_set) | common


def test_rejects_inadmissible_index_set(pyramid):
    p, _, _ = pyramid
    with pytest.raises(ValueError):
        adapted_kernel_basis(p, (1, 3, 5))  # not contained in one vertex


# -- offset identity ---------------------------------------------------------

def test_pyramid_offset_identity_and_slack(pyramid):
    p, _, _ = pyramid
    apex = vertex_of(p, (2, 3, 4))
    ok, slacks = check_vertex_lambda_identity(p, apex, (2, 3, 4))
    assert ok
    assert set(slacks) == {5}
    assert str(slacks[5]) == "p5"


def test_offset_identity_all_sets_positive_slack(pyramid, tent):
    for fx in (pyramid, tent):
        p = fx[0]
        fam = admissible_index_sets(p)
        for i_set in fam:
            vid = vertex_of(p, i_set)
            ok, slacks = check_vertex_lambda_identity(p, vid, i_set)
            assert ok
            out = set(range(1, p.d + 1)) - set(p.vertices[vid].active)
            assert set(slacks) == out
            assert all(s.evaluate() > 0 for s in slacks.values())


def test_offset_identity_vacuous_for_simple_vertex(cube3):
    p, _, _ = cube3
    i_set = admissible_index_sets(p)[0]
    vid = vertex_of(p, i_set)
    ok, slacks = check_vertex_lambda_identity(p, vid, i_set)
    assert ok
    assert len(slacks) == p.d - p.n


# -- flag search -------------------------------------------------------------

def test_flag_index_set_meets_face(oracle_specs):
    # every face, singular or not, of the oracle specs and of forty
    # seeded polytopes of each family kind: the greedy basis at the first
    # vertex is the first I the scan over n-subsets finds
    polys = [parse_spec(spec)[0] for spec in oracle_specs.values()]
    polys += [HPolytope(ParamRegistry([]), *family(random.Random(seed), kind))
              for kind in KINDS for seed in range(40)]
    for p in polys:
        fam = admissible_index_sets(p)
        for face in p.face_lattice.faces:
            i_set, vid = find_flag_index_set(p, face)
            assert (i_set, vid) == scan_flag_index_set(p, face), \
                (p.normals, face.index_set)
            assert i_set in fam
            assert vertex_of(p, i_set) == vid
            assert vid in face.vertex_ids
            assert len(set(i_set) & set(face.index_set)) == p.n - face.dim


# -- rationality / Delzant-likeness -------------------------------------------

def test_generic_parameters_are_not_rational(pyramid, tent):
    for fx in (pyramid, tent):
        p, q, _ = fx
        res = classify_choice(p, q)
        assert not res.rational
        assert not res.delzant_like


def test_pyramid_monomial_span_dimension_oracle(pyramid):
    # flattened over monomials {1, p2, p5} the five normals span 5 > 3 dims
    p, _, _ = pyramid
    import sympy
    p2, p5 = sympy.symbols("p2 p5")
    gens = sympy.Matrix([
        [-1, 0, -1],
        [0, -p2, -p2],
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, p5],
    ])
    monos = [sympy.Integer(1), p2, p5]
    flat = []
    for r in range(5):
        row = []
        for c in range(3):
            poly = sympy.Poly(gens[r, c], p2, p5)
            row.extend(poly.coeff_monomial(m) for m in monos)
        flat.append(row)
    assert sympy.Matrix(flat).rank() == 5


def test_unit_values_are_rational_and_delzant(pyramid_unit, tent_unit):
    for fx in (pyramid_unit, tent_unit):
        p, q, _ = fx
        res = classify_choice(p, q)
        assert res.rational
        assert res.delzant_like


def test_rational_but_not_delzant():
    reg = ParamRegistry([])
    from polystrat.polytope import HPolytope
    # rectangle with a doubled normal: A_I entries pick up a 1/2
    p = HPolytope(reg, [[2, 0], [0, 1], [-1, 0], [0, -1]],
                  [0, 0, -1, -1])
    q = Quasilattice.from_normals(p)
    res = classify_choice(p, q)
    assert res.rational
    assert not res.delzant_like


def test_explicit_generator_quasilattice(pyramid):
    p, _, _ = pyramid
    q = Quasilattice(p.registry, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    res = classify_choice(p, q)
    assert res.rational
    assert res.delzant_like is False


def _square(generators):
    """The square with normals (p,0), (0,1), (-p,0), (0,-1) at p = 3, and
    a quasilattice on the given generator strings."""
    reg = ParamRegistry(["p"], {"p": 3})
    p = HPolytope(reg, [["p", 0], [0, 1], ["-p", 0], [0, -1]],
                  [0, 0, "-p", -1])
    return p, Quasilattice(reg, generators)


def _choice_cases(bench_inputs):
    """(name, polytope, quasilattice) for the oracle comparison: every
    fixture, seeded families, seeded parametric cross-polytopes, and
    explicit quasilattices that are and are not Delzant-like."""
    cases = [(name, *parse_spec(fixture_spec(name))[:2])
             for name in sorted(FIXTURES)]
    for kind in ("pyramid", "bipyramid", "polygon-prism", "pyramid-prism"):
        rng = random.Random(f"choice-{kind}")
        for k in range(3):
            p = HPolytope(ParamRegistry([]), *family(rng, kind))
            cases.append((f"{kind}-{k}", p, Quasilattice.from_normals(p)))
    for n in (2, 3, 4):
        for seed in (1, 2):
            p, q, _ = parse_spec(bench_inputs.cross_polytope(
                n, random.Random(seed)))
            cases.append((f"cross{n}-{seed}", p, q))
    reg = ParamRegistry([])
    rect = HPolytope(reg, [[2, 0], [0, 1], [-1, 0], [0, -1]], [0, 0, -1, -1])
    cases.append(("doubled-normal", rect, Quasilattice.from_normals(rect)))
    cases.append(("square", *_square([["p", 0], [0, 1]])))
    cases.append(("square-twin", *_square([["p/2", 0], [0, 1]])))
    # explicit generators: the normals themselves, and the standard basis
    for name, p, _q in list(cases):
        e = [[int(i == j) for j in range(p.n)] for i in range(p.n)]
        cases.append((f"{name}/normals", p, Quasilattice(p.registry,
                                                         p.normals)))
        cases.append((f"{name}/identity", p, Quasilattice(p.registry, e)))
    return cases


def test_classify_choice_matches_symbolic_scan(bench_inputs):
    results = {}
    for name, p, q in _choice_cases(bench_inputs):
        res = results[name] = classify_choice(p, q)
        assert res.delzant_like == symbolic_delzant_like(p, q), name
    assert results["square"] == (True, True)
    assert results["square-twin"] == (True, False)
    # every outcome occurs, so no branch is vacuous
    assert set(results.values()) == {(False, False), (True, False),
                                     (True, True)}


def test_classify_choice_lists_no_admissible_family(bench_inputs):
    # the index sets are walked lazily; only the charts section and
    # verification keep the sorted family
    specs = [fixture_spec(name) for name in sorted(FIXTURES)]
    specs.append(bench_inputs.cross_polytope(4, random.Random(1)))
    for spec in specs:
        p, q, _ = parse_spec(spec)
        classify_choice(p, q)
        assert ("admissible_index_sets",) not in p.memo


def test_classify_choice_stops_at_the_first_failing_index_set(
        bench_inputs, monkeypatch):
    # the seed-1 6-cross-polytope has millions of admissible I (C(32, 6)
    # subsets at each of 12 vertices); a non-integral one comes early
    p, q, _ = parse_spec(bench_inputs.cross_polytope(6, random.Random(1)))
    calls = itertools.count()

    def counted(rows):
        if next(calls) == 20_000:
            raise AssertionError("more than 20,000 rank tests")
        return linalg.int_rank(rows)
    monkeypatch.setattr(ambient, "int_rank", counted)
    assert classify_choice(p, q) == (True, False)


def test_delzant_like_exactly_when_every_chart_group_is_trivial():
    # the groups section's answer against the charts section's Gamma_I,
    # on the quasilattice of the normals: the fixtures and the rectangle
    # with a doubled normal, whose Gamma_I are Z/2
    cases = [parse_spec(fixture_spec(name))[:2] for name in sorted(FIXTURES)]
    rect = HPolytope(ParamRegistry([]), [[2, 0], [0, 1], [-1, 0], [0, -1]],
                     [0, 0, -1, -1])
    cases.append((rect, Quasilattice.from_normals(rect)))
    seen = []
    for p, q in cases:
        choice = classify_choice(p, q)
        trivial = all(gamma_group(p, q, i_set).structure().is_trivial
                      for i_set in admissible_index_sets(p))
        assert choice.delzant_like == trivial, p.normals
        seen.append((choice.rational, trivial))
    assert set(seen) == {(False, False), (True, False), (True, True)}


def test_classify_choice_takes_no_symbolic_solve(bench_inputs, monkeypatch):
    # Delzant-likeness is decided on integer rows: no A_I is built and no
    # Scalar system is solved
    built = [parse_spec(spec)[:2] for spec in (
        bench_inputs.cross_polytope(4, random.Random(1)),
        fixture_spec("tent_unit"))]
    solves = []
    for module in (linalg, ambient, polytope):
        monkeypatch.setattr(module, "mat_solve",
                            lambda *args: solves.append(args))
    for p, q in built:
        assert classify_choice(p, q).rational
        assert not [k for k in p.memo if k[0] == "change_of_basis"]
    assert solves == []


def test_explicit_basis_coordinates_solved_once_per_index_set(monkeypatch):
    # split_gamma and gamma_face_group read the same I.  With explicit
    # generators each flag I is solved once; with the normals A_I is
    # solved once per vertex and reached from there by exchange pivots
    # the tent's normals carry parameters, so the identity generators,
    # which miss them, are built through the library, not a spec file
    identity = [[str(int(i == j)) for j in range(4)] for i in range(4)]
    for quasilattice in ("normals", identity):
        p, q, options = parse_spec(fixture_spec("tent"))
        if quasilattice != "normals":
            q = Quasilattice(p.registry, quasilattice)
        flags = {find_flag_index_set(p, face)[0]
                 for face in p.face_lattice.singular_faces()}
        assert len(flags) == 8
        calls = {"_solve_in_basis": [], "_poly_solve_scaled": []}
        for name, seen in calls.items():
            monkeypatch.setattr(ambient, name, lambda *args, seen=seen,
                                inner=getattr(ambient, name): (
                                    seen.append(args) or inner(*args)))
        build_report(p, q, options, sections=("groups",))
        monkeypatch.undo()
        assert len(p.face_lattice.singular_faces()) == 15
        solves, fills = calls["_solve_in_basis"], calls["_poly_solve_scaled"]
        if quasilattice == "normals":
            assert solves == []
            assert len(fills) == len({vertex_of(p, i) for i in flags})
        else:
            assert sorted(args[0] for args in solves) == sorted(flags)
            assert fills == []


def test_quasilattice_of_the_wrong_dimension_is_rejected():
    reg = ParamRegistry([])
    square = HPolytope(reg, [[1, 0], [0, 1], [-1, 0], [0, -1]],
                       [0, 0, -1, -1])
    q = Quasilattice(reg, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="length 3"):
        classify_choice(square, q)
    with pytest.raises(ValueError, match="length 3"):
        basis_coordinates(square, q, (1, 2))
    with pytest.raises(ValueError, match="length 3"):
        gamma_group(square, q, (1, 2))
