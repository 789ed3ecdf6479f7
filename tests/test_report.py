"""Spec parsing, report assembly, determinism, goldens, DOT export.

The golden files cover only the exact sections (faces, charts, groups,
links); the verification block holds float residuals that may differ
in the last bits across platforms' libm and across Python versions
(``sum`` of floats is compensated from 3.12 on), so determinism of the
full report is checked within this process instead.
"""

import copy
import json
import pathlib
import sys
from collections import Counter

import pytest

import polystrat.ambient as ambient
import polystrat.charts as charts
import polystrat.polytope as polytope
from polystrat.cli import fixture_spec
from polystrat.links import link_tree
from polystrat.polytope import HPolytope
from polystrat.report import SpecError, build_report, dot_export, fnum, \
    parse_spec, render_report
from polystrat.scalars import Scalar

GOLDEN = pathlib.Path(__file__).parent / "golden"

BASE = {
    "dimension": 2,
    "parameters": [{"name": "p1", "value": "3/2"}],
    "normals": [["1", "0"], ["0", "1"], ["-p1", "0"], ["0", "-1"]],
    "offsets": ["0", "0", "-p1", "-1"],
}


def _broken(**changes):
    data = copy.deepcopy(BASE)
    data.update(changes)
    return data


def _pyramid(**options):
    """The pyramid fixture, whose apex (1, 2, 3, 4) is a singular face."""
    data = fixture_spec("pyramid")
    data["options"] = options
    return data


# -- parsing --------------------------------------------------------------


def test_parse_spec_good_path():
    p, q, options = parse_spec(copy.deepcopy(BASE))
    assert p.n == 2 and p.d == 4
    assert len(q.generators) == 4
    assert options["samples"] == 100 and options["seed"] == 0


def test_parse_spec_explicit_quasilattice():
    # the generators must hold every normal, here X_3 = (-p1, 0)
    data = _broken(quasilattice=[["1", "0"], ["0", "1"], ["p1", "0"]])
    _p, q, _ = parse_spec(data)
    assert len(q.generators) == 3
    with pytest.raises(SpecError, match="normal 3 is not in the Z-span"):
        parse_spec(_broken(quasilattice=[["1", "0"], ["0", "1"]]))


def test_parse_spec_options():
    data = _pyramid(samples=7, seed=3, epsilon="1/2",
                    tolerances={"residual": 1e-6},
                    b={"1,2,3,4": ["1", "1", "1", "p2"]})
    _p, _q, options = parse_spec(data)
    assert options["samples"] == 7 and options["seed"] == 3
    assert float(options["epsilon"]) == 0.5
    assert options["tolerances"]["residual"] == 1e-6
    assert [str(s) for s in options["b"][(1, 2, 3, 4)]] == \
        ["1", "1", "1", "p2"]


@pytest.mark.parametrize("mutate", [
    lambda d: [],
    lambda d: {k: v for k, v in d.items() if k != "dimension"},
    lambda d: _broken(dimension="2"),
    lambda d: _broken(parameters=["p1"]),
    lambda d: _broken(parameters=[{"name": "p1", "value": "x"}]),
    lambda d: {k: v for k, v in d.items() if k != "normals"},
    lambda d: _broken(normals=[["1"], ["0", "1"], ["-p1", "0"], ["0", "-1"]]),
    lambda d: _broken(offsets=["0", "0", "-p1"]),
    lambda d: _broken(normals=[["1", "+"], ["0", "1"], ["-p1", "0"],
                               ["0", "-1"]]),
    lambda d: _broken(quasilattice="dual"),
    lambda d: _broken(quasilattice=[["1", "(("], ["0", "1"]]),
    lambda d: _broken(options=[1]),
    lambda d: _broken(options={"samples": 0}),
    lambda d: _broken(options={"seed": "7"}),
    lambda d: _broken(options={"epsilon": 0}),
    lambda d: _broken(options={"epsilon": "abc"}),
    lambda d: _broken(options={"tolerances": {"slack": 1e-9}}),
    lambda d: _broken(options={"tolerances": {"residual": "tight"}}),
    lambda d: _broken(options={"b": {"1,x": ["1", "1"]}}),
    lambda d: _broken(options={"b": {"1,3": ["1", "(("]}}),
    lambda d: _broken(options={"b": [["1", "1"]]}),
    lambda d: _broken(options={"b": {"9,9": ["1", "1"]}}),
    lambda d: _broken(options={"tolerances": [1e-9]}),
    lambda d: _broken(options={"tolerances": {"residual": True}}),
    lambda d: _broken(options={"samples": True}),
    lambda d: _broken(options={"seed": False}),
    lambda d: _pyramid(b={"1,2,3,4": ["1", "1", "1", "-1"]}),
    lambda d: _pyramid(b={"1,2,3,4": ["1", "0", "1", "1"]}),
    lambda d: _pyramid(b={"1,2,3,4": ["1", "1"]}),
    lambda d: _pyramid(b={"1,2,3,4": 5}),
    lambda d: _pyramid(b={"1,2": ["1", "1"]}),  # a nonsingular edge
    lambda d: _pyramid(b={"1,2,3,4": ["1", "1", "1", True]}),
    # labels out of order: p2 would silently go to label 1, not 4
    lambda d: _pyramid(b={"4,3,2,1": ["p2", "1", "1", "1"]}),
    # two spellings of one face: the later would overwrite the earlier
    lambda d: _pyramid(b={"1,2,3,4": ["1", "1", "1", "p2"],
                          "4,3,2,1": ["p2", "1", "1", "1"]}),
    lambda d: _broken(dimension=True),
    lambda d: _broken(dimension=0),
    lambda d: _broken(parameters=True),
    lambda d: _broken(parameters=[{"name": 5, "value": "3/2"}]),
    lambda d: _broken(normals=[[None, "0"], ["0", "1"], ["-p1", "0"],
                               ["0", "-1"]]),
    lambda d: _broken(normals=[["1", ["0"]], ["0", "1"], ["-p1", "0"],
                               ["0", "-1"]]),
    lambda d: _broken(normals=[[True, "0"], ["0", "1"], ["-p1", "0"],
                               ["0", "-1"]]),
    lambda d: _broken(offsets=["0", {}, "-p1", "-1"]),
    lambda d: _broken(offsets=["0", False, "-p1", "-1"]),
    lambda d: _broken(offsets=["0", float("nan"), "-p1", "-1"]),
    lambda d: _broken(quasilattice=[]),
    lambda d: _broken(quasilattice=[["1"], ["0"]]),
    lambda d: _broken(quasilattice=[["1", "0", "0"], ["0", "1", "0"],
                                    ["0", "0", "1"]]),
    lambda d: _broken(quasilattice=[["1", "0"], ["2", "0"]]),
    lambda d: _broken(quasilattice=[[None, "0"], ["0", "1"]]),
    lambda d: _broken(options={"tolerances": {"residual": "nan"}}),
    lambda d: _broken(options={"tolerances": {"embedding": float("inf")}}),
    lambda d: _broken(options={"tolerances": {"residual": -1e-9}}),
    # unknown keys: a typo would otherwise run with the default
    lambda d: _broken(options={"sample": 5}),
    lambda d: _broken(normal=[["1", "0"], ["0", "1"], ["-p1", "0"],
                              ["0", "-1"]]),
    lambda d: _broken(parameters=[{"name": "p1", "value": "3/2",
                                   "values": "2"}]),
    lambda d: _pyramid(seed=1, b={"1,2,3,4": ["1", "1", "1", "p2"]},
                       epsilon="1/2", samples=7, tolerance={}),
])
def test_parse_spec_rejects(mutate):
    with pytest.raises(SpecError):
        parse_spec(mutate(copy.deepcopy(BASE)))


def test_fnum_format():
    assert fnum(0) == "0.00000000000e+00"
    assert fnum(1 / 3) == "3.33333333333e-01"
    assert fnum(1.23456789012345e-7) == "1.23456789012e-07"


# -- assembly -------------------------------------------------------------


def test_section_filtering(pyramid):
    p, q, options = pyramid
    report, ok = build_report(p, q, options, sections=("faces",))
    assert ok and sorted(report) == ["polytope", "schema"]
    report, _ = build_report(p, q, options, sections=("faces", "links"))
    assert sorted(report) == ["links", "polytope", "schema"]


def test_report_determinism_same_process(pyramid):
    p, q, options = pyramid
    options = dict(options, samples=20)
    r1, ok1 = build_report(p, q, options)
    r2, ok2 = build_report(p, q, options)
    assert ok1 and ok2
    assert render_report(r1) == render_report(r2)
    r3, _ = build_report(p, q, options, seed=99)
    assert r3["verification"]["seed"] == 99


def test_report_is_json_clean(tent):
    p, q, options = tent
    report, ok = build_report(p, q, dict(options, samples=10))
    assert ok
    text = json.dumps(report)  # no numpy scalars may remain
    assert isinstance(report["verification"]["pass"], bool)
    assert isinstance(report["polytope"]["simple"], bool)
    assert "NaN" not in text


def test_verification_block_fields(pyramid):
    p, q, options = pyramid
    report, ok = build_report(p, q, dict(options, samples=15))
    block = report["verification"]
    assert ok and block["pass"]
    assert block["samples"] == 15
    for key in ("max_lift_residual", "max_regular_slice_residual",
                "max_torus_residual", "max_singular_slice_residual",
                "max_embedding_residual"):
        assert float(block[key]) <= 1e-8, key


def _counting(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_report_and_dot_derive_each_object_once(monkeypatch):
    p, q, options = parse_spec(fixture_spec("tent"))
    counts = Counter()
    for owner, name in ((HPolytope, "__init__"),
                        (HPolytope, "_build_lattice"),
                        (charts, "Chart")):
        monkeypatch.setattr(owner, name, _counting(
            counts, owner.__name__ if name == "__init__" else name,
            getattr(owner, name)))
    slack_tables = Counter()
    memoized = polytope._memoized

    def counting_memoized(poly, key, build):
        if key[0] == "vertex_slacks":
            build = _counting(slack_tables, (id(poly), key), build)
        if key[0] == "admissible_index_sets":
            build = _counting(counts, key[0], build)
        return memoized(poly, key, build)

    for module in (polytope, ambient):
        monkeypatch.setattr(module, "_memoized", counting_memoized)
    report, ok = build_report(p, q, dict(options, samples=10))
    dot_export(p, options)
    assert ok

    def walk(nodes):
        for node in nodes:
            yield node
            yield from walk(node["children"])

    nodes = sum(1 for _ in walk(report["links"]))
    assert nodes == 33
    # one intrinsic polytope per link node, none rebuilt for the DOT file
    assert counts["HPolytope"] == nodes
    # the tent's lattice was built by parse_spec; each link polytope
    # builds its own once, and none is built for the DOT file
    assert counts["_build_lattice"] == nodes
    # at most one index family per polytope: the tent and each link
    assert 1 <= counts["admissible_index_sets"] <= 1 + counts["HPolytope"]
    # one regular chart per admissible set, plus one flag chart per
    # singular face of the tent, shared by its embedding constants and
    # samples; the link nodes below build none
    assert len(report["charts"]) == 72
    assert len(report["links"]) == 15
    assert counts["Chart"] == 72 + len(report["links"])
    # at most one slack table per (polytope, vertex), shared by the
    # charts section's entries at that vertex and their Psi constants;
    # charts read no table, so only the tent's six vertices have one
    assert set(slack_tables.values()) == {1}
    assert len(slack_tables) == len(p.vertices) == 6


@pytest.mark.parametrize("name", ["tent", "pyramid"])
def test_report_and_dot_run_no_scalar_sum_or_product(name, monkeypatch):
    # every exact sum on a report path goes through scalars.dot or runs
    # on Fractions and ints; Scalar +, - and * serve library callers only
    p, q, options = parse_spec(fixture_spec(name))
    counts = Counter()
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__"):
        monkeypatch.setattr(Scalar, op,
                            _counting(counts, op, getattr(Scalar, op)))
    report, ok = build_report(p, q, dict(options, samples=10))
    dot_export(p, options)
    assert ok and report["links"]
    assert not counts, counts


@pytest.mark.parametrize("name", ["tent", "pyramid"])
def test_verification_samples_read_no_exact_slacks(name, monkeypatch):
    # each sample's floats come from its integers: HPolytope.slacks, and
    # under it _scaled_slacks, serve only the per-chart constants, and
    # each float block of I is factored at most once per orientation
    p, q, options = parse_spec(fixture_spec(name))
    chart_build = next(c for c in charts._chart.__code__.co_consts
                       if getattr(c, "co_name", "") == "build")
    where = {charts.cone_neighborhood.__code__: "cone_neighborhood",
             chart_build: "chart", HPolytope.slacks.__code__: "slacks"}
    callers = Counter()
    scaled_callers = Counter()

    def counting(counts, method):
        def wrapper(self, point):
            code = sys._getframe(1).f_code
            counts[where.get(code, code.co_name)] += 1
            return method(self, point)
        return wrapper

    builds = Counter()
    memoized = charts._memoized

    def counting_memoized(poly, key, build):
        if key[0] in ("chart", "float_block"):
            build = _counting(builds, (id(poly), key), build)
        return memoized(poly, key, build)

    monkeypatch.setattr(HPolytope, "slacks",
                        counting(callers, HPolytope.slacks))
    monkeypatch.setattr(HPolytope, "_scaled_slacks",
                        counting(scaled_callers, HPolytope._scaled_slacks))
    monkeypatch.setattr(charts, "_memoized", counting_memoized)
    samples = 40
    _report, ok = build_report(p, q, dict(options, samples=samples),
                               sections=("verify",))
    assert ok
    assert set(builds.values()) == {1}
    blocks = [key for _id, key in builds if key[0] == "float_block"]
    assert {transpose for _tag, _i, transpose in blocks} == {False, True}
    sing = p.face_lattice.singular_faces()
    assert sing
    assert set(callers) <= {"chart", "cone_neighborhood"}
    assert set(scaled_callers) <= {"slacks"}
    assert scaled_callers["slacks"] == sum(callers.values())
    assert callers["chart"] == sum(key[0] == "chart" for _id, key in builds)
    assert callers["cone_neighborhood"] <= len(sing)


@pytest.mark.parametrize("section", ["verify", "links"])
@pytest.mark.parametrize("name", ["tent", "pyramid"])
def test_numeric_sections_solve_no_symbolic_chart(name, section):
    # verification and the embedding constants read their charts from
    # the integer rows: no symbolic A_I and no symbolic slack table
    p, q, options = parse_spec(fixture_spec(name))
    build_report(p, q, dict(options, samples=10), sections=(section,))
    assert [k for k in p.memo if k[0] == "chart"]
    polys = [p] + [node.link.polytope for root in link_tree(p, options)
                   for node in root.walk()]
    for poly in polys:
        assert not [k for k in poly.memo
                    if k[0] in ("change_of_basis", "vertex_slacks")]
    if section == "links":
        # each flag I is decided at its own vertex: neither the links
        # section nor a DOT export of a fresh polytope lists the
        # admissible sets of any polytope in the forest
        fresh, _q, fresh_options = parse_spec(fixture_spec(name))
        dot_export(fresh, fresh_options)
        for poly in polys + [fresh] + [
                node.link.polytope
                for root in link_tree(fresh, fresh_options)
                for node in root.walk()]:
            assert ("admissible_index_sets",) not in poly.memo


# -- pinned content -------------------------------------------------------


def test_pyramid_chart_entry_pinned(pyramid):
    p, q, options = pyramid
    report, _ = build_report(p, q, options, sections=("charts",))
    entry = next(c for c in report["charts"] if c["index_set"] == [2, 3, 4])
    assert entry["a_matrix"] == [["1/p2", "1", "0", "0", "-p5/p2"],
                                 ["-1", "0", "1", "0", "0"],
                                 ["1", "0", "0", "1", "-p5"]]
    assert entry["slacks"] == {"5": "p5"}
    assert entry["psi_constants"] == ["0", "-p5"]
    assert entry["pi1_rank"] == 0 and entry["i_star"] == []
    assert entry["gamma_structure"] == "Z^2"


def test_pyramid_links_entry_pinned(pyramid):
    p, q, options = pyramid
    report, _ = build_report(p, q, options, sections=("links",))
    node = report["links"][0]
    assert node["face"] == [1, 2, 3, 4]
    assert node["f_vector"] == [4, 4]
    assert node["children"] == []
    # the bundled spec overrides b on the apex, so the circle direction
    # does not close up
    assert node["fibration"]["y_tilde"] == ["1", "1", "1", "p2"]
    assert node["fibration"]["closed"] is False
    emb = node["embedding_constants"]
    assert emb["b"] == ["1", "1", "1", "2"]
    assert emb["box"] == [] and emb["c"] is None
    assert emb["epsilon"] == "1/2"


def test_tent_groups_section_pinned(tent):
    p, q, options = tent
    report, _ = build_report(p, q, options, sections=("groups",))
    assert report["choice"] == {"rational": False, "delzant_like": False,
                                "label": "nonrational"}
    per_face = report["groups"]["per_singular_face"]
    assert len(per_face) == 15
    nu1 = next(e for e in per_face if e["face"] == [1, 2, 3, 4, 6, 7])
    assert nu1["stabilizer_dim"] == 2
    # at a vertex the whole group stabilizes, so the quotient is trivial
    assert nu1["quotient_group"]["structure"] == "trivial"
    edge = next(e for e in per_face if e["face"] == [1, 2, 3, 4])
    assert edge["stabilizer_dim"] == 1


# -- goldens --------------------------------------------------------------


@pytest.mark.parametrize("name", ["pyramid", "tent", "cube3"])
def test_golden_reports(name):
    p, q, options = parse_spec(fixture_spec(name))
    report, _ = build_report(p, q, options,
                             sections=("faces", "charts", "groups", "links"))
    want = (GOLDEN / f"{name}.json").read_text()
    assert render_report(report) == want


# -- DOT export -----------------------------------------------------------


def test_dot_export_pyramid(pyramid):
    p, _, options = pyramid
    dot = dot_export(p, options)
    assert dot.startswith("digraph stratification {")
    assert "cluster_faces" in dot and "cluster_links" in dot
    assert 'F_1_2_3_4 [label="I={1,2,3,4}\\ndim 0" color="red"' in dot
    assert "F_1_2_3_4 -> F_1_2;" in dot


def test_dot_export_simple_polytope(cube3):
    p, _, options = cube3
    dot = dot_export(p, options)
    assert "cluster_links" not in dot
    assert 'color="red"' not in dot
