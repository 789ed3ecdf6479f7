"""Command-line behavior: exit codes, output modes, determinism.

Most tests call main() in process and inspect captured streams; one
subprocess smoke test runs the entry point through the interpreter
(``python -m polystrat``), and also through the installed ``polystrat``
script when one is on PATH.
"""

import copy
import json
import os
import pathlib
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from oracles import sym_element, sym_solve
import polystrat
from polystrat import cli, links, scalars
from polystrat.cli import EXIT_PARSE, EXIT_VALIDATION, EXIT_VERIFY, \
    fixture_spec, main
from polystrat.polytope import HPolytope
from polystrat.report import ALL_SECTIONS

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _write_spec(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _pyramid_spec(**option_changes):
    data = fixture_spec("pyramid")
    data["options"] = {**data.get("options", {}), **option_changes}
    return data


def _diags(err):
    return [json.loads(line) for line in err.splitlines() if line]


def _simplex_spec(n):
    """The standard n-simplex, x_i >= 0 and sum x_i <= 1, with the
    options of the simplex3 fixture."""
    return {"dimension": n, "parameters": [],
            "normals": [[str(int(i == j)) for j in range(n)]
                        for i in range(n)] + [["-1"] * n],
            "offsets": ["0"] * n + ["-1"], "quasilattice": "normals",
            "options": {"epsilon": "1", "samples": 100, "seed": 0}}


def _cube_cut_spec(q="2"):
    """The unit cube cut by -x - y - z >= -q.

    At q = 1 or q = 2 the cut plane passes through three cube vertices,
    so the face lattice holds only at that value of q.
    """
    data = fixture_spec("cube3")
    data["parameters"] = [{"name": "q", "value": q}]
    data["normals"].append(["-1", "-1", "-1"])
    data["offsets"].append("-q")
    return data


# -- analyze --------------------------------------------------------------


def test_analyze_writes_report_to_stdout(tmp_path, capsys):
    path = _write_spec(tmp_path, _pyramid_spec(samples=10))
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["schema"] == "polystrat-report/1"
    assert report["verification"]["pass"] is True


E2, E3 = ["0", "1", "0"], ["0", "0", "1"]


@pytest.mark.parametrize("fixture, generators, delzant", [
    ("pyramid_unit", [["1/2", "0", "0"], E2, E3], False),
    ("pyramid_unit", [["1", "0", "0"], E2, ["1", "1", "1"]], True),
    ("cube3", [["1", "1", "0"], E2, E3], True),
    ("cube3", [["1", "0", "0"], E2, E3, ["1/3", "0", "0"]], False),
])
def test_explicit_quasilattice_choice(tmp_path, capsys, fixture, generators,
                                      delzant):
    data = fixture_spec(fixture)
    data["quasilattice"] = generators
    path = _write_spec(tmp_path, data)
    assert main(["analyze", path, "--only", "groups"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["choice"] == {"rational": True, "delzant_like": delzant,
                                "label": "rational"}


@pytest.mark.parametrize("fixture, generators, label", [
    # X_1 = (-1, 0, -1) is not in 2Z x Z x Z
    ("pyramid_unit", [["2", "0", "0"], E2, E3], 1),
    # X_2 = (0, -p2, -p2) is no integer combination of e1, e2, e3
    ("pyramid", [["1", "0", "0"], E2, E3], 2),
])
def test_quasilattice_missing_a_normal_is_refused(tmp_path, capsys, fixture,
                                                   generators, label):
    data = fixture_spec(fixture)
    data["quasilattice"] = generators
    path = _write_spec(tmp_path, data)
    out = tmp_path / "report.json"
    assert main(["analyze", path, "--out", str(out)]) == EXIT_PARSE
    assert _diags(capsys.readouterr().err) == [{
        "error": "parse", "detail": f"bad quasilattice: normal {label} is "
        "not in the Z-span of the generators"}]
    assert not out.exists()


def test_analyze_only_section(tmp_path, capsys):
    path = _write_spec(tmp_path, _pyramid_spec())
    assert main(["analyze", path, "--only", "faces"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert sorted(report) == ["polytope", "schema"]
    assert report["polytope"]["f_vector"] == [5, 8, 5]


def test_analyze_out_and_dot_files(tmp_path, capsys):
    path = _write_spec(tmp_path, _pyramid_spec(samples=10))
    out = tmp_path / "report.json"
    dot = tmp_path / "graph.dot"
    assert main(["analyze", path, "--out", str(out),
                 "--dot", str(dot)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["verification"]["pass"] is True
    assert dot.read_text().startswith("digraph stratification {")


def test_analyze_seed_determinism(tmp_path):
    path = _write_spec(tmp_path, _pyramid_spec(samples=15))
    f1, f2, f3 = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    assert main(["analyze", path, "--seed", "7", "--out", str(f1)]) == 0
    assert main(["analyze", path, "--seed", "7", "--out", str(f2)]) == 0
    assert main(["analyze", path, "--seed", "8", "--out", str(f3)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    assert json.loads(f3.read_text())["verification"]["seed"] == 8


def test_missing_file_is_parse_error(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == EXIT_PARSE
    diags = _diags(capsys.readouterr().err)
    assert diags[0]["error"] == "parse"


def test_invalid_json_is_parse_error(tmp_path, capsys):
    # broken JSON, a UTF-16 byte-order mark and nesting past the
    # recursion limit of the json module
    for i, data in enumerate((b"{not json", b"\xff\xfe{}",
                              b"[" * 100000 + b"]" * 100000)):
        path = tmp_path / f"bad{i}.json"
        path.write_bytes(data)
        assert main(["analyze", str(path), "--only", "faces"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        diags = _diags(err)
        assert len(diags) == 1 and diags[0]["error"] == "parse"
        assert str(path) in diags[0]["detail"]


def test_bad_schema_is_parse_error(tmp_path, capsys):
    path = _write_spec(tmp_path, {"normals": []})
    assert main(["analyze", path]) == EXIT_PARSE
    assert _diags(capsys.readouterr().err)[0]["error"] == "parse"


def test_unbounded_polytope_is_validation_error(tmp_path, capsys):
    data = {"dimension": 2,
            "normals": [["1", "0"], ["0", "1"], ["1", "1"]],
            "offsets": ["0", "0", "0"]}
    assert main(["analyze", _write_spec(tmp_path, data)]) == EXIT_VALIDATION
    diags = _diags(capsys.readouterr().err)
    assert diags[0]["error"] == "validation"
    assert "unbounded" in diags[0]["detail"]


@pytest.mark.parametrize("only", (None,) + ALL_SECTIONS)
def test_nongeneric_evaluation_point_is_validation_error(tmp_path, capsys,
                                                         only):
    argv = ["analyze", _write_spec(tmp_path, _cube_cut_spec())]
    assert main(argv + (["--only", only] if only else [])) == \
        EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    diags = _diags(captured.err)
    assert len(diags) == 1 and diags[0]["error"] == "validation"
    detail = diags[0]["detail"]
    assert detail.startswith("[degenerate-point] constraint 7 meets vertex")
    assert detail.endswith("q=2")


def test_generic_cube_cut_is_analyzed(tmp_path, capsys):
    path = _write_spec(tmp_path, _cube_cut_spec("5/2"))
    assert main(["analyze", path, "--only", "charts"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["charts"] and captured.err == ""


def test_two_term_denominators_reach_the_general_gcd(tmp_path, capsys,
                                                      monkeypatch):
    """The pyramid with constraint 2 divided by p2 + 1.

    The polytope and its singular apex are unchanged, but A_I gets
    entries over two-term denominators, so normalization leaves the
    monomial gcd for the general one (_prem) end to end.
    """
    data = _pyramid_spec(samples=20)
    data["normals"][1] = ["0", "-p2/(p2 + 1)", "-p2/(p2 + 1)"]
    data["offsets"][1] = "-p2/(p2 + 1)"
    prem_calls = []
    prem = scalars._prem
    monkeypatch.setattr(scalars, "_prem",
                        lambda *args: prem_calls.append(1) or prem(*args))
    assert main(["analyze", _write_spec(tmp_path, data)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert prem_calls
    report = json.loads(out)
    assert report["verification"]["pass"] is True
    assert [f["index_set"] for f in report["polytope"]["faces"]
            if f["singular"]] == [[1, 2, 3, 4]]
    reg = scalars.ParamRegistry(["p2", "p5"])
    normals = data["normals"]
    assert report["charts"]
    for chart in report["charts"]:
        m_i = [[normals[h - 1][i] for h in chart["index_set"]]
               for i in range(3)]
        for j, x_j in enumerate(normals):
            want = sym_solve(reg, m_i, x_j)
            assert [sym_element(reg, row[j])
                    for row in chart["a_matrix"]] == want, (chart, j)


@pytest.mark.parametrize("n", (8, 10))
def test_high_dimensional_simplex_verifies(tmp_path, capsys, n):
    # a bounding box accepts about 1/n! of its points here: sampling
    # must not depend on it
    path = _write_spec(tmp_path, _simplex_spec(n))
    assert main(["analyze", path, "--only", "verify"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    block = json.loads(out.out)["verification"]
    assert block["pass"] is True and block["samples"] == 100


def test_impossible_tolerance_is_verify_failure(tmp_path, capsys):
    data = _pyramid_spec(samples=10,
                         tolerances={"residual": 0.0, "embedding": 0.0})
    assert main(["analyze", _write_spec(tmp_path, data)]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verification"]["pass"] is False
    assert _diags(captured.err)[0]["error"] == "verification"


def test_badly_scaled_floats_are_verify_failure(tmp_path, capsys):
    # at p2 = p5 = 10^13 the float block of I = (1, 2, 3) has a pivot
    # below 1e-12 of its largest entry, although it is a basis exactly
    data = fixture_spec("pyramid")
    for entry in data["parameters"]:
        entry["value"] = "10000000000000"
    path = _write_spec(tmp_path, data)
    out = tmp_path / "report.json"
    for only in (["--only", "verify"], []):
        assert main(["analyze", path, "--out", str(out), *only]) \
            == EXIT_VERIFY
        captured = capsys.readouterr()
        assert captured.out == ""
        (diag,) = _diags(captured.err)
        assert diag["error"] == "verification"
        assert "I=(1, 2, 3)" in diag["detail"]
        assert not out.exists()
    for only in ("faces", "charts", "groups", "links"):
        assert main(["analyze", path, "--only", only]) == 0
        assert capsys.readouterr().err == ""


def test_offset_past_the_float_range_fails_only_verification(tmp_path,
                                                             capsys):
    # at p2 = 1e400 the offset -p2 has no float; the exact sections
    # never need one, and verification fails with one diagnostic line
    data = fixture_spec("pyramid")
    data["parameters"][0]["value"] = "1e400"
    path = _write_spec(tmp_path, data)
    for only in ("faces", "charts", "groups", "links"):
        assert main(["analyze", path, "--only", only]) == 0
        assert capsys.readouterr().err == ""
    assert main(["analyze", path, "--only", "verify"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.out == ""
    (diag,) = _diags(captured.err)
    assert diag["error"] == "verification"
    assert "too large for a float" in diag["detail"]


def test_epsilon_past_the_float_range_builds_links(tmp_path, capsys):
    # epsilon = 1e400 enters the link polytopes' offsets, which the
    # links section reads exactly
    path = _write_spec(tmp_path, _pyramid_spec(epsilon="1e400"))
    assert main(["analyze", path, "--only", "links"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["links"]


def test_link_vertex_mismatch_is_verify_failure(tmp_path, capsys,
                                                monkeypatch):
    """A link whose own vertices disagree with the parent's lattice exits 4.

    The slice at the tent's vertex (1, 2, 3, 4, 6, 7) gets its third
    constraint pushed outward until it is redundant.
    """
    section = links.cone_section

    def pushed(p, face, b=None, epsilon=Fraction(1)):
        sec = section(p, face, b=b, epsilon=epsilon)
        if sec.face_index_set != (1, 2, 3, 4, 6, 7):
            return sec
        poly = sec.polytope
        offsets = [x.evaluate() - (1 if t == 3 else 0)
                   for t, x in enumerate(poly.offsets, start=1)]
        return sec._replace(polytope=HPolytope(
            poly.registry, poly.normals, offsets, validate=False))

    monkeypatch.setattr(links, "cone_section", pushed)
    path = _write_spec(tmp_path, fixture_spec("tent"))
    assert main(["analyze", path, "--only", "links"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.out == ""
    (diag,) = _diags(captured.err)
    assert diag["error"] == "verification"
    assert "(1, 2, 3, 4, 6, 7)" in diag["detail"]


@pytest.mark.parametrize("options", [
    {"b": {"1,2,3,4": ["1", "1", "1", "-1"]}},
    {"b": {"1,2,3,4": ["1", "1"]}},
    {"b": {"1,2,3,4": 5}},
    {"b": [["1", "1", "1", "1"]]},
    {"tolerances": [1e-9]},
    {"b": {"9,9": ["1", "1"]}},
    {"b": {"4,3,2,1": ["p2", "1", "1", "1"]}},
    {"b": {"1,2,3,4": ["1", "1", "1", "p2"],
           "4,3,2,1": ["p2", "1", "1", "1"]}},
    {"samples": True},
    {"seed": True},
    {"tolerances": {"residual": "nan"}},
    {"tolerances": {"residual": float("nan")}},
    {"tolerances": {"embedding": float("inf")}},
    {"tolerances": {"residual": -1.0}},
])
def test_malformed_options_are_parse_errors(tmp_path, capsys, options):
    path = _write_spec(tmp_path, _pyramid_spec(**options))
    assert main(["analyze", path]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    diags = _diags(err)
    assert len(diags) == 1 and diags[0]["error"] == "parse"


@pytest.mark.parametrize("keys", [["4,3,2,1"], ["1,2,3,4", "4,3,2,1"]])
def test_unordered_b_keys_are_named(tmp_path, capsys, keys):
    b = {key: ["1", "1", "1", "p2"] for key in keys}
    path = _write_spec(tmp_path, _pyramid_spec(b=b))
    assert main(["analyze", path, "--only", "links"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    (diag,) = _diags(captured.err)
    assert diag["error"] == "parse" and "'4,3,2,1'" in diag["detail"]
    assert "increasing" in diag["detail"]


@pytest.mark.parametrize("where, key", [
    ("spec", "normal"), ("options", "sample"), ("parameter", "valu"),
    ("options.tolerances", "residuals")])
def test_unknown_spec_keys_are_parse_errors(tmp_path, capsys, where, key):
    data = _pyramid_spec()
    target = {"spec": data, "options": data["options"],
              "parameter": data["parameters"][0],
              "options.tolerances": data["options"].setdefault(
                  "tolerances", {})}[where]
    target[key] = 5
    assert main(["analyze", _write_spec(tmp_path, data)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    (diag,) = _diags(captured.err)
    assert diag["error"] == "parse" and repr(key) in diag["detail"]


def test_unwritable_outputs_are_io_errors(tmp_path, capsys):
    path = _write_spec(tmp_path, _pyramid_spec())
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    report = tmp_path / "report.json"
    for argv in (["analyze", path, "--only", "faces",
                  "--out", str(tmp_path / "missing" / "report.json")],
                 ["analyze", path, "--only", "faces",
                  "--dot", str(blocker / "graph.dot")],
                 ["analyze", path, "--only", "faces", "--out", str(report),
                  "--dot", str(blocker / "graph.dot")],
                 ["fixtures", "run", "cube3", "--out", str(blocker)]):
        assert main(argv) == EXIT_PARSE, argv
        captured = capsys.readouterr()
        diags = _diags(captured.err)
        assert len(diags) == 1 and diags[0]["error"] == "io", argv
        if "--dot" in argv:
            # a failed --dot write emits no report
            assert captured.out == "" and not report.exists(), argv


def test_failed_report_write_leaves_no_file(tmp_path, capsys, monkeypatch):
    # reports go through a temporary file beside the target, renamed onto
    # it on success: a failed write leaves neither a partial report nor
    # the temporary file, and the diagnostic names the --out path
    path = _write_spec(tmp_path, _pyramid_spec())
    target = tmp_path / "a-directory"
    target.mkdir()
    assert main(["analyze", path, "--only", "faces",
                 "--out", str(target)]) == EXIT_PARSE
    (diag,) = _diags(capsys.readouterr().err)
    assert diag["detail"] == f"[Errno 21] Is a directory: {str(target)!r}"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a-directory", "spec.json"]
    assert list(target.iterdir()) == []

    # a rename that fails keeps the earlier report whole
    report = tmp_path / "report.json"
    assert main(["analyze", path, "--only", "faces",
                 "--out", str(report)]) == 0
    before = report.read_bytes()
    reference = tmp_path / "reference"
    reference.write_text("")
    assert report.stat().st_mode == reference.stat().st_mode
    reference.unlink()

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", src)
    monkeypatch.setattr(os, "replace", refuse)
    assert main(["analyze", path, "--only", "groups",
                 "--out", str(report)]) == EXIT_PARSE
    (diag,) = _diags(capsys.readouterr().err)
    assert diag["detail"] == f"[Errno 13] Permission denied: {str(report)!r}"
    assert report.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a-directory", "report.json", "spec.json"]


def test_reports_to_other_than_a_plain_file_are_written_through(tmp_path,
                                                                capsys):
    # only a missing path or a plain file of one's own is replaced by a
    # renamed new file; a symlink, a FIFO or a file with another link is
    # written through, and an existing report keeps its permissions
    import threading

    path = _write_spec(tmp_path, _pyramid_spec())
    argv = ["analyze", path, "--only", "faces", "--out"]
    expected = tmp_path / "expected.json"
    assert main(argv + [str(expected)]) == 0
    report = expected.read_bytes()

    target = tmp_path / "target.json"
    target.write_text("old")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert main(argv + [str(link)]) == 0
    assert link.is_symlink() and target.read_bytes() == report

    other = tmp_path / "other-name.json"
    os.link(target, other)
    target.write_text("old")
    assert main(argv + [str(target)]) == 0
    assert other.read_bytes() == report
    assert os.path.samefile(target, other)

    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(
        fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(argv + [str(fifo)]) == 0
    reader.join(timeout=30)
    assert received == [report]
    assert fifo.is_fifo()

    private = tmp_path / "private.json"
    private.write_text("old")
    private.chmod(0o640)
    assert main(argv + [str(private)]) == 0
    assert private.read_bytes() == report
    assert private.stat().st_mode & 0o777 == 0o640
    if os.geteuid() == 0:
        # a report owned by another user keeps its owner
        os.chown(private, 12345, 12345)
        private.write_text("old")
        assert main(argv + [str(private)]) == 0
        assert private.read_bytes() == report
        assert (private.stat().st_uid, private.stat().st_gid) == (
            12345, 12345)
    assert capsys.readouterr().err == ""
    assert not list(tmp_path.glob("*.tmp"))


# -- fixtures -------------------------------------------------------------


def test_fixtures_list(capsys):
    assert main(["fixtures", "list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [l.split("\t")[0] for l in lines]
    assert names == sorted(names)
    assert "pyramid" in names and "tent" in names and len(names) == 6


def test_fixtures_run_single(capsys):
    assert main(["fixtures", "run", "cube3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["polytope"]["simple"] is True
    assert report["links"] == []


def test_fixtures_run_out_dir(tmp_path, capsys):
    assert main(["fixtures", "run", "pyramid_unit", "cube3",
                 "--out", str(tmp_path), "--seed", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["pyramid_unit\tpass", "cube3\tpass"]
    for name in ("pyramid_unit", "cube3"):
        report = json.loads((tmp_path / f"{name}.report.json").read_text())
        assert report["verification"]["pass"] is True
        assert report["verification"]["seed"] == 3


def test_fixtures_unknown_name(capsys):
    assert main(["fixtures", "run", "dodecahedron"]) == EXIT_PARSE
    assert _diags(capsys.readouterr().err)[0]["error"] == "parse"


def _run_with_cpus(monkeypatch, capsys, cpus, argv, out):
    """main(ARGV) as if the process may use CPUS CPUs, writing into the
    empty directory OUT: its exit code, stdout, stderr and the files it
    left in OUT (None for a directory)."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    code = main(argv)
    captured = capsys.readouterr()
    files = {p.name: None if p.is_dir() else p.read_bytes()
             for p in sorted(out.iterdir())}
    shutil.rmtree(out)
    return code, captured.out, captured.err, files


@pytest.mark.parametrize("case", ["all", "unknown", "blocked", "crash"])
def test_fixtures_fan_out_matches_one_worker(tmp_path, capsys, monkeypatch,
                                             case):
    # forked workers print, write and exit exactly as one process does
    runs = {"all": [(None, seed) for seed in (0, 1, 2)],
            "unknown": [(["tent", "cube3", "dodecahedron", "pyramid"], 0),
                        (["simplex3", "dodecahedron"], 1)],
            "blocked": [(["pyramid_unit", "pyramid", "cube3"], 0)],
            "crash": [(None, 0)]}[case]
    if case == "crash":
        analyze = cli._analyze

        def fail_on_pyramid_unit(data, *args, **kwargs):
            if data == fixture_spec("pyramid_unit"):
                raise ValueError("no pyramid_unit today")
            return analyze(data, *args, **kwargs)
        monkeypatch.setattr(cli, "_analyze", fail_on_pyramid_unit)
    out = tmp_path / "out"
    for names, seed in runs:
        argv = ["fixtures", "run", *(names or []), "--out", str(out),
                "--seed", str(seed)]
        results = []
        for cpus in (1, 2, 3):
            out.mkdir()
            if case == "blocked":
                (out / "pyramid.report.json").mkdir()
            results.append(
                _run_with_cpus(monkeypatch, capsys, cpus, argv, out))
        assert results[1] == results[0] and results[2] == results[0]
        code, stdout, stderr, files = results[0]
        if case == "all":
            assert code == 0 and stderr == ""
            assert stdout == "".join(f"{n}\tpass\n" for n in sorted(
                cli.FIXTURES))
            assert sorted(files) == [f"{n}.report.json"
                                     for n in sorted(cli.FIXTURES)]
        elif case == "unknown":
            # the names before the unknown one run, then it is reported
            ran = names[:names.index("dodecahedron")]
            assert code == EXIT_PARSE
            assert stdout == "".join(f"{n}\tpass\n" for n in ran)
            (diag,) = _diags(stderr)
            assert diag["error"] == "parse"
            assert "dodecahedron" in diag["detail"]
            assert sorted(files) == sorted(f"{n}.report.json" for n in ran)
        elif case == "crash":
            # the traceback ends the run: no later fixture is reported or
            # writes its report, and no worker leaves a file behind
            assert code == 1
            assert stdout == "cube3\tpass\npyramid\tpass\n"
            assert stderr.startswith("Traceback (most recent call last):")
            assert stderr.endswith("ValueError: no pyramid_unit today\n")
            assert sorted(files) == ["cube3.report.json",
                                     "pyramid.report.json"]
        else:
            assert code == EXIT_PARSE
            assert stdout == ("pyramid_unit\tpass\npyramid\tfail (2)\n"
                              "cube3\tpass\n")
            (diag,) = _diags(stderr)
            blocked = out / "pyramid.report.json"
            assert diag == {"error": "io", "detail": "[Errno 21] Is a "
                            f"directory: {str(blocked)!r}"}
            assert sorted(files) == ["cube3.report.json",
                                     "pyramid.report.json",
                                     "pyramid_unit.report.json"]
            assert files["pyramid.report.json"] is None


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.fixture
def forked(monkeypatch):
    """The pids os.fork returns in this process, with two usable CPUs."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    return pids


def test_fixture_workers_are_reaped(tmp_path, capsys, monkeypatch, forked):
    assert main(["fixtures", "run", "cube3", "simplex3",
                 "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "cube3\tpass\nsimplex3\tpass\n"
    assert len(forked) == 2 and not any(map(_alive, forked))

    # a fixture that raises ends the command as an uncaught exception
    # would, after the status lines of the fixtures named before it
    analyze = cli._analyze

    def fail_on_cube(data, *args, **kwargs):
        if data["normals"] == fixture_spec("cube3")["normals"]:
            raise ValueError("no cube today")
        return analyze(data, *args, **kwargs)
    monkeypatch.setattr(cli, "_analyze", fail_on_cube)
    forked.clear()
    assert main(["fixtures", "run", "simplex3", "cube3", "pyramid_unit",
                 "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "simplex3\tpass\n"
    assert captured.err.startswith("Traceback (most recent call last):")
    assert captured.err.endswith("ValueError: no cube today\n")
    assert len(forked) == 2 and not any(map(_alive, forked))


def test_interrupted_fixture_run_reaps_its_workers(tmp_path, capsys,
                                                   monkeypatch, forked):
    import signal
    import time

    def killed_while_writing(name, out_dir, seed, many):
        # the new file a worker killed in _write_atomic would leave
        pathlib.Path(out_dir, f"{name}.report.json.{os.getpid()}.0.tmp") \
            .write_text("")
        time.sleep(60)
    monkeypatch.setattr(cli, "_run_fixture", killed_while_writing)

    def interrupt(signum, frame):
        raise KeyboardInterrupt
    # interval timers are not inherited by forked children, so only the
    # parent is interrupted, while it waits for the first result
    previous = signal.signal(signal.SIGALRM, interrupt)
    t0 = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            main(["fixtures", "run", "cube3", "simplex3",
                  "--out", str(tmp_path)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - t0 < 30
    assert len(forked) == 2 and not any(map(_alive, forked))
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


# a parent that forks two workers for twenty slow fixtures and prints
# each worker's pid on stderr; the fixtures write reports when --out is
# given, so the workers wait for their turns
KILLED_PARENT = """
import os, sys, time
from polystrat import cli

def slow(name, out_dir, seed, many):
    time.sleep(0.3)
    if out_dir:
        cli._write_atomic(os.path.join(out_dir, name), "report")
    return 0

fork = os.fork

def recording_fork():
    pid = fork()
    if pid:
        sys.stderr.write(f"{pid}\\n")
        sys.stderr.flush()
    return pid

cli._run_fixture = slow
cli._usable_cpus = lambda: 2
os.fork = recording_fork
cli.main(["fixtures", "run", *["cube3", "tent"] * 10, *sys.argv[1:]])
"""


def _running(pid):
    """Whether PID runs; a zombie, whose parent has not waited for it,
    has ended."""
    try:
        state = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return state.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not pathlib.Path("/proc/self/stat").exists()
                    or not hasattr(os, "fork"), reason="needs /proc and fork")
@pytest.mark.parametrize("write", [False, True])
def test_fixture_workers_end_with_a_killed_parent(tmp_path, write):
    # the parent is killed without running its finally; each worker ends
    # at its next result (EPIPE) or turn (EOF), within one fixture
    import signal
    import time

    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH="src")
    args = ["--out", str(tmp_path)] if write else []
    proc = subprocess.Popen([sys.executable, "-c", KILLED_PARENT, *args],
                            cwd=root, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        pids = [int(proc.stderr.readline()) for _ in range(2)]
        time.sleep(0.5)
        assert all(map(_running, pids))
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    # ten fixtures of 0.3 s remain per worker; one is allowed
    deadline = time.monotonic() + 2
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    running = [pid for pid in pids if _running(pid)]
    for pid in running:  # leave no process behind when this fails
        os.kill(pid, signal.SIGKILL)
    assert running == []
    assert not list(tmp_path.glob("*.tmp"))


# -- output strings survive the scalar grammar round trip ------------------


def test_report_scalars_reparse(pyramid):
    p, _, _ = pyramid
    reg = p.registry
    report = json.loads((GOLDEN / "pyramid.json").read_text())
    seen = 0
    for chart in report["charts"]:
        for row in chart["a_matrix"]:
            for s in row:
                assert str(reg.parse(s)) == s
                seen += 1
        for s in chart["psi_constants"]:
            assert str(reg.parse(s)) == s
    assert seen >= 40


# -- entry point ------------------------------------------------------------


def test_console_script_smoke():
    # the child imports the same polystrat package this suite imports
    package_root = str(pathlib.Path(polystrat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    commands = [[sys.executable, "-m", "polystrat"]]
    script = shutil.which("polystrat")
    if script:
        commands.append([script])
    for command in commands:
        proc = subprocess.run(command + ["fixtures", "list"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, (command, proc.stderr)
        names = [line.split("\t")[0] for line in proc.stdout.splitlines()]
        assert "pyramid" in names, command
        assert "Traceback" not in proc.stderr, command
    assert sys.version_info >= (3, 10)


def test_successful_run_writes_nothing_to_stderr():
    # the pyramid's b override evaluates above 1, which is accepted
    package = pathlib.Path(polystrat.__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(package.parent), env.get("PYTHONPATH")) if p)
    spec = package / "fixtures" / "pyramid.json"
    proc = subprocess.run(
        [sys.executable, "-m", "polystrat", "analyze", str(spec), "--only",
         "links"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["links"]
    assert proc.stderr == ""


def test_console_script_target():
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts["polystrat"] == "polystrat.cli:main"


# -- seeded fuzzing of spec files -------------------------------------------

FUZZ_VALUES = (None, True, 1.5, "", "((", [], {})


def _fuzz_paths(node, prefix=()):
    """Every key and index path below the root of a JSON value."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _fuzz_paths(value, prefix + (key,))


# values that make a parameter zero, negative, or put a cube vertex on
# the cube cut's plane (q = 1, 2), or the plane outside the cube (q = 3)
FUZZ_PARAMETER_VALUES = ("0", "-1", "1", "2", "3", "1/2", "3/2", "5/2", "7")
FUZZ_SECTIONS = ALL_SECTIONS + (None,)


def _fuzzed_spec(rng):
    """The pyramid, cube3, cube cut or an n-simplex (n = 2..10) with one
    entry dropped, replaced or resized, or one parameter given another
    value."""
    name = rng.choice(("pyramid", "cube3", "simplex", "cube_cut"))
    data = (_cube_cut_spec() if name == "cube_cut"
            else _simplex_spec(rng.randrange(2, 11)) if name == "simplex"
            else fixture_spec(name))
    if data["parameters"] and rng.random() < 0.5:
        entry = rng.choice(data["parameters"])
        entry["value"] = rng.choice(FUZZ_PARAMETER_VALUES)
        return data
    path = rng.choice(list(_fuzz_paths(data)))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]]
    action = rng.randrange(len(FUZZ_VALUES) + 2)
    if action == len(FUZZ_VALUES):
        del parent[path[-1]]
    elif action > len(FUZZ_VALUES) and isinstance(value, list) and value:
        # a row of the wrong length, or one entry too few
        parent[path[-1]] = value + value[:1] if rng.random() < 0.5 \
            else value[:-1]
    else:
        parent[path[-1]] = copy.deepcopy(FUZZ_VALUES[action
                                                     % len(FUZZ_VALUES)])
    return data


def test_fuzzed_specs_exit_cleanly(tmp_path, capsys):
    # the n-simplices, n = 2..10, include the simplex3 fixture
    assert _simplex_spec(3) == fixture_spec("simplex3")
    rng = random.Random(20261018)
    codes = set()
    issues = set()
    for i in range(100):
        data = _fuzzed_spec(rng)
        path = _write_spec(tmp_path, data, name=f"fuzz{i}.json")
        only = FUZZ_SECTIONS[i % len(FUZZ_SECTIONS)]
        code = main(["analyze", path] + (["--only", only] if only else []))
        err = capsys.readouterr().err
        assert code in (0, EXIT_PARSE, EXIT_VALIDATION, EXIT_VERIFY), data
        if code == 0:
            assert err == "", data
        else:
            diags = _diags(err)
            assert len(diags) == 1, data
            assert set(diags[0]) == {"error", "detail"}, data
            if code == EXIT_VALIDATION:
                issues.add(diags[0]["detail"].split("]")[0][1:])
        codes.add(code)
    # the mutations reach past the parser
    assert {0, EXIT_PARSE, EXIT_VALIDATION} <= codes
    # and past validation's shape checks to the evaluation point
    assert "degenerate-point" in issues, issues
