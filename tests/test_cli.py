"""Command-line behavior: exit codes, output modes, determinism.

Most tests call main() in process and inspect captured streams; one
subprocess smoke test runs the entry point through the interpreter
(``python -m polystrat``), and also through the installed ``polystrat``
script when one is on PATH.
"""

import copy
import dataclasses
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
from polystrat import links, scalars
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
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == EXIT_PARSE
    assert _diags(capsys.readouterr().err)[0]["error"] == "parse"


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


def test_impossible_tolerance_is_verify_failure(tmp_path, capsys):
    data = _pyramid_spec(samples=10,
                         tolerances={"residual": 0.0, "embedding": 0.0})
    assert main(["analyze", _write_spec(tmp_path, data)]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verification"]["pass"] is False
    assert _diags(captured.err)[0]["error"] == "verification"


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
        return dataclasses.replace(sec, polytope=HPolytope(
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
    """A spec with one entry dropped, replaced or resized, or one
    parameter given another value."""
    name = rng.choice(("pyramid", "cube3", "simplex3", "cube_cut"))
    data = _cube_cut_spec() if name == "cube_cut" else fixture_spec(name)
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
