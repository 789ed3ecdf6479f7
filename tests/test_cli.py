"""Command-line behavior: exit codes, output modes, determinism.

Most tests call main() in process and inspect captured streams; one
subprocess smoke test runs the entry point through the interpreter
(``python -m polystrat``), and also through the installed ``polystrat``
script when one is on PATH.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import polystrat
from polystrat.cli import EXIT_PARSE, EXIT_VALIDATION, EXIT_VERIFY, \
    fixture_spec, main

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


def test_impossible_tolerance_is_verify_failure(tmp_path, capsys):
    data = _pyramid_spec(samples=10,
                         tolerances={"residual": 0.0, "embedding": 0.0})
    assert main(["analyze", _write_spec(tmp_path, data)]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verification"]["pass"] is False
    assert _diags(captured.err)[0]["error"] == "verification"


@pytest.mark.parametrize("options", [
    {"b": {"1,2,3,4": ["1", "1", "1", "-1"]}},
    {"b": {"1,2,3,4": ["1", "1"]}},
    {"b": {"1,2,3,4": 5}},
    {"b": [["1", "1", "1", "1"]]},
    {"tolerances": [1e-9]},
    {"b": {"9,9": ["1", "1"]}},
    {"samples": True},
    {"seed": True},
])
def test_malformed_options_are_parse_errors(tmp_path, capsys, options):
    path = _write_spec(tmp_path, _pyramid_spec(**options))
    assert main(["analyze", path]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    diags = _diags(err)
    assert len(diags) == 1 and diags[0]["error"] == "parse"


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
