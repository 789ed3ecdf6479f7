"""Source hygiene: every module of the package uses what it imports,
every private function or class is used somewhere in the package, and
no module imports numpy or scipy.

No linter ships with the project, so this reads each module with the
standard library's ast.  __init__.py is exempt from the unused-import
check, since it imports names to re-export them, and so is
``from __future__ import annotations``.  One subprocess test runs the
command line and checks that neither numpy nor scipy was loaded, nor
polystrat.lp: the exact simplex is the tests' reference solver, and
validation decides from the double description alone.  Others check
that ``fixtures list`` loads no module beyond the package and its
command line, since the package resolves its public names on first
access, and that ``analyze --only SECTION`` loads only the modules
that section runs; neither loads what ``fixtures run``'s fan-out uses
beyond os and json.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import polystrat

MODULES = sorted(p for p in Path(polystrat.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _imported(tree):
    """(bound name, line) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"{path.name} imports but never uses: {unused}"


def test_no_orphaned_private_helpers():
    # every private function or class is referenced somewhere in src/
    # outside its own body, so no change leaves a helper nothing calls
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in MODULES + [Path(polystrat.__file__)]]

    def references(node):
        return Counter(n.id if isinstance(n, ast.Name) else n.attr
                       for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)))

    everywhere = sum(map(references, trees), Counter())
    private = [node for tree in trees for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")]
    assert len(private) > 80
    orphans = [node.name for node in private
               if everywhere[node.name] == references(node)[node.name]]
    assert not orphans, f"private definitions nothing uses: {orphans}"


def test_charts_import_no_symbolic_change_of_basis():
    # charts take A_I from the integer rows; the symbolic A_I is the
    # charts section's, and the tests' reference
    path = Path(polystrat.__file__).parent / "charts.py"
    names = {name for name, _line in _imported(ast.parse(path.read_text()))}
    assert not names & {"adapted_kernel_basis", "change_of_basis"}


@pytest.mark.parametrize("path", MODULES + [Path(polystrat.__file__)],
                         ids=lambda p: p.name)
def test_no_numeric_third_party_imports(path):
    # the package runs on the standard library alone
    tree = ast.parse(path.read_text(), filename=str(path))
    roots = {alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names}
    roots |= {node.module.split(".")[0] for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module}
    assert not roots & {"numpy", "scipy"}, f"{path.name} imports {roots}"


CHILD = """
import json, sys
from polystrat.cli import main
spec, out = sys.argv[1:]
codes = [main(["fixtures", "list"]),
         main(["analyze", spec, "--only", "faces"]),
         main(["fixtures", "run", "pyramid", "--out", out])]
print(json.dumps({"codes": codes, "file": __import__("polystrat").__file__,
                  "loaded": sorted(m for m in ("numpy", "scipy", "polystrat.lp")
                                   if m in sys.modules)}))
"""


def test_cli_runs_without_loading_numpy(tmp_path):
    # fixtures list, a faces-only analyze and a full fixtures run (which
    # runs verification), with the benchmark's pinned PYTHONPATH=src; none
    # loads numpy, scipy or the simplex
    root = Path(__file__).resolve().parents[1]
    spec = root / "src" / "polystrat" / "fixtures" / "pyramid.json"
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", CHILD, str(spec),
                           str(tmp_path)], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert Path(result["file"]).resolve().parent == root / "src" / "polystrat"
    assert result["loaded"] == []
    assert (tmp_path / "pyramid.report.json").exists()


LOADED_CHILD = """
import json, sys
before = set(sys.modules)
from polystrat.cli import main
code = main(sys.argv[2:])
print(json.dumps({"code": code,
                  "loaded": sorted(m for m in sys.modules
                                   if m.split(".")[0] == "polystrat"),
                  "added": sorted(m for m in sys.argv[1].split(",")
                                  if m in sys.modules and m not in before)}))
"""

# dataclasses pulls in inspect; fixtures run's fan-out imports signal,
# and traceback in a worker whose fixture raises, and it must stay off
# the multiprocessing and concurrent.futures path (and pickle with them)
NOT_LOADED = ("dataclasses", "inspect", "signal", "traceback", "pickle",
              "multiprocessing", "concurrent")


def _loaded(args):
    """The polystrat modules one command loads in a fresh process; it
    must add none of NOT_LOADED to the modules loaded before."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", LOADED_CHILD,
                           ",".join(NOT_LOADED), *args],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert result["added"] == []
    return {m.removeprefix("polystrat.") for m in result["loaded"]}


def test_fixtures_list_loads_no_math_module():
    # the benchmark's setup_s times this command in a fresh process
    assert _loaded(["fixtures", "list"]) == {"polystrat", "cli"}


FACES_MODULES = {"polystrat", "cli", "report", "polytope", "linalg",
                 "scalars"}


@pytest.mark.parametrize("section, extra", [
    ("faces", set()),
    ("verify", {"ambient", "charts"}),
    ("groups", {"ambient", "groups", "intlattice"}),
    ("charts", {"ambient", "groups", "intlattice", "charts"}),
    ("links", {"ambient", "charts", "links"}),
])
def test_each_section_loads_only_its_modules(tmp_path, section, extra):
    # report imports a section's modules where the section runs, and no
    # record type pulls in dataclasses (and with it inspect)
    spec = Path(polystrat.__file__).parent / "fixtures" / "pyramid.json"
    out = tmp_path / "report.json"
    loaded = _loaded(["analyze", str(spec), "--only", section,
                      "--out", str(out)])
    assert loaded == FACES_MODULES | extra
    assert out.exists()


def test_public_names_resolve():
    for name in polystrat.__all__:
        module = importlib.import_module(
            f"polystrat.{polystrat._EXPORTS[name]}")
        assert getattr(polystrat, name) is getattr(module, name), name
    namespace = {}
    exec("from polystrat import *", namespace)
    assert set(polystrat.__all__) <= set(namespace)
    assert set(polystrat.__all__) <= set(dir(polystrat))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        polystrat.no_such_name
