"""Source hygiene: every module of the package uses what it imports,
and none imports numpy or scipy.

No linter ships with the project, so this reads each module with the
standard library's ast.  __init__.py is exempt from the unused-import
check, since it imports names to re-export them, and so is
``from __future__ import annotations``.  One subprocess test runs the
command line and checks that neither numpy nor scipy was loaded, nor
polystrat.lp: the exact simplex is the tests' reference solver, and
validation decides from the double description alone.
"""

import ast
import json
import os
import subprocess
import sys
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
