"""Source hygiene: every module of the package uses what it imports.

No linter ships with the project, so this reads each module with the
standard library's ast.  __init__.py is exempt, since it imports names
to re-export them, and so is ``from __future__ import annotations``.
"""

import ast
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
