"""Shared fixtures: the bundled polytopes and one benchmark input, built once
per session.

Face lattices and change-of-basis caches live on the polytope objects,
so sharing them across test modules keeps the suite fast.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from families import KINDS, family
from polystrat.cli import FIXTURES, fixture_spec
from polystrat.report import parse_spec


def _load(name):
    return parse_spec(fixture_spec(name))


@pytest.fixture(scope="session")
def pyramid():
    """(polytope, quasilattice, options) for the two-parameter pyramid."""
    return _load("pyramid")


@pytest.fixture(scope="session")
def tent():
    return _load("tent")


@pytest.fixture(scope="session")
def pyramid_unit():
    return _load("pyramid_unit")


@pytest.fixture(scope="session")
def tent_unit():
    return _load("tent_unit")


@pytest.fixture(scope="session")
def cube3():
    return _load("cube3")


@pytest.fixture(scope="session")
def simplex3():
    return _load("simplex3")


@pytest.fixture(scope="session")
def bench_inputs():
    """The benchmark's seeded input generators (perfbench/inputs.py)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs",
        Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


@pytest.fixture(scope="session")
def cross3(bench_inputs):
    """The benchmark's 3-cross-polytope at seed 1."""
    return parse_spec(bench_inputs.cross_polytope(3, random.Random(1)))


@pytest.fixture(scope="session")
def oracle_specs(bench_inputs):
    """Specs by name for the exact-layer oracles: the six fixtures, the
    benchmark's seed-1 cross-polytopes n=3 and n=4, 24-cell and
    pyramid over the 4-cross-polytope, and three polytopes of each
    kind in families.py."""
    specs = {name: fixture_spec(name) for name in sorted(FIXTURES)}
    specs["cross3"] = bench_inputs.cross_polytope(3, random.Random(1))
    specs["cross4"] = bench_inputs.cross_polytope(4, random.Random(1))
    specs["cell24"] = bench_inputs.cell24(random.Random(1))
    specs["cross-pyramid"] = bench_inputs.cross_pyramid(random.Random(1))
    for kind in KINDS:
        rng = random.Random(f"oracle-{kind}")
        for i in range(3):
            normals, offsets = family(rng, kind)
            specs[f"{kind}-{i}"] = {
                "dimension": len(normals[0]), "parameters": [],
                "normals": [[str(x) for x in row] for row in normals],
                "offsets": [str(x) for x in offsets]}
    return specs
