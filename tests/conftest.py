"""Shared fixtures: the bundled polytopes and one benchmark input, built once
per session.

Face lattices and change-of-basis caches live on the polytope objects,
so sharing them across test modules keeps the suite fast.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from polystrat.cli import fixture_spec
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
