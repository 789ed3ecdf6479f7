"""The benchmark's tracer against the package: every name it looks up exists.

perfbench/tracer.py wraps polystrat's public functions and the public
methods of Scalar and HPolytope, and reads its counters by name.  A
refactor that removes one of those names breaks the traced benchmark,
so this runs the tracer around one fixture report.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import polystrat
from polystrat import cli, linalg

ROOT = Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracer):
    """Every name the tracer may rebind, with the object it holds now."""
    holders = [polystrat] + [
        importlib.import_module(f"polystrat.{m}")
        for m in [*tracer.LAYER_MODULES, "cli"]]
    out = {(h.__name__, attr): value for h in holders
           for attr, value in vars(h).items() if inspect.isfunction(value)}
    for cls in (polystrat.Scalar, polystrat.HPolytope):
        out.update({(cls.__name__, attr): value
                    for attr, value in vars(cls).items()})
    return out


def _report(out_dir, capsys):
    assert cli.main(["fixtures", "run", "pyramid", "--out",
                     str(out_dir)]) == 0
    capsys.readouterr()
    return (out_dir / "pyramid.report.json").read_bytes()


def test_tracer_runs_a_fixture_and_restores_the_package(tmp_path, capsys):
    tracer = _load_tracer()
    plain = _report(tmp_path / "plain", capsys)
    before = _bindings(tracer)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = _report(tmp_path / "traced", capsys)
        # linalg.rank counts linalg.mat_rank, which no module of the
        # package calls: the report makes none, and one direct call shows
        report_ranks = tr.call_count("linalg.mat_rank")
        one = polystrat.ParamRegistry([]).one()
        linalg.mat_rank([[one, one]])
    finally:
        tr.uninstall()
    assert _bindings(tracer) == before
    assert traced == plain

    metrics = tracer.per_layer_metrics(tr, 1.0, 1.0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert len(metrics) == 40
    for name in ("linalg.solve", "polytope.builds", "polytope.contains",
                 "links.nodes"):
        assert metrics[name][0] > 0, name
    assert report_ranks == 0
    assert metrics["linalg.rank"][0] == 1
