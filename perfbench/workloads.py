"""The four workloads: which CLI calls each makes, and how each output is checked.

A builder takes the seed and a directory for generated specs and returns
the list of calls one pass makes.  Each call verifies its own outcome;
an empty error list means the invocation succeeded.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "src" / "polystrat" / "fixtures"
GOLDEN_DIR = ROOT / "tests" / "golden"
GOLDEN = ("pyramid", "tent", "cube3")
VERIFY_SAMPLES = 600
VERIFY_FIXTURES = ("pyramid", "cube3", "simplex3")


def exact_text(report_text: str) -> str:
    """The report without its "verification" block, rendered as the goldens are."""
    report = json.loads(report_text)
    report.pop("verification", None)
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def common_errors(outcome) -> list[str]:
    """Exit code, tracebacks and diagnostics; the b_j UserWarning is allowed."""
    errors = []
    if outcome.returncode != 0:
        errors.append(f"exit code {outcome.returncode}")
    if "Traceback" in outcome.stderr:
        errors.append("traceback on stderr")
    for line in outcome.stderr.splitlines():
        if line.startswith("{"):
            errors.append(f"diagnostic {line.strip()}")
    return errors


def read_reports(out_dir: Path, names, errors: list[str]) -> dict:
    texts = {}
    for name in names:
        path = out_dir / name
        try:
            text = path.read_text()
            report = json.loads(text)
        except (OSError, ValueError) as e:
            errors.append(f"{name}: unreadable report ({e})")
            continue
        block = report.get("verification")
        if block is not None and block.get("pass") is not True:
            errors.append(f"{name}: verification block does not pass")
        texts[name] = text
    return texts


@dataclass
class Call:
    """One CLI invocation; ``out`` in ARGV is replaced by the pass's directory."""
    label: str
    argv: list[str]
    reports: list[str]
    check: Callable[[dict, dict, object], list[str]] | None = None

    def args(self, out_dir: Path) -> list[str]:
        return [str(out_dir / a[len("out/"):]) if a.startswith("out/")
                else str(out_dir) if a == "out" else a for a in self.argv]

    def verify(self, outcome, out_dir: Path):
        errors = common_errors(outcome)
        texts = read_reports(out_dir, self.reports, errors)
        if self.check is not None and len(texts) == len(self.reports):
            reports = {n: json.loads(t) for n, t in texts.items()}
            try:
                errors.extend(self.check(reports, texts, outcome))
            except (AttributeError, KeyError, TypeError) as e:
                errors.append(f"malformed report: {e!r}")
        return errors, texts


def fixture_names() -> list[str]:
    return sorted(p.stem for p in FIXTURE_DIR.glob("*.json"))


def check_fixture_list(outcome) -> list[str]:
    errors = common_errors(outcome)
    listed = [line.split("\t")[0] for line in outcome.stdout.splitlines()]
    if listed != fixture_names():
        errors.append(f"fixtures list printed {listed}")
    return errors


# -- fixtures ------------------------------------------------------------

def fixtures(seed: int, _input_dir: Path) -> list[Call]:
    names = fixture_names()

    def check(reports, texts, outcome):
        errors = []
        if outcome.stdout.splitlines() != [f"{n}\tpass" for n in names]:
            errors.append(f"status lines {outcome.stdout.splitlines()}")
        for name in GOLDEN:
            text = texts[f"{name}.report.json"]
            want = (GOLDEN_DIR / f"{name}.json").read_text()
            if exact_text(text) != want:
                errors.append(f"{name}: exact sections differ from "
                              f"tests/golden/{name}.json")
        for name in names:
            block = reports[f"{name}.report.json"].get("verification")
            if block is None or block.get("seed") != seed:
                errors.append(f"{name}: no verification block for seed {seed}")
        return errors

    return [Call("fixtures run", ["fixtures", "run", "--out", "out",
                                  "--seed", str(seed)],
                 [f"{n}.report.json" for n in names], check)]


# -- generated inputs --------------------------------------------------------

def _fresh(input_dir: Path) -> Path:
    shutil.rmtree(input_dir, ignore_errors=True)
    input_dir.mkdir(parents=True)
    return input_dir


def _analyze(spec: Path, section: str, check, extra=()) -> Call:
    report = f"{spec.stem}.{section}.json"
    return Call(f"analyze {spec.name} --only {section}",
                ["analyze", str(spec), "--only", section, *extra,
                 "--out", f"out/{report}"], [report], check)


def exact_scale(seed: int, input_dir: Path) -> list[Call]:
    d = _fresh(input_dir)
    x3 = inputs.write_spec(inputs.cross_polytope(3, random.Random(seed)),
                           d / "cross3.json")
    x4 = inputs.write_spec(inputs.cross_polytope(4, random.Random(seed + 1)),
                           d / "cross4.json")

    def charts(n):
        def check(reports, _texts, _outcome):
            charts = next(iter(reports.values())).get("charts", [])
            want = inputs.cross_admissible_count(n)
            errors = [] if len(charts) == want else [
                f"{len(charts)} charts, expected {want} admissible sets"]
            vertex_sets = {tuple(c["vertex_index_set"]) for c in charts}
            if sorted(map(len, vertex_sets)) != [2 ** (n - 1)] * (2 * n):
                errors.append("chart vertices do not match the "
                              "cross-polytope's vertex active sets")
            return errors
        return check

    def groups(n):
        def check(reports, _texts, _outcome):
            rep = next(iter(reports.values()))
            faces = rep.get("groups", {}).get("per_singular_face", [])
            # a singular k-face lies on 2^(n-k-1) facets
            want = sorted(2 ** (n - k - 1)
                          for k, f in enumerate(inputs.cross_f_vector(n))
                          for _ in range(f) if 2 ** (n - k - 1) > n - k)
            got = sorted(len(f["face"]) for f in faces)
            return [] if got == want else [
                f"singular faces by facet count {got}, expected {want}"]
        return check

    return [_analyze(x3, "charts", charts(3)),
            _analyze(x4, "groups", groups(4))]


def _faces_check(f_vector, singular):
    def check(reports, _texts, _outcome):
        poly = next(iter(reports.values())).get("polytope", {})
        errors = []
        fv = poly.get("f_vector")
        if fv != f_vector:
            errors.append(f"f-vector {fv}, expected {f_vector}")
        n = poly.get("dimension")
        if sum((-1) ** k * f for k, f in enumerate(fv or [])) != 1 - (-1) ** n:
            errors.append(f"f-vector {fv} breaks Euler's relation")
        count = sum(f["singular"] for f in poly.get("faces", []))
        if count != singular:
            errors.append(f"{count} singular faces, expected {singular}")
        return errors
    return check


def lattice(seed: int, input_dir: Path) -> list[Call]:
    d = _fresh(input_dir)
    c24 = inputs.write_spec(inputs.cell24(random.Random(seed)),
                            d / "cell24.json")
    pyr = inputs.write_spec(inputs.cross_pyramid(random.Random(seed + 1)),
                            d / "cross_pyramid.json")
    return [
        _analyze(c24, "faces", _faces_check(inputs.CELL24_F_VECTOR,
                                            inputs.CELL24_SINGULAR)),
        _analyze(pyr, "faces", _faces_check(
            inputs.cross_pyramid_f_vector(4),
            inputs.cross_pyramid_singular_count(4))),
    ]


def verify_dense(seed: int, input_dir: Path) -> list[Call]:
    d = _fresh(input_dir)

    def check(reports, _texts, _outcome):
        block = next(iter(reports.values())).get("verification") or {}
        if block.get("samples") != VERIFY_SAMPLES or block.get("seed") != seed:
            return [f"verification ran {block.get('samples')} samples with "
                    f"seed {block.get('seed')}"]
        return []

    calls = []
    for name in VERIFY_FIXTURES:
        spec = json.loads((FIXTURE_DIR / f"{name}.json").read_text())
        spec["options"]["samples"] = VERIFY_SAMPLES
        path = inputs.write_spec(spec, d / f"{name}.json")
        calls.append(_analyze(path, "verify", check,
                              extra=("--seed", str(seed))))
    return calls


WORKLOADS = {
    "fixtures": fixtures,
    "exact-scale": exact_scale,
    "verify-dense": verify_dense,
    "lattice": lattice,
}
