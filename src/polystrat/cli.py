"""Command-line entry points.

    polystrat analyze <spec.json> [--only SECTION] [--out FILE]
                                  [--seed N] [--dot FILE]
    polystrat fixtures list
    polystrat fixtures run [NAME ...] [--out DIR] [--seed N]

Exit codes: 0 success, 2 spec parse error or unwritable output,
3 validation error, 4 verification or cross-check failure.
Diagnostics go to stderr as one JSON object per line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import ALL_SECTIONS

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_VERIFY = 4

FIXTURES = {
    "pyramid": "3-dim pyramid over a square, two parameters, singular apex",
    "tent": "4-dim tent, three parameters, all vertices singular",
    "pyramid_unit": "pyramid with every parameter set to 1",
    "tent_unit": "tent with every parameter set to 1",
    "cube3": "unit cube, simple, no singular faces",
    "simplex3": "standard 3-simplex, simple",
}


def _diag(kind: str, detail: str):
    sys.stderr.write(json.dumps({"error": kind, "detail": detail},
                                sort_keys=True) + "\n")


def _load_spec_file(path: str) -> dict:
    from .report import SpecError
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise SpecError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise SpecError(f"{path} is not UTF-8 text: {e}") from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecError(f"invalid JSON in {path}: {e}") from e
    except RecursionError as e:
        raise SpecError(f"JSON in {path} is nested too deeply") from e


def fixture_spec(name: str) -> dict:
    from importlib import resources
    from .report import SpecError
    if name not in FIXTURES:
        raise SpecError(f"unknown fixture {name!r}; try 'fixtures list'")
    ref = resources.files("polystrat") / "fixtures" / f"{name}.json"
    return json.loads(ref.read_text())


def _analyze(data: dict, only: str | None, seed: int | None,
             out: str | None, dot: str | None, quiet: bool = False) -> int:
    from .polytope import ValidationError
    from .report import SpecError, build_report, dot_export, parse_spec, \
        render_report
    try:
        p, q, options = parse_spec(data)
    except SpecError as e:
        _diag("parse", str(e))
        return EXIT_PARSE
    except ValidationError as e:
        _diag("validation", str(e))
        return EXIT_VALIDATION
    sections = ALL_SECTIONS if only is None else (only,)
    try:
        report, ok = build_report(p, q, options, sections=sections,
                                  seed=seed)
        dot_text = dot_export(p, options) if dot else None
    except ValidationError as e:
        _diag("validation", str(e))
        return EXIT_VALIDATION
    except RuntimeError as e:
        # cross-check failures (link vertices, recursion bound, float blocks)
        _diag("verification", str(e))
        return EXIT_VERIFY
    text = render_report(report)
    try:
        # the DOT file first: when its write fails, no report is emitted
        if dot:
            Path(dot).write_text(dot_text)
        if out:
            Path(out).write_text(text)
        elif not quiet:
            sys.stdout.write(text)
    except OSError as e:
        _diag("io", str(e))
        return EXIT_PARSE
    if not ok:
        _diag("verification", "residuals exceed tolerance")
        return EXIT_VERIFY
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polystrat",
        description="Stratification reports for convex polytopes")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a spec file")
    pa.add_argument("spec")
    pa.add_argument("--only", choices=ALL_SECTIONS)
    pa.add_argument("--out")
    pa.add_argument("--seed", type=int)
    pa.add_argument("--dot")

    pf = sub.add_parser("fixtures", help="list or run bundled fixtures")
    fsub = pf.add_subparsers(dest="fixtures_command", required=True)
    fsub.add_parser("list", help="list fixture names")
    pr = fsub.add_parser("run", help="run fixtures end to end")
    pr.add_argument("names", nargs="*")
    pr.add_argument("--out", help="directory for per-fixture reports")
    pr.add_argument("--seed", type=int)

    args = parser.parse_args(argv)

    if args.command == "fixtures" and args.fixtures_command == "list":
        for name in sorted(FIXTURES):
            sys.stdout.write(f"{name}\t{FIXTURES[name]}\n")
        return 0

    from .report import SpecError
    if args.command == "analyze":
        try:
            data = _load_spec_file(args.spec)
        except SpecError as e:
            _diag("parse", str(e))
            return EXIT_PARSE
        return _analyze(data, args.only, args.seed, args.out, args.dot)

    if args.command == "fixtures":
        names = args.names or sorted(FIXTURES)
        if args.out:
            try:
                Path(args.out).mkdir(parents=True, exist_ok=True)
            except OSError as e:
                _diag("io", str(e))
                return EXIT_PARSE
        worst = 0
        for name in names:
            try:
                data = fixture_spec(name)
            except SpecError as e:
                _diag("parse", str(e))
                return EXIT_PARSE
            out = (str(Path(args.out) / f"{name}.report.json") if args.out
                   else None)
            quiet = out is None and len(names) > 1
            code = _analyze(data, None, args.seed, out, None, quiet=quiet)
            status = "pass" if code == 0 else f"fail ({code})"
            if out or len(names) > 1:
                sys.stdout.write(f"{name}\t{status}\n")
            worst = max(worst, code)
        return worst
    return 0


if __name__ == "__main__":
    sys.exit(main())
