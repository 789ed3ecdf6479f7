"""Command-line entry points.

    polystrat analyze <spec.json> [--only SECTION] [--out FILE]
                                  [--seed N] [--dot FILE]
    polystrat fixtures list
    polystrat fixtures run [NAME ...] [--out DIR] [--seed N]

``fixtures run`` runs its fixtures in forked workers, one per CPU the
process may use, and prints their output and writes their reports in
the order named, as one process running them in turn would.

Exit codes: 0 success, 1 an uncaught exception (with its traceback),
2 spec parse error or unwritable output, 3 validation error,
4 verification or cross-check failure.
Diagnostics go to stderr as one JSON object per line.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import stat
import sys
from pathlib import Path

from . import ALL_SECTIONS

EXIT_CRASH = 1  # an uncaught exception, as the interpreter exits on one
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


def _write_atomic(path: str, text: str):
    """Write TEXT to PATH as ``open(PATH, "w")`` would, but never leave
    PATH truncated: when ``_replacement`` gives a new file beside PATH,
    TEXT goes there and the file is renamed onto PATH on success and
    removed on failure; otherwise PATH is written through.  An OSError
    names PATH, not the new file.  In a fixtures worker it first waits
    for the fixture's turn."""
    if _turns:
        _turns.wait()
    try:
        f = _replacement(path)
        if f is None:
            with open(path, "w") as out:
                out.write(text)
            return
        try:
            with f:
                f.write(text)
            os.replace(f.name, path)
        except BaseException:
            os.unlink(f.name)
            raise
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from e


def _replacement(path: str):
    """A new empty file beside PATH, open for writing, that can be
    renamed onto PATH without changing anything about PATH but its
    contents: PATH is missing, or a regular file with one link and the
    new file's owner and group, whose permission bits the new file
    takes.  None when PATH is anything else (a symlink, a directory, a
    device or FIFO, a file with more links or other owners)."""
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not (stat.S_ISREG(st.st_mode)
                               and st.st_nlink == 1):
        return None
    # "x", not mkstemp: a new report keeps the umask's permissions; the
    # random part keeps a file left by a killed process from blocking
    f = open(f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp", "x")
    keep = False
    try:
        new = os.fstat(f.fileno())
        if st is None or (new.st_uid, new.st_gid) == (st.st_uid, st.st_gid):
            if st is not None:
                os.chmod(f.name, stat.S_IMODE(st.st_mode))
            keep = True
    finally:
        if not keep:
            f.close()
            os.unlink(f.name)
    return f if keep else None


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
            _write_atomic(dot, dot_text)
        if out:
            _write_atomic(out, text)
        elif not quiet:
            sys.stdout.write(text)
    except OSError as e:
        _diag("io", str(e))
        return EXIT_PARSE
    if not ok:
        _diag("verification", "residuals exceed tolerance")
        return EXIT_VERIFY
    return 0


def _run_fixture(name: str, out_dir: str | None, seed: int | None,
                 many: bool) -> int:
    """One bundled fixture end to end, with its status line when the
    report goes to a file or other fixtures share the run."""
    out = str(Path(out_dir) / f"{name}.report.json") if out_dir else None
    code = _analyze(fixture_spec(name), None, seed, out, None,
                    quiet=out is None and many)
    if out or many:
        status = "pass" if code == 0 else f"fail ({code})"
        sys.stdout.write(f"{name}\t{status}\n")
    return code


def _run_caught(name: str, out_dir: str | None, seed: int | None,
                many: bool) -> int:
    """_run_fixture, with an exception that escapes it printed as the
    interpreter prints an uncaught one and turned into EXIT_CRASH."""
    try:
        return _run_fixture(name, out_dir, seed, many)
    except Exception:
        import traceback
        traceback.print_exc()
        return EXIT_CRASH


def _worst(codes) -> int:
    """The worst of the exit codes CODES, taken up to the first
    EXIT_CRASH, which ends the run as an uncaught exception would."""
    worst = 0
    for code in codes:
        if code == EXIT_CRASH:
            return code
        worst = max(worst, code)
    return worst


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _run_all(names: list[str], out_dir: str | None, seed: int | None,
             many: bool) -> int:
    """Each of NAMES run as ``_run_fixture`` runs it; the worst exit code.

    Names are dealt round-robin in sorted order (so ``tent`` and
    ``tent_unit`` go to different workers) to one forked worker per
    usable CPU.  Each worker sends back every fixture's exit code,
    stdout and stderr as one JSON line, and they are written out here in
    NAMES order; a worker writes a fixture's report only once every
    fixture named before it is out (see ``_Turns``).  So the output, the
    reports and the exit code are byte for byte the serial loop's, also
    when a fixture raises: its traceback ends the run with EXIT_CRASH,
    and no fixture named after it writes its report.  Every worker is
    stopped and reaped, and a new file it leaves in OUT_DIR removed,
    before this returns or raises.
    """
    k = min(len(names), _usable_cpus())
    if k <= 1 or not hasattr(os, "fork"):
        return _worst(_run_caught(name, out_dir, seed, many)
                      for name in names)
    import signal
    owner = [0] * len(names)
    for pos, i in enumerate(sorted(range(len(names)),
                                   key=names.__getitem__)):
        owner[i] = pos % k
    sys.stdout.flush()
    sys.stderr.flush()
    pids, results, turns = [], [], []
    try:
        for j in range(k):
            r, w = os.pipe()
            turn_r, turn_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                # keep only this worker's own ends, so that it meets EOF
                # or EPIPE as soon as the parent is gone
                for fd in (r, turn_w, *turns, *(f.fileno() for f in results)):
                    os.close(fd)
                _worker([n for n, o in zip(names, owner) if o == j],
                        out_dir, seed, many, w, turn_r)
            pids.append(pid)
            os.close(w)
            os.close(turn_r)
            results.append(os.fdopen(r))
            turns.append(turn_w)
        return _worst(_replay(names, owner, results, turns))
    finally:
        for f in results:
            f.close()
        for fd in turns:
            os.close(fd)
        # every result has been read or is no longer wanted
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            if out_dir:
                for tmp in Path(out_dir).glob(f"*.{pid}.*.tmp"):
                    tmp.unlink(missing_ok=True)


def _replay(names: list[str], owner: list[int], results: list, turns: list):
    """The exit code of each of NAMES in turn, after its captured stdout
    and stderr are written out.  Before reading a fixture's result it
    gives the fixture's worker its turn to write."""
    for name, j in zip(names, owner):
        try:
            os.write(turns[j], b".")
        except BrokenPipeError:  # the worker needs no more turns and is done
            pass
        line = results[j].readline()
        if not line:
            raise RuntimeError(f"the worker running fixture {name!r} "
                               "ended without a result")
        code, out, err = json.loads(line)
        sys.stdout.write(out)
        sys.stderr.write(err)
        yield code


class _Turns:
    """A fixtures worker's go-ahead to write.  The parent sends one byte
    on the pipe FD per fixture once every fixture named before it is
    written out; the worker owes one byte per fixture it has started,
    and waits for all of them before it writes a report."""

    def __init__(self, fd: int):
        self.fd = fd
        self.owed = 0

    def wait(self):
        while self.owed:
            got = os.read(self.fd, self.owed)
            if not got:  # the parent has stopped, or is gone
                raise SystemExit
            self.owed -= len(got)


_turns: _Turns | None = None  # set in a fixtures worker only


def _worker(names: list[str], out_dir: str | None, seed: int | None,
            many: bool, results: int, turns: int):
    """The body of a forked worker: each of NAMES run with stdout and
    stderr captured, one JSON line [code, stdout, stderr] per fixture on
    the pipe RESULTS, reports written on the turns from the pipe TURNS.
    It stops after a fixture that raises, and at the next turn or result
    once the parent is gone.  It never returns: it must not unwind into
    the parent's stack."""
    global _turns
    _turns = _Turns(turns)
    try:
        with os.fdopen(results, "w") as pipe:
            for name in names:
                _turns.owed += 1
                sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
                code = _run_caught(name, out_dir, seed, many)
                pipe.write(json.dumps([code, sys.stdout.getvalue(),
                                       sys.stderr.getvalue()]) + "\n")
                pipe.flush()
                if code == EXIT_CRASH:
                    break
    finally:
        os._exit(0)


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
        known = list(itertools.takewhile(FIXTURES.__contains__, names))
        many = len(names) > 1
        worst = _run_all(known, args.out, args.seed, many)
        if worst == EXIT_CRASH or len(known) == len(names):
            return worst
        try:
            fixture_spec(names[len(known)])
        except SpecError as e:
            _diag("parse", str(e))
        return EXIT_PARSE
    return 0


if __name__ == "__main__":
    sys.exit(main())
