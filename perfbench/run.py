"""End-to-end benchmark for polystrat, driven through its command line.

Run from the repository root, one workload at a time:

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 24 --trace 0

or every workload in turn:

    for w in fixtures exact-scale verify-dense lattice; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 24 --trace 0
    done

Workloads (the seed feeds every generated input; see BENCHMARK.json for
why each was chosen):

  fixtures      fixtures run --out DIR --seed S over the six bundled fixtures
  exact-scale   analyze --only charts on the 3-cross-polytope and
                analyze --only groups on the 4-cross-polytope, both with p1
  verify-dense  analyze --only verify --seed S on pyramid, cube3 and
                simplex3 with options.samples raised
  lattice       analyze --only faces on the 24-cell and on the pyramid
                over the 4-cross-polytope

With --trace 0 the workload runs as child processes, one at a time, in
passes until --seconds have gone by; each pass's wall time is the sum
of its children's wall times.  It prints, with quartiles and sample
counts: report_s (median pass wall time), report_rel (median of pass
time over the bracketing reference-task time, see reference.py),
setup_s (median of `fixtures list`), peak_rss_mb (largest child) and
failed_ratio.  The last line is the JSON result, whose metrics are
report_rel, setup_s and peak_rss_mb; attempted and failed carry
failed_ratio.

With --trace 1 it runs the calls in-process through
polystrat.cli.main, once untraced and once with the tracer in tracer.py
installed, checks that both wrote identical reports, and prints the
per-layer metrics.  Spans go to .perfbench/spans-<workload>-<seed>.tsv.gz.

Every output is checked (exit code, tracebacks, verification blocks,
goldens, closed-form face counts, repeatability); a failed check counts
toward failed_ratio and makes "correct" false.  Working files and a
JSON record of each run go under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import workloads
from reference import reference_s
from tracer import Tracer, per_layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Pinned for the benchmark process and every child: numpy's BLAS uses
# one thread (charts calls np.linalg.solve) and set/dict order is fixed,
# so traced counts repeat exactly.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
CHILD_TIMEOUT_S = 150
SETUP_RUNS = 9

END_TO_END = (("report_rel", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


# -- running the program ---------------------------------------------------

@dataclass
class Outcome:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float = 0.0


def run_child(args: list[str], log_dir: Path) -> Outcome:
    """python -m polystrat.cli ARGS from the checkout root; waits for it."""
    env = dict(os.environ, PYTHONPATH="src", **PINNED_ENV)
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "polystrat.cli", *args], cwd=ROOT,
            env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, out_path.read_text(),
                   err_path.read_text(), wall, usage.ru_maxrss / 1024)


def run_in_process(cli, args: list[str]) -> Outcome:
    """polystrat.cli.main(ARGS) in this process, output captured."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
    except Exception:  # a crash is a failed invocation, recorded with its traceback
        code = 1
        err.write(traceback.format_exc())
    return Outcome(code, out.getvalue(), err.getvalue(),
                   time.perf_counter() - t0)


class Tally:
    """Attempted and failed invocations, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, label: str, errors: list[str]):
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"{label}: {e}" for e in errors[:5])


def run_pass(calls, out_dir: Path, tally: Tally, runner, seen: dict,
             reference: Path | None = None):
    """Run every call once into a fresh OUT_DIR; returns the outcomes.

    SEEN maps each report to its exact sections from an earlier pass with
    the same seed; REFERENCE is a directory whose reports must match
    these byte for byte.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    outcomes = []
    for call in calls:
        outcome = runner(call.args(out_dir))
        errors, texts = call.verify(outcome, out_dir)
        for name, text in texts.items():
            exact = workloads.exact_text(text)
            if seen.setdefault((call.label, name), exact) != exact:
                errors.append(f"{name}: exact sections differ between "
                              "runs with the same seed")
            if reference is not None:
                ref = reference / name
                if not ref.is_file() or ref.read_text() != text:
                    errors.append(f"{name}: differs from the untraced "
                                  "report")
        tally.record(call.label, errors)
        outcomes.append(outcome)
    return outcomes


def measure_setup(tally: Tally, log_dir: Path) -> list[float]:
    times = []
    for _ in range(SETUP_RUNS):
        outcome = run_child(["fixtures", "list"], log_dir)
        tally.record("fixtures list", workloads.check_fixture_list(outcome))
        times.append(outcome.wall_s)
    return times


# -- statistics and reporting ----------------------------------------------

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def bounds() -> dict:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    loc = sum(len(p.read_text().splitlines())
              for p in sorted(SRC.rglob("*.py")))
    return {"commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "src_loc": loc}


def emit(args, tally: Tally, metrics: dict, record: dict):
    """Write the run record, print the summary and the result line."""
    record.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  attempted=tally.attempted, failed=tally.failed,
                  errors=tally.errors, environment=environment())
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    env = record["environment"]
    print(f"# commit {env['commit']}  python {env['python']}  numpy "
          f"{env['numpy']}  nproc {env['nproc']}  src_loc {env['src_loc']}")
    for err in tally.errors:
        print(f"# FAILED {err}")
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


# -- the two kinds of run ----------------------------------------------------

def untraced(args, calls, tally: Tally):
    """End-to-end metrics from passes of child processes.

    The host's speed drifts by tens of percent over minutes (other tenants
    share the CPU), so each pass is also timed against the reference task
    run just before and just after it: report_rel is the median of
    pass time / mean bracketing reference time, which cancels the drift
    that both share.  report_s, the plain wall time, is recorded beside it.
    """
    setup = measure_setup(tally, WORK / "logs")
    passes, rel, refs, rss, seen = [], [], [reference_s()], [], {}
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        outcomes = run_pass(calls, WORK / "out", tally, _child_runner, seen)
        refs.append(reference_s())
        passes.append(sum(o.wall_s for o in outcomes))
        rel.append(passes[-1] / ((refs[-2] + refs[-1]) / 2))
        rss.extend(o.rss_mb for o in outcomes)
    failed_ratio = tally.failed / tally.attempted
    limits = bounds()
    print(f"# workload {args.workload}  seed {args.seed}  "
          f"{len(calls)} calls per pass, one child at a time")
    stats = {}
    for name, unit, values in (("report_rel", "ratio", rel),
                               ("report_s", "s", passes),
                               ("setup_s", "s", setup),
                               ("peak_rss_mb", "MB", [max(rss)]),
                               ("reference_s", "s", refs)):
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med
        stats[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                       "spread": spread, "samples": values}
        print(f"# {name:12s} median {med:10.4f} {unit:5s} q1 {q1:.4f} "
              f"q3 {q3:.4f} n={len(values)}  spread {spread:.3f} "
              f"(bound {limits.get(name, '-')})")
    print(f"# failed_ratio {failed_ratio:.4f} ratio "
          f"({tally.failed}/{tally.attempted} invocations)")
    metrics = {name: (stats[name]["median"], unit)
               for name, unit in END_TO_END}
    emit(args, tally, metrics, {"stats": stats,
                                "failed_ratio": failed_ratio})


def traced(args, calls, tally: Tally):
    """Per-layer metrics from an in-process pass with the tracer installed.

    An untraced in-process pass of the same calls comes first, so the
    overhead ratio compares like with like (neither pays interpreter
    start-up) and the two passes' reports can be compared byte for byte.
    """
    sys.path.insert(0, str(SRC))
    import polystrat.cli as cli

    tracer = Tracer()

    def runner(call_args):
        tracer.current_label = " ".join(call_args)
        return run_in_process(cli, call_args)

    seen = {}
    base = run_pass(calls, WORK / "out", tally, runner, seen)
    untraced_s = sum(o.wall_s for o in base)
    tracer.install()
    try:
        outcomes = run_pass(calls, WORK / "out-traced", tally, runner, seen,
                            reference=WORK / "out")
    finally:
        tracer.uninstall()
    traced_s = sum(o.wall_s for o in outcomes)
    metrics = per_layer_metrics(tracer, traced_s, untraced_s)
    spans = WORK / f"spans-{args.workload}-{args.seed}.tsv.gz"
    tracer.write_spans(spans)
    print(f"# workload {args.workload}  seed {args.seed}  traced "
          f"{traced_s:.3f} s, untraced {untraced_s:.3f} s (both in-process), "
          f"{len(tracer.sp_name)} spans in {spans.relative_to(ROOT)}")
    _, self_s = tracer.layer_totals()
    total = sum(self_s.values()) or 1.0
    print("# self time share: " + "  ".join(
        f"{layer} {100 * s / total:.1f}%" for layer, s in
        sorted(self_s.items(), key=lambda kv: -kv[1])))
    emit(args, tally, metrics, {"untraced_s": untraced_s,
                                "traced_s": traced_s,
                                "by_name": tracer.by_name()})


def _child_runner(call_args):
    return run_child(call_args, WORK / "logs")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        # restart with the pinned environment before numpy can load
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()),
                   *sys.argv[1:]],
                  dict(os.environ, **PINNED_ENV))

    if not (SRC / "polystrat" / "cli.py").is_file():
        print(f"error: no polystrat sources under {SRC}", file=sys.stderr)
        return 2

    shutil.rmtree(WORK / "out", ignore_errors=True)
    (WORK / "logs").mkdir(parents=True, exist_ok=True)
    tally = Tally()
    calls = workloads.WORKLOADS[args.workload](args.seed, WORK / "inputs")
    # warm-up: byte-compile the package once, as an installed copy would be
    tally.record("fixtures list",
                 workloads.check_fixture_list(
                     run_child(["fixtures", "list"], WORK / "logs")))
    if args.trace:
        traced(args, calls, tally)
    else:
        untraced(args, calls, tally)
    return 0


if __name__ == "__main__":
    sys.exit(main())
