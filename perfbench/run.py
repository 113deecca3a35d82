"""Closed-loop benchmark of the ncgabor verification pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client runs the workload's
fixed list of operations (see workloads.py) back to back, in passes, in this
process; a new pass starts while less than `--seconds` have passed, so a
pass shorter than `--seconds` always runs at least twice.

--trace 0 reports the end-to-end metrics: median pass wall time and median
slowest operation, share of operations that passed, set-up time (median of
SETUP_SAMPLES set-ups, all but one in fresh interpreters) and peak resident
memory.  Times are scaled to a nominal machine speed (speed.py).
--trace 1 runs untraced passes for half the time, then installs the span
wrappers of spans.py and runs traced passes for the other half, and reports
the per-layer metrics: span counts and self times, worst accuracy figures
with their gates, and the tracing overhead.

The last line of standard output is the result object; the line before it
is a detail object with the environment, per-operation times, failures and
accuracy figures.  Scratch files go to `.perfbench/` in the checkout.
Workloads are meant to run one after another, each in its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import spans       # none of these imports ncgabor or numpy at module level
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
BLAS_THREADS = 1
SETUP_SAMPLES = 3

END_TO_END = {"wall_s": "s", "slowest_op_s": "s", "passed_ratio": "ratio",
              "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units():
    units = dict(spans.SPAN_METRICS)
    units["cli.exit_nonzero"] = "count"
    for name in workloads.GATES:
        units[f"acc.{name}"] = "1"
        units[f"acc.{name}.gate_share"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


@dataclass
class Record:
    """One executed operation."""

    name: str
    cli: bool
    start: float
    wall: float
    verdict: workloads.Verdict


def run_op(op, tracer=None):
    """Time one operation; a failing or raising operation is counted, not fatal."""
    span = tracer.begin("op") if tracer else None
    t0 = perf_counter()
    try:
        outcome, error = op.invoke(), None
    except (Exception, SystemExit) as exc:
        outcome, error = None, f"raised {type(exc).__name__}: {exc}"
    wall = perf_counter() - t0
    if tracer:
        tracer.end(span)
    if error is not None:
        verdict = workloads.Verdict(failure=error)
    else:
        try:
            verdict = op.judge(outcome)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            verdict = workloads.Verdict(problems=[f"unreadable outcome: {exc!r}"])
    return Record(op.name, op.cli, t0, wall, verdict)


def run_pass(ops, tracer=None, reference=None):
    """One pass; a speed.Reference is measured before and after each operation."""
    if reference:
        reference.measure()
    records = []
    for op in ops:
        records.append(run_op(op, tracer))
        if reference:
            reference.measure()
    return records


def run_passes(ops, budget, reference=None, tracer=None, on_pass=None):
    """Whole passes, starting a new one while less than `budget` s have passed."""
    passes, start = [], perf_counter()
    while True:
        passes.append(run_pass(ops, tracer, reference))
        if on_pass:
            on_pass()
        if perf_counter() - start >= budget:
            return passes


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def timed_setup(workload, seed, workdir):
    """Build the operations; set-up seconds at nominal speed; a speed.Reference."""
    t0 = perf_counter()
    ops = workloads.build(workload, seed, ROOT, workdir)
    seconds = perf_counter() - t0
    reference = speed.Reference()
    reference.measure()
    return ops, seconds * reference.factor(t0, perf_counter()), reference


def probe_setup(workload, seed, number):
    """Set-up time of a fresh interpreter running this script's set-up only."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0",
           "--setup-probe", str(number)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def git_commit():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ncgabor").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS,
            "commit": git_commit(), "source_sha256": source_digest(),
            "seed": seed}


def accuracy(passes):
    """Worst value of each accuracy figure over all operations of the run."""
    worst = {}
    for records in passes:
        for r in records:
            for k, v in r.verdict.acc.items():
                worst[k] = max(worst.get(k, 0.0), v)
    return worst


def op_medians(passes):
    times = {}
    for records in passes:
        for r in records:
            times.setdefault(r.name, []).append(r.wall)
    return {k: statistics.median(v) for k, v in times.items()}


def messages(passes):
    """Distinct failure messages and correctness problems of a run."""
    records = [r for p in passes for r in p]
    return (sorted({f"{r.name}: {r.verdict.failure}" for r in records
                    if r.verdict.failure}),
            sorted({f"{r.name}: {p}" for r in records for p in r.verdict.problems}))


def tally(passes):
    records = [r for p in passes for r in p]
    failed = sum(r.verdict.failure is not None for r in records)
    correct = not any(r.verdict.problems for r in records)
    return correct, len(records), failed


def end_to_end(passes, setup_samples, reference):
    """Times scaled to the nominal machine speed; raw ones go to the detail."""
    factors = [[reference.factor(r.start, r.start + r.wall) for r in p] for p in passes]
    scaled = [[f * r.wall for f, r in zip(fs, p)] for fs, p in zip(factors, passes)]
    walls = [sum(p) for p in scaled]
    raw = [sum(r.wall for r in p) for p in passes]
    correct, attempted, failed = tally(passes)
    values = {
        "wall_s": statistics.median(walls),
        "slowest_op_s": statistics.median(max(p) for p in scaled),
        "passed_ratio": (attempted - failed) / attempted,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, {
        "wall_s": dict(zip(("q1", "median", "q3"), quartiles(walls)), passes=len(walls)),
        "raw_wall_s": dict(zip(("q1", "median", "q3"), quartiles(raw))),
        "raw_slowest_op_s": statistics.median(max(r.wall for r in p) for p in passes),
        "speed": statistics.median(f for fs in factors for f in fs)}


def per_layer(plain, traced, traced_spans):
    """Span metrics: counts from the first traced pass, times as medians."""
    units = spans.SPAN_METRICS
    summaries = [spans.summarize(s) for s in traced_spans]
    values = {k: (summaries[0][k] if units[k] == "count"
                  else statistics.median(s[k] for s in summaries)) for k in units}
    nonrepeating = sorted(k for k in units if units[k] == "count"
                          and any(s[k] != summaries[0][k] for s in summaries))
    values["cli.exit_nonzero"] = sum(r.cli and r.verdict.failure is not None
                                     for r in traced[0])
    worst = accuracy(plain + traced)
    for name, gate in workloads.GATES.items():
        values[f"acc.{name}"] = worst.get(name, 0.0)
        values[f"acc.{name}.gate_share"] = worst.get(name, 0.0) / gate
    values["trace.overhead_s"] = (
        statistics.median(sum(r.wall for r in p) for p in traced)
        - statistics.median(sum(r.wall for r in p) for p in plain))
    return values, nonrepeating


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be a non-negative integer")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=int, default=0,
                        help=argparse.SUPPRESS)  # internal: time set-up only
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)   # before numpy is imported
    missing = [p for p in (ROOT / "src" / "ncgabor" / "__init__.py",
                           ROOT / "configs" / "moyal_corpus.cfg") if not p.is_file()]
    if missing:
        print(f"perfbench: not a source checkout, missing {missing[0]}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = WORK / args.workload

    if args.setup_probe:
        _, seconds, _ = timed_setup(args.workload, args.seed,
                                    workdir / f"probe{args.setup_probe}")
        print(repr(seconds))
        return 0

    ops, first, reference = timed_setup(args.workload, args.seed, workdir / "main")
    import ncgabor
    if Path(ncgabor.__file__).resolve().parent != ROOT / "src" / "ncgabor":
        print(f"perfbench: imported {ncgabor.__file__}, not this checkout's copy",
              file=sys.stderr)
        return 2
    setup = [first] + [probe_setup(args.workload, args.seed, i)
                       for i in range(1, SETUP_SAMPLES)]

    detail = {"workload": args.workload, "trace": args.trace,
              "env": environment(args.seed), "setup_samples_s": setup}
    if not args.trace:
        passes = run_passes(ops, args.seconds, reference)
        values, extra = end_to_end(passes, setup, reference)
        units, everything, untraced = END_TO_END, passes, passes
        detail.update(extra)
    else:
        plain = run_passes(ops, args.seconds / 2)
        tracer, traced_spans = spans.Tracer(), []

        def keep_spans():
            traced_spans.append(tracer.spans)
            tracer.reset()

        with spans.instrument(tracer):
            traced = run_passes(ops, args.seconds / 2, None, tracer, keep_spans)
        values, nonrepeating = per_layer(plain, traced, traced_spans)
        units, everything, untraced = per_layer_units(), plain + traced, plain
        span_file = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans.write(span_file, traced_spans)
        detail.update(traced_passes=len(traced), untraced_passes=len(plain),
                      nonrepeating_counters=nonrepeating,
                      spans_file=str(span_file.relative_to(ROOT)))

    correct, attempted, failed = tally(everything)
    failures, problems = messages(everything)
    detail.update(passes=len(everything), op_median_s=op_medians(untraced),
                  failures=failures, problems=problems,
                  accuracy={k: {"worst": v, "gate": workloads.GATES[k]}
                            for k, v in accuracy(everything).items()})
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": units[k]}
                                  for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
