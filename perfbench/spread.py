"""Run one workload at several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload duals --seeds 1-10 [--trace] [--out FILE]

Runs `run.py` once per seed, one run after another, each in its own
process, with BENCHMARK.json's `run_seconds`.  For every metric it prints
the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median; end-to-end metrics are compared with a third of their
bound.  With --trace it runs traced instead, and first runs the first seed
twice to list the count metrics that do not repeat at the same seed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    *_, detail, result = done.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


def summarize(columns, bounds):
    rows = {}
    for name, values in columns.items():
        q1, median, q3 = quartiles(values)
        row = {"median": median, "q1": q1, "q3": q3,
               "spread": (q3 - q1) / median if median else None,
               "values": values}
        if name in bounds:
            row["bound"] = bounds[name]
            row["steady"] = row["spread"] is not None and (
                name == "setup_s" or row["spread"] < bounds[name] / 3)
        rows[name] = row
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    trace = int(args.trace)
    seeds = seed_list(args.seeds)

    report = {"workload": args.workload, "seeds": seeds, "trace": trace,
              "run_seconds": seconds}
    runs, details = [], []
    for seed in seeds:
        detail, result = run_once(args.workload, seed, seconds, trace)
        runs.append(result)
        details.append(detail)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)
        report.setdefault("env", detail["env"])
    if trace:
        _, again = run_once(args.workload, seeds[0], seconds, trace)
        units = {k: v["unit"] for k, v in again["metrics"].items()}
        report["nonrepeating_counts"] = sorted(
            k for k, unit in units.items() if unit == "count"
            and again["metrics"][k]["value"] != runs[0]["metrics"][k]["value"])
    report["all_correct"] = all(r["correct"] for r in runs)
    report["attempted"] = [r["attempted"] for r in runs]
    report["failed"] = [r["failed"] for r in runs]
    report["metrics"] = summarize(
        {k: [r["metrics"][k]["value"] for r in runs] for k in runs[0]["metrics"]},
        {} if trace else bounds)
    if not trace:   # unscaled times and machine speed, for comparison
        report["raw"] = summarize({
            "raw_wall_s": [d["raw_wall_s"]["median"] for d in details],
            "raw_slowest_op_s": [d["raw_slowest_op_s"] for d in details],
            "speed": [d["speed"] for d in details]}, {})
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    for name, row in {**report["metrics"], **report.get("raw", {})}.items():
        spread = "n/a" if row["spread"] is None else f"{row['spread']:.4f}"
        verdict = ("" if "bound" not in row else
                   f" bound {row['bound']} {'ok' if row['steady'] else 'NOT STEADY'}")
        print(f"{name:38s} median {row['median']:.6g}  spread {spread}{verdict}")
    if trace:
        print(f"non-repeating counts: {report['nonrepeating_counts'] or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
