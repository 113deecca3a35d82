"""Smoke checks of the benchmark harness.

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run        # noqa: E402
import spans      # noqa: E402
import speed      # noqa: E402
import workloads  # noqa: E402


def _axioms(tmp_path, q_flags, seed):
    return workloads._cli_op(f"check-axioms {q_flags}", ["check-axioms", *q_flags,
                             "--seed", seed], tmp_path / "report.json",
                             workloads._axiom_figures)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metric_names_match_benchmark_json(trace, key):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "axioms",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6


def test_failing_operation_is_counted_not_fatal(tmp_path):
    def boom():
        raise RuntimeError("boom")

    ops = [
        workloads.Op("raises", boom, lambda outcome: workloads.Verdict()),
        _axioms(tmp_path, ["--q", "3"], 1),         # slopes missing: exit 2
        _axioms(tmp_path, ["--bogus-flag"], 1),     # argparse exits
        _axioms(tmp_path, ["--q", "1"], 5),
    ]
    records = run.run_pass(ops)
    assert [r.verdict.failure is not None for r in records] == [True, True, True, False]
    assert "exit 2" in records[1].verdict.failure
    assert "SystemExit" in records[2].verdict.failure
    assert records[3].verdict.acc["axiom_residual"] < workloads.GATES["axiom_residual"]
    assert run.tally([records]) == (True, 4, 3)


def test_times_are_scaled_by_the_reference_near_each_operation(tmp_path):
    reference = speed.Reference()
    ops = [_axioms(tmp_path, ["--q", "1"], 6), _axioms(tmp_path, ["--q", "1"], 7)]
    records = run.run_pass(ops, reference=reference)
    assert len(reference.samples) == len(ops) + 1
    # a machine at half the nominal speed for the first operation only
    first = records[0].start + records[0].wall
    reference.samples = [(first - speed.WINDOW_S, 2 * speed.NOMINAL_S),
                         (first + speed.WINDOW_S + 1e-3, speed.NOMINAL_S)]
    values, detail = run.end_to_end([records], [0.1], reference)
    walls = [r.wall for r in records]
    assert values["wall_s"] == pytest.approx(walls[0] / 2 + walls[1])
    assert detail["raw_wall_s"]["median"] == pytest.approx(sum(walls))


def test_self_times_and_children_add_up_to_durations(tmp_path):
    import ncgabor.cli
    import ncgabor.frame

    dual = workloads._cli_op("dual q=1", ["dual", "--q", "1", "--seed", "2"],
                             tmp_path / "report.json", workloads._dual_figures)
    ops = [_axioms(tmp_path, ["--q", "1"], 4), dual]
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert ncgabor.frame.inner_left.__wrapped__ is ncgabor.algebra.inner_left.__wrapped__
        records = run.run_pass(ops, tracer)
    assert not hasattr(ncgabor.cli.canonical_dual, "__wrapped__")
    assert all(r.verdict.failure is None for r in records)

    recorded = tracer.spans
    durations = [end - start for _, start, end, _, _ in recorded]
    children = [0.0] * len(recorded)
    for _, start, end, parent, _ in recorded:
        if parent is not None:
            children[parent] += end - start
    for own, covered, whole in zip(spans.self_times(recorded), children, durations):
        assert own + covered == pytest.approx(whole, abs=1e-12)
        assert own > -1e-9

    roots = [i for i, s in enumerate(recorded) if s[3] is None]
    assert [recorded[i][0] for i in roots] == ["op", "op"]
    m = spans.summarize(recorded)
    layer_self = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) + m["cli.self_s"]
    assert layer_self == pytest.approx(sum(durations[i] for i in roots), rel=1e-9)
    assert m["algebra.twisted_conv.calls"] > 0 and m["frame.dual.cg_iters"] > 0
    assert m["frame.apply.calls"] == m["frame.dual.cg_iters"]
