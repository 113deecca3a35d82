"""The benchmark's span targets still name functions of the package.

perfbench/spans.py patches each TARGETS entry by name when run with
`--trace 1`; a deleted or renamed function would break that run, so every
entry is resolved here.  Its counters read positional arguments of the
functions they wrap, so two subcommands are also run under the wrappers.
"""

import importlib
import importlib.util
from pathlib import Path

from ncgabor.cli import main

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_every_span_target_resolves():
    spans = _load_spans()
    assert spans.TARGETS
    missing = [f"{m}.{a}" for m, a, *_ in spans.TARGETS if not _resolves(m, a)]
    assert not missing, f"perfbench span targets no longer exist: {missing}"


def test_cli_keeps_the_canonical_dual_that_perfbench_checks():
    from ncgabor import cli, frame
    assert cli.canonical_dual is frame.canonical_dual


def test_span_counters_count_under_the_subcommands(tmp_path):
    spans = _load_spans()
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert main(["verify-soliton", "--out", str(tmp_path / "sol.json")]) == 0
        assert main(["check-axioms", "--out", str(tmp_path / "ax.json")]) == 0
    metrics = spans.summarize(tracer.spans)
    for name in ("algebra.twisted_conv.pairs", "algebra.from_entries.rows",
                 "geometry.p.entries"):
        assert metrics[name] > 0, name


def test_dual_spans_count_under_the_lifted_dual(tmp_path):
    # the flagship's window is a lifted Gaussian; its dual is read off the
    # Lanczos run on its q-channel system by frame.canonical_dual, one apply
    # per Krylov dimension and none to verify: 9 at the flagship
    spans = _load_spans()
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert main(["dual", "--q", "2", "--alpha", "0.5", "--beta", repr(1 / 3),
                     "--r", "1", "--s", "1", "--out", str(tmp_path / "dual.json")]) == 0
    metrics = spans.summarize(tracer.spans)
    assert metrics["frame.dual.s"] > 0
    assert metrics["frame.dual.cg_iters"] == 9


def test_solver_counters_count_under_frame_and_tight(tmp_path):
    # FrameSystem.apply is the one apply; its spans count under each solver.
    # frame runs at α = β = 0.62, where no Laurent symbol exists and the
    # bounds are Rayleigh-Ritz estimates
    spans = _load_spans()
    counted = {}
    for command, flags in (("frame", ["--alpha", "0.62", "--beta", "0.62"]), ("tight", [])):
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            assert main([command, *flags, "--out", str(tmp_path / f"{command}.json")]) == 0
        counted[command] = spans.summarize(tracer.spans)
    assert counted["frame"]["frame.bounds.applies"] == 41
    assert counted["tight"]["frame.tight.applies"] > 0


def test_chern_term_counter_binds_continuous_chern_by_name():
    # the counter reads continuous_chern's g, step and box from its signature
    from ncgabor import moyal
    from ncgabor.signal import GridSpec, gaussian
    spans = _load_spans()
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        c1 = moyal.continuous_chern(gaussian(GridSpec(L=16.0, N=256, q=1)), step=0.25)
    assert abs(c1 - 1) < 1e-6
    assert spans.summarize(tracer.spans)["moyal.chern.terms"] > 0
