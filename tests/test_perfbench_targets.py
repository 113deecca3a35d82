"""The benchmark's span targets still name functions of the package.

perfbench/spans.py patches each TARGETS entry by name when run with
`--trace 1`; a deleted or renamed function would break that run, so every
entry is resolved here.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = [f"{m}.{a}" for m, a, *_ in spans.TARGETS if not _resolves(m, a)]
    assert not missing, f"perfbench span targets no longer exist: {missing}"


def test_cli_keeps_the_canonical_dual_that_perfbench_checks():
    from ncgabor import cli, frame
    assert cli.canonical_dual is frame.canonical_dual
