"""The exit-code matrix: six commands on (α, β, window) triples at the default
grid (q = 1, R = 6, N = 512, L = 22), run through cli.main in-process, and
the invariants that tie their exit codes together:

  (i)   no uncaught exception, and every code is in 0-4;
  (ii)  exit 0 exactly when the written report says `pass`;
  (iii) if `frame` exits 3, all six commands exit 3;
  (iv)  density |αβ| > 1 gives exit 3 everywhere (density theorem);
  (v)   `tight` exits as `dual` does, except exit 1 where `dual` passes
        (the tight window's own reconstruction check).

Tier-1 runs the triples of TRIPLES; a triple is added, never removed, and an
invariant is relaxed only with its reason in CHANGES.md.  Tier-1 also runs
the oversize rows: under a budget patched below the default grid's q·N,
every subcommand exits 2 naming the grid, and a signal-file header or a
sweep range over the real budget exits 2 before anything large exists;
none of them writes a report or prints a traceback.

    PYTHONPATH=src python tests/test_exit_matrix.py

runs the full grid (α, β ∈ FULL_STEPS, window ∈ FULL_WINDOWS: 108 triples,
about 11 s on 2 vCPUs at one BLAS thread) and prints each command's
exit-code counts and each invariant's violations as JSON.
"""

import contextlib
import io
import itertools
import json
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest

from ncgabor import signal
from ncgabor.cli import main

COMMANDS = ("frame", "dual", "tight", "chern", "energy", "verify-soliton")
SUBCOMMANDS = COMMANDS + ("check-axioms", "moyal", "laurent-data", "run", "sweep")
FULL_STEPS = (0.5, 0.62, 0.8, 1.0, 1.2, 2.0)
FULL_WINDOWS = ("gaussian", "hermite:1", "hermite:3")

TRIPLES = [
    (0.5, 0.5, "gaussian"), (0.62, 0.62, "gaussian"), (1.0, 1.0, "gaussian"),
    (0.5, 0.5, "hermite:3"), (1.0, 1.2, "gaussian"), (2.0, 2.0, "gaussian"),
    (2.0, 2.0, "hermite:1"), (0.8, 1.2, "gaussian"), (0.8, 0.5, "hermite:1"),
    (0.5, 0.5, "hermite:1"), (0.5, 0.62, "gaussian"), (0.62, 0.5, "gaussian"),
    (0.8, 0.8, "gaussian"), (0.8, 0.8, "hermite:1"), (1.2, 1.2, "gaussian"),
    (0.5, 1.2, "gaussian"), (0.5, 2.0, "gaussian"), (2.0, 1.0, "gaussian"),
    (1.0, 1.0, "hermite:1"), (0.62, 0.62, "hermite:1"), (0.62, 0.8, "hermite:3"),
    (1.2, 0.8, "hermite:3"), (0.5, 1.0, "gaussian"), (1.2, 0.5, "hermite:3"),
]


def run_triple(alpha, beta, window, folder):
    """{command: (exit code, the report's `pass` or None when none was
    written)}; an uncaught exception is recorded, with its message, in place
    of the code, so that the full grid runs on."""
    report, outcome = Path(folder) / "report.json", {}
    for command in COMMANDS:
        report.unlink(missing_ok=True)
        argv = [command, "--alpha", repr(alpha), "--beta", repr(beta), "--window", window,
                "--out", str(report)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except Exception as exc:   # invariant (i) names it
                code = f"{type(exc).__name__}: {exc}"
        outcome[command] = code, json.loads(report.read_text())["pass"] if report.exists() else None
    return outcome


def violations(alpha, beta, outcome):
    """The invariants, by number, that one triple's outcome breaks."""
    codes = {command: code for command, (code, _) in outcome.items()}
    every_3 = set(codes.values()) == {3}
    broken = {
        "i": any(code not in range(5) for code in codes.values()),
        "ii": any((code == 0) != (passed is True) for code, passed in outcome.values()),
        "iii": codes["frame"] == 3 and not every_3,
        "iv": abs(alpha * beta) > 1 and not every_3,
        "v": codes["tight"] != codes["dual"] and (codes["dual"], codes["tight"]) != (0, 1),
    }
    return [name for name, hit in broken.items() if hit]


@pytest.mark.parametrize("alpha, beta, window", TRIPLES,
                         ids=[f"{a}-{b}-{w}" for a, b, w in TRIPLES])
def test_exit_codes_agree_across_commands(alpha, beta, window, tmp_path):
    outcome = run_triple(alpha, beta, window, tmp_path)
    assert violations(alpha, beta, outcome) == [], outcome


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_grid_over_the_budget_exits_2(command, tmp_path, monkeypatch, capsys):
    # the default grid holds q·N = 512 samples, one more than the budget
    monkeypatch.setattr(signal, "BOX_BUDGET", 511)
    monkeypatch.chdir(tmp_path)   # where sweep and laurent-data would write their files
    assert main([command, "--out", "report.json"]) == 2
    err = capsys.readouterr().err
    assert "configuration error: a grid of q·N = 1·512 samples exceeds 511 cells" in err
    assert "Traceback" not in err and not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["dual", "--window", "file:big.sig"],
     "big.sig, line 1: a grid of q·N = 1·100000000000 samples exceeds 4194304 cells"),
    (["sweep", "--alpha-range", "0:1:1e-12"],
     "sweep range '0:1:1e-12' of 1000000000001 points exceeds 4194304 cells")],
    ids=["signal-header", "sweep-range"])
def test_oversize_input_exits_2_before_allocating(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.sig").write_text("16.0 100000000000 1\n")
    tracemalloc.start()
    try:
        code = main([*argv, "--out", "report.json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2 and peak < 1 << 20 and f"configuration error: {message}" in err
    assert "Traceback" not in err and not (tmp_path / "report.json").exists()


def full_matrix():
    """Exit-code counts per command and violations per invariant on the full grid."""
    counts = {command: Counter() for command in COMMANDS}
    broken = Counter()
    with TemporaryDirectory() as folder:
        for alpha, beta, window in itertools.product(FULL_STEPS, FULL_STEPS, FULL_WINDOWS):
            outcome = run_triple(alpha, beta, window, folder)
            for command, (code, _) in outcome.items():
                counts[command][code] += 1
            broken.update(violations(alpha, beta, outcome))
    return {"exit_codes": {c: dict(n.most_common()) for c, n in counts.items()},
            "violations": {name: broken[name] for name in ("i", "ii", "iii", "iv", "v")}}


if __name__ == "__main__":
    json.dump(full_matrix(), sys.stdout, indent=1)
    print()
