"""The benchmark's workloads: fixed lists of operations and their checks.

Every operation is one user-visible job.  CLI operations call
`ncgabor.cli.main` in-process with a subcommand's flags and `--out`; the
exit code is the verdict and the JSON report supplies the accuracy figures.
`continuous_chern`, which has no subcommand, is called directly and judged
against the 1e-6 tolerance of the package's own tests.

Nothing here imports `ncgabor` at module level: `build` performs the import,
so that its cost is part of the measured set-up time.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

NAMES = ("soliton", "duals", "moyal", "axioms")

# Each accuracy figure and the tolerance that gates it in the package.
GATES = {
    "c1_err": 1e-5,              # |c1 - q|, Chern rung 1e3*eps0
    "c1_two_formula_gap": 1e-5,  # |c1_trace - c1_sum|, Chern rung
    "energy_err": 1e-5,          # |E - q| on Gaussian windows, Chern rung
    "wr_residual": 1e-6,         # Wexler-Raz residual, frame rung 1e2*eps0
    "recon_residual": 1e-6,      # dual reconstruction residual, frame rung
    "gauge_residual": 1e-6,      # tight-window gauge identity, frame rung
    "moyal_relerr": 1e-8,        # Moyal identity, algebra rung eps0
    "cchern_err": 1e-6,          # |continuous_chern - q|, tests/test_moyal.py
    "axiom_residual": 1e-11,     # check-axioms verdict tolerance
}

FLAGSHIP_Q2 = ["--q", "2", "--alpha", "0.5", "--beta", repr(1 / 3),
               "--r", "1", "--s", "1", "--window", "lifted_gaussian"]
LARGEST_Q3 = ["--q", "3", "--alpha", "0.5", "--beta", repr(2 / 15),
              "--r", "1", "--s", "1", "--window", "lifted_gaussian"]
HALF_Q1 = ["--q", "1", "--alpha", "0.5", "--beta", "0.5", "--window", "gaussian"]


@dataclass
class Verdict:
    """What one operation's output says: failure reason, accuracy, problems."""

    failure: str | None = None
    acc: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


@dataclass
class Op:
    """One operation: `invoke` is timed, `judge` reads its outcome untimed."""

    name: str
    invoke: Callable[[], object]
    judge: Callable[[object], Verdict]
    cli: bool = True   # runs a subcommand, so a failure is a nonzero exit


def _over_gate(verdict: Verdict) -> Verdict:
    """A passing operation whose figures exceed their gates is incorrect."""
    if verdict.failure is None:
        verdict.problems += [f"{k} = {v:.3e} exceeds its gate {GATES[k]:.0e}"
                             " although the operation passed"
                             for k, v in verdict.acc.items() if not v < GATES[k]]
    return verdict


def _cli_op(name, argv, report: Path, figures) -> Op:
    """Operation running `ncgabor <argv> --out report`.

    `figures(results)` maps the report's `results` to (acc dict, problems).
    """
    from ncgabor import cli

    full = [str(a) for a in argv] + ["--out", str(report)]

    def invoke():
        report.unlink(missing_ok=True)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = cli.main(full)
        return rc, err.getvalue()

    def judge(outcome):
        rc, err = outcome
        verdict = Verdict()
        if rc != 0:
            verdict.failure = f"exit {rc}: {err.strip() or 'identity check failed'}"
        if rc in (0, 1):  # both write the report
            with open(report) as fh:
                rep = json.load(fh)
            if bool(rep["pass"]) != (rc == 0):
                verdict.problems.append(f"report pass={rep['pass']} but exit {rc}")
            verdict.acc, problems = figures(rep["results"])
            verdict.problems += problems
        return _over_gate(verdict)

    return Op(name, invoke, judge)


def _soliton_figures(q):
    def figures(res):
        c1 = complex(res["c1"]["re"], res["c1"]["im"])
        c1_sum = complex(res["c1"]["sum_re"], res["c1"]["sum_im"])
        problems = [] if res["c1"]["rounded"] == q else [
            f"c1 rounds to {res['c1']['rounded']}, expected {q}"]
        return {"c1_err": abs(c1 - q), "c1_two_formula_gap": abs(c1 - c1_sum),
                "energy_err": abs(res["energy"] - q),
                "wr_residual": res["wexler_raz_residual"]}, problems
    return figures


def _frame_figures(res):
    a, b = res["A"], res["B"]
    ok = 0.0 < a <= b < float("inf")
    return {}, [] if ok else [f"frame bounds out of order: A={a!r}, B={b!r}"]


def _dual_figures(res):
    return {"wr_residual": res["wexler_raz_residual"],
            "recon_residual": res["reconstruction_residual"]}, []


def _tight_figures(res):
    return {"gauge_residual": res["gauge_identity_residual"]}, []


def _moyal_figures(corpus_size):
    def figures(res):
        n = len(res["corpus"])
        problems = [] if n == corpus_size else [
            f"{n} corpus windows reported, {corpus_size} defined"]
        return {"moyal_relerr": res["worst_moyal_relerr"]}, problems
    return figures


def _axiom_figures(res):
    return {"axiom_residual": max(res["residuals"].values())}, []


def _cchern_op(name, window, q) -> Op:
    from ncgabor import moyal

    def invoke():
        return moyal.continuous_chern(window)

    def judge(c1):
        err = abs(c1 - q)
        verdict = Verdict(acc={"cchern_err": err})
        if not err < GATES["cchern_err"]:
            verdict.failure = f"|c1 - {q}| = {err:.3e} above 1e-06"
        return verdict

    return Op(name, invoke, judge, cli=False)


def perturbed_window():
    """g + 0.10*||g||*h2 on the default radius-6 grid (q = 1)."""
    from ncgabor.geometry import grid_for_radius
    from ncgabor.signal import gaussian, hermite, norm

    spec = grid_for_radius(6.0, n=512, q=1)
    g = gaussian(spec)
    return g + (0.10 * norm(g)) * hermite(spec, 2)


def build(workload: str, seed: int, root: Path, workdir: Path) -> list:
    """Import the package, build the workload's inputs and its operations.

    Every random input derives from `seed`: each operation gets its own
    `--seed` from a SeedSequence, which fixes the frame-bound probes, the
    reconstruction probes, the Moyal probes and the axiom supports.
    """
    import numpy as np

    workdir.mkdir(parents=True, exist_ok=True)
    report = workdir / "report.json"
    seeds = iter(int(s) for s in np.random.SeedSequence(seed).generate_state(32))

    if workload == "soliton":
        return [
            _cli_op("verify-soliton q=1", ["verify-soliton", *HALF_Q1,
                    "--seed", next(seeds)], report, _soliton_figures(1)),
            _cli_op("verify-soliton q=2", ["verify-soliton", *FLAGSHIP_Q2,
                    "--seed", next(seeds)], report, _soliton_figures(2)),
        ]

    if workload == "duals":
        from ncgabor.signal import save_signal

        window_file = workdir / "perturbed_window.txt"
        save_signal(perturbed_window(), window_file)
        cases = [
            ("q=1 a=b=1/2", HALF_Q1),
            ("q=1 a=b=0.62", ["--q", "1", "--alpha", "0.62", "--beta", "0.62",
                              "--window", "gaussian"]),
            ("q=2 flagship", FLAGSHIP_Q2),
            ("q=3 b=2/15", LARGEST_Q3),
            ("q=1 perturbed", ["--q", "1", "--alpha", "0.5", "--beta", "0.5",
                               "--window", f"file:{window_file}"]),
        ]
        commands = [("frame", _frame_figures), ("dual", _dual_figures),
                    ("tight", _tight_figures)]
        return [_cli_op(f"{cmd} {label}", [cmd, *flags, "--seed", next(seeds)],
                        report, figures)
                for label, flags in cases for cmd, figures in commands]

    if workload == "moyal":
        from ncgabor.frame import lift_scalar_window
        from ncgabor.lattice import TorusParams
        from ncgabor.signal import GridSpec, gaussian

        corpus = root / "configs" / "moyal_corpus.cfg"
        with open(corpus) as fh:
            size = sum(1 for line in fh if line.split("#", 1)[0].strip())
        scalar = gaussian(GridSpec(L=16.0, N=512, q=1))
        lifted = lift_scalar_window(scalar, TorusParams(0.5, 1 / 3, 1, 1, 2))
        slopes = {1: [], 2: ["--r", "1", "--s", "1"], 3: ["--r", "1", "--s", "1"]}
        ops = [_cli_op(f"moyal q={q}", ["moyal", "--q", q, "--L", "16",
                       *slopes[q], "--corpus", corpus, "--seed", next(seeds)],
                       report, _moyal_figures(size))
               for q in (1, 2, 3)]
        return ops + [_cchern_op("continuous_chern q=1", scalar, 1),
                      _cchern_op("continuous_chern q=2", lifted, 2)]

    if workload == "axioms":
        lattices = [("q=1", ["--q", "1"]),
                    ("q=2", FLAGSHIP_Q2[:-2]),
                    ("q=3", LARGEST_Q3[:-2])]
        return [_cli_op(f"check-axioms {label} #{rep}",
                        ["check-axioms", *flags, "--seed", next(seeds)],
                        report, _axiom_figures)
                for label, flags in lattices for rep in (1, 2)]

    raise ValueError(f"unknown workload {workload!r}")
