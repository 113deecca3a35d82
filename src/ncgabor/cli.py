"""Command-line front end: verification suites, experiments, sweeps, reports.

Subcommands
-----------
check-axioms   twisted-algebra identity suite on random small supports
frame          frame-bound estimation for a window/lattice
dual           canonical dual window + Wexler-Raz residual (optionally exported)
tight          canonical tight window + Wexler-Raz, reconstruction and gauge residuals
chern          Connes-Chern number by both formulas
energy         sigma-model energy (trace and window forms) and gap
verify-soliton full soliton pipeline with pass/fail verdict
run            the views of a task subset on one pipeline, one block per task
moyal          Moyal identity, continuous energies and eigen residuals on a corpus
sweep          parameter sweeps over alpha/beta, CSV output
laurent-data   |F(t1,t2)| of the adjoint Gram symbol for plotting

Each subcommand is a view: a function of the parsed flags and a lazily
built geometry.Pipeline, which computes each stage of the soliton chain
once and only when a view reads it, to (results, summary, passed); main()
writes the report.  run's block for a task is that task's view's results.

Every run writes a JSON report embedding the full configuration, tolerance
ladder, truncation radius, seed, and library version; identical
configuration and seed reproduce identical reports apart from the
timestamp.  Exit codes, assigned in main() alone: 0 all checks passed,
1 an asserted identity failed its tolerance (a failed verdict, or a
ToleranceError raised inside the chain), 2 configuration error, grid fault
(GridError) or unreadable input (ValueError, OSError), 3 frame failure
(NotAFrameError), 4 the Lanczos run missed the dual's tolerance by
--cg-max-iter (ConvergenceError).  dual and tight are judged alike.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from functools import cache, partial

import numpy as np

from . import __version__
from .lattice import LatticeKind, TorusParams
from .signal import GridSpec, random_timefreq_probe, save_signal, _fit_budget
from .algebra import (LatticeSeq, inner_left, l1_diff, trace_l,
                      twisted_conv, twisted_star)
from .frame import (DUAL_MAX_ITER, ConvergenceError, GridError, NotAFrameError,
                    ToleranceError, laurent_symbol, reconstruction_residual)
# kept as a module attribute for tools that patch it here (perfbench/spans.py)
from .frame import canonical_dual  # noqa: F401
from .geometry import (Pipeline, build_window, derive, grid_for_radius,
                       tolerance_ladder)
from .moyal import (continuous_energy, default_window_corpus, eigen_residual,
                    load_corpus_file, moyal_check)

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_CONFIG = 2
EXIT_FRAME = 3
EXIT_SOLVER = 4

AXIOM_TOL = 1e-11   # check-axioms' gate on every twisted-algebra identity residual

CSV_COLUMNS = ["alpha", "beta", "r", "s", "q", "A", "B", "c1_re", "c1_im",
               "energy", "gap", "sd_plus", "sd_minus", "W_residual",
               "radius", "N", "L"]


def _config_argv(path):
    """The `key = value` lines of a config file as `--key=value` tokens,
    underscores in keys read as dashes; the values of a repeated key are
    joined into one comma list."""
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {raw.rstrip()}")
            key, val = (part.strip() for part in line.split("=", 1))
            values.setdefault(key.replace("_", "-"), []).append(val)
    return [f"--{key}={','.join(vals)}" for key, vals in values.items()]


def _add_common(parser):
    parser.add_argument("--alpha", type=float, default=0.5)
    parser.add_argument("--beta", type=float, default=0.5)
    parser.add_argument("--r", type=int, default=0)
    parser.add_argument("--s", type=int, default=0)
    parser.add_argument("--q", type=int, default=1)
    parser.add_argument("--L", type=float, default=None,
                        help="grid circumference (default: sized from radius)")
    parser.add_argument("--N", type=int, default=512)
    parser.add_argument("--radius", type=float, default=6.0)
    parser.add_argument("--eps0", type=float, default=1e-8,
                        help="tolerance-ladder base")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=str, default=None,
                        help="JSON report path (default: print summary only)")
    parser.add_argument("--config", type=str, default=None,
                        help="key=value file of flag values; command-line flags "
                             "take precedence")
    parser.add_argument("--window", type=str, default=None,
                        help="gaussian | lifted_gaussian | hermite[:N] | file:PATH")
    parser.add_argument("--lam", type=complex, default=0.0,
                        help="generalized-Gaussian chirp parameter")


def _setup(args):
    params = TorusParams(alpha=args.alpha, beta=args.beta, r=args.r,
                         s=args.s, q=args.q)
    if args.L is None:
        grid = grid_for_radius(args.radius, n=args.N, q=args.q)
    else:
        grid = GridSpec(L=args.L, N=args.N, q=args.q)
    return params, grid


def _emit(args, tolerances, results, summary, passed) -> int:
    """Write the JSON report to --out, print its summary, return exit 0 or 1."""
    report = {
        "command": args.command,
        "version": __version__,
        "seed": args.seed,
        "config": {k: (repr(v) if isinstance(v, complex) else v)
                   for k, v in sorted(vars(args).items())
                   if k not in ("func", "out", "config")},
        "tolerances": tolerances,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "results": results,
        "results_summary": summary,
        "pass": bool(passed),
    }
    text = json.dumps(report, sort_keys=True, indent=2, default=str)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    summary = {k: v for k, v in report.items()
               if k in ("command", "pass", "results_summary")}
    print(json.dumps(summary, sort_keys=True) if not args.out
          else f"report written to {args.out}: pass={report['pass']}")
    return EXIT_OK if passed else EXIT_IDENTITY


def _random_seq(params, kind, rng, points=8, span=4):
    idx = rng.integers(-span, span + 1, size=(points, 2))
    vals = rng.normal(size=points) + 1j * rng.normal(size=points)
    seq = LatticeSeq.from_entries(params, kind, idx, vals)
    return seq * (1.0 / seq.l1_norm())  # unit ℓ¹ keeps identity residuals absolute


def _axiom_residuals(params, rng):
    """Worst ℓ¹ residual of each twisted-algebra identity over 40 rounds of
    random supports per lattice, a♮b and a* formed once per round and δ₀
    once per lattice."""
    worst = dict.fromkeys(("assoc", "involution", "anti_hom", "trace_cyclic",
                           "leibniz", "unit"), 0.0)
    for kind in (LatticeKind.TIME_FREQ, LatticeKind.ADJOINT):
        delta = LatticeSeq.delta(params, kind)
        for _ in range(40):
            a, b, c = (_random_seq(params, kind, rng) for _ in range(3))
            ab, star_a = twisted_conv(a, b), twisted_star(a)   # shared by the identities below
            worst["assoc"] = max(worst["assoc"], l1_diff(
                twisted_conv(ab, c), twisted_conv(a, twisted_conv(b, c))))
            worst["involution"] = max(worst["involution"],
                                      l1_diff(twisted_star(star_a), a))
            worst["anti_hom"] = max(worst["anti_hom"], l1_diff(
                twisted_star(ab), twisted_conv(twisted_star(b), star_a)))
            worst["unit"] = max(worst["unit"],
                                l1_diff(twisted_conv(delta, a), a),
                                l1_diff(twisted_conv(a, delta), a))
            if kind is LatticeKind.TIME_FREQ:
                worst["trace_cyclic"] = max(worst["trace_cyclic"], abs(
                    trace_l(ab) - trace_l(twisted_conv(b, a))))
                for j in (1, 2):
                    worst["leibniz"] = max(worst["leibniz"], l1_diff(
                        derive(ab, j),
                        twisted_conv(derive(a, j), b)
                        + twisted_conv(a, derive(b, j))))
    return worst


# pipeline() builds the Pipeline of args once.  The views that run calls
# read their subcommand's own flags with getattr: run's args lack them.

def view_check_axioms(args, pipeline):
    params, _ = _setup(args)
    worst = _axiom_residuals(params, np.random.default_rng(args.seed))
    return ({"residuals": worst, "tolerance": AXIOM_TOL},
            {k: f"{v:.2e}" for k, v in worst.items()},
            all(v < AXIOM_TOL for v in worst.values()))


def _pipeline(args) -> Pipeline:
    params, grid = _setup(args)
    window = build_window(args.window, grid, params, args.lam)
    return Pipeline(params, window, args.radius, eps0=args.eps0, seed=args.seed,
                    dual_max_iter=getattr(args, "cg_max_iter", DUAL_MAX_ITER))


def view_frame(args, pipeline):
    pipe = pipeline()
    a_est, b_est = pipe.bounds
    spec = pipe.window.spec
    return ({"A": a_est, "B": b_est, "radius": args.radius, "N": spec.N,
             "L": spec.L, "condition": b_est / a_est,
             "residuals": pipe.system.bounds_residuals},
            {"A": a_est, "B": b_est}, True)


def view_dual(args, pipeline):
    pipe = pipeline()
    wr, rng = pipe.wexler_raz, np.random.default_rng(args.seed)
    probes = [random_timefreq_probe(pipe.window.spec, rng, spread=2.5) for _ in range(5)]
    rec = reconstruction_residual(probes, pipe.window, pipe.dual, pipe.params, args.radius)
    if getattr(args, "export_window", None):
        save_signal(pipe.dual, args.export_window)
    tol = pipe.tolerances["frame"]
    return ({"wexler_raz_residual": wr, "reconstruction_residual": rec,
             "radius": args.radius},
            {"wr": f"{wr:.2e}", "recon": f"{rec:.2e}"}, wr < tol and rec < tol)


def view_tight(args, pipeline):
    pipe = pipeline()
    tight, wr = pipe.tight   # before p: the Lanczos run that p's dual reads is the tight window's
    rng = np.random.default_rng(11)   # the three probes of the tight check, whatever --seed
    probes = [random_timefreq_probe(tight.spec, rng, spread=1.8) for _ in range(3)]
    rec = reconstruction_residual(probes, tight, tight, pipe.params, args.radius)
    gauge = l1_diff(pipe.projection, inner_left(tight, tight, pipe.params, args.radius))
    if args.export_window:
        save_signal(tight, args.export_window)
    tol = pipe.tolerances["frame"]
    return ({"wexler_raz_residual": wr, "reconstruction_residual": rec,
             "gauge_identity_residual": gauge, "radius": args.radius},
            {"wr": f"{wr:.2e}", "recon": f"{rec:.2e}", "gauge": f"{gauge:.2e}"},
            wr < tol and rec < tol and gauge < tol)


def view_chern(args, pipeline):
    pipe = pipeline()
    c1t, c1s = pipe.c1_trace, pipe.c1_sum
    return ({"c1_trace": {"re": c1t.real, "im": c1t.imag},
             "c1_sum": {"re": c1s.real, "im": c1s.imag},
             "c1_rounded": int(round(c1t.real)), "two_formula_gap": abs(c1t - c1s)},
            {"c1": round(c1t.real, 10)}, pipe.chern_ok)


def view_energy(args, pipeline):
    pipe = pipeline()
    e_tr, e_win = pipe.energy_trace, pipe.energy_window
    return ({"energy_trace": e_tr, "energy_window": e_win,
             "c1": pipe.c1_trace.real, "gap": pipe.gap},
            {"energy": round(e_tr, 10), "gap": pipe.gap}, pipe.energy_ok)


def view_verify_soliton(args, pipeline):
    pipe = pipeline()
    rep = pipe.report()
    return (rep, {"c1": round(pipe.c1_trace.real, 8),
                  "energy": round(pipe.energy_trace, 8), "gap": pipe.gap},
            rep["passes"])


def view_moyal(args, pipeline):
    params, grid = _setup(args)
    rng = np.random.default_rng(args.seed)
    if getattr(args, "corpus", None):
        corpus = load_corpus_file(args.corpus, grid)
    else:
        corpus = default_window_corpus(grid, seed=args.seed + 23)
    rows, results = [], []
    q = grid.q
    worst_moyal = 0.0
    for name, w, is_gauss in corpus:
        f = random_timefreq_probe(grid, rng, spread=2.0)
        _, _, err = moyal_check(f, w)
        worst_moyal = max(worst_moyal, err)
        e = continuous_energy(w)
        _, res_plus = eigen_residual(w, +1)
        results.append({"window": name, "moyal_relerr": err, "energy": e,
                        "energy_gap": e - q, "eigen_residual_plus": res_plus,
                        "generalized_gaussian": is_gauss})
        rows.append({"q": q, "energy": e, "gap": e - q, "W_residual": res_plus,
                     "N": grid.N, "L": grid.L})   # lattice columns stay empty
    if getattr(args, "csv", None):
        _write_csv(args.csv, rows)
    ok = worst_moyal < args.eps0 and all(
        r["energy_gap"] > -1e-6 for r in results) and all(
        (r["energy_gap"] < 1e-6) == r["generalized_gaussian"] for r in results)
    return ({"corpus": results, "worst_moyal_relerr": worst_moyal},
            {"worst_moyal": f"{worst_moyal:.2e}", "windows": len(results)}, ok)


def _parse_range(text):
    """'a', 'a:b:h' (finite, h > 0, ≤ BOX_BUDGET points) or comma list -> non-empty floats."""
    if ":" in text:
        start, stop, step = (float(v) for v in text.split(":"))
        if not (step > 0 and np.isfinite([start, stop, step]).all()):
            raise ValueError(f"range {text!r} needs finite start:stop:step with step > 0")
        n = np.floor((stop - start) / step + 1e-9) + 1   # a float: it may be inf
        _fit_budget(n, f"sweep range {text!r} of {n:.0f} points")
        values = [start + i * step for i in range(int(n))]
    else:
        values = [float(v) for v in text.split(",")]
    if not values:
        raise ValueError(f"empty range: {text!r}")
    return values


def _sweep_point(job):
    """One CSV row; a failure goes to its `error` column.  A point is verified
    when pipe.passes() holds and c1 rounds to q; otherwise `error` names the
    checks it failed.  `passed` (not in the CSV) is false on a missed
    tolerance, a grid fault (GridError) or an unverified point; frame and solver
    failures do not fail a sweep that verifies some other point."""
    alpha, beta, args_dict = job
    args = argparse.Namespace(**{**args_dict, "alpha": alpha, "beta": beta})
    row = {"alpha": alpha, "beta": beta, "r": args.r, "s": args.s,
           "q": args.q, "radius": args.radius, "N": args.N, "L": _setup(args)[1].L}
    try:
        pipe = _pipeline(args)
        pipe.report()
    except (ToleranceError, GridError) as exc:
        return {**row, "error": str(exc), "passed": False}
    except (NotAFrameError, ConvergenceError) as exc:
        return {**row, "error": str(exc), "passed": True}
    (a_est, b_est), (sd_plus, sd_minus) = pipe.bounds, pipe.self_duality
    c1 = pipe.c1_trace
    failed = [f"{name} failed" for name, ok in pipe.checks().items() if not ok]
    if round(c1.real) != args.q:
        failed.insert(0, f"c1 rounds to {round(c1.real)}, not q = {args.q}")
    row = {**row, "A": a_est, "B": b_est, "c1_re": c1.real, "c1_im": c1.imag,
           "energy": pipe.energy_trace, "gap": pipe.gap, "sd_plus": sd_plus,
           "sd_minus": sd_minus, "W_residual": pipe.w_residuals[0], "passed": not failed}
    return {**row, "error": "unverified: " + "; ".join(failed)} if failed else row


def _write_csv(path, rows):
    cols = CSV_COLUMNS + (["error"] if any("error" in r for r in rows) else [])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def view_sweep(args, pipeline):
    """One Pipeline per (alpha, beta) point, not the shared one.  Passes when
    some point is verified and no point misses a tolerance."""
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    alphas = _parse_range(args.alpha_range)
    betas = _parse_range(args.beta_range)
    _fit_budget(len(alphas) * len(betas), f"a {len(alphas)}x{len(betas)} sweep grid")
    args_dict = {k: v for k, v in vars(args).items() if k != "func"}
    jobs = [(a, b, args_dict) for a in alphas for b in betas]
    processes = min(args.workers, len(jobs), os.cpu_count() or 1)
    if processes > 1:
        from multiprocessing import Pool
        with Pool(processes=processes) as pool:
            rows = pool.map(_sweep_point, jobs)
    else:
        rows = [_sweep_point(j) for j in jobs]
    out_csv = args.csv or "sweep.csv"
    _write_csv(out_csv, rows)
    verified = sum("error" not in r for r in rows)
    return ({"points": len(rows), "csv": out_csv, "failed_points": len(rows) - verified},
            {"points": len(rows), "csv": out_csv},
            verified > 0 and all(r["passed"] for r in rows))


def view_laurent_data(args, pipeline):
    """|F(t1,t2)| heatmap columns for plotting."""
    pipe = pipeline()   # for its window and the seam check
    sym = laurent_symbol(pipe.window, pipe.params, grid=args.mesh,
                         radius=args.radius)
    path = args.csv or "laurent.dat"
    with open(path, "w") as fh:
        fh.write("# t1 t2 absF\n")
        for i, t1 in enumerate(sym.t):
            for j, t2 in enumerate(sym.t):
                fh.write(f"{t1} {t2} {abs(sym.values[i, j])}\n")
    return ({"min_abs": sym.min_abs, "max_abs": sym.max_abs,
             "is_riesz": sym.is_riesz, "path": path},
            {"min_abs": sym.min_abs, "riesz": sym.is_riesz}, True)


# run's tasks in the order it calls them, each the view of one subcommand
RUN_TASKS = {"axioms": view_check_axioms, "frame": view_frame,
             "wexler_raz": view_dual, "chern": view_chern, "energy": view_energy,
             "soliton": view_verify_soliton, "moyal": view_moyal}


def view_run(args, pipeline):
    """The views of a task subset on one pipeline, one results block each."""
    requested = {t.strip() for t in args.tasks.split(",")}
    unknown = requested - set(RUN_TASKS)
    if unknown or not requested:
        raise ValueError(f"unknown or empty tasks {sorted(unknown)}")
    tasks = [t for t in RUN_TASKS if t in requested]
    views = {t: RUN_TASKS[t](args, pipeline) for t in tasks}
    return ({t: results for t, (results, _, _) in views.items()}, {"tasks": tasks},
            all(passed for _, _, passed in views.values()))


@cache   # built once per process; parse_args leaves the parser unchanged
def build_parser():
    parser = argparse.ArgumentParser(
        prog="ncgabor",
        description="Vector-valued Gabor frames, twisted lattice algebras, "
                    "Connes-Chern numbers and soliton energies")
    sub = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("check-axioms", view_check_axioms, []),
        ("frame", view_frame, []),
        ("dual", view_dual, ["export"]),
        ("tight", view_tight, ["export"]),
        ("chern", view_chern, []),
        ("energy", view_energy, []),
        ("verify-soliton", view_verify_soliton, []),
        ("moyal", view_moyal, ["csv", "corpus"]),
        ("laurent-data", view_laurent_data, ["csv", "mesh"]),
    ]
    for name, func, extras in specs:
        sp = sub.add_parser(name)
        _add_common(sp)
        if "export" in extras:
            sp.add_argument("--export-window", type=str, default=None)
            sp.add_argument("--cg-max-iter", type=int, default=DUAL_MAX_ITER)
        if "csv" in extras:
            sp.add_argument("--csv", type=str, default=None)
        if "mesh" in extras:
            sp.add_argument("--mesh", type=int, default=64)
        if "corpus" in extras:
            sp.add_argument("--corpus", type=str, default=None,
                            help="window corpus definition file")
        sp.set_defaults(func=func)

    sp = sub.add_parser("run")
    _add_common(sp)
    sp.add_argument("--tasks", type=str, default="frame,wexler_raz,chern,energy",
                    help="comma list from: " + ",".join(RUN_TASKS))
    sp.set_defaults(func=view_run)

    sp = sub.add_parser("sweep")
    _add_common(sp)
    sp.add_argument("--alpha-range", type=str, default="0.5",
                    help="value, comma list, or start:stop:step")
    sp.add_argument("--beta-range", type=str, default="0.5")
    sp.add_argument("--csv", type=str, default=None)
    sp.add_argument("--workers", type=int, default=1)
    sp.set_defaults(func=view_sweep)
    return parser


def _fail(label, exc, code) -> int:
    print(f"{label}: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    """Run one subcommand; the only place where a failure becomes an exit code.

    A --config file's values are parsed as flags placed between the
    subcommand and the command line's own flags, which therefore win.
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_args([args.command, *_config_argv(args.config), *argv[1:]])
        # the ladder is built, and --eps0 checked, before the view runs
        return _emit(args, tolerance_ladder(args.eps0),
                     *args.func(args, cache(partial(_pipeline, args))))
    except ToleranceError as exc:   # a ValueError, so it is matched first
        return _fail("tolerance failure", exc, EXIT_IDENTITY)
    except NotAFrameError as exc:
        return _fail("frame failure", exc, EXIT_FRAME)
    except ConvergenceError as exc:
        return _fail("solver failure", exc, EXIT_SOLVER)
    except (ValueError, OSError) as exc:
        return _fail("configuration error", exc, EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
