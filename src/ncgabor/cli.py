"""Command-line front end: verification suites, experiments, sweeps, reports.

Subcommands
-----------
check-axioms   twisted-algebra identity suite on random small supports
frame          frame-bound estimation for a window/lattice
dual           canonical dual window + Wexler-Raz residual (optionally exported)
tight          canonical tight window + gauge-identity residual
chern          Connes-Chern number by both formulas
energy         sigma-model energy (trace and window forms) and gap
verify-soliton full soliton pipeline with pass/fail verdict
run            a task subset (axioms, lattice stages, moyal) in one report
moyal          Moyal identity, continuous energies and eigen residuals on a corpus
sweep          parameter sweeps over alpha/beta, CSV output
laurent-data   |F(t1,t2)| of the adjoint Gram symbol for plotting

The lattice subcommands (frame to verify-soliton, run, sweep) are report
views over one geometry.Pipeline, which computes each stage of the soliton
chain once and only when a view reads it.

Every run writes a JSON report embedding the full configuration, tolerance
ladder, truncation radius, seed, and library version; identical
configuration and seed reproduce identical reports apart from the
timestamp.  Exit codes, assigned in main() alone: 0 all checks passed,
1 an asserted identity failed its tolerance (a failed verdict, or a
ToleranceError raised inside the chain), 2 configuration error or
unreadable input (ValueError, OSError), 3 frame failure (NotAFrameError),
4 iterative-solver failure (ConvergenceError).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from . import __version__
from .lattice import LatticeKind, TorusParams
from .signal import GridSpec, random_timefreq_probe, save_signal
from .algebra import (LatticeSeq, inner_left, l1_diff, trace_l,
                      twisted_conv, twisted_star)
from .frame import (ConvergenceError, NotAFrameError, ToleranceError,
                    laurent_symbol, reconstruction_residual)
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

CSV_COLUMNS = ["alpha", "beta", "r", "s", "q", "A", "B", "c1_re", "c1_im",
               "energy", "gap", "sd_plus", "sd_minus", "W_residual",
               "radius", "N", "L"]


def _parse_config_file(path):
    """Flat key=value lines; repeated keys accumulate into lists."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {raw.rstrip()}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in out:
                prev = out[key] if isinstance(out[key], list) else [out[key]]
                out[key] = prev + [val]
            else:
                out[key] = val
    return out


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
                        help="key=value file; command-line flags take precedence")
    parser.add_argument("--window", type=str, default=None,
                        help="gaussian | lifted_gaussian | hermite:N | file:PATH")
    parser.add_argument("--lam", type=complex, default=0.0,
                        help="generalized-Gaussian chirp parameter")


def _apply_config_defaults(args, argv):
    if not args.config:
        return args
    cfg = _parse_config_file(args.config)
    given = {a.split("=")[0].lstrip("-").replace("-", "_")
             for a in argv if a.startswith("--")}
    for key, val in cfg.items():
        attr = key.replace("-", "_")
        if attr in given or not hasattr(args, attr):
            continue
        current = getattr(args, attr)
        if isinstance(val, list):
            setattr(args, attr, val)
        elif isinstance(current, int):
            setattr(args, attr, int(val))
        elif isinstance(current, float):
            setattr(args, attr, float(val))
        elif isinstance(current, complex):
            setattr(args, attr, complex(val))
        else:
            setattr(args, attr, val)
    return args


def _setup(args):
    params = TorusParams(alpha=args.alpha, beta=args.beta, r=args.r,
                         s=args.s, q=args.q)
    if args.L is None:
        grid = grid_for_radius(args.radius, n=args.N, q=args.q)
    else:
        grid = GridSpec(L=args.L, N=args.N, q=args.q)
    return params, grid


def _window_from_args(args, spec, params):
    kind = args.window
    if kind is None:
        kind = "lifted_gaussian" if params.q > 1 else "gaussian"
    if kind.startswith("hermite"):
        order = int(kind.split(":")[1]) if ":" in kind else 1
        return build_window("hermite", spec, params, hermite_order=order)
    if kind.startswith("file:"):
        return build_window("file", spec, params, path=kind.split(":", 1)[1])
    return build_window(kind, spec, params, lam=args.lam)


def _emit(args, results, summary, passed) -> int:
    """Write the JSON report to --out, print its summary, return exit 0 or 1."""
    report = {
        "command": args.command,
        "version": __version__,
        "seed": args.seed,
        "config": {k: (repr(v) if isinstance(v, complex) else v)
                   for k, v in sorted(vars(args).items())
                   if k not in ("func", "out", "config")},
        "tolerances": tolerance_ladder(args.eps0),
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
    seq = LatticeSeq.from_entries(params, kind, idx, vals, float(span))
    return seq * (1.0 / seq.l1_norm())  # unit ℓ¹ keeps identity residuals absolute


def _axiom_residuals(params, rng, rounds):
    """Worst ℓ¹ residual of each twisted-algebra identity over random supports."""
    worst = dict.fromkeys(("assoc", "involution", "anti_hom", "trace_cyclic",
                           "leibniz", "unit"), 0.0)
    for kind in (LatticeKind.TIME_FREQ, LatticeKind.ADJOINT):
        for _ in range(rounds):
            a, b, c = (_random_seq(params, kind, rng) for _ in range(3))
            worst["assoc"] = max(worst["assoc"], l1_diff(
                twisted_conv(twisted_conv(a, b), c),
                twisted_conv(a, twisted_conv(b, c))))
            worst["involution"] = max(worst["involution"],
                                      l1_diff(twisted_star(twisted_star(a)), a))
            worst["anti_hom"] = max(worst["anti_hom"], l1_diff(
                twisted_star(twisted_conv(a, b)),
                twisted_conv(twisted_star(b), twisted_star(a))))
            delta = LatticeSeq.delta(params, kind)
            worst["unit"] = max(worst["unit"],
                                l1_diff(twisted_conv(delta, a), a),
                                l1_diff(twisted_conv(a, delta), a))
            if kind is LatticeKind.TIME_FREQ:
                worst["trace_cyclic"] = max(worst["trace_cyclic"], abs(
                    trace_l(twisted_conv(a, b)) - trace_l(twisted_conv(b, a))))
                for j in (1, 2):
                    worst["leibniz"] = max(worst["leibniz"], l1_diff(
                        derive(twisted_conv(a, b), j),
                        twisted_conv(derive(a, j), b)
                        + twisted_conv(a, derive(b, j))))
    return worst


def cmd_check_axioms(args) -> int:
    params, _ = _setup(args)
    worst = _axiom_residuals(params, np.random.default_rng(args.seed), 40)
    return _emit(args, {"residuals": worst, "tolerance": 1e-11},
                 {k: f"{v:.2e}" for k, v in worst.items()},
                 all(v < 1e-11 for v in worst.values()))


def _pipeline(args) -> Pipeline:
    params, grid = _setup(args)
    return Pipeline(params, _window_from_args(args, grid, params), args.radius,
                    eps0=args.eps0, seed=args.seed,
                    dual_max_iter=getattr(args, "cg_max_iter", 500))


def _chern_ok(pipe) -> bool:
    """c₁ by trace is an integer and agrees with c₁ by sum, at the Chern rung."""
    c1t, tol = pipe.c1_trace, pipe.tolerances["chern"]
    return abs(c1t - round(c1t.real)) < tol and abs(c1t - pipe.c1_sum) < tol


def cmd_frame(args) -> int:
    pipe = _pipeline(args)
    a_est, b_est = pipe.bounds
    spec = pipe.window.spec
    return _emit(args, {"A": a_est, "B": b_est, "radius": args.radius,
                        "N": spec.N, "L": spec.L, "condition": b_est / a_est,
                        "residuals": pipe.system.bounds_residuals},
                 {"A": a_est, "B": b_est}, True)


def cmd_dual(args) -> int:
    pipe = _pipeline(args)
    wr, rng = pipe.wexler_raz, np.random.default_rng(args.seed)
    rec = max(reconstruction_residual(
        random_timefreq_probe(pipe.window.spec, rng, spread=2.5), pipe.window,
        pipe.dual, pipe.params, args.radius) for _ in range(5))
    if args.export_window:
        save_signal(pipe.dual, args.export_window)
    tol = pipe.tolerances["frame"]
    return _emit(args, {"wexler_raz_residual": wr,
                        "reconstruction_residual": rec, "radius": args.radius},
                 {"wr": f"{wr:.2e}", "recon": f"{rec:.2e}"},
                 wr < tol and rec < tol)


def cmd_tight(args) -> int:
    pipe = _pipeline(args)
    gauge = l1_diff(pipe.projection,
                    inner_left(pipe.tight, pipe.tight, pipe.params, args.radius))
    if args.export_window:
        save_signal(pipe.tight, args.export_window)
    return _emit(args, {"gauge_identity_residual": gauge, "radius": args.radius},
                 {"gauge": f"{gauge:.2e}"}, gauge < pipe.tolerances["frame"])


def cmd_chern(args) -> int:
    pipe = _pipeline(args)
    c1t, c1s = pipe.c1_trace, pipe.c1_sum
    return _emit(args, {"c1_trace": {"re": c1t.real, "im": c1t.imag},
                        "c1_sum": {"re": c1s.real, "im": c1s.imag},
                        "c1_rounded": int(round(c1t.real)),
                        "two_formula_gap": abs(c1t - c1s)},
                 {"c1": round(c1t.real, 10)}, _chern_ok(pipe))


def cmd_energy(args) -> int:
    pipe = _pipeline(args)
    e_tr, e_win, tol = pipe.energy_trace, pipe.energy_window, pipe.tolerances["chern"]
    return _emit(args, {"energy_trace": e_tr, "energy_window": e_win,
                        "c1": pipe.c1_trace.real, "gap": pipe.gap},
                 {"energy": round(e_tr, 10), "gap": pipe.gap},
                 abs(e_tr - e_win) < tol and pipe.gap > -tol)


def cmd_verify_soliton(args) -> int:
    rep = _pipeline(args).report()
    return _emit(args, rep.to_dict(),
                 {"c1": round(rep.c1_trace.real, 8),
                  "energy": round(rep.energy, 8), "gap": rep.gap}, rep.passes())


def cmd_moyal(args) -> int:
    params, grid = _setup(args)
    rng = np.random.default_rng(args.seed)
    if args.corpus:
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
    if args.csv:
        _write_csv(args.csv, rows)
    ok = worst_moyal < args.eps0 and all(
        r["energy_gap"] > -1e-6 for r in results) and all(
        (r["energy_gap"] < 1e-6) == r["generalized_gaussian"] for r in results)
    return _emit(args, {"corpus": results, "worst_moyal_relerr": worst_moyal},
                 {"worst_moyal": f"{worst_moyal:.2e}", "windows": len(results)},
                 ok)


def _parse_range(text):
    """'a', 'a:b:h' or comma list -> list of floats."""
    if isinstance(text, list):
        return [float(v) for v in text]
    if ":" in text:
        start, stop, step = (float(v) for v in text.split(":"))
        n = int(np.floor((stop - start) / step + 1e-9)) + 1
        return [start + i * step for i in range(n)]
    return [float(v) for v in text.split(",")]


def _sweep_point(job):
    """One CSV row; frame and solver failures go to its `error` column."""
    alpha, beta, args_dict = job
    args = argparse.Namespace(**{**args_dict, "alpha": alpha, "beta": beta})
    pipe = _pipeline(args)
    row = {"alpha": alpha, "beta": beta, "r": args.r, "s": args.s,
           "q": args.q, "radius": args.radius, "N": args.N,
           "L": pipe.window.spec.L}
    try:
        rep = pipe.report()
    except (NotAFrameError, ConvergenceError) as exc:
        return {**row, "error": str(exc)}
    return {**row, "A": rep.frame_bounds[0], "B": rep.frame_bounds[1],
            "c1_re": rep.c1_trace.real, "c1_im": rep.c1_trace.imag,
            "energy": rep.energy, "gap": rep.gap,
            "sd_plus": rep.sd_residual_plus, "sd_minus": rep.sd_residual_minus,
            "W_residual": rep.w_residual_plus}


def _write_csv(path, rows):
    cols = CSV_COLUMNS + (["error"] if any("error" in r for r in rows) else [])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def cmd_sweep(args) -> int:
    alphas = _parse_range(args.alpha_range)
    betas = _parse_range(args.beta_range)
    args_dict = {k: v for k, v in vars(args).items() if k != "func"}
    jobs = [(a, b, args_dict) for a in alphas for b in betas]
    if args.workers > 1:
        from multiprocessing import Pool
        with Pool(processes=args.workers) as pool:
            rows = pool.map(_sweep_point, jobs)
    else:
        rows = [_sweep_point(j) for j in jobs]
    out_csv = args.csv or "sweep.csv"
    _write_csv(out_csv, rows)
    ok_rows = [r for r in rows if "error" not in r]
    bound_ok = all(r["gap"] > -1e3 * args.eps0 for r in ok_rows)
    return _emit(args, {"points": len(rows), "csv": out_csv,
                        "failed_points": len(rows) - len(ok_rows)},
                 {"points": len(rows), "csv": out_csv}, bound_ok)


def cmd_laurent_data(args) -> int:
    """Emit |F(t1,t2)| heatmap columns for plotting."""
    pipe = _pipeline(args)   # for its window and the seam check
    sym = laurent_symbol(pipe.window, pipe.params, grid=args.mesh,
                         radius=args.radius)
    path = args.csv or "laurent.dat"
    with open(path, "w") as fh:
        fh.write("# t1 t2 absF\n")
        for i, t1 in enumerate(sym.t1):
            for j, t2 in enumerate(sym.t2):
                fh.write(f"{t1} {t2} {abs(sym.values[i, j])}\n")
    return _emit(args, {"min_abs": sym.min_abs, "max_abs": sym.max_abs,
                        "is_riesz": sym.is_riesz, "path": path},
                 {"min_abs": sym.min_abs, "riesz": sym.is_riesz}, True)


TASK_ORDER = ["axioms", "frame", "wexler_raz", "chern", "energy", "soliton", "moyal"]
LATTICE_TASKS = {"frame", "wexler_raz", "chern", "energy", "soliton"}


def cmd_run(args) -> int:
    """Execute a task subset in dependency order, one combined report."""
    requested = {t.strip() for t in
                 (args.tasks.split(",") if isinstance(args.tasks, str) else args.tasks)}
    unknown = requested - set(TASK_ORDER)
    if unknown or not requested:
        raise ValueError(f"unknown or empty tasks {sorted(unknown)}")
    tasks = [t for t in TASK_ORDER if t in requested]
    params, grid = _setup(args)
    results, passed = {}, True

    if "axioms" in tasks:
        residuals = _axiom_residuals(params, np.random.default_rng(args.seed), 25)
        worst = max(residuals["assoc"], residuals["anti_hom"])
        results["axioms"] = {"worst_identity_residual": worst}
        passed &= worst < 1e-11

    if requested & LATTICE_TASKS:
        pipe = _pipeline(args)
        tol = pipe.tolerances
        a_est, b_est = pipe.bounds
        results["frame"] = {"A": a_est, "B": b_est,
                            "residuals": pipe.system.bounds_residuals}
        if "wexler_raz" in tasks:
            results["wexler_raz"] = {"residual": pipe.wexler_raz}
            passed &= pipe.wexler_raz < tol["frame"]
        if "chern" in tasks:
            c1t = pipe.c1_trace
            results["chern"] = {"c1_re": c1t.real, "c1_im": c1t.imag,
                                "c1_sum_re": pipe.c1_sum.real,
                                "rounded": int(round(c1t.real))}
            passed &= _chern_ok(pipe)
        if "energy" in tasks:
            results["energy"] = {"trace_form": pipe.energy_trace,
                                 "window_form": pipe.energy_window,
                                 "gap": pipe.gap}
            passed &= pipe.gap > -tol["chern"]
        if "soliton" in tasks:
            rep = pipe.report()
            results["soliton"] = rep.to_dict()
            passed &= rep.passes()

    if "moyal" in tasks:
        rng = np.random.default_rng(args.seed + 1)
        worst = 0.0
        for _ in range(5):
            f = random_timefreq_probe(grid, rng, spread=1.5)
            w = random_timefreq_probe(grid, rng, spread=1.5)
            worst = max(worst, moyal_check(f, w)[2])
        results["moyal"] = {"worst_relative_error": worst}
        passed &= worst < args.eps0

    return _emit(args, results, {"tasks": tasks}, passed)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ncgabor",
        description="Vector-valued Gabor frames, twisted lattice algebras, "
                    "Connes-Chern numbers and soliton energies")
    sub = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("check-axioms", cmd_check_axioms, []),
        ("frame", cmd_frame, []),
        ("dual", cmd_dual, ["export"]),
        ("tight", cmd_tight, ["export"]),
        ("chern", cmd_chern, []),
        ("energy", cmd_energy, []),
        ("verify-soliton", cmd_verify_soliton, []),
        ("moyal", cmd_moyal, ["csv", "corpus"]),
        ("laurent-data", cmd_laurent_data, ["csv", "mesh"]),
    ]
    for name, func, extras in specs:
        sp = sub.add_parser(name)
        _add_common(sp)
        if "export" in extras:
            sp.add_argument("--export-window", type=str, default=None)
            sp.add_argument("--cg-max-iter", type=int, default=500)
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
                    help="comma list from: " + ",".join(TASK_ORDER))
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("sweep")
    _add_common(sp)
    sp.add_argument("--alpha-range", type=str, default="0.5",
                    help="value, comma list, or start:stop:step")
    sp.add_argument("--beta-range", type=str, default="0.5")
    sp.add_argument("--csv", type=str, default=None)
    sp.add_argument("--workers", type=int, default=1)
    sp.set_defaults(func=cmd_sweep)
    return parser


def _fail(label, exc, code) -> int:
    print(f"{label}: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    """Run one subcommand; the only place where a failure becomes an exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _apply_config_defaults(build_parser().parse_args(argv), argv)
        return args.func(args)
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
