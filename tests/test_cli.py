import csv
import json
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from ncgabor import algebra, cli, frame, geometry
from ncgabor.cli import CSV_COLUMNS, build_parser, main
from ncgabor.lattice import LatticeKind
from ncgabor.signal import GridSignal, gaussian, save_signal


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def test_check_axioms_exit_zero(tmp_path):
    out = tmp_path / "ax.json"
    code = main(["check-axioms", "--q", "3", "--r", "2", "--s", "1",
                 "--alpha", "0.4", "--beta", "0.7", "--out", str(out)])
    assert code == 0
    rep = _load(out)
    assert rep["pass"] is True
    assert all(v < 1e-11 for v in rep["results"]["residuals"].values())


def test_verify_soliton_q1(tmp_path):
    out = tmp_path / "sol.json"
    code = main(["verify-soliton", "--alpha", "0.5", "--beta", "0.5",
                 "--q", "1", "--out", str(out)])
    assert code == 0
    rep = _load(out)
    assert rep["pass"] is True
    assert abs(rep["results"]["c1"]["re"] - 1.0) < 1e-5
    assert abs(rep["results"]["energy"] - 1.0) < 1e-5


def test_reports_are_deterministic(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        main(["check-axioms", "--seed", "5", "--out", str(out)])
        text = out.read_text()
        text = re.sub(r'"timestamp": "[^"]*"', '"timestamp": "T"', text)
        outs.append(text)
    assert outs[0] == outs[1]


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.4\nbeta = 0.4\nq = 1\nseed = 9\n")
    out = tmp_path / "r.json"
    code = main(["check-axioms", "--config", str(cfg), "--alpha", "0.45",
                 "--out", str(out)])
    assert code == 0
    rep = _load(out)
    assert rep["config"]["alpha"] == 0.45   # flag wins
    assert rep["config"]["beta"] == 0.4     # file fills the rest
    assert rep["config"]["seed"] == 9


def test_config_values_are_parsed_like_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 16\nwindow = gaussian\n")
    out = tmp_path / "r.json"
    assert main(["check-axioms", "--config", str(cfg), "--out", str(out)]) == 0
    assert _load(out)["config"]["L"] == 16.0


@pytest.mark.parametrize("text, message", [
    ("func = x\n", "unrecognized arguments: --func=x"),
    ("alpha = 0.4\nalpha = 0.45\n", "invalid float value: '0.4,0.45'"),
], ids=["unknown-key", "repeated-alpha"])
def test_config_key_that_is_no_flag_value_exits_2(text, message, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["check-axioms", "--config", str(cfg)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("window", ["hermite", "hermite:2", "file:unread.sig"])
def test_lam_with_a_window_that_ignores_it_exit_code(window, capsys):
    assert main(["frame", "--window", window, "--lam", "3"]) == 2
    assert f"configuration error: window {window!r} ignores --lam" in capsys.readouterr().err


def test_repeated_config_key_is_one_comma_list(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("alpha_range = 0.45\nalpha_range = 0.5\n")
    from_file, from_flag = tmp_path / "file.csv", tmp_path / "flag.csv"
    assert main(["sweep", "--config", str(cfg), "--csv", str(from_file),
                 "--out", str(tmp_path / "a.json")]) == 0
    assert main(["sweep", "--alpha-range", "0.45,0.5", "--csv", str(from_flag),
                 "--out", str(tmp_path / "b.json")]) == 0
    assert from_file.read_text() == from_flag.read_text()
    assert len(from_file.read_text().strip().splitlines()) == 3


def test_bad_config_exit_code(tmp_path):
    code = main(["check-axioms", "--q", "4", "--r", "2", "--s", "1"])
    assert code == 2  # gcd(2,4) != 1
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("alpha 0.4\n")
    assert main(["check-axioms", "--config", str(cfg)]) == 2


def test_lift_failure_reports_the_scalar_frame_bounds(capsys):
    # the scalar lattice αℤ×(qβ)ℤ = ½ℤ×2ℤ is critical: the lift refuses the
    # lifted Gaussian with the bounds `frame` reports on that lattice
    assert main(["frame", "--q", "2", "--alpha", "0.5", "--beta", "1",
                 "--r", "1", "--s", "1"]) == 3
    lifted = capsys.readouterr().err
    assert main(["frame", "--alpha", "0.5", "--beta", "2"]) == 3
    assert lifted == capsys.readouterr().err == (
        "frame failure: not a frame (numerically): A=-3.107e-03, B=2.003e+00\n")


NO_FRAME = {"2": ["--alpha", "2", "--beta", "2"], "1": ["--alpha", "1", "--beta", "1"],
            "hermite:3": ["--window", "hermite:3"]}


@pytest.mark.parametrize("case", list(NO_FRAME))
@pytest.mark.parametrize("command", [["frame"], ["chern"], ["energy"],
                                     ["run", "--tasks", "chern,energy"], ["dual"], ["tight"]],
                         ids=" ".join)
def test_formula_stages_exit_where_frame_does(command, case, capsys):
    # at α = β = 2 or 1, and for hermite:3 at α = β = 1/2, the window is no
    # frame: every formula stage reads the bounds before p, so none reports the
    # c1 = E = 0 of a projection of no frame, and a dual or tight solve that
    # fails reads them before its seam or solver fault; at αβ = 4 > 1 the
    # frame system itself is refused (density theorem), before any solve
    assert main([*command, *NO_FRAME[case]]) == 3
    assert capsys.readouterr().err.startswith("frame failure: not a frame (numerically)")


def test_solver_failure_exit_code():
    code = main(["dual", "--alpha", "0.5", "--beta", "0.5",
                 "--cg-max-iter", "1"])
    assert code == 4


def test_dual_and_export(tmp_path):
    out = tmp_path / "dual.json"
    wfile = tmp_path / "dual.sig"
    code = main(["dual", "--alpha", "0.5", "--beta", "0.5", "--out", str(out),
                 "--export-window", str(wfile)])
    assert code == 0
    rep = _load(out)
    assert rep["results"]["wexler_raz_residual"] < 1e-6
    assert rep["results"]["reconstruction_residual"] < 1e-6
    assert wfile.exists()


def test_tight_command(tmp_path):
    out = tmp_path / "tight.json"
    code = main(["tight", "--alpha", "0.5", "--beta", "0.5", "--out", str(out)])
    assert code == 0
    assert _load(out)["results"]["gauge_identity_residual"] < 1e-6


def test_flagship_tight_reconstruction_miss_writes_a_failing_report(tmp_path, capsys):
    # the flagship's tight window is its own dual to roundoff; its reconstruction
    # truncated at R = 6 misses 1e-6, and the report says so (exit 1, not 4)
    out = tmp_path / "tight.json"
    assert main(["tight", "--q", "2", "--alpha", "0.5", "--beta", repr(1 / 3),
                 "--r", "1", "--s", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    rep = _load(out)
    assert rep["pass"] is False
    assert f"{rep['results']['reconstruction_residual']:.3e}" == "3.190e-06"
    assert rep["results"]["wexler_raz_residual"] < 1e-15
    assert rep["results"]["gauge_identity_residual"] < 1e-6


def test_chern_command(tmp_path):
    out = tmp_path / "chern.json"
    code = main(["chern", "--alpha", "0.5", "--beta", "0.5", "--out", str(out)])
    assert code == 0
    rep = _load(out)
    assert rep["results"]["c1_rounded"] == 1
    assert rep["results"]["two_formula_gap"] < 1e-5


def test_energy_command(tmp_path):
    out = tmp_path / "energy.json"
    code = main(["energy", "--alpha", "0.5", "--beta", "0.5", "--out", str(out)])
    assert code == 0
    rep = _load(out)
    assert abs(rep["results"]["energy_trace"] - 1.0) < 1e-5
    assert rep["results"]["gap"] > -1e-5


def test_moyal_command(tmp_path):
    out = tmp_path / "moyal.json"
    csv_path = tmp_path / "moyal.csv"
    code = main(["moyal", "--q", "1", "--L", "16", "--out", str(out),
                 "--csv", str(csv_path)])
    assert code == 0
    rep = _load(out)
    assert rep["results"]["worst_moyal_relerr"] < 1e-8
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 13  # header + 12 corpus rows
    assert lines[0].startswith("alpha,beta,")


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.json"
    csv_path = tmp_path / "sweep.csv"
    code = main(["sweep", "--alpha-range", "0.45:0.55:0.05",
                 "--beta-range", "0.5", "--q", "1",
                 "--csv", str(csv_path), "--out", str(out)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 4  # header + 3 alpha values
    header = lines[0].split(",")
    for col in ["alpha", "beta", "A", "B", "c1_re", "energy", "gap", "radius"]:
        assert col in header
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        assert abs(float(row["c1_re"]) - 1.0) < 1e-5
        assert float(row["energy"]) >= 1.0 - 1e-5


def test_sweep_records_a_missed_tolerance_and_fails(tmp_path):
    # at radius 8 the β = 1 point misses idempotency (1.138e-6 > 1e-6); β = 0.5 passes
    out, csv_path = tmp_path / "sweep.json", tmp_path / "sweep.csv"
    assert main(["sweep", "--alpha-range", "0.5", "--beta-range", "0.5,1", "--radius", "8",
                 "--csv", str(csv_path), "--out", str(out)]) == 1
    rep = _load(out)
    assert rep["pass"] is False
    assert rep["results"]["points"] == 2 and rep["results"]["failed_points"] == 1
    header, *lines = csv_path.read_text().strip().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert [float(r["beta"]) for r in rows] == [0.5, 1.0]
    assert rows[0]["error"] == "" and abs(float(rows[0]["c1_re"]) - 1.0) < 1e-5
    assert rows[1]["error"].startswith("not a projection: idempotency residual")
    assert rows[1]["c1_re"] == ""


def test_sweep_without_a_verified_point_fails(tmp_path):
    # the only point misses idempotency at R = 6: its row records the failure
    # and nothing is verified, so the sweep cannot pass
    out, csv_path = tmp_path / "sweep.json", tmp_path / "sweep.csv"
    assert main(["sweep", "--alpha-range", "0.5", "--beta-range", "1",
                 "--csv", str(csv_path), "--out", str(out)]) == 1
    rep = _load(out)
    assert rep["pass"] is False
    assert rep["results"]["points"] == 1 and rep["results"]["failed_points"] == 1
    header, line = csv_path.read_text().strip().splitlines()
    assert header.split(",") == CSV_COLUMNS + ["error"]
    assert line.split(",")[-1].startswith(
        "not a projection: idempotency residual 2.545e-05")


def test_sweep_records_a_dual_at_the_seam_and_fails(tmp_path):
    # at α = 0.95 the dual reaches the seam (relative mass 1.103e-06): its row
    # records it, the other two points miss idempotency, and the sweep fails
    out, csv_path = tmp_path / "sweep.json", tmp_path / "sweep.csv"
    assert main(["sweep", "--alpha-range", "0.85,0.9,0.95", "--beta-range", "0.95",
                 "--csv", str(csv_path), "--out", str(out)]) == 1
    assert _load(out)["results"] == {"points": 3, "csv": str(csv_path), "failed_points": 3}
    header, *lines = csv_path.read_text().strip().splitlines()
    rows = [dict(zip(header.split(","), next(csv.reader([line])))) for line in lines]
    assert [r["error"].split(":")[0] for r in rows] == [
        "not a projection", "not a projection", "dual window reaches the periodisation seam"]
    assert "relative mass 1.103e-06" in rows[2]["error"]


def test_sweep_records_a_negative_symbol_in_its_row(tmp_path):
    # at alpha = 0.8 the dual's Lanczos run reads a negative Ritz value, a grid
    # fault: its row records it, like a seam fault, and the sweep fails
    out, csv_path = tmp_path / "sweep.json", tmp_path / "sweep.csv"
    assert main(["sweep", "--window", "hermite:1", "--alpha-range", "0.5,0.8",
                 "--beta-range", "0.8", "--csv", str(csv_path), "--out", str(out)]) == 1
    assert _load(out)["results"]["points"] == 2
    header, *lines = csv_path.read_text().strip().splitlines()
    rows = [dict(zip(header.split(","), next(csv.reader([line])))) for line in lines]
    assert [float(r["alpha"]) for r in rows] == [0.5, 0.8]
    assert rows[1]["error"].startswith("the frame operator's symbol is negative")


def test_sweep_records_a_lift_failure_in_its_row(tmp_path):
    # the lifted Gaussian is no frame at beta = 1 (its scalar lattice is
    # critical): that row records the lift's failure, and the beta = 1/3 point
    # still verifies, so the sweep passes
    out, csv_path = tmp_path / "sweep.json", tmp_path / "sweep.csv"
    assert main(["sweep", "--q", "2", "--r", "1", "--s", "1", "--alpha-range", "0.5",
                 "--beta-range", f"{1 / 3!r},1", "--csv", str(csv_path),
                 "--out", str(out)]) == 0
    assert _load(out)["results"]["failed_points"] == 1
    header, *lines = csv_path.read_text().strip().splitlines()
    rows = [dict(zip(header.split(","), next(csv.reader([line])))) for line in lines]
    assert rows[0]["error"] == "" and abs(float(rows[0]["c1_re"]) - 2.0) < 1e-5
    assert rows[1]["error"] == "not a frame (numerically): A=-3.107e-03, B=2.003e+00"
    assert float(rows[1]["L"]) == float(rows[0]["L"]) == 22.0


def test_sweep_does_not_verify_a_point_above_critical_density(tmp_path):
    # at |αβ| = 1.44 no window generates a frame (density theorem): the row is
    # the frame failure, with A = 0 and B = ‖⟨g,g⟩°‖₁, and no c1 or energy,
    # and a sweep that verifies no point fails
    out, csv_path = tmp_path / "sweep.json", tmp_path / "sweep.csv"
    assert main(["sweep", "--alpha-range", "1.2", "--beta-range", "1.2",
                 "--csv", str(csv_path), "--out", str(out)]) == 1
    assert _load(out)["results"]["failed_points"] == 1
    header, line = csv_path.read_text().strip().splitlines()
    row = dict(zip(header.split(","), next(csv.reader([line]))))
    assert row["c1_re"] == row["energy"] == ""
    assert row["error"] == "not a frame (numerically): A=0.000e+00, B=1.415e+00"


def test_sweep_row_of_a_point_that_runs_through_unverified(tmp_path, monkeypatch):
    # a point whose verdict fails keeps its values, its error names the failed
    # checks, and the sweep fails
    monkeypatch.setattr(geometry.Pipeline, "chern_ok", property(lambda self: False))
    out, csv_path = tmp_path / "sweep.json", tmp_path / "sweep.csv"
    assert main(["sweep", "--csv", str(csv_path), "--out", str(out)]) == 1
    header, line = csv_path.read_text().strip().splitlines()
    row = dict(zip(header.split(","), next(csv.reader([line]))))
    assert abs(float(row["c1_re"]) - 1.0) < 1e-5
    assert row["error"] == "unverified: chern_ok failed"


def test_run_task_pipeline(tmp_path):
    out = tmp_path / "run.json"
    code = main(["run", "--alpha", "0.5", "--beta", "0.5",
                 "--tasks", "axioms,frame,wexler_raz,chern,energy",
                 "--out", str(out)])
    assert code == 0
    rep = _load(out)
    res = rep["results"]
    assert set(res) == {"axioms", "frame", "wexler_raz", "chern", "energy"}
    assert res["chern"]["c1_rounded"] == 1
    assert res["energy"]["gap"] > -1e-5
    assert "residuals" in res["frame"]
    assert main(["run", "--tasks", "bogus"]) == 2


def test_laurent_data_emission(tmp_path):
    out = tmp_path / "laurent.json"
    dat = tmp_path / "laurent.dat"
    code = main(["laurent-data", "--alpha", "0.5", "--beta", "0.5",
                 "--mesh", "16", "--csv", str(dat), "--out", str(out)])
    assert code == 0
    rep = _load(out)
    assert rep["results"]["is_riesz"] is True
    rows = dat.read_text().strip().splitlines()
    assert rows[0].startswith("#")
    assert len(rows) == 1 + 16 * 16


@pytest.mark.parametrize("command", ["chern", "energy", "verify-soliton"])
def test_tolerance_failure_exit_code(command, capsys):
    # at radius 2 the truncated p = <g,h> misses idempotency at the frame rung
    assert main([command, "--radius", "2"]) == 1
    assert "tolerance failure: not a projection" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["energy"], ["run", "--tasks", "energy"],
                                     ["verify-soliton"], ["sweep"]], ids=" ".join)
def test_energy_forms_that_disagree_fail_every_energy_verdict(command, tmp_path,
                                                              monkeypatch):
    # E by window form off by 1.0 while E >= |c1| still holds: one verdict, energy_ok
    monkeypatch.chdir(tmp_path)   # sweep writes sweep.csv here
    window_form = geometry.energy_window_form
    monkeypatch.setattr(geometry, "energy_window_form", lambda *a: window_form(*a) + 1.0)
    assert main(command) == 1


def test_missing_window_file_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.sig"
    assert main(["dual", "--window", f"file:{missing}"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_malformed_window_file_exit_code(tmp_path, capsys):
    # a row whose (k, j) is out of range at q = 1 is a configuration error
    wfile = tmp_path / "window.sig"
    save_signal(gaussian(geometry.grid_for_radius(6.0)), wfile)
    rows = wfile.read_text().splitlines()
    wfile.write_text("\n".join([rows[0], "3 7 1.0 0.0", *rows[2:]]) + "\n")
    assert main(["frame", "--window", f"file:{wfile}"]) == 2
    assert "line 2: sample (3, 7) is repeated or outside q = 1" in capsys.readouterr().err


@pytest.mark.parametrize("window", ["hermitefoo", "hermite:2:3"])
def test_unknown_window_exit_code(window, capsys):
    assert main(["frame", "--window", window]) == 2
    assert f"configuration error: unknown window {window!r}" in capsys.readouterr().err


@pytest.mark.parametrize("mesh", ["0", "-4"])
def test_laurent_mesh_below_one_exit_code(mesh, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)   # laurent-data would write laurent.dat here
    assert main(["laurent-data", "--mesh", mesh]) == 2
    assert f"Laurent mesh must be at least 1, got {mesh}" in capsys.readouterr().err
    assert not (tmp_path / "laurent.dat").exists()


@pytest.mark.parametrize("command", ["frame", "laurent-data"])
def test_window_reaching_the_seam_exit_code(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)   # laurent-data writes laurent.dat here
    # on L = 6 the atoms shifted by |lambda| = 6 wrap around the whole circle
    code = main([command, "--L", "6", "--radius", "6", "--window", "hermite:3"])
    assert code == 2
    assert "periodisation seam" in capsys.readouterr().err


def test_atom_box_over_budget_exit_code(tmp_path, capsys):
    # radius 2100 at alpha = beta = 1/2 needs a 2101x2101 box of adjoint atoms
    assert main(["frame", "--radius", "2100", "--out", str(tmp_path / "r.json")]) == 2
    assert "a 2101x2101 box of 512-sample atoms exceeds" in capsys.readouterr().err


def test_atom_box_is_refused_from_its_index_bounds(tmp_path, capsys):
    # the box of radius 1e6 is refused from K₁ and K₂ alone: no array of its
    # size exists first, such as its two 2·10⁶-entry axes (16 MB)
    tracemalloc.start()
    try:
        code = main(["chern", "--radius", "1e6", "--out", str(tmp_path / "r.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 1 << 20
    assert ("configuration error: a 1000001x1000001 box of 512-sample atoms exceeds"
            in capsys.readouterr().err)


def test_dual_reaching_the_seam_exit_code(monkeypatch, capsys):
    # the dual is gated at the seam by the window's rule: a stub dual centred
    # on x = L/2 puts half its mass outside |x| <= L/2 - radius
    def at_the_seam(system, **kwargs):
        g = system.window
        return GridSignal(g.spec, np.roll(g.values, g.spec.N // 2, axis=1))

    monkeypatch.setattr(geometry, "canonical_dual", at_the_seam)
    assert main(["dual"]) == 2
    assert ("configuration error: dual window reaches the periodisation seam"
            in capsys.readouterr().err)


def test_tight_window_reaching_the_seam_exit_code(monkeypatch, capsys):
    # the tight window S_g^{-1/2}g is gated at the seam by the dual's rule,
    # before its Wexler-Raz residual is read
    def at_the_seam(system, **kwargs):
        g = system.window
        return GridSignal(g.spec, np.roll(g.values, g.spec.N // 2, axis=1))

    monkeypatch.setattr(geometry, "canonical_tight", at_the_seam)
    assert main(["tight"]) == 2
    assert ("configuration error: tight window reaches the periodisation seam"
            in capsys.readouterr().err)


@pytest.mark.parametrize("flags", [
    ["frame", "--radius", "20"], ["frame", "--N", "128"], ["dual", "--N", "128"],
    ["dual", "--radius", "20"], ["tight", "--N", "128"],
    ["frame", "--alpha", "0.62", "--beta", "0.62", "--radius", "20"],
    ["laurent-data", "--N", "128"], ["laurent-data", "--radius", "20"]])
def test_negative_symbol_is_a_grid_error_exit_code(flags, capsys, tmp_path, monkeypatch):
    # S_g >= 0, so mesh values of its symbol far below zero (-1.98 against a
    # maximum of 12.0 at R = 20, where N = 512 undersamples L = 50; -2.53
    # against 8.26 at N = 128, which dual and tight read once their Lanczos
    # run's Ritz values fail), or a Rayleigh-Ritz estimate far below zero,
    # show that the grid does not represent S_g; laurent-data's Riesz verdict
    # reads the same symbol bounds
    monkeypatch.chdir(tmp_path)   # laurent-data writes laurent.dat here
    assert main(flags) == 2
    err = capsys.readouterr().err
    assert "configuration error: the frame operator's symbol is negative" in err
    assert "raise --N or lower --radius" in err


def test_negative_energy_is_a_tolerance_failure_exit_code(monkeypatch, capsys):
    # E >= 0 is an identity of the chain: a negative reading fails it (exit 1)
    monkeypatch.setattr(geometry, "energy", lambda p: -1.0)
    assert main(["verify-soliton"]) == 1
    assert "tolerance failure: energy must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--alpha", "1", "--beta", "1"], ["--window", "hermite:3"]])
def test_vanishing_symbol_is_a_frame_failure_exit_code(flags, capsys):
    # the symbol's mesh minimum is a roundoff zero here (its widened lower bound
    # is -1.3e-3 at alpha = beta = 1): not a frame, and no grid error
    assert main(["frame", *flags]) == 3
    assert "frame failure: not a frame" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [0.0, 1e-8], ids=["zero", "tiny_gaussian"])
def test_vanishing_frame_operator_is_a_frame_failure_exit_code(scale, tmp_path,
                                                               monkeypatch, capsys):
    # every <g,g>° entry of these windows falls under PRUNE_TOL, so S_g = 0:
    # each solve or check refuses the frame system, and the Riesz verdict is false
    monkeypatch.chdir(tmp_path)
    wfile = tmp_path / "window.sig"
    save_signal(gaussian(geometry.grid_for_radius(6.0)) * scale, wfile)
    window = ["--window", f"file:{wfile}"]
    for command in ("frame", "dual", "tight", "verify-soliton", "chern"):
        assert main([command, *window]) == 3, command
        assert ("frame failure: not a frame (numerically): A=0.000e+00, B=0.000e+00"
                in capsys.readouterr().err)
    out = tmp_path / "laurent.json"
    assert main(["laurent-data", *window, "--out", str(out)]) == 0
    assert _load(out)["results"]["is_riesz"] is False


def _count_calls(monkeypatch, name, owner=frame):
    """Record the positional arguments of every call of <owner>.<name>,
    through every module holding it."""
    original, calls = getattr(owner, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("ncgabor") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_verify_soliton_checks_idempotency_once(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, "projection_residual", geometry)
    assert main(["verify-soliton", "--out", str(tmp_path / "sol.json")]) == 0
    assert len(calls) == 1


def test_verify_soliton_forms_three_products(tmp_path, monkeypatch):
    # p♮p for the defect and P± = (∂₁p ± i∂₂p)♮p; c₁ by trace and E read
    # trace pairings, not products
    calls = _count_calls(monkeypatch, "twisted_conv", algebra)
    assert main(["verify-soliton", "--out", str(tmp_path / "sol.json")]) == 0
    assert len(calls) == 3


def test_verify_soliton_analyses_the_time_frequency_lattice_once(tmp_path, monkeypatch):
    # p = ⟨g,h⟩ is analysed once, by inner_left, and both c₁ formulas read it
    calls = _count_calls(monkeypatch, "_pairing", algebra)
    assert main(["verify-soliton", "--out", str(tmp_path / "sol.json")]) == 0
    assert [args[3] for args in calls].count(LatticeKind.TIME_FREQ) == 1


@pytest.mark.parametrize("eps0", ["0", "nan", "inf", "-1e-8", "1e306"])   # 1e3*1e306 = inf
@pytest.mark.parametrize("command", ["verify-soliton", "dual", "moyal"])
def test_eps0_not_finite_and_positive_exit_code(command, eps0, tmp_path, monkeypatch,
                                                capsys):
    setups = _count_calls(monkeypatch, "_setup", cli)
    out = tmp_path / "r.json"
    assert main([command, f"--eps0={eps0}", "--out", str(out)]) == 2
    assert ("configuration error: eps0 must be finite and positive"
            in capsys.readouterr().err)
    assert setups == [] and not out.exists()   # refused before the view runs


@pytest.mark.parametrize("flags, message", [
    (["--L", "inf"], "period L must be finite and positive, got inf"),
    (["--L", "nan"], "period L must be finite and positive, got nan"),
    (["--L", "16", "--radius", "nan"], "radius must be finite and positive, got nan")],
    ids=["L-inf", "L-nan", "radius-nan"])
def test_grid_value_not_finite_exit_code(flags, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # refused before any numpy arithmetic warns
        assert main(["frame", *flags]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err


def test_run_and_sweep_share_the_soliton_pipeline(tmp_path, monkeypatch):
    sol, run, sweep = (tmp_path / n for n in ("sol.json", "run.json", "sweep.csv"))
    assert main(["verify-soliton", "--seed", "3", "--out", str(sol)]) == 0
    expected = _load(sol)["results"]

    bounds_calls = _count_calls(monkeypatch, "frame_bounds")
    dual_calls = _count_calls(monkeypatch, "canonical_dual")
    assert main(["run", "--seed", "3", "--out", str(run), "--tasks",
                 "frame,wexler_raz,chern,energy,soliton"]) == 0
    assert (len(bounds_calls), len(dual_calls)) == (1, 1)
    assert _load(run)["results"]["soliton"] == expected

    assert main(["sweep", "--seed", "3", "--csv", str(sweep),
                 "--out", str(tmp_path / "sweep.json")]) == 0
    header, line = sweep.read_text().strip().splitlines()
    row = {k: float(v) for k, v in zip(header.split(","), line.split(","))}
    assert (row["A"], row["B"]) == (expected["frame_bounds"]["A"],
                                    expected["frame_bounds"]["B"])
    assert (row["c1_re"], row["c1_im"]) == (expected["c1"]["re"],
                                            expected["c1"]["im"])
    assert (row["energy"], row["gap"]) == (expected["energy"], expected["gap"])
    assert (row["sd_plus"], row["sd_minus"], row["W_residual"]) == (
        expected["sd_residuals"]["plus"], expected["sd_residuals"]["minus"],
        expected["w_residuals"]["plus"])


@pytest.mark.parametrize("flags", [
    ["--alpha-range", "0.4:0.6:0"],     # zero step
    ["--alpha-range", "0.4:0.6:-0.1"],  # negative step
    ["--alpha-range", "0.6:0.4:0.1"],   # empty range
    ["--workers", "0"],
    ["--workers", "-2"],
])
def test_sweep_rejects_bad_input(flags, tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep", *flags, "--csv", str(csv_path)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not csv_path.exists()


def test_sweep_pool_is_no_larger_than_the_job_list(tmp_path, monkeypatch):
    import multiprocessing
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [fn(job) for job in jobs]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--alpha-range", "0.5,0.5", "--workers", "8",
                 "--csv", str(csv_path), "--out", str(tmp_path / "s.json")]) == 0
    assert sizes == [2]
    assert len(csv_path.read_text().strip().splitlines()) == 3


@pytest.mark.parametrize("line", ["bad =", "bad gaussian", "h = hermite n=x", "w = sinc",
                                  "h = hermite n=-1", "b = bump width=0",
                                  "n = noise bandwidth=-1", "n = noise bandwidth=nan",
                                  "n = noise envelope=inf", "n = noise envelope=0",
                                  "b = bump width=inf", "b = bump power=-1"])
def test_malformed_corpus_line_exit_code(line, tmp_path, capsys):
    corpus = tmp_path / "corpus.cfg"
    corpus.write_text(f"# two windows\ngaussian = gaussian lam=0\n{line}\n")
    assert main(["moyal", "--q", "1", "--L", "16", "--corpus", str(corpus)]) == 2
    err = capsys.readouterr().err
    assert "configuration error: corpus line 3" in err and repr(line) in err


def test_steep_generalized_gaussian_corpus_line(tmp_path):
    # e^{−πx² + 50x} peaks near x = 8 at about e¹⁹⁹, so ‖g‖⁴ is past the
    # largest float; E is scale-invariant, and the Gaussian still attains 1
    corpus, out = tmp_path / "corpus.cfg", tmp_path / "moyal.json"
    corpus.write_text("g = gaussian lam=50j\n")
    assert main(["moyal", "--corpus", str(corpus), "--out", str(out)]) == 0
    assert _load(out)["results"]["corpus"][0]["energy"] == pytest.approx(1.0, abs=1e-9)


def test_run_axioms_gates_every_identity(tmp_path, monkeypatch):
    def residuals(params, rng):
        worst = dict.fromkeys(("assoc", "involution", "anti_hom", "trace_cyclic",
                               "leibniz", "unit"), 0.0)
        worst["leibniz"] = 1e-9
        return worst

    monkeypatch.setattr(cli, "_axiom_residuals", residuals)
    out = tmp_path / "run.json"
    assert main(["run", "--tasks", "axioms", "--out", str(out)]) == 1
    assert _load(out)["results"]["axioms"]["residuals"]["leibniz"] == 1e-9


RUN_TASK_COMMANDS = {"axioms": "check-axioms", "frame": "frame", "wexler_raz": "dual",
                     "chern": "chern", "energy": "energy", "soliton": "verify-soliton",
                     "moyal": "moyal"}


@pytest.mark.parametrize("task", RUN_TASK_COMMANDS)
def test_run_blocks_are_the_subcommand_results(task, tmp_path):
    alone, run = tmp_path / "alone.json", tmp_path / "run.json"
    code = main([RUN_TASK_COMMANDS[task], "--seed", "3", "--out", str(alone)])
    assert main(["run", "--seed", "3", "--tasks", task, "--out", str(run)]) == code
    assert _load(run)["results"] == {task: _load(alone)["results"]}


def test_run_chern_estimates_frame_bounds_once(tmp_path, monkeypatch):
    # c1 reads the bounds before p, so that no frame failure passes as c1 = 0
    bounds_calls = _count_calls(monkeypatch, "frame_bounds")
    assert main(["run", "--tasks", "chern", "--out", str(tmp_path / "run.json")]) == 0
    assert len(bounds_calls) == 1


def _report_without_timestamp(path):
    rep = _load(path)
    del rep["timestamp"]
    return rep


def test_parser_built_once_gives_the_reports_of_fresh_parsers(tmp_path):
    # successive main() calls share one parser: no flag, default or --config
    # value of one call may leak into the next
    cfg = tmp_path / "q2.cfg"
    cfg.write_text("q = 2\nr = 1\ns = 1\nbeta = 0.3333333333333333\nseed = 4\n")
    runs = [["check-axioms", "--seed", "3"],
            ["laurent-data", "--mesh", "4", "--csv", str(tmp_path / "l.dat")],
            ["check-axioms", "--config", str(cfg)],
            ["check-axioms"],
            ["check-axioms", "--config", str(cfg), "--seed", "5"]]
    shared, fresh = [], []
    for n, argv in enumerate(runs):
        assert main([*argv, "--out", str(tmp_path / f"shared{n}.json")]) == 0
        shared.append(_report_without_timestamp(tmp_path / f"shared{n}.json"))
    assert build_parser() is build_parser()
    for n, argv in enumerate(runs):
        build_parser.cache_clear()
        assert main([*argv, "--out", str(tmp_path / f"fresh{n}.json")]) == 0
        fresh.append(_report_without_timestamp(tmp_path / f"fresh{n}.json"))
    assert shared == fresh
    assert [r["config"]["seed"] for r in shared] == [3, 0, 4, 0, 5]
    assert [r["config"]["q"] for r in shared] == [1, 1, 2, 1, 2]
