import json
import re
import sys

import numpy as np
import pytest

from ncgabor import frame
from ncgabor.cli import main
from ncgabor.signal import GridSignal, GridSpec, save_signal


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


def test_bad_config_exit_code(tmp_path):
    code = main(["check-axioms", "--q", "4", "--r", "2", "--s", "1"])
    assert code == 2  # gcd(2,4) != 1
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("alpha 0.4\n")
    assert main(["check-axioms", "--config", str(cfg)]) == 2


def test_frame_failure_exit_code(tmp_path):
    spec = GridSpec(L=22.0, N=512, q=1)
    zero = GridSignal(spec, np.zeros((1, spec.N)))
    wfile = tmp_path / "zero.sig"
    save_signal(zero, wfile)
    code = main(["frame", "--alpha", "0.5", "--beta", "0.5",
                 "--window", f"file:{wfile}"])
    assert code == 3


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


def test_run_task_pipeline(tmp_path):
    out = tmp_path / "run.json"
    code = main(["run", "--alpha", "0.5", "--beta", "0.5",
                 "--tasks", "axioms,frame,wexler_raz,chern,energy",
                 "--out", str(out)])
    assert code == 0
    rep = _load(out)
    res = rep["results"]
    assert set(res) == {"axioms", "frame", "wexler_raz", "chern", "energy"}
    assert res["chern"]["rounded"] == 1
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


def test_missing_window_file_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.sig"
    assert main(["dual", "--window", f"file:{missing}"]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["frame", "laurent-data"])
def test_window_reaching_the_seam_exit_code(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)   # laurent-data writes laurent.dat here
    # on L = 6 the atoms shifted by |lambda| = 6 wrap around the whole circle
    code = main([command, "--L", "6", "--radius", "6", "--window", "hermite:3"])
    assert code == 2
    assert "periodisation seam" in capsys.readouterr().err


def _count_calls(monkeypatch, name):
    """Count calls of ncgabor.frame.<name> through every module holding it."""
    original, calls = getattr(frame, name), []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("ncgabor") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


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
