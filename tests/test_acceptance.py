"""Acceptance suite: one test per criterion, each printing a verdict line.

Shared heavy computations (the two flagship soliton pipelines and the
energy-bound sweep) run once per session.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from ncgabor.lattice import LatticeKind, TorusParams, annihilator_params
from ncgabor.signal import (GridSignal, GridSpec, PhasePoint, gaussian,
                            hermite, norm, tf_shift)
from ncgabor.algebra import (inner_left, l1_diff, trace_l, twisted_conv,
                             twisted_star)
from ncgabor.frame import (FrameSystem, canonical_dual, lift_scalar_window,
                           reconstruction_residual, wexler_raz_residual)
from ncgabor.cli import main
from ncgabor.geometry import (chern_trace, covariant, derive, energy, grid_for_radius,
                              projection_residual, sd_residuals, soliton_experiment)
from ncgabor.moyal import (continuous_energy, default_window_corpus,
                           moyal_check)
from conftest import gaussian_probe, random_seq


def _verdict(num, ok, detail):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def q1_case():
    t0 = time.time()
    params = TorusParams(0.5, 0.5)
    rep = soliton_experiment(params, gaussian(grid_for_radius(6.0)), radius=6.0)
    return rep, time.time() - t0


@pytest.fixture(scope="session")
def q2_case():
    t0 = time.time()
    params = TorusParams(0.5, 1 / 3, 1, 1, 2)
    g = lift_scalar_window(gaussian(grid_for_radius(6.0, q=1)), params)
    rep = soliton_experiment(params, g, radius=6.0)
    return rep, time.time() - t0


@pytest.fixture(scope="session")
def q2_case_r8():
    # radius 8 run used for the self-duality residual, where the slowly
    # decaying dual makes the radius-6 lattice tails dominate
    t0 = time.time()
    params = TorusParams(0.5, 1 / 3, 1, 1, 2)
    spec = grid_for_radius(8.0, q=1)
    g = lift_scalar_window(gaussian(spec), params)
    sys_ = FrameSystem(g, params, radius=8.0)
    h = canonical_dual(sys_)
    p = inner_left(g, h, params, 8.0)
    assert projection_residual(p) < 1e-6
    plus, minus = sd_residuals(p)
    return plus, minus, time.time() - t0


def _dual_pair_projection(params, window, radius, cg_tol=1e-5, gate=1e-4):
    sys_ = FrameSystem(window, params, radius=radius)
    h = canonical_dual(sys_, tol=cg_tol)
    p = inner_left(window, h, params, radius)
    defect = projection_residual(p)
    assert defect < gate
    c1 = chern_trace(p)
    e = energy(p)
    return {"c1": c1, "energy": e, "gap": e - abs(c1), "defect": defect}


@pytest.fixture(scope="session")
def energy_sweep():
    """15 Gaussian frames at varying admissible densities + 5 perturbed."""
    rows = []
    q1_points = [(0.5, 0.5), (0.45, 0.45), (0.4, 0.5), (0.55, 0.5),
                 (0.5, 1 / 3), (0.6, 0.4), (0.49, 0.49), (0.52, 0.48),
                 (0.45, 0.55), (0.35, 0.6), (0.62, 0.62), (0.25, 0.5)]
    for a, b in q1_points:
        params = TorusParams(a, b)
        row = _dual_pair_projection(params, gaussian(grid_for_radius(6.0)), 6.0)
        rows.append(("gaussian", params, row))
    for a, b, q in [(0.5, 1 / 3, 2), (1 / 3, 0.5, 2), (0.5, 2 / 15, 3)]:
        params = TorusParams(a, b, 1, 1, q)
        g = lift_scalar_window(gaussian(grid_for_radius(6.0, q=1)), params)
        rows.append(("lifted_gaussian", params,
                     _dual_pair_projection(params, g, 6.0)))
    spec = grid_for_radius(6.0)
    g0 = gaussian(spec)
    perturbations = [(2, 0.10), (2, 0.15), (3, 0.10), (3, 0.15), (2, 0.07)]
    params = TorusParams(0.5, 0.5)
    for order, eps in perturbations[:4]:
        g = g0 + eps * norm(g0) * hermite(spec, order)
        rows.append((f"perturbed_h{order}_{eps}", params,
                     _dual_pair_projection(params, g, 6.0)))
    g = g0 + 0.07 * norm(g0) * (hermite(spec, 2) + hermite(spec, 3))
    rows.append(("perturbed_h2h3_0.07", params,
                 _dual_pair_projection(params, g, 6.0)))
    return rows


def test_criterion_1_chern_integrality(q1_case, q2_case):
    rep1, t1 = q1_case
    rep2, t2 = q2_case
    err1 = abs(rep1.c1_trace - 1.0)
    err2 = abs(rep2.c1_trace - 2.0)
    ok = err1 < 1e-5 and err2 < 1e-4 and t1 < 60 and t2 < 60
    _verdict(1, ok, f"|c1-1|={err1:.2e} (<1e-5, {t1:.1f}s), "
                    f"|c1-2|={err2:.2e} (<1e-4, {t2:.1f}s)")


def test_criterion_2_two_formula_agreement(q1_case, q2_case):
    rep1, _ = q1_case
    rep2, _ = q2_case
    d1 = abs(rep1.c1_trace - rep1.c1_sum)
    d2 = abs(rep2.c1_trace - rep2.c1_sum)
    ok = d1 < 1e-5 and d2 < 1e-5
    _verdict(2, ok, f"|trace-sum| = {d1:.2e}, {d2:.2e} (<1e-5)")


def test_criterion_3_gaussian_energy_minimum(q1_case, q2_case, q2_case_r8):
    rep1, _ = q1_case
    rep2, _ = q2_case
    sd_q2_plus, _, _ = q2_case_r8
    e1 = abs(rep1.energy_trace - 1.0)
    e2 = abs(rep2.energy_trace - 2.0)
    sd1 = min(rep1.self_duality)
    sd2 = min(sd_q2_plus, 1e9)
    ok = e1 < 1e-5 and e2 < 1e-4 and sd1 < 1e-5 and sd2 < 1e-5
    _verdict(3, ok, f"|E-1|={e1:.2e} (<1e-5), |E-2|={e2:.2e} (<1e-4), "
                    f"sd(q=1,R=6)={sd1:.2e}, sd(q=2,R=8)={sd2:.2e} (<1e-5)")


def test_criterion_4_energy_bound_sweep(energy_sweep):
    rows = energy_sweep
    assert len(rows) == 20
    min_gap = min(row["gap"] for _, _, row in rows)
    perturbed = [(name, row) for name, _, row in rows if name.startswith("perturbed")]
    assert len(perturbed) == 5
    min_pert_gap = min(row["gap"] for _, row in perturbed)
    integral = max(abs(row["c1"] - round(row["c1"].real)) for _, _, row in rows)
    ok = min_gap > -1e-4 and min_pert_gap > 1e-2
    _verdict(4, ok, f"{len(rows)} projections: min(E-|c1|)={min_gap:.2e} "
                    f"(>-1e-4), min perturbed gap={min_pert_gap:.2e} (>1e-2), "
                    f"max|c1-round|={integral:.1e}")


# The canonical dual sits far below the 1e-6 gates at both radii: measured
# Wexler-Raz residuals up to 3.7e-12, reconstruction up to 4.6e-9 (the q = 2
# flagship at R = 6).
WR_BOUND, REC_BOUND = 1e-10, 5e-8


def test_criterion_5_wexler_raz_and_reconstruction(rng):
    q2 = TorusParams(0.5, 1 / 3, 1, 1, 2)
    q62 = TorusParams(0.62, 0.62)

    def make_windows(spec):
        g_q2 = lift_scalar_window(GridSignal(GridSpec(spec.L, spec.N, 1),
                                             gaussian(GridSpec(spec.L, spec.N, 1)).values), q2)
        return [
            ("q1_flagship", TorusParams(0.5, 0.5), gaussian(spec), 2.5),
            ("q1_0.62", q62, gaussian(spec), 2.0),
            ("q1_0.62_shifted", q62,
             tf_shift(gaussian(spec), PhasePoint(0.31, 0, 0.31, 0)), 2.0),
            ("q2_flagship", q2, g_q2, 3.0),
        ]

    ok = True
    details = []
    for radius, L in [(6.0, 22.0), (8.0, 26.0)]:
        spec = GridSpec(L=L, N=512)
        for name, params, window, spread in make_windows(spec):
            sys_ = FrameSystem(window, params, radius=radius)
            h = canonical_dual(sys_)
            wr = wexler_raz_residual(window, h, params, radius)
            probes = [gaussian_probe(window.spec, rng, spread=spread) for _ in range(10)]
            rec = reconstruction_residual(probes, window, h, params, radius)
            ok &= wr < 1e-6 and rec < 1e-6 and wr < WR_BOUND and rec < REC_BOUND
            details.append(f"{name} R={radius:g}: wr={wr:.1e}, rec={rec:.1e}")
    _verdict(5, ok, "; ".join(details) + f" (<{WR_BOUND:.0e}, <{REC_BOUND:.0e})")


def test_criterion_6_curvature(rng):
    spec = GridSpec(L=22.0, N=512, q=1)
    worst = 0.0
    for _ in range(10):
        f = gaussian_probe(spec, rng)
        comm = covariant(covariant(f, 2), 1) - covariant(covariant(f, 1), 2)
        target = -2j * np.pi * f
        worst = max(worst, norm(comm - target) / norm(target))
    _verdict(6, worst < 1e-8, f"curvature relative residual {worst:.2e} (<1e-8)")


def test_criterion_7_moyal(rng):
    worst = 0.0
    for q in (1, 2, 3):
        spec = GridSpec(L=16.0, N=512, q=q)
        for _ in range(10):
            f = gaussian_probe(spec, rng, spread=1.5)
            g = gaussian_probe(spec, rng, spread=1.5)
            _, _, err = moyal_check(f, g)
            worst = max(worst, err)
    _verdict(7, worst < 1e-8, f"worst Moyal relative error {worst:.2e} "
                              f"(<1e-8 over q=1,2,3)")


def test_criterion_8_continuous_minimizer_screening():
    spec = GridSpec(L=16.0, N=512, q=1)
    corpus = default_window_corpus(spec)
    ok = len(corpus) == 12
    h1_gap = None
    for name, w, is_gauss in corpus:
        gap = continuous_energy(w) - spec.q
        ok &= gap > -1e-6
        ok &= (gap < 1e-6) == is_gauss
        if name == "hermite1":
            h1_gap = gap
    # golden value E(h1) = 3 frozen after the quadrature-oracle run
    ok &= h1_gap is not None and h1_gap > 0.5 and abs(h1_gap - 2.0) < 1e-6
    _verdict(8, ok, f"12 windows screened; E-q<1e-6 iff generalized Gaussian; "
                    f"E(h1)-1 = {h1_gap:.6f} (golden 2.0)")


def test_criterion_9_algebra_property_suite(rng):
    params = TorusParams(0.5, 1 / 3, 1, 1, 2)
    worst = {"assoc": 0.0, "invol": 0.0, "trace": 0.0, "leibniz": 0.0}
    for i in range(100):
        kind = LatticeKind.TIME_FREQ if i % 2 == 0 else LatticeKind.ADJOINT
        a = random_seq(params, kind, rng, points=8)
        b = random_seq(params, kind, rng, points=8)
        c = random_seq(params, kind, rng, points=8)
        worst["assoc"] = max(worst["assoc"], l1_diff(
            twisted_conv(twisted_conv(a, b), c),
            twisted_conv(a, twisted_conv(b, c))))
        worst["invol"] = max(worst["invol"], l1_diff(
            twisted_star(twisted_conv(a, b)),
            twisted_conv(twisted_star(b), twisted_star(a))))
        if kind is LatticeKind.TIME_FREQ:
            worst["trace"] = max(worst["trace"], abs(
                trace_l(twisted_conv(a, b)) - trace_l(twisted_conv(b, a))))
            for j in (1, 2):
                worst["leibniz"] = max(worst["leibniz"], l1_diff(
                    derive(twisted_conv(a, b), j),
                    twisted_conv(derive(a, j), b) + twisted_conv(a, derive(b, j))))
    ok = all(v < 1e-12 for v in worst.values())
    _verdict(9, ok, "100 random instances each: " + ", ".join(
        f"{k}={v:.1e}" for k, v in worst.items()) + " (<1e-12)")


def test_criterion_10_annihilator_correctness(rng):
    import math
    worst_phase = 0.0
    worst_cov = 0.0
    for _ in range(10):
        q = int(rng.integers(1, 6))
        r = s = 0
        if q > 1:
            units = [u for u in range(1, q) if math.gcd(u, q) == 1]
            r, s = int(rng.choice(units)), int(rng.choice(units))
        p = TorusParams(float(rng.uniform(0.3, 1.5)),
                        float(rng.uniform(0.3, 1.5)), r, s, q)
        adj = annihilator_params(p)
        n = np.arange(-10, 10)
        m = np.arange(-10, 10)
        lam, l = p.alpha * n, (p.r * n) % q
        xi, tau = adj.freq_step * m, (adj.freq_slope * m) % q
        ph = np.exp(2j * np.pi * (np.outer(lam, xi) + np.outer(l, tau) / q))
        worst_phase = max(worst_phase, float(np.abs(ph - 1.0).max()))
        gam, c = p.beta * n, (p.s * n) % q
        xi2, tau2 = adj.time_step * m, (adj.time_slope * m) % q
        ph2 = np.exp(2j * np.pi * (np.outer(gam, xi2) + np.outer(c, tau2) / q))
        worst_phase = max(worst_phase, float(np.abs(ph2 - 1.0).max()))
        worst_cov = max(worst_cov,
                        abs(adj.mu_time * adj.mu_time_perp - 1.0),
                        abs(adj.mu_freq * adj.mu_freq_perp - 1.0))
    ok = worst_phase < 1e-12 and worst_cov < 1e-15
    _verdict(10, ok, f"biorthogonality phase defect {worst_phase:.2e} (<1e-12) "
                     f"over 20x20 boxes, covolume product defect {worst_cov:.1e}")


def test_criterion_11_charge_ladder(tmp_path):
    # one verify-soliton lattice per charge q = 3..7 at α = ½, r = s = 1,
    # and q = 7 again at β = 2/91, R = 6: exit 0, and c₁ (both formulas) and
    # E equal q within the Chern rung
    lattices = [(3, "2/15"), (4, "1/6"), (5, "1/10"), (6, "1/15"), (7, "1/21"), (7, "2/91")]
    codes, errs = {}, {"c1": 0.0, "energy": 0.0, "gap": 0.0}
    for q, beta in lattices:
        out = tmp_path / "report.json"
        code = codes[f"q={q} beta={beta}"] = main([
            "verify-soliton", "--q", str(q), "--alpha", "0.5", "--beta", repr(float(Fraction(beta))),
            "--r", "1", "--s", "1", "--radius", "6", "--out", str(out)])
        if code == 0:
            res = json.loads(out.read_text())["results"]
            for name, err in (("c1", res["c1"]["re"] - q), ("energy", res["energy"] - q),
                              ("gap", res["c1"]["re"] - res["c1"]["sum_re"])):
                errs[name] = max(errs[name], abs(err))
    ok = not any(codes.values()) and max(errs.values()) < 1e-5   # the Chern rung 10³ε₀
    _verdict(11, ok, f"exit codes {codes}: |c1-q|={errs['c1']:.1e}, |E-q|={errs['energy']:.1e}, "
                     f"two-formula gap {errs['gap']:.1e} (<1e-5)")
