import json
import math
from fractions import Fraction

import numpy as np
import pytest

from ncgabor.lattice import LatticeKind, TorusParams
from ncgabor.signal import (GridSignal, GridSpec, PhasePoint, gaussian,
                            hermite, norm, save_signal, tf_shift)
from ncgabor.algebra import LatticeSeq, inner_left, l1_diff, trace_l, twisted_conv
from ncgabor import geometry
from ncgabor.frame import (FrameSystem, ToleranceError, canonical_dual,
                           canonical_tight, lift_channels, lift_scalar_window,
                           wexler_raz_residual)
from ncgabor.geometry import (Pipeline, build_window, chern_sum,
                              chern_trace, covariant, derive, energy,
                              energy_window_form, grid_for_radius,
                              projection_residual, sd_residuals,
                              soliton_experiment)
from conftest import (eight_product_figures, gaussian_probe, loop_twisted_conv,
                      lstsq_w_residuals, random_seq)


@pytest.fixture(scope="module")
def q1_pipeline(params_q1):
    spec = grid_for_radius(6.0)
    g = gaussian(spec)
    sys_ = FrameSystem(g, params_q1, radius=6.0)
    h = canonical_dual(sys_)
    p = inner_left(g, h, params_q1, 6.0)
    return g, h, p


def test_derive_of_delta(params_q1):
    d = LatticeSeq.delta(params_q1, LatticeKind.TIME_FREQ)
    assert derive(d, 1).l1_norm() == 0.0
    assert derive(d, 2).l1_norm() == 0.0
    with pytest.raises(ValueError):
        derive(d, 3)


def test_derive_trace_vanishes(params_q1, rng):
    for _ in range(10):
        a = random_seq(params_q1, LatticeKind.TIME_FREQ, rng)
        for j in (1, 2):
            assert abs(trace_l(derive(a, j))) == 0.0


def test_derive_leibniz(params_q2, rng):
    for kind in (LatticeKind.TIME_FREQ, LatticeKind.ADJOINT):
        for _ in range(10):
            a = random_seq(params_q2, kind, rng)
            b = random_seq(params_q2, kind, rng)
            for j in (1, 2):
                lhs = derive(twisted_conv(a, b), j)
                rhs = twisted_conv(derive(a, j), b) + twisted_conv(a, derive(b, j))
                assert l1_diff(lhs, rhs) < 1e-12


def test_curvature_constant(spec1, rng):
    for _ in range(10):
        f = gaussian_probe(spec1, rng)
        comm = covariant(covariant(f, 2), 1) - covariant(covariant(f, 1), 2)
        target = -2j * np.pi * f
        assert norm(comm - target) / norm(target) < 1e-8


def test_covariant_shift_intertwining(spec1, rng):
    f = gaussian_probe(spec1, rng, spread=1.5)
    lam = 0.73
    shifted = tf_shift(f, PhasePoint(lam, 0, 0.0, 0))
    lhs = covariant(shifted, 1)
    rhs = 2j * np.pi * lam * shifted + tf_shift(covariant(f, 1), PhasePoint(lam, 0, 0.0, 0))
    assert norm(lhs - rhs) / norm(f) < 1e-8
    # ∇₂ commutes with translations
    lhs2 = covariant(shifted, 2)
    rhs2 = tf_shift(covariant(f, 2), PhasePoint(lam, 0, 0.0, 0))
    assert norm(lhs2 - rhs2) / norm(f) < 1e-8


def test_spectral_derivative_vs_finite_differences(spec1, rng):
    # central difference at h = Δx agrees with the spectral ∇₂ to O(h²)
    f = gaussian_probe(spec1, rng)
    h = spec1.dx
    fd = (np.roll(f.values, -1, axis=1) - np.roll(f.values, 1, axis=1)) / (2 * h)
    err = norm(covariant(f, 2) - GridSignal(spec1, fd))
    third = norm(covariant(covariant(covariant(f, 2), 2), 2))
    assert err < (h ** 2 / 6) * third * 1.1
    assert err > (h ** 2 / 6) * third * 0.5  # genuinely O(h²), not smaller


def test_gaussian_eigen_relation(spec1):
    for lam in [0.0, 1.5, 1.0 - 0.8j]:
        g = gaussian(spec1, lam=lam)
        v = covariant(g, 1) + 1j * covariant(g, 2)
        assert norm(v - lam * g) / norm(g) < 1e-8


def test_chern_q1(q1_pipeline):
    _, _, p = q1_pipeline
    assert projection_residual(p) < 1e-6
    c1 = chern_trace(p)
    assert abs(c1 - 1.0) < 1e-6
    assert abs(c1.imag) < 1e-8
    c1s = chern_sum(p)
    assert abs(c1 - c1s) < 1e-5


def _perturbed_gaussian(spec):
    g = gaussian(spec)
    return g + (0.10 * norm(g)) * hermite(spec, 2)


SIX_LATTICES = pytest.mark.parametrize("params, window", [
    (TorusParams(0.5, 0.5), "gaussian"),
    (TorusParams(0.62, 0.62), "gaussian"),
    (TorusParams(0.5, 1 / 3, 1, 1, 2), "lifted_gaussian"),
    (TorusParams(0.5, 2 / 15, 1, 1, 3), "lifted_gaussian"),
    (TorusParams(0.5, 2 / 91, 1, 1, 7), "lifted_gaussian"),
    (TorusParams(0.5, 0.5), _perturbed_gaussian),
], ids=["q1", "a=b=0.62", "q2_flagship", "q3_b=2/15", "q7_b=2/91", "perturbed"])


def _six_lattice_pipeline(params, window):
    spec = grid_for_radius(6.0, q=params.q)
    g = window(spec) if callable(window) else build_window(window, spec, params)
    return Pipeline(params, g, radius=6.0)


@SIX_LATTICES
def test_two_chern_formulas_agree_to_roundoff(params, window):
    # both formulas sum the same table, p = ⟨g,h⟩ on the box at R and 0
    # outside it, so they differ by roundoff, not by truncation
    pipe = _six_lattice_pipeline(params, window)
    assert abs(pipe.c1_trace - pipe.c1_sum) <= 1e-13


@SIX_LATTICES
def test_trace_pairings_match_the_eight_products(params, window):
    # c₁ and E read off trace pairings of P± and ∂ⱼp agree with every product
    # formed; the self-duality residuals are the same two products, bitwise
    pipe = _six_lattice_pipeline(params, window)
    p = pipe.projection
    c1, e, sd = eight_product_figures(p)
    assert abs(chern_trace(p) - c1) <= 1e-13
    assert abs(energy(p) - e) <= 1e-13
    assert sd_residuals(p) == sd
    assert (pipe.c1_trace, pipe.self_duality) == (chern_trace(p), sd)


@pytest.mark.parametrize("params, window", [
    (TorusParams(0.5, 0.5), "gaussian"), (TorusParams(0.62, 0.62), "gaussian"),
    (TorusParams(0.5, 1 / 3, 1, 1, 2), "lifted_gaussian")], ids=["q1", "a=b=0.62", "q2_flagship"])
def test_complement_is_the_anti_soliton(params, window):
    # e = δ₀ − p is a projection with c₁(e) = −c₁(p) and E(e) = E(p), and it
    # solves the anti-self-dual equation ((∂₁ − i∂₂)e)♮e = 0 where p solves the
    # self-dual one: each c₁ formula's two readings cancel (read at most
    # 1.0e-15), ∂ⱼe = −∂ⱼp leaves E bitwise, and the vanishing residual
    # (6.8e-7, 5.4e-5, 4.0e-5) moves to the other sign, against about 9 for the other
    p = _six_lattice_pipeline(params, window).projection
    e = LatticeSeq.delta(params, LatticeKind.TIME_FREQ) - p
    assert projection_residual(e) < 1e-6
    assert abs(chern_trace(e) + chern_trace(p)) <= 2e-15 * params.q
    assert abs(chern_sum(e) + chern_sum(p)) <= 2e-15 * params.q
    assert energy(e) == energy(p)
    (p_plus, p_minus), (e_plus, e_minus) = sd_residuals(p), sd_residuals(e)
    assert max(p_plus, e_minus) < 1e-5 * min(p_minus, e_plus)
    assert min(p_minus, e_plus) > 8


def test_chern_rejects_non_projection(params_q1, rng):
    # the pipeline's defect stage gates every formula that needs p♮p = p
    zero = LatticeSeq.from_entries(params_q1, LatticeKind.TIME_FREQ,
                                   np.zeros((0, 2)), np.zeros(0))
    assert projection_residual(zero) == np.inf
    for p in (random_seq(params_q1, LatticeKind.TIME_FREQ, rng), zero):
        pipe = Pipeline(params_q1, gaussian(grid_for_radius(6.0)))
        pipe.projection = p   # no frame solve: the gate alone is under test
        for stage in ("defect", "c1_trace", "c1_sum", "energy_trace", "energy_window",
                      "self_duality"):
            with pytest.raises(ToleranceError, match="not a projection"):
                getattr(pipe, stage)


def test_energy_q1(q1_pipeline):
    _, _, p = q1_pipeline
    assert projection_residual(p) < 1e-6
    e = energy(p)
    assert abs(e - 1.0) < 1e-5
    assert energy_window_form(p) == pytest.approx(e, abs=1e-6)


def test_energy_at_non_integer_twist_q1():
    # α=β=0.49: 1/(αβ) is not an integer, yet for q=1 the zero function
    # (∇₁+i∇₂)g of the standard Gaussian lies in the adjoint span trivially,
    # so the energy still attains the charge.  The integer condition is
    # needed only to lift scalar frames to q channels.
    p = TorusParams(0.49, 0.49)
    spec = grid_for_radius(6.0)
    g = gaussian(spec)
    sys_ = FrameSystem(g, p, radius=6.0)
    h = canonical_dual(sys_)
    proj = inner_left(g, h, p, 6.0)
    assert projection_residual(proj) < 1e-6
    e = energy(proj)
    c1 = chern_trace(proj)
    assert abs(c1 - 1.0) < 1e-6  # the charge stays pinned to the integer
    assert abs(e - 1.0) < 1e-5
    assert e - abs(c1) > -1e-4   # the energy bound is never violated


def test_sd_residuals_q1(q1_pipeline, params_q1):
    _, _, p = q1_pipeline
    assert projection_residual(p) < 1e-6
    plus, minus = sd_residuals(p)
    assert plus < 1e-5       # the Gaussian satisfies the plus-sign equation
    assert minus > 1.0       # and is far from the anti-self-dual one


def test_sd_residuals_perturbed(params_q1, rng):
    spec = grid_for_radius(6.0)
    g0 = gaussian(spec)
    g = g0 + 0.1 * norm(g0) * hermite(spec, 2)
    sys_ = FrameSystem(g, params_q1, radius=6.0)
    h = canonical_dual(sys_)
    p = inner_left(g, h, params_q1, 6.0)
    assert projection_residual(p) < 1e-6
    plus, minus = sd_residuals(p)
    assert plus > 1e-1 and minus > 1e-1  # non-minimal: both bounded away from 0


def test_energy_bound_with_gap_for_perturbed(params_q1):
    spec = grid_for_radius(6.0)
    g0 = gaussian(spec)
    g = g0 + 0.12 * norm(g0) * hermite(spec, 2)
    sys_ = FrameSystem(g, params_q1, radius=6.0)
    h = canonical_dual(sys_)
    p = inner_left(g, h, params_q1, 6.0)
    assert projection_residual(p) < 1e-6
    e = energy(p)
    c1 = chern_trace(p)
    assert abs(c1 - 1.0) < 1e-5  # integrality of the class survives perturbation
    assert e - abs(c1) > 1e-2


def test_skew_adjoint_trace_identity(spec1, params_q1, rng):
    # tr(<∇f₁,f₂>) = −tr(<f₁,∇f₂>)
    f1, f2 = gaussian_probe(spec1, rng), gaussian_probe(spec1, rng)
    for j in (1, 2):
        lhs = trace_l(inner_left(covariant(f1, j), f2, params_q1, 4.0))
        rhs = -trace_l(inner_left(f1, covariant(f2, j), params_q1, 4.0))
        assert abs(lhs - rhs) < 1e-8


def test_inner_product_leibniz(spec1, params_q1, rng):
    # ∂_j<f,g> = <∇_j f, g> + <f, ∇_j g>, entries compared on the radius box
    f = gaussian_probe(spec1, rng, spread=1.5)
    g = gaussian(spec1)
    for j in (1, 2):
        lhs = derive(inner_left(f, g, params_q1, 6.0), j)
        rhs = (inner_left(covariant(f, j), g, params_q1, 6.0)
               + inner_left(f, covariant(g, j), params_q1, 6.0))
        assert l1_diff(lhs, rhs) < 1e-7


def test_dual_pair_derivative_identity(params_q1, rng):
    # <f₁,∇g>♮<h,f₂> + <f₁,g>♮<∇h,f₂> = 0 for a dual pair (g,h); radius 8
    # keeps the dual's exponential lattice tails below the tolerance
    radius = 8.0
    spec = GridSpec(L=26.0, N=512)
    g = gaussian(spec)
    sys_ = FrameSystem(g, params_q1, radius=radius)
    h = canonical_dual(sys_)
    f1 = gaussian_probe(spec, rng, spread=1.0)
    f2 = gaussian_probe(spec, rng, spread=1.0)
    for j in (1, 2):
        t1 = twisted_conv(inner_left(f1, covariant(g, j), params_q1, radius),
                          inner_left(h, f2, params_q1, radius))
        t2 = twisted_conv(inner_left(f1, g, params_q1, radius),
                          inner_left(covariant(h, j), f2, params_q1, radius))
        total = t1 + t2
        lam, _, gam, _ = total.phase_coords()
        mask = (np.abs(lam) <= radius) & (np.abs(gam) <= radius)
        assert float(np.sum(np.abs(total.values[mask]))) < 1e-6


def test_soliton_experiment_report(params_q1):
    spec = grid_for_radius(6.0)
    pipe = soliton_experiment(params_q1, gaussian(spec), radius=6.0)
    assert pipe.passes() and pipe.chern_ok
    assert pipe.gap == pytest.approx(pipe.energy_trace - abs(pipe.c1_trace))
    assert pipe.self_duality[0] < 1e-5
    assert pipe.w_residuals[0] < 1e-8
    assert pipe.w_residuals[1] > 0.1
    d = pipe.report()
    assert d["admissible"] and d["c1"]["rounded"] == 1
    assert d["passes"] is True
    assert d["tolerances"]["chern"] == pytest.approx(1e-5)
    json.loads(json.dumps(d))  # serializable


@pytest.mark.parametrize("window, params", [
    ("gaussian", TorusParams(0.5, 0.5)), ("hermite:1", TorusParams(0.5, 0.5)),
    ("gaussian", TorusParams(0.62, 0.62)), ("lifted_gaussian", TorusParams(0.5, 1 / 3, 1, 1, 2)),
    ("lifted_gaussian", TorusParams(0.5, 2 / 15, 1, 1, 3)),
    ("lifted_gaussian", TorusParams(0.5, 1 / 21, 1, 1, 7))],
    ids=["q1", "q1_hermite", "q1_0.62", "q2", "q3", "q7"])
def test_w_residuals_match_the_least_squares_route(window, params):
    # the dual's projection g·⟨h, v⟩° against the dense least-squares solve:
    # residuals of order 1 agree to 1e-12, those at roundoff stay below 1e-12
    g = build_window(window, grid_for_radius(6.0, q=params.q), params)
    pipe = Pipeline(params, g, 6.0)
    for got, expected in zip(pipe.w_residuals, lstsq_w_residuals(g, params, 6.0)):
        if expected < 1e-12:
            assert got < 1e-12
        else:
            assert got == pytest.approx(expected, rel=1e-12)
    assert max(pipe.w_residuals) > 0.5   # each case has a residual of order 1


def test_report_validation(params_q1, monkeypatch):
    pipe = Pipeline(params_q1, gaussian(grid_for_radius(6.0)))
    monkeypatch.setattr(geometry, "energy", lambda p: -1.0)
    with pytest.raises(ValueError, match="energy must be nonnegative"):
        pipe.report()


def test_build_window(params_q2, tmp_path):
    spec = grid_for_radius(6.0, q=2)
    w = build_window("lifted_gaussian", spec, params_q2)
    assert w.spec.q == 2
    assert np.array_equal(build_window(None, spec, params_q2).values, w.values)
    h = build_window("hermite:2", spec, params_q2)
    assert norm(h) == pytest.approx(1.0)
    assert np.array_equal(h.values, hermite(spec, 2).values)
    assert np.array_equal(build_window("hermite", spec, params_q2).values,
                          hermite(spec, 1).values)
    save_signal(h, tmp_path / "h.sig")
    assert np.array_equal(build_window(f"file:{tmp_path / 'h.sig'}", spec, params_q2).values,
                          h.values)
    for bad in ("nope", "hermitefoo", "hermite:2:3", "hermite:"):
        with pytest.raises(ValueError, match="unknown window"):
            build_window(bad, spec, params_q2)


def _smallest_twist_lattices(max_q):
    """(q, r, s, β) at α = ½ for every coprime (r, s), q ≤ max_q, with β the
    exact rational that makes the adjoint twist the smallest integer T of
    density 1/(qT − r°s°) < 1."""
    for q in range(2, max_q + 1):
        units = [u for u in range(1, q) if math.gcd(u, q) == 1]
        for r in units:
            for s in units:
                rs = pow(r, -1, q) * pow(s, -1, q)
                t = -(-(2 + rs) // q)
                yield q, r, s, Fraction(2, q * (q * t - rs))


LIFT_LATTICES = list(_smallest_twist_lattices(5))


def _scalar_system(params):
    """The oracle of a lifted Gaussian: its 1-channel window on the scalar
    lattice αℤ×(qβ)ℤ.  On channel-constant f, S_{lift g}(lift f) = q·lift(S f),
    so the q-channel dual is lift(S⁻¹g)/q and the tight window lift(S^{-1/2}g)/√q."""
    return FrameSystem(gaussian(grid_for_radius(6.0)), params.scalar_lattice, 6.0)


@pytest.mark.parametrize("q, r, s, beta", LIFT_LATTICES,
                         ids=[f"q{q}r{r}s{s}" for q, r, s, _ in LIFT_LATTICES])
def test_lifted_dual_matches_the_vector_dual(q, r, s, beta):
    # the six density-½ lattices (scalar lattice ½ × 1) converge like the rest
    params = TorusParams(0.5, float(beta), r, s, q)
    g = lift_scalar_window(gaussian(grid_for_radius(6.0)), params)
    pipe = Pipeline(params, g)
    h_lift = lift_channels(canonical_dual(_scalar_system(params)), q) * (1 / q)
    assert norm(pipe.dual - h_lift) / norm(h_lift) <= 1e-8
    assert wexler_raz_residual(g, h_lift, params, 6.0) < 1e-6
    assert pipe.wexler_raz < 1e-6


LADDER_LATTICES = list(_smallest_twist_lattices(7))


@pytest.mark.parametrize("q, r, s, beta", LADDER_LATTICES,
                         ids=[f"q{q}r{r}s{s}" for q, r, s, _ in LADDER_LATTICES])
def test_lifted_products_match_the_entry_loop(q, r, s, beta):
    # p of a lifted window lives on the columns n₂ ∈ qℤ, so twisted_conv runs
    # on a compressed box; radius 4 keeps the entry loop cheap
    params = TorusParams(0.5, float(beta), r, s, q)
    window = build_window(None, grid_for_radius(4.0, q=q), params)
    p = Pipeline(params, window, radius=4.0).projection
    assert p.col_step % q == 0
    d1, d2 = derive(p, 1), derive(p, 2)
    comm = twisted_conv(d1, d2) - twisted_conv(d2, d1)
    comm_loop = loop_twisted_conv(d1, d2) - loop_twisted_conv(d2, d1)
    for new, old in [(twisted_conv(p, p), loop_twisted_conv(p, p)),
                     (twisted_conv(d1, d2), loop_twisted_conv(d1, d2)), (comm, comm_loop)]:
        assert l1_diff(new, old) <= 1e-13 * old.l1_norm()


def _scalar_lattice_lifts(d):
    """(q, r, s, β) at α = ½, q ≤ 7, for every coprime (r, s) whose lift has
    the scalar lattice ½ℤ × (2/d)ℤ: β = 2/(qd), adjoint twist (d + r°s°)/q ∈ ℤ."""
    yield 1, 0, 0, 2 / d
    for q in range(2, 8):
        units = [u for u in range(1, q) if math.gcd(u, q) == 1]
        for r in units:
            for s in units:
                if (d + pow(r, -1, q) * pow(s, -1, q)) % q == 0:
                    yield q, r, s, 2 / (q * d)


def test_lifts_of_one_scalar_lattice_agree():
    # the defect, c₁/q (both formulas) and E/q of a lifted Gaussian are those
    # of its scalar lattice ½ℤ × ⅖ℤ: fourteen (q, r, s), one problem
    figures = []
    for q, r, s, beta in _scalar_lattice_lifts(5):
        params = TorusParams(0.5, beta, r, s, q)
        pipe = Pipeline(params, build_window(None, grid_for_radius(6.0, q=q), params))
        figures.append([pipe.defect, pipe.c1_trace.real / q, pipe.c1_sum.real / q,
                        pipe.energy_trace / q, pipe.energy_window / q])
    assert len(figures) == 14
    figures = np.array(figures)
    assert np.all(np.ptp(figures, axis=0) <= 1e-14)


def test_lifted_tight_window_matches_the_vector_lanczos_window():
    params = TorusParams(0.5, 2 / 15, 1, 1, 3)
    pipe = Pipeline(params, build_window("lifted_gaussian", grid_for_radius(6.0, q=3), params))
    t_lift = lift_channels(canonical_tight(_scalar_system(params)), 3) * (1 / np.sqrt(3))
    assert norm(pipe.tight[0] - t_lift) / norm(t_lift) < 1e-12
