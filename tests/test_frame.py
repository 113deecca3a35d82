import numpy as np
import pytest

from ncgabor.lattice import LatticeKind, TorusParams
from ncgabor.signal import (GridSignal, GridSpec, PhasePoint, gaussian,
                            hermite, inner, norm, tf_shift)
from ncgabor.algebra import (LatticeSeq, act_left, act_right, inner_left,
                             inner_right, l1_diff, trace_l, twisted_conv,
                             twisted_star)
from ncgabor.frame import (ConvergenceError, FrameSystem, NotAFrameError,
                           _cg_solve, adjoint_shift_family,
                           adjoint_span_residual, canonical_dual,
                           canonical_tight, frame_bounds, laurent_symbol,
                           lift_scalar_window, project_dual_pair,
                           reconstruction_residual, wexler_raz_residual)
from ncgabor.geometry import grid_for_radius
from conftest import gaussian_probe, phase_point


@pytest.fixture(scope="module")
def sys_q1(spec1, params_q1):
    return FrameSystem(gaussian(spec1), params_q1, radius=6.0)


@pytest.fixture(scope="module")
def dual_q1(sys_q1):
    return canonical_dual(sys_q1)


@pytest.fixture(scope="module")
def sys_q2(params_q2):
    spec = grid_for_radius(6.0, q=1)
    g = lift_scalar_window(gaussian(spec), params_q2)
    return FrameSystem(g, params_q2, radius=6.0)


def test_frame_operator_positive_selfadjoint(sys_q1, rng):
    spec = sys_q1.window.spec
    f, g = gaussian_probe(spec, rng), gaussian_probe(spec, rng)
    sf = sys_q1.apply(f)
    assert inner(sf, f).real > 0
    assert abs(inner(sf, f).imag) < 1e-12
    assert abs(inner(sf, g) - inner(f, sys_q1.apply(g))) < 1e-12


def test_frame_operator_commutes_with_lattice_shifts(sys_q1, rng):
    spec = sys_q1.window.spec
    f = gaussian_probe(spec, rng, spread=1.5)
    nu = phase_point(sys_q1.params, LatticeKind.TIME_FREQ, 1, -1)
    lhs = sys_q1.apply(tf_shift(f, nu))
    rhs = tf_shift(sys_q1.apply(f), nu)
    assert norm(lhs - rhs) / norm(f) < 1e-7


def test_dense_lattice_limit(rng):
    # q|αβ|·S_g → q‖g‖²·Id as the lattice fills the plane
    p = TorusParams(0.25, 0.25)
    spec = grid_for_radius(6.0)
    g = gaussian(spec)
    sys_ = FrameSystem(g, p, radius=6.0)
    f = gaussian_probe(spec, rng, spread=1.5)
    lhs = (p.q * abs(p.alpha * p.beta)) * sys_.apply(f)
    rhs = (p.q * norm(g) ** 2) * f
    assert norm(lhs - rhs) / norm(f) < 1e-6


def test_frame_bounds_golden_q1(sys_q1):
    # power/inverse-power estimates, frozen from the oracle run at N=512, R=6
    a_est, b_est = frame_bounds(sys_q1)
    assert a_est == pytest.approx(2.81427, rel=2e-3)
    assert b_est == pytest.approx(2.84299, rel=2e-3)
    assert a_est <= b_est


def test_frame_bounds_probe_validation(sys_q1):
    with pytest.raises(ValueError):
        frame_bounds(FrameSystem(sys_q1.window, sys_q1.params, 6.0), probes=4)


def test_zero_window_is_not_a_frame(spec1, params_q1):
    z = GridSignal(spec1, np.zeros((1, spec1.N)))
    with pytest.raises(NotAFrameError, match="not a frame"):
        frame_bounds(FrameSystem(z, params_q1, 6.0))


def test_bounds_degrade_toward_critical_density():
    # numerical detection of frame failure: A_est decays as |αβ|q -> 1
    estimates = []
    for ab in [0.85, 0.95, 1.0]:
        spec = grid_for_radius(6.0)
        sys_ = FrameSystem(gaussian(spec), TorusParams(ab, ab), radius=6.0)
        a_est, b_est = frame_bounds(sys_, require_frame=False)
        estimates.append(a_est / b_est)
    assert estimates[0] > 2 * estimates[1] > 4 * estimates[2]


def test_laurent_zero_at_critical_density():
    spec = grid_for_radius(6.0)
    g = gaussian(spec)
    sym = laurent_symbol(g, TorusParams(1.0, 1.0))
    assert sym.min_abs < 1e-12
    assert not sym.is_riesz
    sym_ok = laurent_symbol(g, TorusParams(0.5, 0.5))
    assert sym_ok.is_riesz and sym_ok.min_abs > 0.5


def test_canonical_dual_reconstruction(sys_q1, dual_q1, rng):
    spec = sys_q1.window.spec
    for _ in range(10):
        f = gaussian_probe(spec, rng, spread=2.0)
        res = reconstruction_residual(f, sys_q1.window, dual_q1,
                                      sys_q1.params, sys_q1.radius)
        assert res < 1e-6


def test_canonical_dual_wexler_raz(sys_q1, dual_q1):
    wr = wexler_raz_residual(sys_q1.window, dual_q1, sys_q1.params, 6.0)
    assert wr < 1e-6


def test_detuned_dual_fails_both(sys_q1, dual_q1, rng):
    spec = sys_q1.window.spec
    bad = dual_q1 + 0.02 * norm(dual_q1) * hermite(spec, 2)
    wr = wexler_raz_residual(sys_q1.window, bad, sys_q1.params, 6.0)
    assert wr > 1e-4
    f = gaussian_probe(spec, rng, spread=2.0)
    rec = reconstruction_residual(f, sys_q1.window, bad, sys_q1.params, 6.0)
    assert rec > 1e-4


def test_cg_failure_raises(sys_q2):
    with pytest.raises(ConvergenceError, match="CG stagnation"):
        _cg_solve(sys_q2._apply_solve, sys_q2.window, tol=1e-9, max_iter=2)


def test_caches_are_keyed_on_solver_arguments(sys_q1):
    fresh = FrameSystem(sys_q1.window, sys_q1.params, sys_q1.radius)
    loose = canonical_dual(fresh, tol=1e-2, max_iter=3)
    strict = canonical_dual(fresh, tol=1e-9)
    assert strict is not loose and canonical_dual(fresh, tol=1e-9) is strict
    assert norm(fresh._apply_solve(strict) - fresh.window) < 1e-9 * norm(fresh.window)

    first = frame_bounds(fresh, seed=1)
    other = frame_bounds(fresh, seed=2, probes=40)
    assert other == frame_bounds(FrameSystem(sys_q1.window, sys_q1.params, 6.0),
                                 seed=2, probes=40)
    assert frame_bounds(fresh, seed=1) == first

    canonical_tight(fresh, tol=1.0, max_steps=20)
    with pytest.raises(ConvergenceError):
        canonical_tight(fresh, tol=1e-30, max_steps=20)


def test_tight_window(sys_q1):
    t = canonical_tight(sys_q1)
    tight_sys = FrameSystem(t, sys_q1.params, sys_q1.radius)
    a_est, b_est = frame_bounds(tight_sys)
    assert a_est == pytest.approx(1.0, abs=1e-6)
    assert b_est == pytest.approx(1.0, abs=1e-6)
    # the dual of an already tight window is the window itself
    h = canonical_dual(tight_sys)
    assert norm(h - t) / norm(t) < 1e-5


def test_gauge_identity(sys_q1, dual_q1):
    # <g, S⁻¹g> = <S^{-1/2}g, S^{-1/2}g>
    t = canonical_tight(sys_q1)
    lhs = inner_left(sys_q1.window, dual_q1, sys_q1.params, 6.0)
    rhs = inner_left(t, t, sys_q1.params, 6.0)
    assert l1_diff(lhs, rhs) < 1e-6


def test_project_dual_pair_canonical(sys_q1, dual_q1):
    a = project_dual_pair(sys_q1.window, dual_q1, sys_q1.params, 6.0,
                          require_self_adjoint=True)
    assert l1_diff(twisted_conv(a, a), a) < 1e-6
    assert l1_diff(twisted_star(a), a) < 1e-6
    scale = sys_q1.params.q * abs(sys_q1.params.alpha * sys_q1.params.beta)
    assert trace_l(a) == pytest.approx(scale, abs=1e-9)
    assert inner(sys_q1.window, dual_q1) == pytest.approx(scale, abs=1e-9)


def test_project_dual_pair_non_canonical(sys_q1, dual_q1, rng):
    # perturb the dual inside the orthogonal complement of the adjoint span:
    # duality survives, self-adjointness of the idempotent does not
    spec = sys_q1.window.spec
    p = sys_q1.params
    fam = adjoint_shift_family(sys_q1.window, p, 6.0)
    v = hermite(spec, 3).values.ravel()
    coeff, *_ = np.linalg.lstsq(fam, v, rcond=None)
    w = v - fam @ coeff
    h2 = dual_q1 + 0.2 * GridSignal(spec, w.reshape(spec.q, spec.N))
    wr = wexler_raz_residual(sys_q1.window, h2, p, 6.0)
    assert wr < 1e-6  # still dual
    a = project_dual_pair(sys_q1.window, h2, p, 6.0)
    assert l1_diff(twisted_conv(a, a), a) < 1e-6
    assert l1_diff(twisted_star(a), a) > 1e-3  # not self-adjoint
    with pytest.raises(ValueError, match="not self-adjoint"):
        project_dual_pair(sys_q1.window, h2, p, 6.0, require_self_adjoint=True)


def test_project_dual_pair_rejects_non_dual(sys_q1, rng):
    bad = gaussian_probe(sys_q1.window.spec, rng)
    with pytest.raises(ValueError, match="not dual"):
        project_dual_pair(sys_q1.window, bad, sys_q1.params, 6.0)


def test_laurent_symbol_admissible(sys_q1):
    sym = laurent_symbol(sys_q1.window, sys_q1.params)
    assert sym.is_riesz
    assert sym.min_abs > 0
    assert sym.max_imag < 1e-12


def test_laurent_symbol_unavailable():
    p = TorusParams(0.52, 0.5)  # 1/(αβ) not an integer
    spec = grid_for_radius(6.0)
    with pytest.raises(ValueError, match="Laurent structure unavailable"):
        laurent_symbol(gaussian(spec), p)


def test_laurent_zero_window(spec1, params_q1):
    z = GridSignal(spec1, np.zeros((1, spec1.N)))
    sym = laurent_symbol(z, params_q1)
    assert sym.max_abs == 0.0
    assert not sym.is_riesz


def test_laurent_channel_constant_reduction(params_q2):
    # for a channel-constant window the symbol collapses onto the scalar one:
    # F(t₁,t₂) = q·Σ <g̃, E_{m/α}T_{n/βq} g̃> e^{2πi(qm t₁ + n t₂)}
    spec1ch = grid_for_radius(6.0, q=1)
    g_scalar = gaussian(spec1ch)
    g = lift_scalar_window(g_scalar, params_q2)
    sym = laurent_symbol(g, params_q2, grid=16)
    p = params_q2
    ts = np.arange(16) / 16
    acc = np.zeros((16, 16), dtype=np.complex128)
    for m in range(-8, 9):       # frequency index, scalar step 1/α
        for n in range(-6, 7):   # time index, step 1/(βq)
            lam = n / (p.beta * p.q)
            gam = m / p.alpha
            if max(abs(lam), abs(gam) / p.q) > 12:
                continue
            val = inner(g_scalar, tf_shift(g_scalar, PhasePoint(lam, 0, gam, 0),
                                           "freq_time"))
            acc += p.q * val * np.exp(2j * np.pi * (p.q * m * ts[None, :, None][0]
                                                    + n * ts[None, None, :][0]))
    assert np.abs(acc.real - sym.values).max() < 1e-8


def test_cross_channel_pairing_vanishes(params_q2):
    # <g, π°(ν°)g> for channel-constant g vanishes unless the frequency index
    # is a multiple of q, where it equals q times the scalar pairing
    spec1ch = grid_for_radius(6.0, q=1)
    g_scalar = gaussian(spec1ch)
    g = lift_scalar_window(g_scalar, params_q2)
    b = inner_right(g, g, params_q2, 4.0)
    p = params_q2
    scale = p.q * abs(p.alpha * p.beta)
    for (n1, n2), val in zip(b.index, b.values):
        raw = scale * val  # = <g, π°(ν°)g>
        if n2 % p.q:
            assert abs(raw) < 1e-12
        else:
            nu = PhasePoint(n1 / (p.beta * p.q), 0, n2 / (p.alpha * p.q), 0)
            scalar = inner(g_scalar, tf_shift(g_scalar, nu, "freq_time"))
            assert abs(raw - p.q * scalar) < 1e-12


def test_lift_scalar_window(params_q2):
    spec1ch = grid_for_radius(6.0, q=1)
    g_scalar = gaussian(spec1ch)
    assert lift_scalar_window(g_scalar, TorusParams(0.5, 0.5)) is g_scalar
    g = lift_scalar_window(g_scalar, params_q2)
    assert g.spec.q == 2
    assert np.allclose(g.values[0], g.values[1])
    sys_ = FrameSystem(g, params_q2, radius=6.0)
    a_est, b_est = frame_bounds(sys_)  # must succeed: lemma hypothesis holds
    assert a_est > 0.1 * b_est
    with pytest.raises(ValueError):
        lift_scalar_window(g, params_q2)  # not single-channel


def test_lift_rejects_bad_twist():
    spec1ch = grid_for_radius(6.0, q=1)
    g_scalar = gaussian(spec1ch)
    with pytest.raises(ValueError, match="lift condition"):
        lift_scalar_window(g_scalar, TorusParams(0.52, 1 / 3, 1, 1, 2))


def test_duality_principle_consistency():
    # frame verdict from bounds agrees with the Riesz verdict of the symbol
    for m in [2, 3, 4]:
        for a in [0.4, 0.5, 0.6]:
            p = TorusParams(a, 1.0 / (m * a))
            spec = grid_for_radius(6.0)
            g = gaussian(spec)
            sym = laurent_symbol(g, p)
            sys_ = FrameSystem(g, p, radius=6.0)
            a_est, b_est = frame_bounds(sys_, require_frame=False)
            assert sym.is_riesz == (a_est > 1e-6 * b_est) == True


def test_gauge_invariance(sys_q1, dual_q1, rng):
    # <f₁, S_g⁻¹f₂> is unchanged under an invertible adjoint multiplier T;
    # instantiated at f₂ = g so both inversions are window solves
    p, spec = sys_q1.params, sys_q1.window.spec
    b = (LatticeSeq.delta(p, LatticeKind.ADJOINT)
         + 0.3 * LatticeSeq.from_entries(p, LatticeKind.ADJOINT, [(1, 0)], [1.0], 6.0)
         + 0.2j * LatticeSeq.from_entries(p, LatticeKind.ADJOINT, [(0, 1)], [1.0], 6.0))

    def T(f):
        return act_right(f, b)

    f1 = gaussian_probe(spec, rng, spread=1.2)
    lhs = inner_left(f1, dual_q1, p, 6.0)

    tg_sys = FrameSystem(T(sys_q1.window), p, 6.0)
    inv_tg = canonical_dual(tg_sys, tol=1e-4)
    rhs = inner_left(T(f1), inv_tg, p, 6.0)
    # achievable level is set by the S_{Tg}^{-1} solve floor (~1e-6 against
    # the radius-6 truncation, ~1e-5 after the lattice pairing), not by the
    # identity itself
    assert l1_diff(lhs, rhs) < 1e-4


def test_adjoint_span_reconstruction(sys_q1, dual_q1, rng):
    # f = g·<S⁻¹g, f>_right for f in the span of adjoint shifts of g
    p, spec = sys_q1.params, sys_q1.window.spec
    g = sys_q1.window
    coeffs = [(0, 0, 1.0), (1, 0, 0.5 - 0.2j), (0, -1, 0.3j), (-1, 1, -0.25)]
    acc = np.zeros_like(g.values)
    for n1, n2, c in coeffs:
        nu = phase_point(p, LatticeKind.ADJOINT, n1, n2)
        acc = acc + c * tf_shift(g, nu, "freq_time").values
    f = GridSignal(spec, acc)
    rec = act_right(g, inner_right(dual_q1, f, p, 6.0))
    assert norm(rec - f) / norm(f) < 1e-6


def test_adjoint_span_residuals(sys_q1, dual_q1):
    g = sys_q1.window
    p = sys_q1.params
    # members of the span have vanishing residual
    nu = phase_point(p, LatticeKind.ADJOINT, 1, -1)
    member = tf_shift(g, nu, "freq_time")
    assert adjoint_span_residual(member, g, p, 6.0) < 1e-10
    # a Hermite window is far from the span
    assert adjoint_span_residual(hermite(g.spec, 1), g, p, 6.0) > 0.3


def test_reconstruction_improves_with_radius(params_q1, rng):
    # residual for spread probes drops by well over 10x from R=6 to R=8
    residuals = {}
    for radius, L in [(6.0, 22.0), (8.0, 26.0)]:
        spec = GridSpec(L=L, N=512)
        sys_ = FrameSystem(gaussian(spec), TorusParams(0.62, 0.62), radius=radius)
        h = canonical_dual(sys_)
        f = gaussian_probe(spec, rng, spread=2.0)
        residuals[radius] = reconstruction_residual(f, sys_.window, h,
                                                    sys_.params, radius)
    assert residuals[6.0] > 10 * residuals[8.0]
