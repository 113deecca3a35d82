import re

import numpy as np
import pytest
from scipy.integrate import quad

from ncgabor.signal import (GridSignal, GridSpec, PhasePoint, apply_D, apply_M,
                            cocycle, fourier_transform, gaussian, inner,
                            involution_dagger, load_signal, modulate, norm,
                            random_timefreq_probe, save_signal, tf_shift,
                            translate)
from conftest import gaussian_probe


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(N=511)  # odd
    with pytest.raises(ValueError):
        GridSpec(L=-1.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            GridSpec(L=bad)
    with pytest.raises(ValueError):
        GridSpec(q=0)


def test_gaussian_norm_against_quadrature():
    spec = GridSpec(L=16.0, N=512)
    g = gaussian(spec)
    oracle, _ = quad(lambda x: np.exp(-2 * np.pi * x ** 2), -8, 8)
    assert norm(g) ** 2 == pytest.approx(oracle, abs=1e-12)
    assert oracle == pytest.approx(2 ** -0.5, abs=1e-12)


def test_gaussian_tail_rejection():
    with pytest.raises(ValueError, match="period too small"):
        gaussian(GridSpec(L=4.0, N=128))
    gaussian(GridSpec(L=12.0, N=128))  # comfortably wide


def test_gaussian_channel_support():
    spec = GridSpec(q=3)
    g = gaussian(spec, coeffs=[1.0, 0.0, 0.0])
    g1 = gaussian(GridSpec(q=1))
    assert norm(g) == pytest.approx(norm(g1))


def test_cocycle_values():
    assert cocycle(PhasePoint(), PhasePoint(1.0, 1, 2.0, 1), 2) == pytest.approx(1.0)
    nu1 = PhasePoint(0.5, 1, 0.0, 0)
    nu2 = PhasePoint(0.0, 0, 1.0, 1)
    assert cocycle(nu1, nu2, 2) == pytest.approx(np.exp(-2j * np.pi * 1.0))


def test_cocycle_conjugate_symmetry(rng):
    for _ in range(20):
        q = int(rng.integers(1, 5))
        nu1 = PhasePoint(rng.normal(), int(rng.integers(-3, 4)),
                         rng.normal(), int(rng.integers(-3, 4)))
        nu2 = PhasePoint(rng.normal(), int(rng.integers(-3, 4)),
                         rng.normal(), int(rng.integers(-3, 4)))
        assert cocycle(-nu1, nu2, q) == pytest.approx(np.conj(cocycle(nu1, nu2, q)))
        assert cocycle(nu1, -nu2, q) == pytest.approx(np.conj(cocycle(nu1, nu2, q)))
        assert abs(cocycle(nu1, nu2, q)) == pytest.approx(1.0)


def test_shift_identity(spec1, rng):
    f = gaussian_probe(spec1, rng)
    out = tf_shift(f, PhasePoint())
    assert norm(out - f) < 1e-14


def test_shift_against_direct_formula():
    # T then E applied to a Gaussian, compared with analytic samples
    spec = GridSpec(L=22.0, N=512)
    lam, gam = 0.7321, -1.123
    g = gaussian(spec)
    shifted = tf_shift(g, PhasePoint(lam, 0, gam, 0))
    x = spec.x()
    direct = np.exp(2j * np.pi * x * gam) * np.exp(-np.pi * (x - lam) ** 2)
    assert np.abs(shifted.values[0] - direct).max() < 1e-12


def test_shift_composition(spec1, rng):
    f = gaussian_probe(spec1, rng)
    nu1 = PhasePoint(0.37, 0, -0.81, 0)
    nu2 = PhasePoint(-0.52, 0, 0.44, 0)
    lhs = tf_shift(tf_shift(f, nu2), nu1)
    rhs = cocycle(nu1, nu2, 1) * tf_shift(f, nu1 + nu2)
    assert norm(lhs - rhs) / norm(f) < 1e-8


def test_commutation_phase(spec1, rng):
    # E_{γ,c}T_{λ,l} = conj(φ(ν,ν))·T_{λ,l}E_{γ,c}: modulation first picks up
    # the inverse cocycle phase.
    f = gaussian_probe(spec1, rng)
    lam, gam = 0.61, -0.93
    et = modulate(translate(f, lam), gam)
    te = translate(modulate(f, gam), lam)
    phase = np.conj(cocycle(PhasePoint(lam, 0, gam, 0), PhasePoint(lam, 0, gam, 0), 1))
    assert norm(et - phase * te) / norm(f) < 1e-8


def test_freq_time_variant(spec1, rng):
    f = gaussian_probe(spec1, rng)
    nu = PhasePoint(0.45, 0, 1.2, 0)
    pi_circ = tf_shift(f, nu, "freq_time")
    phase = cocycle(nu, nu, 1)
    assert norm(pi_circ - phase * tf_shift(f, nu)) < 1e-13
    with pytest.raises(ValueError):
        tf_shift(f, nu, "bogus")


def test_freq_time_composition(spec1, rng):
    f = gaussian_probe(spec1, rng)
    nu1 = PhasePoint(0.3, 0, -0.7, 0)
    nu2 = PhasePoint(-0.9, 0, 0.2, 0)
    lhs = tf_shift(tf_shift(f, nu2, "freq_time"), nu1, "freq_time")
    rhs = np.conj(cocycle(nu2, nu1, 1)) * tf_shift(f, nu1 + nu2, "freq_time")
    assert norm(lhs - rhs) / norm(f) < 1e-8


def test_unitarity(spec1, rng):
    f = gaussian_probe(spec1, rng)
    for nu in [PhasePoint(1.3, 0, -2.2, 0), PhasePoint(-3.1, 0, 0.6, 0)]:
        assert norm(tf_shift(f, nu)) == pytest.approx(norm(f), rel=1e-12)


def test_shift_adjoint(spec1, rng):
    # π(ν)* = φ(ν,ν)π(−ν)
    f, g = gaussian_probe(spec1, rng), gaussian_probe(spec1, rng)
    nu = PhasePoint(0.8, 0, -0.5, 0)
    lhs = inner(tf_shift(f, nu), g)
    rhs = inner(f, cocycle(nu, nu, 1) * tf_shift(g, -nu))
    assert abs(lhs - rhs) < 1e-12


def test_shift_channels():
    spec = GridSpec(q=3)
    g = gaussian(spec, coeffs=[1.0, 2.0, 3.0])
    out = tf_shift(g, PhasePoint(0.0, 1, 0.0, 0))
    assert np.allclose(out.values[1], g.values[0])
    out2 = tf_shift(g, PhasePoint(0.0, 0, 0.0, 1))
    phases = np.exp(2j * np.pi * np.arange(3) / 3)
    assert np.allclose(out2.values, g.values * phases[:, None])


def test_spec_mismatch_raises(rng):
    f = gaussian(GridSpec(L=16.0, N=512))
    g = gaussian(GridSpec(L=16.0, N=256))
    with pytest.raises(ValueError, match="grid mismatch"):
        inner(f, g)


def test_inner_properties(spec1, rng):
    f, g = gaussian_probe(spec1, rng), gaussian_probe(spec1, rng)
    assert inner(f, f).real == pytest.approx(norm(f) ** 2)
    assert inner(f, f).imag == pytest.approx(0.0, abs=1e-15)
    assert inner(f, g) == pytest.approx(np.conj(inner(g, f)))
    # conjugate-linearity in the second argument
    assert inner(f, 2j * g) == pytest.approx(-2j * inner(f, g))


def test_gaussian_self_ambiguity(spec1):
    # |<π(ν)g, g>| = e^{−π(λ²+γ²)/2} for the unit Gaussian, l=c=0
    g = gaussian(spec1) * 2 ** 0.25
    for lam, gam in [(0.5, 0.0), (1.0, -1.5), (2.2, 0.7)]:
        val = abs(inner(tf_shift(g, PhasePoint(lam, 0, gam, 0)), g))
        assert val == pytest.approx(np.exp(-np.pi * (lam ** 2 + gam ** 2) / 2), abs=1e-12)


def test_gaussian_ambiguity_quadrature_oracle():
    # independent quadrature of ∫ e^{2πixγ} g(x−λ)g(x) dx at one point
    lam, gam = 0.8, -0.6
    re, _ = quad(lambda x: np.cos(2 * np.pi * x * gam) * np.sqrt(2)
                 * np.exp(-np.pi * ((x - lam) ** 2 + x ** 2)), -8, 8)
    im, _ = quad(lambda x: np.sin(2 * np.pi * x * gam) * np.sqrt(2)
                 * np.exp(-np.pi * ((x - lam) ** 2 + x ** 2)), -8, 8)
    spec = GridSpec(L=16.0, N=512)
    g = gaussian(spec) * 2 ** 0.25
    val = inner(tf_shift(g, PhasePoint(lam, 0, gam, 0)), g)
    assert val.real == pytest.approx(re, abs=1e-12)
    assert val.imag == pytest.approx(im, abs=1e-12)


def test_apply_D_on_gaussian(spec1):
    g = gaussian(spec1)
    lhs = apply_D(g)
    rhs = -2 * np.pi * apply_M(g)
    assert norm(lhs - rhs) / norm(rhs) < 1e-12


def test_apply_D_zero(spec1):
    z = GridSignal(spec1, np.zeros((1, spec1.N)))
    assert norm(apply_D(z)) == 0.0


def test_commutator_D_M(spec1, rng):
    f = gaussian_probe(spec1, rng)
    comm = apply_D(apply_M(f)) - apply_M(apply_D(f))
    assert norm(comm - f) / norm(f) < 1e-8


def test_fourier_transform_against_slow_dft():
    spec = GridSpec(L=16.0, N=64, q=2)
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64))
    f = GridSignal(spec, vals)
    out = fourier_transform(f)
    x = spec.x()
    xi = out.spec.x()
    slow = np.zeros_like(vals)
    for c in range(2):
        for m in range(64):
            acc = 0.0j
            for k in range(2):
                acc += np.exp(-2j * np.pi * k * c / 2) * spec.dx * np.sum(
                    vals[k] * np.exp(-2j * np.pi * x * xi[m]))
            slow[c, m] = acc
    assert np.abs(out.values - slow).max() < 1e-10


def test_fourier_intertwining(spec1, rng):
    # FT(Df) = 2πi·M(FT f) on matching frequency grids
    f = gaussian_probe(spec1, rng)
    lhs = fourier_transform(apply_D(f))
    rhs = 2j * np.pi * apply_M(fourier_transform(f))
    assert norm(lhs - rhs) / norm(rhs) < 1e-8


def test_fourier_plancherel():
    spec = GridSpec(L=16.0, N=512, q=3)
    rng = np.random.default_rng(7)
    f = gaussian(spec, coeffs=rng.normal(size=3) + 1j * rng.normal(size=3))
    fhat = fourier_transform(f)
    # dual group carries counting measure / q on the channel index
    assert norm(fhat) ** 2 / spec.q == pytest.approx(norm(f) ** 2, rel=1e-12)


def test_involution_properties(spec1, rng):
    f = gaussian_probe(spec1, rng)
    assert norm(involution_dagger(involution_dagger(f)) - f) < 1e-14
    g = gaussian(spec1)  # real and even
    assert norm(involution_dagger(g) - g) < 1e-14
    gl = gaussian(spec1, lam=0.7)  # real chirp parameter
    assert norm(involution_dagger(gl) - gl) < 1e-13


def test_involution_channels():
    spec = GridSpec(q=3)
    g = gaussian(spec, coeffs=[1.0, 2.0, 3.0])
    dag = involution_dagger(g)
    assert np.allclose(dag.values[0], np.conj(g.values[0, (512 - np.arange(512)) % 512]))
    assert np.allclose(dag.values[1], np.conj(g.values[2, (512 - np.arange(512)) % 512]))


def test_signal_roundtrip(tmp_path, spec1, rng):
    f = gaussian_probe(spec1, rng)
    path = tmp_path / "sig.dat"
    save_signal(f, path)
    g = load_signal(path)
    assert g.spec == f.spec
    assert np.abs(g.values - f.values).max() < 1e-16


@pytest.mark.parametrize("edit, line, reason", [
    (lambda rows: ["16.0 8"] + rows[1:], 1, "expected 3, got 2"),
    (lambda rows: rows[:2] + ["3 7 1.0 0.0"] + rows[3:], 3, "(3, 7) is repeated or outside"),
    (lambda rows: rows[:2] + ["-1 0 1.0 0.0"] + rows[3:], 3, "(-1, 0) is repeated or outside"),
    (lambda rows: rows + [rows[1]], 18, "(0, 0) is repeated"),
    (lambda rows: rows[:2] + ["0 1 1.0"] + rows[3:], 3, "expected 4, got 3"),
    (lambda rows: rows[:10], 10, "ends after 9 of q·N = 16 samples"),
], ids=["header", "out_of_range", "negative", "repeated", "short_row", "missing_rows"])
def test_malformed_signal_file_names_its_line(edit, line, reason, tmp_path):
    # the header "L N q", then exactly one "k j re im" row per sample
    path = tmp_path / "sig.dat"
    save_signal(gaussian(GridSpec(L=16.0, N=8, q=2)), path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=rf"line {line}: .*{re.escape(reason)}"):
        load_signal(path)


def test_immutability(spec1):
    g = gaussian(spec1)
    with pytest.raises(ValueError):
        g.values[0, 0] = 1.0


@pytest.mark.parametrize("q", [1, 2, 3])
def test_random_probe_is_its_term_by_term_sum(q):
    # the frame-bound, tight-window, reconstruction and Moyal probes, bit for bit:
    # Σ z·exp(2πikc/q)·exp(−π(x−λ)² + 2πiγx) over the draws (λ, l, γ, c, z),
    # as one (q×6)·(6×N) product; and Σ z·tf_shift(gaussian, ν) to roundoff
    spec = GridSpec(L=22.0, N=512, q=q)
    x, k = spec.x(), np.arange(q)
    for seed in (0, 7):
        rng = np.random.default_rng(seed)
        lam, _, gamma, c, z = (np.array(d) for d in zip(*[
            (rng.uniform(-2.2, 2.2), rng.integers(0, q), rng.uniform(-2.2, 2.2),
             rng.integers(0, q), complex(rng.normal(), rng.normal())) for _ in range(6)]))
        atoms = np.array([np.exp(-np.pi * (x - lam[t]) ** 2 + 2j * np.pi * gamma[t] * x)
                          for t in range(6)])
        terms = (np.exp(2j * np.pi * np.outer(k, c) / q) * z) @ atoms
        probe = random_timefreq_probe(spec, np.random.default_rng(seed), spread=2.2)
        assert np.array_equal(probe.values, terms * (1.0 / norm(GridSignal(spec, terms))))
        oracle = gaussian_probe(spec, np.random.default_rng(seed), spread=2.2, terms=6)
        scale = np.abs(probe.values).max()
        assert np.abs(probe.values - oracle.values).max() <= 1e-13 * scale


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("L", [16.0, 22.0])
@pytest.mark.parametrize("spread", [1.8, 2.2, 2.5])
def test_random_probe_is_confined_to_its_spread(q, L, spread):
    # the docstring's max(|λ|,|γ|) ≲ spread: under 1e-20 of the mass lies
    # outside |x| ≤ spread + 3, and under 1e-20 outside |ω| ≤ spread + 3
    spec = GridSpec(L=L, N=512, q=q)
    for seed in range(4):
        f = random_timefreq_probe(spec, np.random.default_rng(seed), spread=spread).values
        for mass, axis in ((np.abs(f) ** 2, spec.x()),
                           (np.abs(np.fft.fft(f, axis=1)) ** 2, spec.freqs())):
            outside = mass[:, np.abs(axis) > spread + 3].sum()
            assert outside <= 1e-20 * mass.sum()


@pytest.mark.parametrize("build, message", [
    (lambda spec: GridSignal(spec, np.zeros((2, spec.N))),
     "values must have shape (q, N) = (1, 64), got (2, 64)"),
    (lambda spec: GridSignal(spec, np.where(np.arange(spec.N) == 3, np.nan, 0.0)[None, :]),
     "signal values must be finite"),
    (lambda spec: gaussian(spec, coeffs=[1.0, 2.0]),
     "need one coefficient per channel, got shape (2,)")])
def test_malformed_signals_are_refused(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build(GridSpec(L=12.0, N=64))
