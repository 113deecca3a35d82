"""Property tests of the twisted algebra, the atom kernel, the Chern
double-sum kernel and the Moyal-plane energy.

Lattices are drawn over (α, β, r, s, q ≤ 7) with r, s coprime to q (r = s = 0
at q = 1); supports are random subsets of [-3, 3]², so empty, single-entry
and negative-origin supports all occur.  Entries have magnitudes in
[0.1, 1], as in the fixed-seed tests, so that no product entry lands near
PRUNE_TOL, where pruning breaks an identity by up to PRUNE_TOL per entry.
The ♮-product and star phases and the Chern sums' twist table are compared
with exact rational phases, and the two c₁ formulas with each other on random
boxes that hold the origin off their centre.
The atom kernel (actions, lattice inner products, the adjoint shift family,
the reconstruction sum) is compared with single shifts through `tf_shift` on
a small grid, and the Chern kernel with a term-by-term loop on random tables.
The frame bounds of Gaussian windows on integer-twist lattices are checked
against Rayleigh–Ritz values, the symbol on a fine mesh and the dense
operator, and the duality principle on the same windows: the canonical dual
by Wexler–Raz, the tight window as its own dual, and ⟨g,h⟩ = ⟨t,t⟩.  The
symbol's Riesz verdict is checked against the frame verdict of frame_bounds
on Gaussian and first Hermite windows, of which some are no frames.
The Moyal energy is checked against its known values: q on generalized
Gaussians and q(2n+1) on the Hermite functions, with random channel
coefficients and amplitude.
Runs are derandomized, so the examples are the same on every run.
"""

import cmath
import itertools
import math
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ncgabor.algebra import (LatticeSeq, act_left, act_right, inner_left, inner_right,
                             l1_diff, load_seq, save_seq, twisted_conv, twisted_star,
                             _box_axes)
from ncgabor.algebra import BOX_BUDGET
from ncgabor.frame import (FrameSystem, NotAFrameError, adjoint_shift_family, canonical_dual,
                           canonical_tight, frame_bounds, laurent_symbol,
                           reconstruction_residual, wexler_raz_residual, _rayleigh_ritz)
from ncgabor import geometry
from ncgabor.geometry import _chern_double_sum, grid_for_radius
from ncgabor.lattice import (LatticeKind, TorusParams, index_bounds, lattice_generators,
                             lattice_twist, mod_inverse)
from ncgabor.moyal import continuous_energy
from ncgabor.signal import GridSignal, GridSpec, gaussian, hermite, inner, norm, tf_shift
from conftest import (PROPERTY, dense_frame_operator, lattices, naive_act_left,
                      naive_act_right, naive_chern_double_sum, naive_twisted_conv,
                      phase_point)

SEEDS = st.integers(0, 2 ** 32 - 1)


@st.composite
def sequences(draw, count=1, unit_l1=True, kind=None):
    """`count` sequences on one random lattice, scaled to unit ℓ¹ if nonzero."""
    params = draw(lattices())
    if kind is None:
        kind = draw(st.sampled_from(list(LatticeKind)))
    entry = st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                      st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0))
    seqs = []
    for _ in range(count):
        entries = draw(st.lists(entry, max_size=8, unique_by=lambda e: e[:2]))
        seq = LatticeSeq.from_entries(params, kind, [e[:2] for e in entries],
                                      [e[2] for e in entries])
        norm = seq.l1_norm()
        seqs.append(seq * (1.0 / norm) if unit_l1 and norm else seq)
    return seqs


def _phase_turns(a, b):
    """Bound on |phase|/2π in either product formula: t·k₁m₂ here, λγ + lc/q in the oracle."""
    if not a.values.size or not b.values.size:
        return 0.0
    t_step, _, f_step, _ = lattice_generators(a.params, a.kind)
    k1m2 = np.abs(a.index[:, 0]).max() * np.abs(b.index[:, 1]).max()
    real, num = lattice_twist(a.params, a.kind)
    return (abs(real + num / a.params.q) + abs(t_step * f_step)) * k1m2 + a.params.q


@PROPERTY
@given(sequences(count=2))
def test_twisted_conv_matches_naive_loop(seqs):
    a, b = seqs
    # the fixed-seed tolerance, plus the rounding of exp(2πi·x) at the phase
    # arguments both formulas reach on these lattices (up to ~60 turns at q = 7)
    tol = 1e-14 + 4 * np.pi * np.finfo(float).eps * _phase_turns(a, b)
    assert l1_diff(twisted_conv(a, b), naive_twisted_conv(a, b)) < tol


def _exact_phase(params, kind, n):
    """exp(2πi·t·n) with t·n reduced mod 1 in exact rationals, t the twist of
    `kind` computed from the exact values of the float steps α and β."""
    ab = Fraction(params.alpha) * Fraction(params.beta)
    if kind is LatticeKind.TIME_FREQ:
        t = -ab - Fraction(params.r * params.s, params.q)
    else:
        t = 1 / (ab * params.q ** 2) + Fraction(params.r_inv * params.s_inv, params.q)
    return cmath.exp(2j * cmath.pi * float(t * n % 1))


@PROPERTY
@given(lattices(), st.sampled_from(list(LatticeKind)),
       st.tuples(st.integers(-12, 12), st.integers(-40, 40)),
       st.tuples(st.integers(-12, 12), st.integers(-40, 40)))
def test_product_and_star_phases_match_exact_rationals(params, kind, k, m):
    # δ_k ♮ δ_m = exp(2πi·t·k₁m₂)·δ_{k+m} and (δ_k)* = exp(2πi·t·k₁k₂)·δ_{−k}.
    # Only the float part of t (αβ, or (αβq²)⁻¹) may carry rounding that grows
    # with n = k₁m₂: the rational part rs/q (r°s°/q) is reduced mod q exactly.
    a, b = (LatticeSeq.from_entries(params, kind, [point], [1.0]) for point in (k, m))
    real = abs(params.alpha * params.beta)
    if kind is LatticeKind.ADJOINT:
        real = 1 / (real * params.q ** 2)
    for got, n in [(twisted_conv(a, b).value_at(k[0] + m[0], k[1] + m[1]), k[0] * m[1]),
                   (twisted_star(a).value_at(-k[0], -k[1]), k[0] * k[1])]:
        tol = 4e-15 + 8 * np.pi * np.finfo(float).eps * real * abs(n)
        assert abs(got - _exact_phase(params, kind, n)) <= tol


def _chern_sum_table(params, radius):
    """The twist table chern_sum hands to the Chern kernel for a p of ones on
    the whole index box at `radius`, so that no pruning can shrink its box."""
    n1s, n2s = _box_axes(params, LatticeKind.TIME_FREQ, radius)
    p = LatticeSeq(params, LatticeKind.TIME_FREQ, (n1s[0], n2s[0]),
                   np.ones((n1s.size, n2s.size)))
    with mock.patch.object(geometry, "_chern_double_sum", return_value=0j) as kernel:
        geometry.chern_sum(p)
    return kernel.call_args.args[1]


@PROPERTY
@given(lattices(), st.floats(0.5, 6.0))
@example(TorusParams(0.5, 2 / 91, 1, 1, 7), 6.0)   # q = 7 rung of the charge ladder
def test_chern_phase_table_matches_exact_rationals(params, radius):
    # chern_sum's twist table e^{2πiθn₁n₂} on its single box is exp(2πi·t·(−n₁n₂)),
    # t = −θ the Λ×Γ twist; only the float part αβ may round with n₁n₂
    n1s, n2s = _box_axes(params, LatticeKind.TIME_FREQ, radius)
    table = _chern_sum_table(params, radius)
    assert table.shape == (n1s.size, n2s.size)
    eps = np.finfo(float).eps
    for (i, n1), (j, n2) in itertools.product(enumerate(n1s), enumerate(n2s)):
        n = int(n1 * n2)
        tol = 4e-15 + 8 * np.pi * eps * abs(params.alpha * params.beta) * abs(n)
        assert abs(table[i, j] - _exact_phase(params, LatticeKind.TIME_FREQ, -n)) <= tol


@PROPERTY
@given(sequences(count=2))
def test_star_is_an_involutive_anti_homomorphism(seqs):
    a, b = seqs
    assert l1_diff(twisted_star(twisted_star(a)), a) < 1e-15
    lhs = twisted_star(twisted_conv(a, b))
    rhs = twisted_conv(twisted_star(b), twisted_star(a))
    assert l1_diff(lhs, rhs) < 1e-12


@PROPERTY
@given(sequences(unit_l1=False))
def test_seq_file_roundtrip(seqs):
    (a,) = seqs
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seq.dat"
        save_seq(a, path)
        b = load_seq(path)
    assert b.params == a.params and b.kind == a.kind
    assert l1_diff(a, b) < 1e-15


@PROPERTY
@given(st.integers(1, 3), st.sampled_from([1, 3, 5, 7]), st.sampled_from([1, 3, 5, 7]),
       st.floats(-2.0, 2.0), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_chern_double_sum_matches_naive_loop(nq, m1, m2, theta, silent_channel, seed):
    rng = np.random.default_rng(seed)

    def table(rows, cols):
        shape = (nq, nq, rows, cols)
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    v = table(m1, m2)
    if silent_channel:
        v[nq - 1, 0] = 0.0      # skipped by the kernel, summed by the oracle
    # the kernel reads V as 0 outside its box, the oracle reads the padded table
    v3 = np.pad(v, [(0, 0)] * 2 + [(m1 // 2, m1 // 2), (m2 // 2, m2 // 2)])
    expected, scale = naive_chern_double_sum(v, v3, theta)
    n1s, n2s = np.arange(m1) - m1 // 2, np.arange(m2) - m2 // 2
    twist = np.exp(2j * np.pi * theta * np.outer(n1s, n2s))
    assert abs(_chern_double_sum(v, twist) - expected) <= 1e-12 * scale


@PROPERTY
@given(lattices(), st.tuples(st.integers(2, 5), st.integers(2, 7)),
       st.tuples(st.integers(0, 6), st.integers(0, 6)), SEEDS)
@example(TorusParams(0.5, 2 / 91, 1, 1, 7), (4, 7), (1, 3), 0)   # origin (−1, −3)
def test_chern_sum_matches_chern_trace_off_centre(params, shape, zero_at, seed):
    # the double sum is the trace formula with its products written out, so
    # the two agree on any finitely supported p, also on a box that holds the
    # origin off its centre and that chern_sum must centre
    rng = np.random.default_rng(seed)
    origin = (-(zero_at[0] % shape[0]), -(zero_at[1] % shape[1]))
    box = rng.uniform(0.1, 1.0, shape) * np.exp(2j * np.pi * rng.uniform(size=shape))
    p = LatticeSeq.from_box(params, LatticeKind.TIME_FREQ, origin, box)
    scale = p.l1_norm() ** 3 * np.abs(p.index).max() ** 2
    assert abs(geometry.chern_trace(p) - geometry.chern_sum(p)) <= 1e-12 * scale


def _signal(params, seed):
    """Unit-norm random signal on a small q-channel grid."""
    spec = GridSpec(L=8.0, N=32, q=params.q)
    rng = np.random.default_rng(seed)
    shape = (spec.q, spec.N)
    f = GridSignal(spec, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    return f * (1.0 / norm(f))


def _box(params, kind, radius):
    k1, k2 = index_bounds(params, kind, radius)
    return [(n1, n2) for n1 in range(-k1, k1 + 1) for n2 in range(-k2, k2 + 1)]


@PROPERTY
@given(sequences(kind=LatticeKind.TIME_FREQ), SEEDS)
def test_act_left_matches_naive_sum(seqs, seed):
    (a,) = seqs
    f = _signal(a.params, seed)
    assert norm(act_left(a, f) - naive_act_left(a, f)) < 1e-13


@PROPERTY
@given(sequences(kind=LatticeKind.ADJOINT), SEEDS)
def test_act_right_matches_naive_sum(seqs, seed):
    (b,) = seqs
    f = _signal(b.params, seed)
    assert norm(act_right(f, b) - naive_act_right(f, b)) < 1e-13


@PROPERTY
@given(lattices(), st.sampled_from(list(LatticeKind)), st.floats(0.2, 1.5), SEEDS)
def test_inner_products_match_shift_pairings(params, kind, radius, seed):
    f, g = _signal(params, seed), _signal(params, seed + 1)
    left = kind is LatticeKind.TIME_FREQ
    seq = (inner_left if left else inner_right)(f, g, params, radius)
    scale = params.q * abs(params.alpha * params.beta)
    for n1, n2 in _box(params, kind, radius):
        nu = phase_point(params, kind, n1, n2)
        expected = (inner(f, tf_shift(g, nu)) if left
                    else inner(g, tf_shift(f, nu, "freq_time")) / scale)
        assert abs(seq.value_at(n1, n2) - expected) < 1e-13


@PROPERTY
@given(lattices(), st.floats(0.2, 1.5), SEEDS)
def test_adjoint_shift_family_columns_are_adjoint_shifts(params, radius, seed):
    g = _signal(params, seed)
    family = adjoint_shift_family(g, params, radius)
    box = _box(params, LatticeKind.ADJOINT, radius)
    assert family.shape == (g.values.size, len(box))
    for column, (n1, n2) in zip(family.T, box):
        nu = phase_point(params, LatticeKind.ADJOINT, n1, n2)
        shifted = tf_shift(g, nu, "freq_time")
        assert norm(GridSignal(g.spec, column.reshape(g.values.shape)) - shifted) < 1e-13


@PROPERTY
@given(lattices(), st.floats(0.2, 2.0), SEEDS, st.booleans())
def test_frame_apply_is_synthesis_of_analysis(params, radius, seed, same):
    # reconstruction_residual against the synthesis of the analysis, for
    # independent g and h and for h = g, whose atoms it shares
    g, f = _signal(params, seed), _signal(params, seed + 1)
    h = g if same else _signal(params, seed + 2)
    expected = norm(act_left(inner_left(f, g, params, radius), h) - f) / norm(f)
    got = reconstruction_residual([f], g, h, params, radius)
    assert abs(got - expected) <= 1e-13 * (1 + expected)


@st.composite
def integer_twist_lattices(draw):
    """(α, β, r, s, q ≤ 7) with an integer adjoint twist and density 1/d < 1:
    (αβq²)⁻¹ + r°s°/q is an integer iff d = 1/(qαβ) is one with d ≡ −r°s°
    mod q; d runs over the three smallest such values ≥ 2."""
    q = draw(st.integers(1, 7))
    slopes = st.sampled_from([v for v in range(q) if math.gcd(v, q) == 1])
    r, s = draw(slopes), draw(slopes)
    rs = mod_inverse(r, q) * mod_inverse(s, q)
    d = next(d for d in itertools.count(2) if (d + rs) % q == 0) + q * draw(st.integers(0, 2))
    alpha = draw(st.floats(0.25, 1.5)) * draw(st.sampled_from([1, -1]))
    return TorusParams(alpha, 1 / (q * d * alpha), r, s, q)


def _fine_symbol(coeff, grid=1024):
    """|F| on the grid × grid mesh by one matrix product."""
    ts = np.arange(grid) / grid
    ph1 = np.exp(2j * np.pi * np.outer(coeff.index[:, 1], ts))
    ph2 = np.exp(2j * np.pi * np.outer(coeff.index[:, 0], ts))
    return np.abs((coeff.values[:, None] * ph1).T @ ph2)


@PROPERTY
@given(integer_twist_lattices(), SEEDS)
@example(TorusParams(0.5, 0.5), 0)
def test_symbol_bounds_enclose_the_spectrum(params, seed):
    # on Gaussian windows: the Ritz values lie inside [A, B], which encloses
    # |F| on a 1024-point mesh to 1e-3, and the dense operator's top eigenvalue
    sys_ = FrameSystem(gaussian(grid_for_radius(6.0, q=params.q)), params, 6.0)
    assert params.integer_adjoint_twist and params.density < 1
    a_est, b_est = frame_bounds(sys_)
    ritz_a, ritz_b, _ = _rayleigh_ritz(sys_, seed)
    assert a_est <= ritz_a <= ritz_b <= b_est
    fine = _fine_symbol(sys_.coefficients)
    assert a_est <= fine.min() <= (1 + 1e-3) * a_est
    assert b_est >= fine.max() >= (1 - 1e-3) * b_est
    if params.q == 1:
        assert np.linalg.eigvalsh(dense_frame_operator(sys_))[-1] <= b_est


@PROPERTY
@given(integer_twist_lattices(), st.sampled_from([0, 1]))
@example(TorusParams(1.0, 0.5), 1)   # an odd window at |αβ| = ½ is no frame
def test_riesz_verdict_is_the_frame_verdict(params, order):
    # by duality g is a Riesz sequence over the adjoint lattice iff a frame
    # over Λ×Γ: is_riesz holds exactly when frame_bounds does not raise, and
    # the symbol's mesh values lie in q|αβ|·[A, B]
    g = hermite(grid_for_radius(6.0, q=params.q), order)
    sym = laurent_symbol(g, params)
    try:
        a_est, b_est = frame_bounds(FrameSystem(g, params, 6.0))
        framed = True
    except NotAFrameError as exc:
        a_est, b_est, framed = exc.a_est, exc.b_est, False
    assert sym.is_riesz is framed
    assert params.density * a_est <= sym.values.min()
    assert sym.values.max() <= params.density * b_est


@PROPERTY
@given(integer_twist_lattices())
def test_duality_principle(params):
    # the canonical dual h is dual to g (Wexler-Raz), the Lanczos tight window t
    # is its own dual, and ⟨g,h⟩ = ⟨t,t⟩; a Λ×Γ atom box above BOX_BUDGET is
    # refused by the gauge's pairing, never skipped
    g = gaussian(grid_for_radius(6.0, q=params.q))
    sys_ = FrameSystem(g, params, 6.0)
    h, t = canonical_dual(sys_), canonical_tight(sys_)
    assert wexler_raz_residual(g, h, params, 6.0) < 1e-6
    m1, m2 = (axis.size for axis in _box_axes(params, LatticeKind.TIME_FREQ, 6.0))
    if max(m1 * m2, (m1 + m2) * g.values.size) > BOX_BUDGET:
        with pytest.raises(ValueError, match="exceeds"):
            inner_left(g, h, params, 6.0)
        return
    assert l1_diff(inner_left(g, h, params, 6.0), inner_left(t, t, params, 6.0)) < 1e-6


def channel_coefficients(q):
    """q channel coefficients of magnitude in [0.1, 1], times one amplitude."""
    magnitudes = st.lists(st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0),
                          min_size=q, max_size=q)
    return st.builds(lambda c, a: a * np.array(c), magnitudes, st.floats(0.01, 100.0))


@PROPERTY
@given(st.integers(1, 3).flatmap(channel_coefficients), st.floats(-3.0, 3.0),
       st.floats(-3.0, 3.0))
def test_generalized_gaussians_attain_the_energy_bound(coeffs, lam_re, lam_im):
    q = coeffs.size
    energy = continuous_energy(gaussian(GridSpec(L=16.0, N=512, q=q), coeffs=coeffs,
                                        lam=complex(lam_re, lam_im)))
    assert abs(energy - q) < 1e-9


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@PROPERTY
@given(st.data())
def test_hermite_energies_are_the_oscillator_levels(n, q, data):
    coeffs = data.draw(channel_coefficients(q))
    h = hermite(GridSpec(L=16.0, N=512, q=q), n)
    energy = continuous_energy(GridSignal(h.spec, coeffs[:, None] * h.values))
    assert abs(energy - q * (2 * n + 1)) < 1e-9
