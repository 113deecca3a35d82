"""Property tests of the twisted algebra, the atom kernel, the Chern
double-sum kernel and the Moyal-plane energy.

Lattices are drawn over (α, β, r, s, q ≤ 7) with r, s coprime to q (r = s = 0
at q = 1); supports are random subsets of [-3, 3]², so empty, single-entry
and negative-origin supports all occur.  Entries have magnitudes in
[0.1, 1], as in the fixed-seed tests, so that no product entry lands near
PRUNE_TOL, where pruning breaks an identity by up to PRUNE_TOL per entry.
The ♮-product and star phases and the Chern sums' twist table are compared
with exact rational phases.
The atom kernel (actions, lattice inner products, the adjoint shift family,
the frame operator) is compared with single shifts through `tf_shift` on a
small grid, and the Chern kernel with a term-by-term loop on random tables.
The Moyal energy is checked against its known values: q on generalized
Gaussians and q(2n+1) on the Hermite functions, with random channel
coefficients and amplitude.
Runs are derandomized, so the examples are the same on every run.
"""

import cmath
import itertools
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
from ncgabor.frame import FrameSystem, adjoint_shift_family
from ncgabor import geometry
from ncgabor.geometry import _chern_double_sum
from ncgabor.lattice import (LatticeKind, TorusParams, index_bounds, lattice_generators,
                             lattice_twist)
from ncgabor.moyal import continuous_energy
from ncgabor.signal import GridSignal, GridSpec, gaussian, hermite, inner, norm, tf_shift
from conftest import (PROPERTY, lattices, naive_act_left, naive_act_right,
                      naive_chern_double_sum, naive_twisted_conv, phase_point)

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
    """The twist table chern_sum hands to the Chern kernel."""
    g = _signal(params, 0)
    with mock.patch.object(geometry, "_chern_double_sum", return_value=0j) as kernel:
        geometry.chern_sum(g, g, params, radius)
    return kernel.call_args.args[2]


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

    v, v3 = table(m1, m2), table(2 * m1 - 1, 2 * m2 - 1)
    if silent_channel:
        v[nq - 1, 0] = 0.0      # skipped by the kernel, summed by the oracle
    expected, scale = naive_chern_double_sum(v, v3, theta)
    n1s, n2s = np.arange(m1) - m1 // 2, np.arange(m2) - m2 // 2
    twist = np.exp(2j * np.pi * theta * np.outer(n1s, n2s))
    assert abs(_chern_double_sum(v, v3, twist) - expected) <= 1e-12 * scale


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
@given(lattices(), st.floats(0.2, 2.0), SEEDS)
def test_frame_apply_is_synthesis_of_analysis(params, radius, seed):
    g, f = _signal(params, seed), _signal(params, seed + 1)
    expected = act_left(inner_left(f, g, params, radius), g)
    got = FrameSystem(g, params, radius).apply(f)
    assert norm(got - expected) <= 1e-13 * norm(expected)


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
