"""Shared fixtures and naive reference implementations (oracles)."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import Phase, settings, strategies as st

from ncgabor.lattice import LatticeKind, TorusParams, lattice_generators
from ncgabor.signal import (GridSignal, GridSpec, PhasePoint, cocycle,
                            gaussian, norm, tf_shift)
from ncgabor.algebra import LatticeSeq, _atoms, _box_axes, _twist_phase
from ncgabor.moyal import PhaseGrid, _stft_chunks


# no explain phase: it re-runs each failing example and cost 12-15 s per failure report
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None,
                    phases=[p for p in Phase if p is not Phase.explain])


@st.composite
def lattices(draw):
    """(α, β, r, s, q ≤ 7) with r, s coprime to q (r = s = 0 at q = 1)."""
    q = draw(st.integers(1, 7))
    slopes = st.sampled_from([v for v in range(q) if math.gcd(v, q) == 1])
    steps = st.floats(0.25, 1.5) | st.floats(-1.5, -0.25)
    return TorusParams(draw(steps), draw(steps), draw(slopes), draw(slopes), q)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def spec1():
    """Canonical q=1 grid for radius-6 work."""
    return GridSpec(L=22.0, N=512, q=1)


@pytest.fixture(scope="session")
def params_q1():
    return TorusParams(0.5, 0.5)


@pytest.fixture(scope="session")
def params_q2():
    return TorusParams(0.5, 1.0 / 3.0, 1, 1, 2)


def phase_point(params, kind, n1, n2):
    """PhasePoint of a lattice index pair."""
    t_step, t_slope, f_step, f_slope = lattice_generators(params, kind)
    return PhasePoint(t_step * n1, t_slope * n1, f_step * n2, f_slope * n2)


def random_seq(params, kind, rng, points=8, span=3, unit_l1=True):
    idx = rng.integers(-span, span + 1, size=(points, 2))
    vals = rng.normal(size=points) + 1j * rng.normal(size=points)
    seq = LatticeSeq.from_entries(params, kind, idx, vals)
    if unit_l1:
        seq = seq * (1.0 / seq.l1_norm())
    return seq


def naive_twisted_conv(a, b):
    """Literal double loop over supports using the 4-coordinate cocycle."""
    q = a.params.q
    out = {}
    for (n1, n2), va in zip(a.index, a.values):
        nu_a = phase_point(a.params, a.kind, n1, n2)
        for (m1, m2), vb in zip(b.index, b.values):
            nu_b = phase_point(b.params, b.kind, m1, m2)
            if a.kind is LatticeKind.TIME_FREQ:
                phase = cocycle(nu_a, nu_b, q)
            else:
                phase = np.conj(cocycle(nu_a, nu_b, q))
            key = (n1 + m1, n2 + m2)
            out[key] = out.get(key, 0.0j) + va * vb * phase
    idx = np.array(list(out.keys()), dtype=np.int64).reshape(-1, 2)
    vals = np.array(list(out.values()))
    return LatticeSeq.from_entries(a.params, a.kind, idx, vals, prune=0.0)


def full_grid_energy(g):
    """π/‖g‖⁴ · Σ (x²+ω²)·|V_g g|²·ΔxΔω over every (x, l, ω, c) node of the
    phase-space grid: the trapezoid sum `continuous_energy` evaluates by
    Plancherel."""
    grid = PhaseGrid(g.spec)
    weight = grid.x[:, None] ** 2 + grid.omega[None, :] ** 2
    total = sum(float(np.einsum("clbm,bm->", np.abs(v) ** 2, weight[js]))
                for js, v in _stft_chunks(g, g))
    return np.pi * total * grid.x_weight * grid.omega_weight / norm(g) ** 4


def naive_chern_double_sum(v, v3, theta):
    """Reduced Chern double sum term by term over (ν, l, c) and (ν', l', c').

    v[l,c,a,b] is V[l,c] at ν = (a−k₁, b−k₂) and v3 the third factor on the
    doubled box (a−2k₁, b−2k₂).  Returns the sum and Σ|terms|.
    """
    nq, _, m1, m2 = v.shape
    k1, k2 = (m1 - 1) // 2, (m2 - 1) // 2
    total, scale = 0.0j, 0.0
    for l, c, a, b in np.ndindex(v.shape):
        n1, n2 = a - k1, b - k2
        for lp, cp, ap, bp in np.ndindex(v.shape):
            n1p, n2p = ap - k1, bp - k2
            third = v3[(-l - lp) % nq, (-c - cp) % nq,
                       2 * k1 - n1 - n1p, 2 * k2 - n2 - n2p]
            phase = cmath.exp(2j * cmath.pi * (theta * (n1 * n2 + n1p * (n2p + n2))
                                               + (l * c + lp * (cp + c)) / nq))
            term = (n1p * n2 - n1 * n2p) * v[l, c, a, b] * v[lp, cp, ap, bp] * third * phase
            total += term
            scale += abs(term)
    return total, scale


def naive_act_left(a, f):
    """Σ a(ν)·π(ν)f term by term through tf_shift."""
    acc = np.zeros_like(f.values)
    for (n1, n2), v in zip(a.index, a.values):
        nu = phase_point(a.params, a.kind, n1, n2)
        acc = acc + v * tf_shift(f, nu, "time_freq").values
    return GridSignal(f.spec, acc)


def naive_act_right(f, b):
    """Σ b(ν°)·π°(ν°)f term by term through tf_shift."""
    acc = np.zeros_like(f.values)
    for (n1, n2), v in zip(b.index, b.values):
        nu = phase_point(b.params, b.kind, n1, n2)
        acc = acc + v * tf_shift(f, nu, "freq_time").values
    return GridSignal(f.spec, acc)


def gaussian_probe(spec, rng, spread=2.0, terms=5):
    """Unit-norm random combination of shifted Gaussians (test-local copy)."""
    base = gaussian(spec)
    acc = np.zeros_like(base.values)
    for _ in range(terms):
        nu = PhasePoint(float(rng.uniform(-spread, spread)),
                        int(rng.integers(0, spec.q)),
                        float(rng.uniform(-spread, spread)),
                        int(rng.integers(0, spec.q)))
        acc = acc + complex(rng.normal(), rng.normal()) * tf_shift(base, nu).values
    f = GridSignal(spec, acc)
    return f * (1.0 / norm(f))


def dense_frame_operator(sys):
    """The truncated frame operator of `sys` as a dense qN×qN matrix, in its
    discrete Walnut form S = Δx·(tgᵀ·conj tg) ⊙ (modᵀ·conj mod) over the atom
    factors; its eigenvalues are the Rayleigh quotients' extremes."""
    gen = lattice_generators(sys.params, LatticeKind.TIME_FREQ)
    tg, mod = _atoms(sys.window, gen, *_box_axes(sys.params, LatticeKind.TIME_FREQ,
                                                 sys.radius))
    return sys.window.spec.dx * (tg.T @ tg.conj()) * (mod.T @ mod.conj())


def loop_twisted_conv(a1, a2):
    """♮-product entry by entry: one shifted, phased copy of the a₂ box per
    nonzero entry of a₁.  The phase rows come from the kernel's own
    `_twist_phase`, so a comparison with `twisted_conv` sees only the order
    of summation."""
    if not a1.values.size or not a2.values.size:
        return LatticeSeq.from_box(a1.params, a1.kind, (0, 0), np.zeros((0, 0)))
    (r1, c1), (r2, c2) = a1.box.shape, a2.box.shape
    out = np.zeros((r1 + r2 - 1, c1 + c2 - 1), dtype=np.complex128)
    phase = _twist_phase(a1.params, a1.kind, a1.axes()[0], a2.axes()[1])
    for (k1, k2), v in zip(a1.index, a1.values):
        i, j = k1 - a1.origin[0], k2 - a1.origin[1]
        out[i:i + r2, j:j + c2] += (v * a2.box) * phase[i]
    origin = (a1.origin[0] + a2.origin[0], a1.origin[1] + a2.origin[1])
    return LatticeSeq.from_box(a1.params, a1.kind, origin, out)
