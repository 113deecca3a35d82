"""Shared fixtures and naive reference implementations (oracles)."""

import cmath
import itertools
import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import Phase, settings, strategies as st

from ncgabor.lattice import LatticeKind, TorusParams, lattice_generators, lattice_shift
from ncgabor.signal import (GridSignal, GridSpec, PhasePoint, cocycle,
                            gaussian, norm, tf_shift)
from ncgabor import signal
from ncgabor.algebra import (PRUNE_TOL, LatticeSeq, trace_l, twisted_conv, _atoms, _box_axes,
                             _band_product, _check_compatible, _twist_phase, _zeros)
from ncgabor.frame import adjoint_span_residual
from ncgabor.geometry import covariant, derive
from ncgabor.moyal import _stft_chunks


# no explain phase: it re-runs each failing example and cost 12-15 s per failure report
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None,
                    phases=[p for p in Phase if p is not Phase.explain])


@st.composite
def lattices(draw, qs=None):
    """(α, β, r, s, q) with r, s coprime to q (r = s = 0 at q = 1), q drawn
    from `qs` when given, else from 1..7."""
    q = draw(st.integers(1, 7) if qs is None else st.sampled_from(qs))
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


def support_shifts(a):
    """(λ, γ) arrays of the support points of a lattice sequence."""
    return tuple(lattice_shift(a.params, a.kind, j, a.index[:, j - 1])[0] for j in (1, 2))


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
    phase-space grid, V[c,l] read as block group[l]: the trapezoid sum
    `continuous_energy` evaluates by Plancherel."""
    spec = g.spec
    x = np.roll(spec.x(), spec.N // 2)   # roll order: the shifts j·Δx from 0
    weight = x[:, None] ** 2 + spec.freqs()[None, :] ** 2
    total = sum(float(np.einsum("clbm,bm->", np.abs(v[:, group]) ** 2, weight[js]))
                for js, v, _, group in _stft_chunks(g, g))
    return np.pi * total * spec.dx * (1.0 / spec.L) / norm(g) ** 4


def single_stage_stft_blocks(f, g):
    """(blocks, p) of `moyal._stft_blocks` with the channel DFT over ℤ_q as
    one q × q matrix product on every block, kept verbatim from before the
    DFT was split at the channel period p.  At q = 1 and at p = q the blocks
    of `_stft_chunks` must equal it bitwise, otherwise to roundoff."""
    spec = f.spec
    n, q = spec.N, spec.q
    # e^{−2πi x₀ ω_m} = (−1)^m, x₀ = −L/2, is a half-period shift: read f, ḡ N/2 samples late
    fs = spec.dx * np.roll(f.values, n // 2, axis=1)
    gbar = np.conj(g.values)
    p = next((d for d in range(1, q) if q % d == 0 and np.array_equal(gbar[d:], gbar[:-d])), q)
    rows = sliding_window_view(np.concatenate([gbar, gbar], axis=1), n, axis=1)  # ḡ(k, s+t)
    k_minus_l = np.subtract.outer(np.arange(q), np.arange(p)) % q
    dft_q = np.exp(-2j * np.pi * np.outer(np.arange(q), np.arange(q)) / q)

    def blocks(js, contract):
        u = rows[k_minus_l[:, :, None], (n // 2 - js) % n]   # [k, l mod p, b, t]
        u *= fs[:, None, None, :]
        v = contract(u)
        return v if q == 1 else (dft_q @ v.reshape(q, -1)).reshape(v.shape)
    return blocks, p


def gathered_stft_blocks(f, g):
    """`moyal._stft_blocks` kept verbatim from before its blocks were
    streamed through reused buffers, an oracle that the blocks of
    `_stft_chunks` and of `continuous_chern` must equal bitwise.

    (blocks, p): p the least period of g's channels (p | q), and
    blocks(js, contract) the STFT V[c, l, b, ·] = ⟨f, E_{·,c}T_{x_js[b],l}g⟩
    at the translations by js[b] whole samples, for l < p.

    Column l of V depends only on the channels of ḡ rolled by l, so columns
    whose rolls are bitwise equal are one block: the classes l mod p, each
    standing for q/p columns.  The channel DFT over ℤ_q splits at p
    (Cooley–Tukey): with k = r + p·s′ and c = c′ + (q/p)·u, ḡ(k − l) depends
    on r alone, so the (q/p)-point stage
    F[r, c′, t] = Σ_{s′} ω_q^{−c′(r+ps′)}·Δx·f(x_t', r + p·s′),
    t' = t − N/2 mod N, is a function of the probe, formed once.  A block
    gathers the p × p rolled translates of ḡ from a strided view of [ḡ, ḡ]
    as u[r, c′, l, b, t] = ḡ(x_t' − x_js[b], r − l), multiplies F into it
    in place, and `contract` sums it over t against the phases of its ω
    nodes; the p-point stage over r (none at p = 1) is one p × p matrix
    product.  At p = q, F is f and the stage is the whole q × q DFT."""
    spec = f.spec
    n, q = spec.N, spec.q
    gbar = np.conj(g.values)
    p = next((d for d in range(1, q) if q % d == 0 and np.array_equal(gbar[d:], gbar[:-d])), q)
    rows = sliding_window_view(np.concatenate([gbar, gbar], axis=1), n, axis=1)  # ḡ(k, s+t)
    k = np.arange(q).reshape(q // p, p).T                   # k[r, s′] = r + p·s′
    twiddle = np.exp(-2j * np.pi * np.arange(q // p)[:, None, None] * k / q)   # [c′, r, s′]
    # e^{−2πi x₀ ω_m} = (−1)^m, x₀ = −L/2, is a half-period shift: read f, ḡ N/2 samples late
    fs = spec.dx * np.roll(f.values, n // 2, axis=1)
    probe = (twiddle.swapaxes(0, 1) @ fs[k])[:, :, None, None, :]   # F[r, c′, ·, ·, t]
    r_minus_l = np.repeat((np.arange(p)[:, None, None] - np.arange(p)) % p, q // p, axis=1)
    dft_p = np.exp(-2j * np.pi * np.outer(np.arange(p), np.arange(p)) / p)

    def blocks(js, contract):
        u = rows[r_minus_l[..., None], (n // 2 - js) % n]   # [r, c′, l mod p, b, t]
        u *= probe
        v = contract(u)
        if p > 1:
            v = (dft_p @ v.reshape(p, -1)).reshape(v.shape)
        return v.reshape(q, p, *v.shape[3:])            # c = c′ + (q/p)·u
    return blocks, p


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
    """The frame operator of `sys` truncated at its radius as a dense qN×qN
    matrix, in its discrete Walnut form S = Δx·(tgᵀ·conj tg) ⊙ (modᵀ·conj mod)
    over the atom factors; its largest eigenvalue bounds the Rayleigh
    quotients of the band-concentrated probes of frame_bounds."""
    tg, mod = _atoms(sys.window, sys.params, LatticeKind.TIME_FREQ,
                     *_box_axes(sys.params, LatticeKind.TIME_FREQ, sys.radius, sys.window.spec))
    return sys.window.spec.dx * (tg.T @ tg.conj()) * (mod.T @ mod.conj())


def lstsq_w_residuals(g, params, radius):
    """Least-squares distances of (∇₁ ± i∇₂)g from the span of the adjoint
    shifts of g, relative to ‖∇₁g‖ + ‖∇₂g‖: `adjoint_span_residual` on the
    dense shift family, the reference for Pipeline.w_residuals."""
    c1, c2 = covariant(g, 1), covariant(g, 2)
    return adjoint_span_residual((c1 + 1j * c2, c1 - 1j * c2), g, params, radius,
                                 scale=norm(c1) + norm(c2))


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


def grouped_twisted_conv(a1, a2):
    """♮-product as one GEMM per group of a₁'s nonzero rows on the fixed
    grid, for every operand: the grouped loop of `twisted_conv` before its
    one-cell case, kept verbatim (BOX_BUDGET read off signal.py, so a test
    that lowers it lowers it here too).  `twisted_conv` must equal it
    bitwise."""
    _check_compatible(a1, a2)
    if not a1.box.size or not a2.box.size:
        return LatticeSeq.from_box(a1.params, a1.kind, (0, 0), _zeros(0, 0))
    col = math.gcd(a1.col_step, a2.col_step) or 1
    b1, b2 = a1.box[:, ::col], a2.box[:, ::col]
    (r1, c1), (r2, c2) = b1.shape, b2.shape
    full = _zeros(r1 + r2 - 1, a1.box.shape[1] + a2.box.shape[1] - 1)
    out = full[:, :col * (c1 + c2 - 1):col]   # the columns that products reach
    rows = b1.any(axis=1).nonzero()[0].tolist()

    def cells(g, b):   # L, R and L·R of a g-row group and b of a₂'s columns
        return (g + r2 - 1) * (g * b + b + c1 - 1) + g * b * (b + c1 - 1)

    block = c2
    while block > 1 and cells(1, block) > signal.BOX_BUDGET:
        block = (block + 1) // 2
    group = min(max(8, 4 * r2), r1)
    while group > 1 and cells(group, block) > signal.BOX_BUDGET:
        group //= 2
    n2s = np.arange(a2.origin[1], a2.origin[1] + col * c2, col)
    for _, cell in itertools.groupby(rows, lambda i: i // group):
        cell = list(cell)
        i0, i1 = cell[0], cell[-1] + 1
        n1s = np.arange(a1.origin[0] + i0, a1.origin[0] + i1)
        for v in range(0, c2, block):
            phase = _twist_phase(a1.params, a1.kind, n1s, n2s[v:v + block])
            out[i0:i1 + r2 - 1, v:v + block + c1 - 1] += _band_product(
                b1[i0:i1], b2[:, v:v + block], phase)
    origin = (a1.origin[0] + a2.origin[0], a1.origin[1] + a2.origin[1])
    return LatticeSeq.from_box(a1.params, a1.kind, origin, full)


def entry_sum(a, b, sign, prune=PRUNE_TOL):
    """a + sign·b, sign = ±1, entry by entry: the entries of both supports
    scattered into one box by `LatticeSeq.from_entries`.  The box-aligned
    sums of `LatticeSeq.__add__`, `__sub__` and `l1_diff` must equal it
    bitwise."""
    return LatticeSeq.from_entries(a.params, a.kind, np.vstack([a.index, b.index]),
                                   np.concatenate([a.values, sign * b.values]), prune=prune)


def eight_product_figures(p):
    """c₁, E and the self-duality residuals of p with every ♮-product formed:
    tr(p♮[(∂₁p)♮(∂₂p) − (∂₂p)♮(∂₁p)])/(2πi|αβ|), tr((∂₁p)♮(∂₁p) + (∂₂p)♮(∂₂p))
    /(4π|αβ|) and ‖(∂₁p ± i∂₂p)♮p‖₁, each trace read off its product's
    (0, 0) entry: the reference for the trace pairings of `geometry`."""
    d1, d2 = derive(p, 1), derive(p, 2)
    area = abs(p.params.alpha * p.params.beta)
    comm = twisted_conv(d1, d2) - twisted_conv(d2, d1)
    c1 = trace_l(twisted_conv(p, comm)) / (2j * np.pi * area)
    e = (trace_l(twisted_conv(d1, d1)) + trace_l(twisted_conv(d2, d2))).real / (4 * np.pi * area)
    sd = tuple(twisted_conv(d1 + sign * d2, p).l1_norm() for sign in (1j, -1j))
    return c1, e, sd
