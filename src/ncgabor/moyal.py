"""Continuous phase-space picture: Moyal identity, energies, eigenproblem.

With time-frequency shifts over the whole plane ℝ×ℤ_q×ℝ̂×ℤ̂_q every window
generates a continuous tight frame:

    Σ_{c,l} ∬ |⟨f, E_{ω,c}T_{x,l}g⟩|² d(x,ω) = q·‖g‖₂²·‖f‖₂²,

the adjoint lattice degenerates to a point (scalars act on the right,
⟨f,g⟩_right = q⟨g,f⟩, tr°(b) = b/q), and the energy of the projection
built from g reduces to a weighted phase-space integral

    E(g) = (q²π/‖g‖₂²) Σ_{c,l} ∬ (x²+ω²)·|V_g g|² d(x,ω)  ≥  q,

with equality exactly on generalized Gaussians c_k·e^{−πx²−iλx}, the only
windows satisfying (∇₁±i∇₂)g ∈ span{g}.  Quadrature is the tensor
trapezoid rule of the periodized grid (x on the sample grid, ω on the FFT
bins, spectrally exact for the represented band-limited class).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .lattice import LatticeKind, TorusParams, index_bounds
from .algebra import BOX_BUDGET, _twist_phase
from .signal import GridSignal, GridSpec, gaussian, hermite, inner, norm, _unit
from .geometry import _chern_double_sum, covariant

RING_TOL = 1e-8  # continuous_chern's admissible table mass on the box edge
CHUNK = 16        # x nodes per block of the full-grid STFT


@dataclass(frozen=True)
class PhaseGrid:
    """Phase-space quadrature nodes and weights attached to a sampling grid."""

    spec: GridSpec

    @property
    def x(self) -> np.ndarray:
        """Translation nodes jΔx wrapped to [−L/2, L/2), in roll order."""
        spec = self.spec
        return (spec.dx * np.arange(spec.N) + spec.L / 2) % spec.L - spec.L / 2

    @property
    def x_weight(self) -> float:
        return self.spec.dx

    @property
    def omega(self) -> np.ndarray:
        """FFT-ordered frequency nodes; extent N/L with step 1/L."""
        return np.fft.fftfreq(self.spec.N, d=self.spec.dx)

    @property
    def omega_weight(self) -> float:
        return 1.0 / self.spec.L


def _stft_blocks(f: GridSignal, g: GridSignal):
    """(blocks, p): p the least period of g's channels (p | q), and
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


def _stft_chunks(f: GridSignal, g: GridSignal):
    """Per chunk js of roll-order x nodes, yield (js, v, mult, group) with
    every node V[c,l,b,m] = ⟨f, E_{ω_m,c}T_{x_js[b],l}g⟩ on the FFT-ordered
    ω nodes read as v[c, group[l], b, m]: the blocks of _stft_blocks by
    time FFT, each standing for mult = q/p columns, group[l] = l mod p."""
    n, q = f.spec.N, f.spec.q
    blocks, p = _stft_blocks(f, g)
    group = np.arange(q) % p
    for j0 in range(0, n, CHUNK):
        js = np.arange(j0, min(j0 + CHUNK, n))
        yield js, blocks(js, lambda u: np.fft.fft(u, axis=-1)), q // p, group


def moyal_check(f: GridSignal, g: GridSignal):
    """Both sides of the Moyal identity and their relative error; the left side
    sums |V_g f|² over every (x, l, ω, c) node, not through Plancherel; a
    block that stands for mult columns l counts mult times."""
    if f.spec != g.spec:
        raise ValueError("grid mismatch")
    grid = PhaseGrid(f.spec)
    total = sum(mult * np.vdot(v, v).real for _, v, mult, _ in _stft_chunks(f, g))
    lhs = total * grid.x_weight * grid.omega_weight
    rhs = f.spec.q * norm(g) ** 2 * norm(f) ** 2
    return lhs, rhs, abs(lhs - rhs) / abs(rhs)


def continuous_energy(g: GridSignal) -> float:
    """Energy of the phase-space projection p = ⟨g,g⟩/(q‖g‖₂²):

        E(g) = (π/‖g‖₂⁴) Σ_{c,l} ∬ (x²+ω²)·|V_g g|² d(x,ω)  ≥  q.

    The normalization is fixed by the projection (p♮p = p requires the
    1/(q‖g‖²) scale) and makes E scale-invariant in g; generalized
    Gaussians attain the lower bound q at any q and any amplitude.
    Plancherel in ω and over ℤ_q gives the full-grid trapezoid sum exactly,

        Σ (x²+ω²)|V|² = qΔx²·(N·Σ_j x_j²·(A⋆A)(j) + Σ_m ω_m²·(Â⋆Â)(m)/N),

    with A = Σ_k|g(·,k)|², Â = Σ_k|DFT g(·,k)|² and (a⋆a)(j) = Σ_t a(t)a(t−j).
    """
    spec, grid = g.spec, PhaseGrid(g.spec)
    g = g * 2.0 ** -np.frexp(norm(g))[1]   # by a power of two, exactly: ‖g‖⁴ stays finite
    a = np.stack([np.abs(g.values) ** 2, np.abs(np.fft.fft(g.values, axis=1)) ** 2]).sum(axis=1)
    corr = np.fft.irfft(np.abs(np.fft.rfft(a, axis=1)) ** 2, n=spec.N, axis=1)
    val = spec.q * spec.dx ** 2 * (spec.N * grid.x ** 2 @ corr[0]
                                   + grid.omega ** 2 @ corr[1] / spec.N)
    return float(np.pi * val * grid.x_weight * grid.omega_weight / norm(g) ** 4)


def continuous_inner_right(f: GridSignal, g: GridSignal) -> complex:
    """Scalar right pairing of the degenerate adjoint algebra: q·⟨g,f⟩."""
    return f.spec.q * inner(g, f)


def continuous_trace_r(b: complex, q: int) -> complex:
    """tr°(b) = b/q on the scalar adjoint algebra."""
    return b / q


def eigen_residual(g: GridSignal, sign: int):
    """Least-squares eigenvalue fit of (∇₁ ± i∇₂)g against g.

    Returns (λ_est, residual) with λ_est = ⟨(∇₁±i∇₂)g, g⟩/‖g‖₂² and
    residual = ‖(∇₁±i∇₂)g − λ_est·g‖₂/‖g‖₂.  Generalized Gaussians give a
    vanishing residual for the plus sign; every other window is bounded away
    from zero.
    """
    if norm(g) == 0:
        raise ValueError("zero window")
    v = covariant(g, 1) + (1j * sign) * covariant(g, 2)
    lam_est = inner(v, g) / norm(g) ** 2
    res = norm(v - lam_est * g) / norm(g)
    return lam_est, float(res)


def continuous_chern(g: GridSignal, step: float = 0.125, box: float = 5.0) -> complex:
    """Chern number q²/(2πi)·tr(p[(∂₁p)(∂₂p)−(∂₂p)(∂₁p)]) of p = ⟨g,g⟩/(q‖g‖²).

    Evaluated as the reduced double phase-space integral

      (2πq²/i) ∬ (x'ω−xω')·p(ν)p(ν')p(−ν−ν')·conj(φ(ν,ν))conj(φ(ν',ν'+ν)) dν dν'

    by the trapezoid rule on the nodes of the lattice TorusParams(step, step)
    (step snapped to Δx·ℤ) in its index box at `box`, channels (l, c) free, p
    zero outside: chern_sum's kernel and twist table on that lattice.  The
    table p[l,c,a,b] = ⟨g, E_{ω_b,c}T_{x_a,l}g⟩/(q‖g‖²) is _stft_blocks at
    the whole-sample shifts x_a, summed over t by one GEMM.  Equals q, up
    to quadrature truncation, for every window whose phase-space mass lies
    inside the box; a table whose relative ℓ² mass on its outermost ring
    of nodes reaches RING_TOL is refused, as are a step or box that is not
    finite and positive and work arrays above BOX_BUDGET cells.
    """
    spec, q = g.spec, g.spec.q
    for name, value in (("step", step), ("box", box)):   # in samples, so that none overflows
        if not 0 < value / spec.dx < np.inf:
            raise ValueError(f"continuous_chern {name} must be finite and positive "
                             f"in samples of dx = {spec.dx:g}, got {value}")
    shift = max(1, int(round(step / spec.dx)))   # x nodes are whole samples
    step = shift * spec.dx
    lat, kind = TorusParams(step, step), LatticeKind.TIME_FREQ
    side = 2 * index_bounds(lat, kind, box)[0] + 1
    blocks, period = _stft_blocks(g, g)
    cells = q * side * max(period * spec.N, q * side)   # rolled products, table
    if cells > BOX_BUDGET:
        raise ValueError(f"continuous_chern: {side} nodes a side at q={q}, N={spec.N} "
                         f"need {cells} cells, above {BOX_BUDGET}; raise step or lower box")
    nodes = np.arange(side) - side // 2
    # e^{−2πiω_b x} at the unrolled x of each rolled sample: ω_b need not be an FFT bin
    phases = np.exp(-2j * np.pi * np.outer(np.roll(spec.x(), spec.N // 2), step * nodes))
    v = blocks(shift * nodes, lambda u: (u.reshape(-1, spec.N) @ phases).reshape(
        *u.shape[:-1], side))                            # [c, l mod period, a, b]
    p = v[:, np.arange(q) % period].swapaxes(0, 1) / (q * norm(g) ** 2)
    mass = np.abs(p) ** 2
    ring = 1.0 - mass[..., 1:-1, 1:-1].sum() / mass.sum()
    if ring >= RING_TOL:
        raise ValueError(f"window leaves the quadrature box: relative mass {ring:.3e} "
                         f"on the outermost ring of |x|, |omega| <= box = {box:g}")
    twist = np.conj(_twist_phase(lat, kind, nodes, nodes))
    return _chern_double_sum(p, twist) * step ** 6 * 2 * np.pi * q ** 2 / 1j


def _check_size(name: str, value: float):
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def bump_window(spec: GridSpec, width: float = 2.0, power: int = 3) -> GridSignal:
    """Compactly supported C^{power−1} bump (1−(x/width)²)^power on every
    channel, normalized; the width must be finite and positive, the power
    non-negative."""
    _check_size("bump width", width)
    if not power >= 0:
        raise ValueError(f"bump power must be non-negative, got {power}")
    x = spec.x()
    prof = np.where(np.abs(x) < width, (1 - (x / width) ** 2) ** power, 0.0)
    vals = np.zeros((spec.q, spec.N), dtype=np.complex128)
    vals[:, :] = prof
    out = GridSignal(spec, vals)
    return _unit(out)


def bandlimited_noise_window(spec: GridSpec, rng: np.random.Generator,
                             bandwidth: float = 2.5, envelope: float = 3.0) -> GridSignal:
    """Random band-limited noise under a Gaussian envelope, normalized; the
    bandwidth and envelope must be finite and positive."""
    _check_size("noise bandwidth", bandwidth)
    _check_size("noise envelope", envelope)
    z = rng.normal(size=(spec.q, spec.N)) + 1j * rng.normal(size=(spec.q, spec.N))
    zf = np.fft.fft(z, axis=1)
    zf[:, np.abs(spec.freqs()) > bandwidth] = 0.0
    prof = np.fft.ifft(zf, axis=1) * np.exp(-np.pi * (spec.x() / envelope) ** 2)[None, :]
    out = GridSignal(spec, prof)
    return _unit(out)


def load_corpus_file(path, spec: GridSpec):
    """Window corpus from a plain config file.

    One window per line: "name = kind key=value ...", kinds gaussian
    (lam=complex), hermite (n=int), bump (width=, power=), noise
    (bandwidth=, envelope=, seed=).  Only gaussian entries count as
    generalized Gaussians for minimizer screening.
    """
    out = []
    with open(path) as fh:
        for number, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                try:
                    out.append(_corpus_entry(line, spec))
                except ValueError as exc:
                    raise ValueError(f"corpus line {number} {line!r}: {exc}") from None
    return out


def _corpus_entry(line: str, spec: GridSpec):
    """(name, window, is_generalized_gaussian) of one corpus line."""
    name, sep, spec_str = (part.strip() for part in line.partition("="))
    fields = spec_str.split()
    if not (name and sep and fields) or not all("=" in f for f in fields[1:]):
        raise ValueError("expected 'name = kind key=value ...'")
    kind, opts = fields[0], dict(f.split("=", 1) for f in fields[1:])
    if kind == "gaussian":
        return name, gaussian(spec, lam=complex(opts.get("lam", "0"))), True
    if kind == "hermite":
        return name, hermite(spec, int(opts.get("n", "1"))), False
    if kind == "bump":
        return name, bump_window(spec, width=float(opts.get("width", "2")),
                                 power=int(opts.get("power", "3"))), False
    if kind == "noise":
        rng = np.random.default_rng(int(opts.get("seed", "0")))
        return name, bandlimited_noise_window(
            spec, rng, bandwidth=float(opts.get("bandwidth", "2.5")),
            envelope=float(opts.get("envelope", "3.0"))), False
    raise ValueError(f"unknown corpus window kind {kind!r}")


def default_window_corpus(spec: GridSpec, seed: int = 23):
    """Twelve windows: four generalized Gaussians, Hermites, bumps, noise.

    Returns a list of (name, signal, is_generalized_gaussian).
    """
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=spec.q) + 1j * rng.normal(size=spec.q)
    entries = [
        ("gaussian", gaussian(spec), True),
        ("gaussian_lam2", gaussian(spec, lam=2.0), True),
        ("gaussian_lam_complex", gaussian(spec, lam=1.0 + 0.7j), True),
        ("gaussian_random_channels", gaussian(spec, coeffs=coeffs), True),
        ("hermite1", hermite(spec, 1), False),
        ("hermite2", hermite(spec, 2), False),
        ("hermite3", hermite(spec, 3), False),
        ("bump_w2", bump_window(spec, width=2.0), False),
        ("bump_w3", bump_window(spec, width=3.0, power=4), False),
        ("noise_a", bandlimited_noise_window(spec, rng), False),
        ("noise_b", bandlimited_noise_window(spec, rng, bandwidth=1.5), False),
        ("noise_c", bandlimited_noise_window(spec, rng, bandwidth=3.5, envelope=2.5), False),
    ]
    return entries
