"""Discretized functions on ℝ×ℤ_q and the elementary time-frequency operators.

The real line is modeled as a circle of circumference L sampled at N even
points x_j = −L/2 + jΔx, Δx = L/N; the channel index k runs over ℤ_q with
counting measure, so ‖f‖₂² = Δx·Σ_{k,j}|f(x_j,k)|².  Translations by
arbitrary (non-grid) amounts act in the Fourier domain on the periodized
band-limited representative and are exactly unitary; modulations act
pointwise.  The two shift operators are

    π(ν)  = E_{γ,c} T_{λ,l}        (modulate after translating),
    π°(ν) = T_{λ,l} E_{γ,c} = φ(ν,ν)·π(ν),

with the 2-cocycle φ(ν₁,ν₂) = exp(−2πi(λ₁γ₂ + l₁c₂/q)).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

TAIL_TOL = 1e-12  # admissible relative window mass at the periodization seam
PROBE_TERMS = 6   # Gaussian atoms summed by random_timefreq_probe


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid: circumference L, N samples per channel, q channels."""

    L: float = 16.0
    N: int = 512
    q: int = 1

    def __post_init__(self):
        if not 0 < self.L < np.inf:
            raise ValueError(f"period L must be finite and positive, got {self.L}")
        if self.N <= 0 or self.N % 2:
            raise ValueError("sample count N must be a positive even integer")
        if self.q < 1:
            raise ValueError("channel count q must be >= 1")

    @property
    def dx(self) -> float:
        return self.L / self.N

    def x(self) -> np.ndarray:
        return -self.L / 2 + self.dx * np.arange(self.N)

    def freqs(self) -> np.ndarray:
        """FFT-ordered frequencies of the band-limited representative."""
        return np.fft.fftfreq(self.N, d=self.dx)


@dataclass(frozen=True)
class GridSignal:
    """Immutable q×N complex sample matrix on a GridSpec."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.spec.q, self.spec.N):
            raise ValueError(f"values must have shape (q, N) = "
                             f"({self.spec.q}, {self.spec.N}), got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("signal values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __add__(self, other: "GridSignal") -> "GridSignal":
        _check_same_spec(self, other)
        return GridSignal(self.spec, self.values + other.values)

    def __sub__(self, other: "GridSignal") -> "GridSignal":
        _check_same_spec(self, other)
        return GridSignal(self.spec, self.values - other.values)

    def __mul__(self, scalar: complex) -> "GridSignal":
        return GridSignal(self.spec, self.values * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "GridSignal":
        return GridSignal(self.spec, -self.values)


@dataclass(frozen=True)
class PhasePoint:
    """A point ν = (λ, l, γ, c) of the time-frequency plane ℝ×ℤ_q×ℝ̂×ℤ̂_q."""

    lam: float = 0.0
    l: int = 0
    gamma: float = 0.0
    c: int = 0

    def __add__(self, other: "PhasePoint") -> "PhasePoint":
        return PhasePoint(self.lam + other.lam, self.l + other.l,
                          self.gamma + other.gamma, self.c + other.c)

    def __neg__(self) -> "PhasePoint":
        return PhasePoint(-self.lam, -self.l, -self.gamma, -self.c)


def _check_same_spec(f: GridSignal, g: GridSignal):
    if f.spec != g.spec:
        raise ValueError(f"grid mismatch: {f.spec} vs {g.spec}")


def cocycle(nu1: PhasePoint, nu2: PhasePoint, q: int) -> complex:
    """φ(ν₁,ν₂) = exp(−2πi(λ₁γ₂ + l₁c₂/q))."""
    t = nu1.lam * nu2.gamma + nu1.l * nu2.c / q
    return complex(np.exp(-2j * np.pi * t))


def inner(f: GridSignal, g: GridSignal) -> complex:
    """L² pairing Δx·Σ f·conj(g); conjugate-linear in the second argument."""
    _check_same_spec(f, g)
    return complex(f.spec.dx * np.vdot(g.values, f.values))


def norm(f: GridSignal) -> float:
    return float(np.sqrt(f.spec.dx) * np.linalg.norm(f.values))


def _unit(f: GridSignal) -> GridSignal:
    """f/‖f‖; a window that vanishes on the grid raises ValueError."""
    size = norm(f)
    if not size:
        raise ValueError("the window vanishes on the grid")
    return f * (1.0 / size)


@contextmanager
def _finite(name: str):
    """Refuse, as a ValueError naming the parameter `name`, a floating-point
    overflow or invalid operation in the block, before numpy warns of it."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise ValueError(f"{name} overflows floating point on the grid") from None


def translate(f: GridSignal, lam: float, l: int = 0) -> GridSignal:
    """T_{λ,l} f(x,k) = f(x−λ, k−l); λ need not be a grid multiple."""
    spec = f.spec
    phase = np.exp(-2j * np.pi * spec.freqs() * lam)
    out = np.fft.ifft(np.fft.fft(f.values, axis=1) * phase[None, :], axis=1)
    if l % spec.q:
        out = np.roll(out, l % spec.q, axis=0)
    return GridSignal(spec, out)


def modulate(f: GridSignal, gamma: float, c: int = 0) -> GridSignal:
    """E_{γ,c} f(x,k) = exp(2πi(xγ + kc/q))·f(x,k)."""
    spec = f.spec
    xph = np.exp(2j * np.pi * spec.x() * gamma)
    chph = np.exp(2j * np.pi * np.arange(spec.q) * c / spec.q)
    return GridSignal(spec, f.values * chph[:, None] * xph[None, :])


def tf_shift(f: GridSignal, nu: PhasePoint, variant: str = "time_freq") -> GridSignal:
    """Apply π(ν) (variant "time_freq") or π°(ν) = φ(ν,ν)π(ν) ("freq_time")."""
    out = modulate(translate(f, nu.lam, nu.l), nu.gamma, nu.c)
    if variant == "time_freq":
        return out
    if variant == "freq_time":
        return cocycle(nu, nu, f.spec.q) * out
    raise ValueError(f"unknown shift variant {variant!r}")


def gaussian(spec: GridSpec, coeffs=None, lam: complex = 0.0) -> GridSignal:
    """Sample g(x,k) = c_k·exp(−πx² − iλx) on the grid.

    Raises ValueError("period too small") unless the envelope at the
    periodization seam x = ±L/2 is below TAIL_TOL relative to the peak.
    """
    lam = complex(lam)
    if not np.isfinite(lam):
        raise ValueError(f"Gaussian lam must be finite, got {lam}")
    x = spec.x()

    def envelope(t):
        return np.exp(-np.pi * t ** 2 + lam.imag * t)

    with _finite(f"Gaussian lam = {lam}"):
        peak = envelope(np.clip(lam.imag / (2 * np.pi), -spec.L / 2, spec.L / 2))
        seam = max(envelope(np.array(-spec.L / 2)), envelope(np.array(spec.L / 2)))
        profile = np.exp(-np.pi * x ** 2 - 1j * lam * x)
    if seam > TAIL_TOL * peak:
        raise ValueError("period too small: Gaussian tail does not vanish at ±L/2")

    if coeffs is None:
        coeffs = np.ones(spec.q)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != (spec.q,):
        raise ValueError(f"need one coefficient per channel, got shape {coeffs.shape}")
    return GridSignal(spec, coeffs[:, None] * profile[None, :])


def hermite(spec: GridSpec, n: int) -> GridSignal:
    """Normalized Hermite function H_n(√(2π)x)e^{−πx²} (Fourier-invariant
    scaling), the same profile on every channel; an order whose profile or
    its norm overflows on the grid is refused."""
    if n < 0:
        raise ValueError(f"Hermite order must be at least 0, got {n}")
    x = spec.x()
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    with _finite(f"Hermite order {n}"):
        profile = np.polynomial.hermite.hermval(np.sqrt(2 * np.pi) * x, coeffs)
        profile = profile * np.exp(-np.pi * x ** 2)
        vals = np.zeros((spec.q, spec.N), dtype=np.complex128)
        vals[:, :] = profile[None, :]
        return _unit(GridSignal(spec, vals))


def apply_D(f: GridSignal) -> GridSignal:
    """Spectral derivative d/dx per channel (exact on the band-limited rep)."""
    spec = f.spec
    mult = 2j * np.pi * spec.freqs()
    mult[spec.N // 2] = 0.0  # unpaired Nyquist mode: symmetric choice
    return GridSignal(spec, np.fft.ifft(np.fft.fft(f.values, axis=1) * mult[None, :], axis=1))


def apply_M(f: GridSignal) -> GridSignal:
    """Coordinate multiplication (Mf)(x,k) = x·f(x,k)."""
    return GridSignal(f.spec, f.values * f.spec.x()[None, :])


def fourier_transform(f: GridSignal) -> GridSignal:
    """Fourier transform on ℝ×ℤ_q, sampled on the dual grid.

    Output lives on GridSpec(L=N/L, N, q) with samples
    F(ξ_m, c) = Σ_k e^{−2πikc/q} · Δx Σ_j f(x_j,k) e^{−2πi x_j ξ_m},
    ξ_m = −N/(2L) + m/L.  Plancherel holds with weight 1/q on the output
    channel sum (the dual group ℤ̂_q carries counting measure over q).
    """
    spec = f.spec
    extent = spec.N / spec.L
    x = spec.x()
    pre = np.exp(1j * np.pi * extent * x)        # shifts output to ξ₀ = −extent/2
    post = np.exp(1j * np.pi * np.arange(spec.N))  # input grid offset −L/2
    line = spec.dx * post[None, :] * np.fft.fft(f.values * pre[None, :], axis=1)
    full = np.fft.fft(line, axis=0)              # channel DFT, counting measure
    return GridSignal(GridSpec(L=extent, N=spec.N, q=spec.q), full)


def involution_dagger(f: GridSignal) -> GridSignal:
    """f†(x,k) = conj(f(−x,−k)); reflection maps sample j ↦ N−j mod N."""
    spec = f.spec
    rows = (-np.arange(spec.q)) % spec.q
    cols = (-np.arange(spec.N)) % spec.N
    return GridSignal(spec, np.conj(f.values[np.ix_(rows, cols)]))


def random_timefreq_probe(spec: GridSpec, rng: np.random.Generator,
                          spread: float = 2.5) -> GridSignal:
    """Random unit-norm combination of PROBE_TERMS Gaussian atoms
    E_{γ,c}T_{λ,l}g of g(x,k) = exp(−πx²), each in its closed form
    exp(2πi(γx + kc/q))·exp(−π(x−λ)²): T_{·,l} fixes the channel-constant g.

    Time-frequency content is confined to max(|λ|,|γ|) ≲ spread, which keeps
    truncated lattice sums accurate for such probes.
    """
    draws = [(rng.uniform(-spread, spread), rng.integers(0, spec.q),
              rng.uniform(-spread, spread), rng.integers(0, spec.q),
              complex(rng.normal(), rng.normal())) for _ in range(PROBE_TERMS)]
    lam, _, gamma, c, z = (np.array(d) for d in zip(*draws))
    x = spec.x()
    atoms = np.exp(-np.pi * (x - lam[:, None]) ** 2 + 2j * np.pi * gamma[:, None] * x)
    chph = np.exp(2j * np.pi * np.outer(np.arange(spec.q), c) / spec.q)
    return _unit(GridSignal(spec, (chph * z) @ atoms))


def save_signal(f: GridSignal, path):
    """Columnar text format: header line "L N q", then rows "k j re im"."""
    with open(path, "w") as fh:
        fh.write(f"{f.spec.L!r} {f.spec.N} {f.spec.q}\n")
        for k in range(f.spec.q):
            for j in range(f.spec.N):
                v = f.values[k, j]
                fh.write(f"{k} {j} {float(v.real)!r} {float(v.imag)!r}\n")


def load_signal(path) -> GridSignal:
    """Read save_signal's format: the header "L N q", then exactly one row
    "k j re im" for each 0 ≤ k < q, 0 ≤ j < N, in any order.  Anything else
    raises ValueError naming the line."""
    with open(path) as fh:
        lines = fh.read().splitlines() or [""]   # an empty file has an empty header
    seen, spec = set(), None
    for n, line in enumerate(lines, start=1):
        try:
            if spec is None:
                length, samples, q = line.split()   # ValueError unless three fields
                spec = GridSpec(L=float(length), N=int(samples), q=int(q))
                vals = np.zeros((spec.q, spec.N), dtype=np.complex128)
                continue
            k, j, re, im = line.split()
            k, j = int(k), int(j)
            if (k, j) in seen or not (0 <= k < spec.q and 0 <= j < spec.N):
                raise ValueError(f"sample ({k}, {j}) is repeated or outside "
                                 f"q = {spec.q}, N = {spec.N}")
            seen.add((k, j))
            vals[k, j] = float(re) + 1j * float(im)
        except ValueError as exc:
            raise ValueError(f"{path}, line {n}: {exc}") from exc
    if len(seen) < spec.q * spec.N:
        raise ValueError(f"{path}, line {len(lines)}: ends after {len(seen)} of "
                         f"q·N = {spec.q * spec.N} samples")
    return GridSignal(spec, vals)
