"""Time-frequency lattices on ℝ×ℤ_q and their annihilators.

The lattices handled here are products Λ×Γ with

    Λ = {(αn, rn mod q) : n ∈ ℤ}    in the time domain ℝ×ℤ_q,
    Γ = {(βm, sm mod q) : m ∈ ℤ}    in the frequency domain ℝ̂×ℤ̂_q,

for nonzero real steps α, β and channel slopes r, s coprime to q.  The
annihilator (adjoint) lattice Γ⊥×Λ⊥ has time step 1/(βq) with slope −s°
and frequency step 1/(αq) with slope −r°, where r° denotes the inverse of
r modulo q.  Covolumes follow the measure convention: Lebesgue on ℝ,
counting on ℤ_q, counting/q on ℤ̂_q, so μ(Λ) = q|α| and μ(Γ) = |β|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


def mod_inverse(r: int, q: int) -> int:
    """Inverse of r modulo q, in {0,…,q−1}; the q=1 case returns 0.

    Raises ValueError if gcd(r, q) != 1.
    """
    if q < 1:
        raise ValueError(f"modulus must be a positive integer, got q={q}")
    if q == 1:
        if r != 0:
            raise ValueError("q = 1 admits only the degenerate slope r = 0")
        return 0
    try:
        return pow(r, -1, q)
    except ValueError as exc:
        raise ValueError(f"not coprime: gcd({r}, {q}) != 1") from exc


class LatticeKind(Enum):
    """Which of the two lattices a point or sequence lives on."""

    TIME_FREQ = "time_freq"   # Λ×Γ
    ADJOINT = "adjoint"       # Γ⊥×Λ⊥


@dataclass(frozen=True)
class TorusParams:
    """The five numbers (α, β, r, s, q) fixing the lattices and the twist θ."""

    alpha: float
    beta: float
    r: int = 0
    s: int = 0
    q: int = 1

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 1:
            raise ValueError(f"q must be a positive integer, got {self.q}")
        if self.alpha == 0.0 or self.beta == 0.0:
            raise ValueError("lattice steps alpha, beta must be nonzero")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("lattice steps must be finite")
        if self.q == 1:
            if self.r != 0 or self.s != 0:
                raise ValueError("q = 1 requires r = s = 0")
        else:
            for name, value in (("r", self.r), ("s", self.s)):
                if not 0 <= value < self.q:
                    raise ValueError(f"{name} must lie in 0..q-1, got {value}")
                if math.gcd(value, self.q) != 1:
                    raise ValueError(f"not coprime: gcd({name}={value}, q={self.q}) != 1")

    @property
    def r_inv(self) -> int:
        return mod_inverse(self.r, self.q)

    @property
    def s_inv(self) -> int:
        return mod_inverse(self.s, self.q)

    @property
    def theta(self) -> float:
        """Twist of the shift algebra on Λ×Γ: θ = αβ + rs/q."""
        real, num = lattice_twist(self, LatticeKind.TIME_FREQ)
        return -(real + num / self.q)

    @property
    def adjoint_twist(self) -> float:
        """Twist of the shift algebra on Γ⊥×Λ⊥: θ̃ = (αβq²)⁻¹ + r°s°/q.

        The adjoint algebra is commutative (Laurent structure) exactly when
        this number is an integer.
        """
        real, num = lattice_twist(self, LatticeKind.ADJOINT)
        return real + num / self.q

    @property
    def integer_adjoint_twist(self) -> bool:
        """Whether the adjoint twist is an integer, up to rounding: the one
        integer-twist test (soliton_admissible, scalar_lattice, laurent_symbol,
        frame_bounds)."""
        return abs(self.adjoint_twist - round(self.adjoint_twist)) <= 1e-9

    @property
    def scalar_lattice(self) -> TorusParams | None:
        """The scalar lattice αℤ×(qβ)ℤ whose frames lift to q-channel frames
        of Λ×Γ, or None when q = 1 or the adjoint twist is not an integer."""
        if self.q == 1 or not self.integer_adjoint_twist:
            return None
        return TorusParams(self.alpha, self.q * self.beta)

    @property
    def density(self) -> float:
        """|αβ|q, the covolume of Λ×Γ; the Gaussian generates a frame iff this is < 1."""
        return abs(self.alpha * self.beta) * self.q


@dataclass(frozen=True)
class AdjointLattice:
    """Generator data of Γ⊥×Λ⊥ together with the four covolumes."""

    time_step: float
    time_slope: int
    freq_step: float
    freq_slope: int
    mu_time: float        # μ(Λ) = q|α|
    mu_freq: float        # μ(Γ) = |β|
    mu_time_perp: float   # μ(Λ⊥) = 1/(q|α|)
    mu_freq_perp: float   # μ(Γ⊥) = 1/|β|


def annihilator_params(p: TorusParams) -> AdjointLattice:
    """Generator steps/slopes of the annihilator lattice and all covolumes."""
    mu_time = p.q * abs(p.alpha)
    mu_freq = abs(p.beta)
    return AdjointLattice(
        time_step=1.0 / (p.beta * p.q),
        time_slope=(-p.s_inv) % p.q,
        freq_step=1.0 / (p.alpha * p.q),
        freq_slope=(-p.r_inv) % p.q,
        mu_time=mu_time,
        mu_freq=mu_freq,
        mu_time_perp=1.0 / mu_time,
        mu_freq_perp=1.0 / mu_freq,
    )


def lattice_generators(p: TorusParams, kind: LatticeKind):
    """(time_step, time_slope, freq_step, freq_slope) of the requested lattice."""
    if kind is LatticeKind.TIME_FREQ:
        return p.alpha, p.r % p.q, p.beta, p.s % p.q
    adj = annihilator_params(p)
    return adj.time_step, adj.time_slope, adj.freq_step, adj.freq_slope


def lattice_shift(p: TorusParams, kind: LatticeKind, j: int, n):
    """The one index→phase-space map, on axis j: (λ, l) = (t_step·n, t_slope·n)
    for j = 1 and (γ, c) = (f_step·n, f_slope·n) for j = 2, at the generator
    index n (an int or an integer array), with the channel not reduced mod q."""
    gen = lattice_generators(p, kind)
    return gen[2 * j - 2] * n, gen[2 * j - 1] * n


def lattice_twist(p: TorusParams, kind: LatticeKind) -> tuple[float, int]:
    """Twist t = real + num/q of the pair cocycle exp(2πi·t·n₁m₂), as (real, num).

    On Λ×Γ the cocycle of two lattice points indexed (n₁,n₂), (m₁,m₂) is
    φ = exp(−2πiθ n₁m₂), t = −θ = −αβ − rs/q; on the adjoint lattice the
    product convention contributes exp(+2πi θ̃ n₁m₂), t = θ̃ = (αβq²)⁻¹ + r°s°/q.
    """
    if kind is LatticeKind.TIME_FREQ:
        return -p.alpha * p.beta, -p.r * p.s
    return 1.0 / (p.alpha * p.beta * p.q ** 2), p.r_inv * p.s_inv


@dataclass(frozen=True)
class LatticePoint:
    """One point of Λ×Γ or Γ⊥×Λ⊥ with its generator indices."""

    n1: int
    n2: int
    lam: float
    l: int
    gamma: float
    c: int
    kind: LatticeKind


def index_bounds(p: TorusParams, kind: LatticeKind, radius: float):
    """Largest (K₁, K₂) with |step·K| ≤ radius on each axis."""
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be finite and positive, got {radius}")
    steps = lattice_generators(p, kind)[::2]   # t_step, f_step
    return tuple(int(math.floor(radius / abs(step) + 1e-12)) for step in steps)


def point_at(p: TorusParams, kind: LatticeKind, n1: int, n2: int) -> LatticePoint:
    (lam, l), (gamma, c) = lattice_shift(p, kind, 1, n1), lattice_shift(p, kind, 2, n2)
    return LatticePoint(n1=n1, n2=n2, lam=lam, l=l % p.q, gamma=gamma, c=c % p.q, kind=kind)


def enumerate_lattice(p: TorusParams, kind: LatticeKind, radius: float):
    """All lattice points with max(|λ|,|γ|) ≤ radius, lexicographic in (n₁,n₂)."""
    k1, k2 = index_bounds(p, kind, radius)
    return [
        point_at(p, kind, n1, n2)
        for n1 in range(-k1, k1 + 1)
        for n2 in range(-k2, k2 + 1)
    ]


def soliton_admissible(p: TorusParams):
    """Check the Gaussian-soliton parameter conditions.

    Requires `integer_adjoint_twist` and the density |αβ|q to be strictly
    below one.  Returns (ok, diagnostics).
    """
    twist = p.adjoint_twist
    ok = p.integer_adjoint_twist and p.density < 1.0
    return ok, {
        "integer_combination": twist,
        "nearest_integer_distance": abs(twist - round(twist)),
        "density": p.density,
    }
