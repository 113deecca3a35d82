"""Derivations, curvature, Connes-Chern numbers, and soliton energies.

On lattice sequences the two derivations act by coordinate multiplication,
(∂₁a)(ν) = 2πiλ·a(ν) and (∂₂a)(ν) = 2πiγ·a(ν); on signals the covariant
derivatives are ∇₁ = 2πi·M and ∇₂ = D, with constant curvature
∇₁∇₂−∇₂∇₁ = −2πi·Id.  For a projection p the first Chern number

    c₁(p) = (2πi|αβ|)⁻¹ · tr(p ♮ [(∂₁p)♮(∂₂p) − (∂₂p)♮(∂₁p)])

is evaluated both through the twisted algebra (chern_trace) and through an
independent double lattice sum over short-time Fourier samples (chern_sum).
The sigma-model energy E(p) = (4π|αβ|)⁻¹·tr((∂₁p)² + (∂₂p)²) is bounded
below by |c₁(p)| and attained exactly when one of the self-duality
equations (∂₁p ± i∂₂p)♮p = 0 holds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import (LatticeKind, TorusParams, index_bounds,
                      lattice_generators, soliton_admissible)
from .algebra import (LatticeSeq, inner_left, trace_l, twisted_conv,
                      twisted_star, l1_diff, _raw_stft)
from .frame import (FrameSystem, ToleranceError, adjoint_span_residual,
                    canonical_dual, canonical_tight, frame_bounds,
                    wexler_raz_residual)
from .signal import (GridSignal, GridSpec, apply_D, apply_M, gaussian,
                     hermite, inner, norm)


def derive(a: LatticeSeq, j: int) -> LatticeSeq:
    """∂_j: multiply entries by 2πiλ (j=1) or 2πiγ (j=2); same form on both lattices."""
    if j not in (1, 2):
        raise ValueError("derivation index must be 1 or 2")
    lam, _, gam, _ = a.phase_coords()
    weight = 2j * np.pi * (lam if j == 1 else gam)
    return LatticeSeq.from_entries(a.params, a.kind, a.index,
                                   weight * a.values, a.radius)


def covariant(f: GridSignal, j: int) -> GridSignal:
    """∇₁ = 2πi·M, ∇₂ = D, acting per channel (no action on the channel index)."""
    if j == 1:
        return 2j * np.pi * apply_M(f)
    if j == 2:
        return apply_D(f)
    raise ValueError("covariant derivative index must be 1 or 2")


def projection_residual(p: LatticeSeq) -> float:
    """Relative ℓ¹ idempotency defect ‖p♮p − p‖₁/‖p‖₁."""
    n = p.l1_norm()
    if n == 0.0:
        return np.inf
    return l1_diff(twisted_conv(p, p), p) / n


def _require_projection(p: LatticeSeq, tol: float):
    res = projection_residual(p)
    if res > tol:
        raise ToleranceError(f"not a projection: idempotency residual {res:.3e} > {tol:.1e}")


def chern_trace(p: LatticeSeq, params: TorusParams, tol: float = 1e-6) -> complex:
    """c₁(p) from the algebra trace formula."""
    if p.params != params:
        raise ValueError("parameter mismatch")
    _require_projection(p, tol)
    d1, d2 = derive(p, 1), derive(p, 2)
    comm = twisted_conv(d1, d2) - twisted_conv(d2, d1)
    val = trace_l(twisted_conv(p, comm))
    return val / (2j * np.pi * abs(params.alpha * params.beta))


def chern_sum(g: GridSignal, h: GridSignal, params: TorusParams,
              radius: float) -> complex:
    """c₁ of ⟨g,h⟩ as an explicit double lattice sum over STFT samples.

    Independent of the twisted-algebra route: evaluates

      (2π/(i|αβ|)) Σ_{ν,ν'} (λ'γ−λγ') V(ν)V(ν')V(−ν−ν')·conj(φ(ν',ν'+ν))·conj(φ(ν,ν))

    with V(ν) = ⟨g, π(ν)h⟩ sampled on the truncated lattice (the third
    factor on the doubled box).
    """
    k1, k2 = index_bounds(params, LatticeKind.TIME_FREQ, radius)
    gen = lattice_generators(params, LatticeKind.TIME_FREQ)
    n1s, n2s = np.arange(-k1, k1 + 1), np.arange(-k2, k2 + 1)
    m1s, m2s = np.arange(-2 * k1, 2 * k1 + 1), np.arange(-2 * k2, 2 * k2 + 1)
    v = _raw_stft(g, h, gen, n1s, n2s)          # V on the base box
    vbig = _raw_stft(g, h, gen, m1s, m2s)       # V on the doubled box

    t_step, _, f_step, _ = gen
    theta = params.theta
    a1, a2 = np.meshgrid(n1s, n2s, indexing="ij")       # ν = (a1, a2)
    diag = np.exp(2j * np.pi * theta * a1 * a2) * v     # V(ν)·conj(φ(ν,ν))

    total = 0.0j
    for i1, m1 in enumerate(n1s):                        # ν' = (m1, m2), m2 batched
        m2 = n2s[:, None, None]
        # conj(φ(ν',ν'+ν)) = exp(2πiθ·m₁(m₂+n₂))
        ph = np.exp(2j * np.pi * theta * m1 * (m2 + a2[None, :, :]))
        third = vbig[(-a1[None, :, :] - m1) + 2 * k1,    # V(−ν−ν')
                     (-a2[None, :, :] - m2) + 2 * k2]
        # λ'γ − λγ' with λ' = t_step·m₁, γ' = f_step·m₂, λ = t_step·n₁, γ = f_step·n₂
        weight = t_step * f_step * (m1 * a2[None, :, :] - a1[None, :, :] * m2)
        total += (v[i1, :][:, None, None] * ph * third * diag[None, :, :] * weight).sum()
    return total * 2 * np.pi / (1j * abs(params.alpha * params.beta))


def energy(p: LatticeSeq, params: TorusParams,
           window_pair=None, tol: float = 1e-6,
           cross_check_tol: float = 1e-6) -> float:
    """Sigma-model energy E(p) = (4π|αβ|)⁻¹·tr((∂₁p)♮(∂₁p) + (∂₂p)♮(∂₂p)).

    When `window_pair` = (g, h) with h the canonical dual is given, the
    window form (π/|αβ|)·Σ (λ²+γ²)|⟨g,π(ν)h⟩|² is evaluated as well and the
    two values must agree within cross_check_tol.
    """
    if p.params != params:
        raise ValueError("parameter mismatch")
    _require_projection(p, tol)
    d1, d2 = derive(p, 1), derive(p, 2)
    raw = trace_l(twisted_conv(d1, d1)) + trace_l(twisted_conv(d2, d2))
    e_trace = raw.real / (4 * np.pi * abs(params.alpha * params.beta))
    if window_pair is not None:
        g, h = window_pair
        e_win = energy_window_form(g, h, params, p.radius)
        if abs(e_win - e_trace) > cross_check_tol * max(1.0, abs(e_trace)):
            raise ToleranceError(
                f"energy forms disagree: trace {e_trace!r} vs window {e_win!r}")
    return e_trace


def energy_window_form(g: GridSignal, h: GridSignal, params: TorusParams,
                       radius: float) -> float:
    """E(g) = (π/|αβ|)·Σ_ν (λ²+γ²)·|⟨g, π(ν)h⟩|² over the truncated lattice."""
    p = inner_left(g, h, params, radius)
    lam, _, gam, _ = p.phase_coords()
    s = float(np.sum((lam ** 2 + gam ** 2) * np.abs(p.values) ** 2))
    return s * np.pi / abs(params.alpha * params.beta)


def sd_residuals(p: LatticeSeq, params: TorusParams, tol: float = 1e-6):
    """ℓ¹ norms of (∂₁p + i∂₂p)♮p and (∂₁p − i∂₂p)♮p.

    One of them vanishes exactly at an energy minimizer; then E(p) = |c₁(p)|.
    """
    if p.params != params:
        raise ValueError("parameter mismatch")
    _require_projection(p, tol)
    d1, d2 = derive(p, 1), derive(p, 2)
    plus = twisted_conv(d1 + 1j * d2, p).l1_norm()
    minus = twisted_conv(d1 + (-1j) * d2, p).l1_norm()
    return plus, minus


def tolerance_ladder(eps0: float) -> dict:
    """One ladder from ε₀: algebra ε₀, frame 10²ε₀, Chern/energy 10³ε₀."""
    return {"algebra": eps0, "frame": 1e2 * eps0, "chern": 1e3 * eps0}


@dataclass
class ChernReport:
    """Structured record of one soliton verification run."""

    params: TorusParams
    grid: GridSpec
    radius: float
    admissible: bool
    admissibility: dict
    frame_bounds: tuple
    wexler_raz: float
    projection_defect: float
    c1_trace: complex
    c1_sum: complex
    c1_rounded: int
    energy: float
    energy_window: float
    gap: float
    sd_residual_plus: float
    sd_residual_minus: float
    w_residual_plus: float
    w_residual_minus: float
    eps0: float = 1e-8

    def __post_init__(self):
        if self.energy < 0:
            raise ValueError("energy must be nonnegative")

    @property
    def tolerances(self) -> dict:
        return tolerance_ladder(self.eps0)

    def passes(self) -> bool:
        tol = self.tolerances
        return (abs(self.c1_trace - self.c1_rounded) < tol["chern"]
                and abs(self.c1_trace.imag) < tol["chern"]
                and abs(self.c1_trace - self.c1_sum) < tol["chern"]
                and self.gap > -tol["chern"]
                and self.wexler_raz < tol["frame"])

    def to_dict(self) -> dict:
        p = self.params
        return {
            "params": {"alpha": p.alpha, "beta": p.beta, "r": p.r, "s": p.s, "q": p.q},
            "grid": {"L": self.grid.L, "N": self.grid.N, "q": self.grid.q},
            "radius": self.radius,
            "admissible": self.admissible,
            "admissibility": self.admissibility,
            "frame_bounds": {"A": self.frame_bounds[0], "B": self.frame_bounds[1]},
            "wexler_raz_residual": self.wexler_raz,
            "projection_defect": self.projection_defect,
            "c1": {"re": self.c1_trace.real, "im": self.c1_trace.imag,
                   "sum_re": self.c1_sum.real, "sum_im": self.c1_sum.imag,
                   "rounded": self.c1_rounded},
            "energy": self.energy,
            "energy_window": self.energy_window,
            "gap": self.gap,
            "sd_residuals": {"plus": self.sd_residual_plus, "minus": self.sd_residual_minus},
            "w_residuals": {"plus": self.w_residual_plus, "minus": self.w_residual_minus},
            "tolerances": self.tolerances,
            "passes": self.passes(),
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kw)


def grid_for_radius(radius: float, n: int = 512, q: int = 1) -> GridSpec:
    """Grid wide enough that the seam at ±L/2 sits beyond lattice coverage.

    L = 2(radius+5) keeps the sector the truncated lattice cannot reach
    numerically invisible for unit-width windows (coupling ≈ e^{−π·25}).
    """
    return GridSpec(L=2.0 * (radius + 5.0), N=n, q=q)


def seam_mass(window: GridSignal, radius: float) -> float:
    """Relative L² mass of the window outside |x| ≤ L/2 − radius.

    Atoms translated by up to `radius` carry this mass across the
    periodisation seam at ±L/2; a zero window has mass 0.
    """
    total = float(np.sum(np.abs(window.values) ** 2))
    if total == 0.0:
        return 0.0
    outside = np.abs(window.spec.x()) > window.spec.L / 2 - radius
    return float(np.sum(np.abs(window.values[:, outside]) ** 2)) / total


class Pipeline:
    """The soliton chain of one window on one lattice, each stage computed once.

    window g → frame system → bounds (A, B) → canonical dual h → projection
    p = ⟨g,h⟩ → c₁ by two formulas → energy E ≥ |c₁| → self-duality and W
    residuals.  Stages are computed on first access and cached, so a report
    pays only for the stages it reads.  Checks on p run at the frame rung
    10²ε₀ of the tolerance ladder.  A window that reaches the periodisation
    seam is rejected before any solve.
    """

    def __init__(self, params: TorusParams, window: GridSignal,
                 radius: float = 6.0, eps0: float = 1e-8, seed: int = 7,
                 dual_max_iter: int = 500):
        self.params, self.window, self.radius = params, window, radius
        self.seed, self.dual_max_iter = seed, dual_max_iter
        self.eps0 = eps0
        self.tolerances = tolerance_ladder(eps0)
        tail = seam_mass(window, radius)
        if tail >= self.tolerances["frame"]:
            raise ValueError(
                f"window reaches the periodisation seam: relative mass "
                f"{tail:.3e} outside |x| <= L/2 - radius = "
                f"{window.spec.L / 2 - radius:g}; widen L or reduce the radius")

    @cached_property
    def system(self) -> FrameSystem:
        return FrameSystem(self.window, self.params, self.radius)

    @cached_property
    def bounds(self) -> tuple:
        return frame_bounds(self.system, seed=self.seed)

    @cached_property
    def dual(self) -> GridSignal:
        return canonical_dual(self.system, max_iter=self.dual_max_iter)

    @cached_property
    def tight(self) -> GridSignal:
        return canonical_tight(self.system)

    @cached_property
    def wexler_raz(self) -> float:
        return wexler_raz_residual(self.window, self.dual, self.params, self.radius)

    @cached_property
    def projection(self) -> LatticeSeq:
        return inner_left(self.window, self.dual, self.params, self.radius)

    @cached_property
    def defect(self) -> float:
        return projection_residual(self.projection)

    @cached_property
    def c1_trace(self) -> complex:
        return chern_trace(self.projection, self.params,
                           tol=self.tolerances["frame"])

    @cached_property
    def c1_sum(self) -> complex:
        return chern_sum(self.window, self.dual, self.params, self.radius)

    @cached_property
    def energy_trace(self) -> float:
        return energy(self.projection, self.params, tol=self.tolerances["frame"])

    @cached_property
    def energy_window(self) -> float:
        return energy_window_form(self.window, self.dual, self.params, self.radius)

    @property
    def gap(self) -> float:
        return self.energy_trace - abs(self.c1_trace)

    @cached_property
    def self_duality(self) -> tuple:
        """ℓ¹ norms of (∂₁p ± i∂₂p)♮p."""
        return sd_residuals(self.projection, self.params,
                            tol=self.tolerances["frame"])

    @cached_property
    def w_residuals(self) -> tuple:
        """Distances of (∇₁ ± i∇₂)g from the adjoint-shift span of g."""
        c1, c2 = covariant(self.window, 1), covariant(self.window, 2)
        scale = norm(c1) + norm(c2)
        return tuple(adjoint_span_residual(v, self.window, self.params,
                                           self.radius, scale=scale)
                     for v in (c1 + 1j * c2, c1 - 1j * c2))

    def report(self) -> ChernReport:
        """Every stage, in chain order, as one ChernReport."""
        ok, diag = soliton_admissible(self.params)
        return ChernReport(
            params=self.params, grid=self.window.spec, radius=self.radius,
            admissible=ok, admissibility=diag, frame_bounds=self.bounds,
            wexler_raz=self.wexler_raz, projection_defect=self.defect,
            c1_trace=self.c1_trace, c1_sum=self.c1_sum,
            c1_rounded=int(round(self.c1_trace.real)),
            energy=self.energy_trace, energy_window=self.energy_window,
            gap=self.gap, sd_residual_plus=self.self_duality[0],
            sd_residual_minus=self.self_duality[1],
            w_residual_plus=self.w_residuals[0],
            w_residual_minus=self.w_residuals[1], eps0=self.eps0)


def soliton_experiment(params: TorusParams, window: GridSignal,
                       radius: float = 6.0, eps0: float = 1e-8,
                       bounds_seed: int = 7) -> ChernReport:
    """Full pipeline: frame bounds → canonical dual → projection → c₁, E, residuals."""
    return Pipeline(params, window, radius, eps0, bounds_seed).report()


def build_window(kind: str, spec: GridSpec, params: TorusParams,
                 lam: complex = 0.0, hermite_order: int = 1,
                 path=None) -> GridSignal:
    """Window factory for the experiment drivers.

    kinds: "gaussian" (channel-constant generalized Gaussian), "lifted_gaussian"
    (scalar Gaussian lifted across channels, frame hypothesis checked),
    "hermite" (order n), "file" (columnar signal format).
    """
    from .frame import lift_scalar_window
    from .signal import load_signal

    if kind == "gaussian":
        return gaussian(spec, lam=lam)
    if kind == "lifted_gaussian":
        scalar = gaussian(GridSpec(L=spec.L, N=spec.N, q=1), lam=lam)
        return lift_scalar_window(scalar, params)
    if kind == "hermite":
        return hermite(spec, hermite_order)
    if kind == "file":
        f = load_signal(path)
        if f.spec != spec:
            raise ValueError(f"window file grid {f.spec} does not match {spec}")
        return f
    raise ValueError(f"unknown window kind {kind!r}")
