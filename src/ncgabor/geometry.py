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

chern_trace, energy and sd_residuals are plain formulas: each takes as its
hypothesis that p is a projection and does not check it.  Pipeline checks
it once per window, in its defect stage, and is the record of the run.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

import numpy as np

from .lattice import LatticeKind, TorusParams, lattice_generators, soliton_admissible
from .algebra import (LatticeSeq, inner_left, trace_l, twisted_conv, l1_diff, _pairing,
                      _twist_phase)
from .frame import (FrameSystem, ToleranceError, adjoint_span_residual,
                    canonical_dual, canonical_tight, frame_bounds,
                    lift_channels, wexler_raz_residual)
from .signal import (GridSignal, GridSpec, apply_D, apply_M, gaussian,
                     hermite, norm)


def derive(a: LatticeSeq, j: int) -> LatticeSeq:
    """∂_j: multiply entries by 2πiλ (j=1) or 2πiγ (j=2); same form on both lattices."""
    if j not in (1, 2):
        raise ValueError("derivation index must be 1 or 2")
    t_step, _, f_step, _ = lattice_generators(a.params, a.kind)
    n1s, n2s = a.axes()
    weight = 2j * np.pi * (t_step * n1s[:, None] if j == 1 else f_step * n2s[None, :])
    return LatticeSeq.from_box(a.params, a.kind, a.origin, weight * a.box)


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


def chern_trace(p: LatticeSeq) -> complex:
    """c₁(p) from the algebra trace formula; p must be a projection."""
    d1, d2 = derive(p, 1), derive(p, 2)
    comm = twisted_conv(d1, d2) - twisted_conv(d2, d1)
    val = trace_l(twisted_conv(p, comm))
    return val / (2j * np.pi * abs(p.params.alpha * p.params.beta))


CHANNEL_TOL = 1e-13  # channel tables below this magnitude add nothing to the Chern sum


def _chern_double_sum(v: np.ndarray, v3: np.ndarray, twist: np.ndarray) -> complex:
    """Σ (n₁'n₂ − n₁n₂')·V[l,c](ν)·V[l',c'](ν')·V₃[−l−l',−c−c'](−ν−ν')
    ·T(n₁,n₂)·T(n₁',n₂'+n₂)·exp 2πi(lc + l'(c'+c))/Q over ν, ν' in the box
    |n₁| ≤ k₁, |n₂| ≤ k₂ and the channel pairs (l,c), (l',c') of ℤ_Q², with
    T(n₁,n₂) = e^{2πiθn₁n₂} read from `twist`[n₁+k₁, n₂+k₂].

    v[l,c,a,b] is V at (a−k₁, b−k₂), v3 the third factor at (a−2k₁, b−2k₂)
    on the doubled box; channels of v below CHANNEL_TOL are skipped.  For
    each s₁ = n₁+n₁' the ν'-sum is one GEMM with the Hankel slice V₃(−s₁, ·).
    """
    nq, _, m1, m2 = v.shape
    n1s, n2s = np.arange(m1) - (m1 - 1) // 2, np.arange(m2) - (m2 - 1) // 2
    chan = np.exp(2j * np.pi * np.outer(np.arange(nq), np.arange(nq)) / nq)
    hankel = np.add.outer(np.arange(m2), np.arange(m2))     # n₂' + n₂ + 2k₂
    active = [(l, c) for l in range(nq) for c in range(nq)
              if np.abs(v[l, c]).max() > CHANNEL_TOL]
    total = 0.0j
    for l, c in active:
        first = v[l, c] * twist * chan[l, c]                      # V(ν)·e^{2πiθn₁n₂}
        for lp, cp in active:
            second = v[lp, cp] * twist * chan[lp, (cp + c) % nq]  # V(ν')·e^{2πiθn₁'n₂'}
            second = np.stack([second, second * n2s])             # weights 1 and n₂'
            third = v3[(-l - lp) % nq, (-c - cp) % nq, ::-1, ::-1]  # [s + 2k] = V₃(−s)
            for s1 in range(2 * m1 - 1):                          # s₁ + 2k₁
                rows = np.arange(max(0, s1 - m1 + 1), min(m1, s1 + 1))   # ν' rows
                g0, g2 = second[:, rows] @ third[s1, hankel]
                own = first[s1 - rows] * twist[rows]              # V(ν)·e^{2πiθn₁'n₂}
                total += np.sum(own * (n1s[rows, None] * n2s * g0
                                       - n1s[s1 - rows, None] * g2))
    return total


def chern_sum(g: GridSignal, h: GridSignal, params: TorusParams,
              radius: float) -> complex:
    """c₁ of ⟨g,h⟩ as an explicit double lattice sum over STFT samples.

    Independent of the twisted-algebra route: evaluates

      (2π/(i|αβ|)) Σ_{ν,ν'} (λ'γ−λγ') V(ν)V(ν')V(−ν−ν')·conj(φ(ν',ν'+ν))·conj(φ(ν,ν))

    with V(ν) = ⟨g, π(ν)h⟩ sampled on the truncated lattice (the third
    factor on the doubled box); the channel twist is inside θ = αβ + rs/q.
    """
    kind = LatticeKind.TIME_FREQ
    vbig, n1s, n2s = _pairing(g, h, params, kind, radius, scale=2)
    k1, k2 = n1s[-1] // 2, n2s[-1] // 2
    v, vbig = vbig[None, None, k1:3 * k1 + 1, k2:3 * k2 + 1], vbig[None, None]
    twist = np.conj(_twist_phase(params, kind, n1s[k1:3 * k1 + 1], n2s[k2:3 * k2 + 1]))
    t_step, _, f_step, _ = lattice_generators(params, kind)
    # λ'γ − λγ' = t_step·f_step·(n₁'n₂ − n₁n₂')
    return (_chern_double_sum(v, vbig, twist) * t_step * f_step * 2 * np.pi
            / (1j * abs(params.alpha * params.beta)))


def energy(p: LatticeSeq) -> float:
    """Sigma-model energy E(p) = (4π|αβ|)⁻¹·tr((∂₁p)♮(∂₁p) + (∂₂p)♮(∂₂p));
    p must be a projection."""
    d1, d2 = derive(p, 1), derive(p, 2)
    raw = trace_l(twisted_conv(d1, d1)) + trace_l(twisted_conv(d2, d2))
    return raw.real / (4 * np.pi * abs(p.params.alpha * p.params.beta))


def energy_window_form(g: GridSignal, h: GridSignal, params: TorusParams,
                       radius: float) -> float:
    """E(g) = (π/|αβ|)·Σ_ν (λ²+γ²)·|⟨g, π(ν)h⟩|² over the truncated lattice."""
    p = inner_left(g, h, params, radius)
    lam, _, gam, _ = p.phase_coords()
    s = float(np.sum((lam ** 2 + gam ** 2) * np.abs(p.values) ** 2))
    return s * np.pi / abs(params.alpha * params.beta)


def sd_residuals(p: LatticeSeq):
    """ℓ¹ norms of (∂₁p + i∂₂p)♮p and (∂₁p − i∂₂p)♮p for a projection p.

    One of them vanishes exactly at an energy minimizer; then E(p) = |c₁(p)|.
    """
    d1, d2 = derive(p, 1), derive(p, 2)
    plus = twisted_conv(d1 + 1j * d2, p).l1_norm()
    minus = twisted_conv(d1 + (-1j) * d2, p).l1_norm()
    return plus, minus


def tolerance_ladder(eps0: float) -> dict:
    """One ladder from ε₀: algebra ε₀, frame 10²ε₀, Chern/energy 10³ε₀."""
    return {"algebra": eps0, "frame": 1e2 * eps0, "chern": 1e3 * eps0}


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
    pays only for the stages it reads.  The dual and tight windows of a
    lifted window are solved on its scalar lattice (scalar_system); every
    check reads the q-channel objects.  The defect stage forms p♮p once and
    raises ToleranceError when p misses idempotency at the frame rung 10²ε₀;
    c₁ by trace, E and the self-duality residuals read it first.  A window
    that reaches the periodisation seam is rejected before any solve.
    chern_ok, energy_ok and passes() are the verdicts, report() the JSON
    record.
    """

    def __init__(self, params: TorusParams, window: GridSignal,
                 radius: float = 6.0, eps0: float = 1e-8, seed: int = 7,
                 dual_max_iter: int = 500):
        self.params, self.window, self.radius = params, window, radius
        self.seed, self.dual_max_iter = seed, dual_max_iter
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
    def scalar_system(self) -> Optional[FrameSystem]:
        """The frame system of the scalar window on params.scalar_lattice at
        the same radius when the window is its lift (equal on every
        channel), else None.  On channel-constant f, S_{lift g}(lift f) =
        q·lift(S f), an invariant subspace of S_{lift g}: so its dual is
        lift(S⁻¹g)/q and its tight window lift(S^{-1/2}g)/√q.
        """
        scalar, vals = self.params.scalar_lattice, self.window.values
        if scalar is None or not (vals == vals[0]).all():
            return None
        window = GridSignal(GridSpec(L=self.window.spec.L, N=self.window.spec.N), vals[:1])
        return FrameSystem(window, scalar, self.radius)

    @cached_property
    def dual(self) -> GridSignal:
        if self.scalar_system is None:
            return canonical_dual(self.system, max_iter=self.dual_max_iter)
        h = canonical_dual(self.scalar_system, max_iter=self.dual_max_iter)
        return lift_channels(h, self.params.q) * (1 / self.params.q)

    @cached_property
    def tight(self) -> GridSignal:
        if self.scalar_system is None:
            return canonical_tight(self.system)
        t = canonical_tight(self.scalar_system)
        return lift_channels(t, self.params.q) * (1 / np.sqrt(self.params.q))

    @cached_property
    def wexler_raz(self) -> float:
        return wexler_raz_residual(self.window, self.dual, self.params, self.radius)

    @cached_property
    def projection(self) -> LatticeSeq:
        return inner_left(self.window, self.dual, self.params, self.radius)

    @cached_property
    def defect(self) -> float:
        """Idempotency residual of p, gated at the frame rung: p must be a
        projection before any charge or energy formula reads it."""
        res, tol = projection_residual(self.projection), self.tolerances["frame"]
        if res > tol:
            raise ToleranceError(f"not a projection: idempotency residual {res:.3e} > {tol:.1e}")
        return res

    @property
    def _checked_projection(self) -> LatticeSeq:
        self.defect   # raises ToleranceError unless p is a projection
        return self.projection

    @cached_property
    def c1_trace(self) -> complex:
        return chern_trace(self._checked_projection)

    @cached_property
    def c1_sum(self) -> complex:
        return chern_sum(self.window, self.dual, self.params, self.radius)

    @property
    def chern_ok(self) -> bool:
        """c₁ by trace is an integer and agrees with c₁ by sum, at the Chern rung."""
        c1t, tol = self.c1_trace, self.tolerances["chern"]
        return abs(c1t - round(c1t.real)) < tol and abs(c1t - self.c1_sum) < tol

    @cached_property
    def energy_trace(self) -> float:
        return energy(self._checked_projection)

    @cached_property
    def energy_window(self) -> float:
        return energy_window_form(self.window, self.dual, self.params, self.radius)

    @property
    def gap(self) -> float:
        return self.energy_trace - abs(self.c1_trace)

    @property
    def energy_ok(self) -> bool:
        """E by trace and by window form agree and E ≥ |c₁|, at the Chern rung."""
        tol = self.tolerances["chern"]
        return abs(self.energy_trace - self.energy_window) < tol and self.gap > -tol

    @cached_property
    def self_duality(self) -> tuple:
        """ℓ¹ norms of (∂₁p ± i∂₂p)♮p."""
        return sd_residuals(self._checked_projection)

    @cached_property
    def w_residuals(self) -> tuple:
        """Distances of (∇₁ ± i∇₂)g from the adjoint-shift span of g."""
        c1, c2 = covariant(self.window, 1), covariant(self.window, 2)
        return adjoint_span_residual((c1 + 1j * c2, c1 - 1j * c2), self.window,
                                     self.params, self.radius,
                                     scale=norm(c1) + norm(c2))

    def passes(self) -> bool:
        """The soliton verdict: chern_ok, energy_ok and the Wexler–Raz
        residual at the frame rung."""
        return (self.chern_ok and self.energy_ok
                and self.wexler_raz < self.tolerances["frame"])

    def report(self) -> dict:
        """Every stage, read in chain order, as the verify-soliton record."""
        ok, diag = soliton_admissible(self.params)
        (a_est, b_est), wr, defect = self.bounds, self.wexler_raz, self.defect
        c1, c1_sum = self.c1_trace, self.c1_sum
        e, e_win, gap = self.energy_trace, self.energy_window, self.gap
        (sd_plus, sd_minus), (w_plus, w_minus) = self.self_duality, self.w_residuals
        if e < 0:
            raise ValueError("energy must be nonnegative")
        p, spec = self.params, self.window.spec
        return {
            "params": {"alpha": p.alpha, "beta": p.beta, "r": p.r, "s": p.s, "q": p.q},
            "grid": {"L": spec.L, "N": spec.N, "q": spec.q},
            "radius": self.radius,
            "admissible": ok,
            "admissibility": diag,
            "frame_bounds": {"A": a_est, "B": b_est},
            "wexler_raz_residual": wr,
            "projection_defect": defect,
            "c1": {"re": c1.real, "im": c1.imag, "sum_re": c1_sum.real,
                   "sum_im": c1_sum.imag, "rounded": int(round(c1.real))},
            "energy": e,
            "energy_window": e_win,
            "gap": gap,
            "sd_residuals": {"plus": sd_plus, "minus": sd_minus},
            "w_residuals": {"plus": w_plus, "minus": w_minus},
            "tolerances": self.tolerances,
            "passes": self.passes(),
        }


def soliton_experiment(params: TorusParams, window: GridSignal,
                       radius: float = 6.0, eps0: float = 1e-8) -> Pipeline:
    """The Pipeline of one window with every stage evaluated by its report()."""
    pipe = Pipeline(params, window, radius, eps0)
    pipe.report()
    return pipe


def build_window(kind: str | None, spec: GridSpec, params: TorusParams,
                 lam: complex = 0.0) -> GridSignal:
    """Window factory for the experiment drivers, from a --window spec.

    "gaussian" (channel-constant generalized Gaussian with chirp `lam`),
    "lifted_gaussian" (scalar Gaussian lifted across channels, frame
    hypothesis checked), "hermite" or "hermite:N" (order N, default 1),
    "file:PATH" (columnar signal format); None is lifted_gaussian when
    q > 1 and gaussian otherwise.  Only the Gaussians read `lam`; a nonzero
    `lam` with another window is a ValueError.
    """
    from .frame import lift_scalar_window
    from .signal import load_signal

    if kind is None:
        kind = "lifted_gaussian" if params.q > 1 else "gaussian"
    name, sep, arg = kind.partition(":")
    if kind == "gaussian":
        return gaussian(spec, lam=lam)
    if kind == "lifted_gaussian":
        scalar = gaussian(GridSpec(L=spec.L, N=spec.N, q=1), lam=lam)
        return lift_scalar_window(scalar, params)
    if not (name == "hermite" and (not sep or arg.isdecimal()) or name == "file" and sep):
        raise ValueError(f"unknown window {kind!r}: expected gaussian, lifted_gaussian, "
                         "hermite, hermite:N or file:PATH")
    if lam != 0:
        raise ValueError(f"window {kind!r} ignores --lam (got {lam})")
    if name == "hermite":
        return hermite(spec, int(arg or 1))
    f = load_signal(arg)
    if f.spec != spec:
        raise ValueError(f"window file grid {f.spec} does not match {spec}")
    return f
