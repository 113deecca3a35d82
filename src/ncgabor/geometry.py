"""Derivations, curvature, Connes-Chern numbers, and soliton energies.

On lattice sequences the two derivations act by coordinate multiplication,
(∂₁a)(ν) = 2πiλ·a(ν) and (∂₂a)(ν) = 2πiγ·a(ν); on signals the covariant
derivatives are ∇₁ = 2πi·M and ∇₂ = D, with constant curvature
∇₁∇₂−∇₂∇₁ = −2πi·Id.  For a projection p the first Chern number

    c₁(p) = (2πi|αβ|)⁻¹ · tr(p ♮ [(∂₁p)♮(∂₂p) − (∂₂p)♮(∂₁p)])

is evaluated both through the twisted algebra (chern_trace) and through an
independent double lattice sum (chern_sum), both of p alone, read as 0
outside its box: they differ by roundoff.
The sigma-model energy E(p) = (4π|αβ|)⁻¹·tr((∂₁p)² + (∂₂p)²) is bounded
below by |c₁(p)| and attained exactly when one of the self-duality
equations (∂₁p ± i∂₂p)♮p = 0 holds.

The two products P± = (∂₁p ± i∂₂p)♮p of those equations (sd_products) hold
all that c₁ by trace needs; it and E read them, and ∂ⱼp, through the trace
pairing τ(a, b) = tr(a♮b), which forms no product.

chern_trace, chern_sum, energy and sd_residuals are plain formulas that take
p to be a projection without checking it.  Pipeline checks it once per
window, in its defect stage, and is the record of the run.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .lattice import TorusParams, lattice_generators, soliton_admissible
from .algebra import (LatticeSeq, act_right, inner_left, inner_right, trace_pairing,
                      twisted_conv, l1_diff, _twist_phase)
from .frame import (ConvergenceError, FrameSystem, GridError, ToleranceError, canonical_dual,
                    canonical_tight, frame_bounds, lift_scalar_window, wexler_raz_residual,
                    _krylov_reading)
from .signal import (GridSignal, GridSpec, apply_D, apply_M, gaussian,
                     hermite, load_signal, norm)


def derive(a: LatticeSeq, j: int) -> LatticeSeq:
    """∂_j: multiply entries by 2πiλ (j=1) or 2πiγ (j=2); same form on both lattices."""
    if j not in (1, 2):
        raise ValueError("derivation index must be 1 or 2")
    t_step, _, f_step, _ = lattice_generators(a.params, a.kind)
    n = a.origin[j - 1] + np.arange(a.box.shape[j - 1])   # the axis of n_j alone
    weight = 2j * np.pi * (t_step * n[:, None] if j == 1 else f_step * n)
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


def sd_products(p: LatticeSeq) -> tuple:
    """P± = (∂₁p ± i∂₂p)♮p, read by chern_trace and sd_residuals."""
    d1, d2 = derive(p, 1), derive(p, 2)
    return twisted_conv(d1 + 1j * d2, p), twisted_conv(d1 + (-1j) * d2, p)


def chern_trace(p: LatticeSeq, products: tuple | None = None) -> complex:
    """c₁(p) from the algebra trace formula; p must be a projection.

    By associativity and the trace's cyclicity, tr(p♮[∂₁p, ∂₂p]) =
    τ(∂₂p♮p, ∂₁p) − τ(∂₁p♮p, ∂₂p), with ∂₁p♮p = (P₊ + P₋)/2 and
    ∂₂p♮p = (P₊ − P₋)/(2i) from `products`, sd_products(p) unless given.
    """
    plus, minus = sd_products(p) if products is None else products
    d1p, d2p = (plus + minus) * 0.5, (plus - minus) * -0.5j
    val = trace_pairing(d2p, derive(p, 1)) - trace_pairing(d1p, derive(p, 2))
    return val / (2j * np.pi * abs(p.params.alpha * p.params.beta))


CHANNEL_TOL = 1e-13  # channel tables below this magnitude add nothing to the Chern sum


def _chern_double_sum(v: np.ndarray, twist: np.ndarray) -> complex:
    """Σ (n₁'n₂ − n₁n₂')·V[l,c](ν)·V[l',c'](ν')·V[−l−l',−c−c'](−ν−ν')
    ·T(n₁,n₂)·T(n₁',n₂'+n₂)·exp 2πi(lc + l'(c'+c))/Q over ν, ν' in the box
    |n₁| ≤ k₁, |n₂| ≤ k₂ and the channel pairs (l,c), (l',c') of ℤ_Q², with
    T(n₁,n₂) = e^{2πiθn₁n₂} read from `twist`[n₁+k₁, n₂+k₂].

    v[l,c,a,b] is V at (a−k₁, b−k₂), and V is 0 outside that box, also in
    the third factor; channels of v below CHANNEL_TOL are skipped.  Each
    channel stands for the first channel with a bitwise equal table, and the
    channel phases of all pairs with the same three tables are added up, so
    _chern_triple_sum runs once per distinct triple: once for a lifted window.
    """
    nq, _, m1, m2 = v.shape
    chan = np.exp(2j * np.pi * np.outer(np.arange(nq), np.arange(nq)) / nq)
    tables = v.reshape(nq * nq, m1, m2)
    # rep[l, c]: the first channel whose table is bitwise v[l, c]
    rep = np.array([next(j for j in range(i + 1) if np.array_equal(tables[j], t))
                    for i, t in enumerate(tables)]).reshape(nq, nq)
    active = [(l, c) for l in range(nq) for c in range(nq)
              if np.abs(v[l, c]).max() > CHANNEL_TOL]
    phases = {}
    for l, c in active:
        for lp, cp in active:
            key = (rep[l, c], rep[lp, cp], rep[(-l - lp) % nq, (-c - cp) % nq])
            phases[key] = phases.get(key, 0.0j) + chan[l, c] * chan[lp, (cp + c) % nq]
    return sum((phase * _chern_triple_sum(tables[i], tables[j], tables[k], twist)
                for (i, j, k), phase in phases.items()), 0.0j)


def _chern_triple_sum(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                      twist: np.ndarray) -> complex:
    """_chern_double_sum's terms of one channel triple with phase 1: V = a at
    ν, b at ν' and c at −ν−ν'.  For each s₁ = n₁+n₁' with |s₁| ≤ k₁, the only
    rows where c(−s₁, ·) can be nonzero, the ν'-sum is one GEMM with the
    Hankel slice of c(−s₁, ·), zero-padded."""
    m1, m2 = a.shape
    k1, k2 = (m1 - 1) // 2, (m2 - 1) // 2
    n1s, n2s = np.arange(m1) - k1, np.arange(m2) - k2
    hankel = np.add.outer(np.arange(m2), np.arange(m2))     # n₂' + n₂ + 2k₂
    first = a * twist                                        # V(ν)·e^{2πiθn₁n₂}
    second = b * twist                                       # V(ν')·e^{2πiθn₁'n₂'}
    second = np.stack([second, second * n2s])                # weights 1 and n₂'
    # [s₁ + k₁, n₂ + 2k₂] = V(−s₁, −n₂), 0 for |n₂| > k₂
    third = np.pad(c, [(0, 0), (k2, k2)])[::-1, ::-1]
    total = 0.0j
    for s1 in range(-k1, k1 + 1):
        rows = np.arange(max(0, s1), min(m1, m1 + s1))   # ν' rows
        nu = s1 + 2 * k1 - rows                           # ν rows
        g0, g2 = second[:, rows] @ third[s1 + k1, hankel]
        own = first[nu] * twist[rows]                     # V(ν)·e^{2πiθn₁'n₂}
        total += np.sum(own * (n1s[rows, None] * n2s * g0 - n1s[nu, None] * g2))
    return total


def chern_sum(p: LatticeSeq) -> complex:
    """c₁(p) as an explicit double lattice sum; p must be a projection.

    Independent of the twisted-algebra route: evaluates

      (2π/(i|αβ|)) Σ_{ν,ν'} (λ'γ−λγ') p(ν)p(ν')p(−ν−ν')·conj(φ(ν',ν'+ν))·conj(φ(ν,ν))

    with p on the smallest centred box that holds its box and 0 outside it,
    in every factor, as in chern_trace; the channel twist is inside θ = αβ + rs/q.
    """
    lo, hi = np.array(p.origin), np.array(p.origin) + p.box.shape - 1
    k = np.maximum(-lo, hi)   # the centred box |n₁| ≤ k₁, |n₂| ≤ k₂
    v = np.pad(p.box, np.stack([k + lo, k - hi], axis=1))
    twist = np.conj(_twist_phase(p.params, p.kind, *(np.arange(-j, j + 1) for j in k)))
    t_step, _, f_step, _ = lattice_generators(p.params, p.kind)
    # λ'γ − λγ' = t_step·f_step·(n₁'n₂ − n₁n₂')
    return (_chern_double_sum(v[None, None], twist) * t_step * f_step * 2 * np.pi
            / (1j * abs(p.params.alpha * p.params.beta)))


def energy(p: LatticeSeq) -> float:
    """Sigma-model energy E(p) = (4π|αβ|)⁻¹·tr((∂₁p)♮(∂₁p) + (∂₂p)♮(∂₂p)) by
    two trace pairings; p must be a projection."""
    d1, d2 = derive(p, 1), derive(p, 2)
    raw = trace_pairing(d1, d1) + trace_pairing(d2, d2)
    return raw.real / (4 * np.pi * abs(p.params.alpha * p.params.beta))


def energy_window_form(p: LatticeSeq) -> float:
    """E(g) = (π/|αβ|)·Σ_ν (λ²+γ²)·|p(ν)|² for p = ⟨g, π(ν)h⟩ = inner_left(g, h)
    on the truncated lattice."""
    lam, _, gam, _ = p.phase_coords()
    s = float(np.sum((lam ** 2 + gam ** 2) * np.abs(p.values) ** 2))
    return s * np.pi / abs(p.params.alpha * p.params.beta)


def sd_residuals(p: LatticeSeq, products: tuple | None = None):
    """ℓ¹ norms of P± = (∂₁p ± i∂₂p)♮p for a projection p, from `products`,
    sd_products(p) unless given.

    One of them vanishes exactly at an energy minimizer; then E(p) = |c₁(p)|.
    """
    plus, minus = sd_products(p) if products is None else products
    return plus.l1_norm(), minus.l1_norm()


def tolerance_ladder(eps0: float) -> dict:
    """One ladder from ε₀ > 0: algebra ε₀, frame 10²ε₀, Chern/energy 10³ε₀, each finite."""
    if not 0 < 1e3 * eps0 < np.inf:
        raise ValueError(f"eps0 must be finite and positive, with 1e3*eps0 finite: got {eps0!r}")
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
    p = ⟨g,h⟩, the one analysis on Λ×Γ → c₁ by two formulas → energy E ≥ |c₁|
    → self-duality and W residuals.  Stages are computed on first access and
    cached, so a report pays only for the stages it reads; the dual and the
    tight window are read off one Lanczos run of S_g of at most
    `dual_max_iter` dimensions and judged by the views, WR(g, h) and WR(t, t)
    at the frame rung.  The bounds come
    from frame_bounds (the Laurent symbol at an integer adjoint twist,
    Rayleigh–Ritz elsewhere), and the W residuals from the dual's projection
    onto the adjoint-shift span of g.  The defect stage forms p♮p once and
    raises ToleranceError when p misses idempotency at the frame rung 10²ε₀;
    both c₁ formulas, both energy forms and the self-duality residuals read
    the bounds (NotAFrameError where `frame` raises it) and then the defect
    first.  The sd_products stage forms P± once for c₁ by trace and the
    self-duality residuals: three ♮-products per run.  A window that reaches
    the periodisation seam is rejected before any solve, and a dual or tight
    window before any check reads it (GridError); a dual or tight solve that
    fails reads the bounds first (NotAFrameError where `frame` raises it).
    chern_ok, energy_ok and passes() are the verdicts, report() the JSON record.
    """

    def __init__(self, params: TorusParams, window: GridSignal,
                 radius: float = 6.0, eps0: float = 1e-8, seed: int = 7,
                 dual_max_iter: int = 500):
        self.params, self.window, self.radius = params, window, radius
        self.seed, self.dual_max_iter = seed, dual_max_iter
        self.tolerances = tolerance_ladder(eps0)
        self._seam_gate("window", window)

    def _seam_gate(self, name: str, f: GridSignal) -> GridSignal:
        """f, unless its seam_mass reaches the frame rung (GridError); S_g⁻¹g and
        S_g^{−1/2}g are gated too: S_g's adjoint modulations need not be L-periodic."""
        tail = seam_mass(f, self.radius)
        if tail >= self.tolerances["frame"]:
            raise GridError(
                f"{name} reaches the periodisation seam: relative mass {tail:.3e} "
                f"outside |x| <= L/2 - radius = {f.spec.L / 2 - self.radius:g}; "
                "widen L or reduce the radius")
        return f

    @cached_property
    def system(self) -> FrameSystem:
        return FrameSystem(self.window, self.params, self.radius)

    @cached_property
    def bounds(self) -> tuple:
        return frame_bounds(self.system, seed=self.seed)

    @cached_property
    def _lanczos(self) -> tuple:
        """The Lanczos reading of S_g at canonical_dual's tolerance and at most
        dual_max_iter dimensions, run once: the dual and the tight window read it."""
        return _krylov_reading(self.system, 1e-7, self.dual_max_iter)

    def _bounds_first(self, solve):
        """solve(); when it fails with GridError or ConvergenceError, the
        bounds are read before the failure is raised again, so that a lattice
        where g is no frame is the NotAFrameError of `frame`."""
        try:
            return solve()
        except (GridError, ConvergenceError):
            self.bounds
            raise

    @cached_property
    def dual(self) -> GridSignal:
        return self._bounds_first(lambda: self._seam_gate(
            "dual window", canonical_dual(self.system, reading=lambda: self._lanczos)))

    @cached_property
    def tight(self) -> tuple:
        """(t, WR(t, t)): the canonical tight window, gated as the dual is, and
        its Wexler–Raz residual, which `tight` judges at the frame rung."""
        t = self._bounds_first(lambda: self._seam_gate(
            "tight window", canonical_tight(self.system, reading=lambda: self._lanczos)))
        return t, wexler_raz_residual(t, t, self.params, self.radius)

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
        self.bounds   # raises NotAFrameError where `frame` does
        self.defect   # raises ToleranceError unless p is a projection
        return self.projection

    @cached_property
    def sd_products(self) -> tuple:
        return sd_products(self._checked_projection)

    @cached_property
    def c1_trace(self) -> complex:
        return chern_trace(self._checked_projection, self.sd_products)

    @cached_property
    def c1_sum(self) -> complex:
        return chern_sum(self._checked_projection)

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
        return energy_window_form(self._checked_projection)

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
        return sd_residuals(self._checked_projection, self.sd_products)

    @cached_property
    def w_residuals(self) -> tuple:
        """Distances of (∇₁ ± i∇₂)g from the adjoint-shift span of g, relative
        to ‖∇₁g‖ + ‖∇₂g‖.  The adjoint shifts of the canonical dual h are the
        biorthogonal system of those of g in the same span (Wexler–Raz), so
        v ↦ g·⟨h, v⟩° is the orthogonal projection onto the span."""
        g, h = self.window, self.dual
        c1, c2 = covariant(g, 1), covariant(g, 2)
        scale = norm(c1) + norm(c2)
        if scale < 1e-300:
            return 0.0, 0.0
        return tuple(norm(v - act_right(g, inner_right(h, v, self.params, self.radius))) / scale
                     for v in (c1 + 1j * c2, c1 - 1j * c2))

    def checks(self) -> dict:
        """The verdicts passes() needs, by name: chern_ok, energy_ok and the
        Wexler–Raz residual at the frame rung."""
        return {"chern_ok": self.chern_ok, "energy_ok": self.energy_ok,
                "wexler_raz_ok": self.wexler_raz < self.tolerances["frame"]}

    def passes(self) -> bool:
        """The soliton verdict: every one of checks()."""
        return all(self.checks().values())

    def report(self) -> dict:
        """Every stage, read in chain order, as the verify-soliton record."""
        ok, diag = soliton_admissible(self.params)
        (a_est, b_est), wr, defect = self.bounds, self.wexler_raz, self.defect
        c1, c1_sum = self.c1_trace, self.c1_sum
        e, e_win, gap = self.energy_trace, self.energy_window, self.gap
        (sd_plus, sd_minus), (w_plus, w_minus) = self.self_duality, self.w_residuals
        if e < 0:
            raise ToleranceError("energy must be nonnegative")
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
