"""Gabor frame machinery: frame operator, bounds, duals, and duality checks.

The frame operator of a window g over the lattice Λ×Γ truncated at radius R,

    S_g f = Σ_{ν ∈ Λ×Γ, max(|λ|,|γ|) ≤ R} ⟨f, π(ν)g⟩ π(ν)g,

is positive and commutes with lattice shifts.  The canonical dual window is
the solution of S_g h = g (conjugate gradients); the canonical tight window
S_g^{−1/2} g is evaluated through the eigendecomposition of the Lanczos
tridiagonalization of S_g started at g.  Duality of a pair (g,h) is tested
through the biorthogonality residual ‖⟨g,h⟩_adjoint − δ₀‖₁ and through
reconstruction on probes; both agree for frames of Gaussian class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .lattice import LatticeKind, TorusParams, lattice_generators
from .algebra import (BOX_BUDGET, PRUNE_TOL, LatticeSeq, act_left, inner_left,
                      inner_right, twisted_conv, twisted_star, _twist_phase,
                      _analyse, _atoms, _box_axes, _check_params_spec, _synthesise)
from .signal import (GridSignal, GridSpec, _check_same_spec, inner, norm,
                     random_timefreq_probe)


class NotAFrameError(RuntimeError):
    """Raised when the estimated lower frame bound vanishes numerically."""

    def __init__(self, a_est: float, b_est: float):
        super().__init__(f"not a frame (numerically): A={a_est:.3e}, B={b_est:.3e}")
        self.a_est = a_est
        self.b_est = b_est


class ConvergenceError(RuntimeError):
    """Raised when an iterative solve stalls above its tolerance."""


class ToleranceError(ValueError):
    """Raised when an asserted identity misses its tolerance."""


# Widens the lattice truncation used *inside* the dual and tight-window solves
# (never inside reported sums): the canonical dual of the full system decays
# exponentially, so solving S h = g at the bare verification radius would limit
# every downstream duality residual to the solve-truncation error instead of
# the verification-truncation error.
SOLVE_MARGIN = 2.0
PROBES = 24               # band-concentrated probes of the Rayleigh-Ritz bounds
CG_TARGET = 1e-12         # relative residual at which _cg_solve returns at once
TIGHT_TOL = 1e-6          # probe residual ‖S_t f − f‖/‖f‖ a tight window must reach
KRYLOV_DIMS = (20, 40, 80, 160)  # Lanczos dimensions at which the tight window is read
PAIR_TOL = 1e-6           # Wexler-Raz and idempotency gates of project_dual_pair
RIESZ_REL = 1e-6          # min|F| > RIESZ_REL·max|F| is the Riesz verdict


@dataclass
class FrameSystem:
    """A window with its lattice and truncation radius: the truncated frame
    operator and nothing more.

    `cache` holds the window's atom factors under ("atoms", radius), built on
    the first apply at that radius; the solvers below compute on every call.
    `bounds_residuals` are the Rayleigh residuals of the last frame_bounds.
    """

    window: GridSignal
    params: TorusParams
    radius: float = 6.0
    cache: dict = field(default_factory=dict, repr=False, compare=False)
    bounds_residuals: Optional[dict] = None

    def __post_init__(self):
        _check_params_spec(self.params, self.window.spec)
        if self.radius <= 0:
            raise ValueError("truncation radius must be positive")

    def apply(self, f: GridSignal) -> GridSignal:
        """Truncated frame operator image S_g f = ⟨f,g⟩·g."""
        return self._frame_op(f, self.radius)

    def _apply_solve(self, f: GridSignal) -> GridSignal:
        return self._frame_op(f, self.radius + SOLVE_MARGIN)

    def _frame_op(self, f: GridSignal, radius: float) -> GridSignal:
        """Analysis then synthesis on the cached atoms of the box at `radius`;
        coefficients at most PRUNE_TOL are dropped, as inner_left does."""
        _check_same_spec(f, self.window)
        key = ("atoms", radius)
        if key not in self.cache:
            gen = lattice_generators(self.params, LatticeKind.TIME_FREQ)
            axes = _box_axes(self.params, LatticeKind.TIME_FREQ, radius)
            self.cache[key] = _atoms(self.window, gen, *axes)
        tg, mod = self.cache[key]
        v = _analyse(f, tg, mod)
        return _synthesise(np.where(np.abs(v) > PRUNE_TOL, v, 0.0), tg, mod, f.spec)


def _cg_solve(apply_op, rhs: GridSignal, tol: float, max_iter: int) -> GridSignal:
    """Conjugate gradients for a positive operator on grid signals.

    Iterates toward relative residual CG_TARGET and returns as soon as it is
    reached; if progress stalls (no 2x improvement over 60 iterations) the
    best iterate is returned provided its residual is below `tol`, and a
    ConvergenceError("CG stagnation") is raised otherwise.  Truncated frame
    operators commonly have a finite attainable floor between target and tol
    set by the window's overlap with the uncovered phase-space sector.
    """
    b2 = norm(rhs)
    if b2 == 0.0:
        return rhs
    target = min(CG_TARGET, tol)
    x = GridSignal(rhs.spec, np.zeros_like(rhs.values))
    r = rhs
    p = r
    rr = inner(r, r).real
    best_x, best_res = x, 1.0
    stall = it = 0
    for it in range(1, max_iter + 1):
        sp = apply_op(p)
        denom = inner(p, sp).real
        if denom <= 0:
            break  # roundoff broke positivity; keep the best iterate
        a = rr / denom
        x = x + a * p
        r = r - a * sp
        rr_new = inner(r, r).real
        rel = np.sqrt(rr_new) / b2
        if rel < best_res:
            if rel < 0.5 * best_res:
                stall = 0
            best_x, best_res = x, rel
        if rel <= target:
            return x
        stall += 1
        if stall >= 60:
            break
        p = r + (rr_new / rr) * p
        rr = rr_new
    if best_res <= tol:
        return best_x
    raise ConvergenceError(
        f"CG stagnation: residual {best_res:.3e} above tol {tol:.1e} "
        f"after {it} iterations")


def frame_bounds(sys: FrameSystem, seed: int = 7):
    """Estimated frame bounds (A, B) from Rayleigh quotients of S_g.

    The estimate restricts S_g to the span of PROBES random band-concentrated
    probes (Rayleigh-Ritz): A is the smallest Ritz value, and B the largest
    refined by 15 power steps, 41 applies of S_g in all.  Rayleigh quotients
    over un-concentrated grid vectors would instead probe the region the
    truncated lattice cannot cover, and so would inverse iteration, which
    amplifies that region.  Sets sys.bounds_residuals: "rayleigh_B" of the
    last power iterate, "rayleigh_A" of the bottom Ritz vector.  Raises
    NotAFrameError, which carries both estimates, when A_est < 1e-6 · B_est.
    """
    if norm(sys.window) == 0.0:
        raise NotAFrameError(0.0, 0.0)
    rng = np.random.default_rng(seed)
    spec = sys.window.spec
    basis = np.stack([
        random_timefreq_probe(spec, rng, spread=2.2).values.ravel()
        for _ in range(PROBES)
    ], axis=1)
    qmat, _ = np.linalg.qr(basis)
    qmat = qmat / np.sqrt(spec.dx)  # orthonormal in the Δx-weighted pairing

    def signal(vec):
        return GridSignal(spec, vec.reshape(spec.q, spec.N))

    images = np.stack([sys.apply(signal(col)).values.ravel() for col in qmat.T], axis=1)
    gram = spec.dx * (qmat.conj().T @ images)
    gram = 0.5 * (gram + gram.conj().T)
    evals, evecs = np.linalg.eigh(gram)

    # power iteration from the top Ritz vector
    v = signal(qmat @ evecs[:, -1])
    b_est = float(evals[-1])
    for _ in range(15):
        w = sys.apply(v)
        b_est = inner(w, v).real / inner(v, v).real
        v = w * (1.0 / norm(w))

    u = signal(qmat @ evecs[:, 0])
    a_est = float(evals[0])
    a_est, b_est = float(min(a_est, b_est)), float(max(a_est, b_est))
    scale = max(b_est, 1e-300)
    sys.bounds_residuals = {
        "rayleigh_B": norm(sys.apply(v) - b_est * v) / (scale * norm(v)),
        "rayleigh_A": norm(sys.apply(u) - a_est * u) / (scale * norm(u)),
    }
    if a_est < 1e-6 * b_est:
        raise NotAFrameError(a_est, b_est)
    return a_est, b_est


def canonical_dual(sys: FrameSystem, tol: float = 1e-7,
                   max_iter: int = 500) -> GridSignal:
    """Canonical dual window h = S_g^{-1} g via conjugate gradients.

    The solver pushes well below `tol` whenever the spectrum allows;
    `tol` is the acceptance threshold beyond which stagnation raises.
    """
    return _cg_solve(sys._apply_solve, sys.window, tol=tol, max_iter=max_iter)


def _lanczos(apply_op, start: GridSignal, dims):
    """Lanczos tridiagonalization with full reorthogonalization.

    One basis, extended step by step: yields (basis vectors, alphas, betas)
    when its dimension reaches each of the ascending `dims`, or earlier and
    last when the Krylov space becomes invariant.  The first m steps do not
    depend on how far the basis is extended.  The vector list is the live
    basis, not a copy.
    """
    spec = start.spec
    vs = [start.values.ravel() / (norm(start) / np.sqrt(spec.dx))]
    alphas, betas = [], []
    for j in range(dims[-1]):
        w = apply_op(GridSignal(spec, vs[-1].reshape(spec.q, spec.N))).values.ravel()
        a = np.vdot(vs[-1], w).real
        alphas.append(a)
        w = w - a * vs[-1]
        if j > 0:
            w = w - betas[-1] * vs[-2]
        for u in vs:  # full reorthogonalization
            w = w - np.vdot(u, w) * u
        b = float(np.linalg.norm(w))
        if b < 1e-14 or j + 1 in dims:
            yield vs, np.array(alphas), np.array(betas)
        if b < 1e-14:
            return
        betas.append(b)
        vs.append(w / b)


def canonical_tight(sys: FrameSystem) -> GridSignal:
    """Canonical tight window S_g^{-1/2} g.

    Computed as ‖g‖·V·T^{-1/2}e₁ from the Lanczos tridiagonalization T of
    S_g started at g, read at each Krylov dimension of KRYLOV_DIMS until the
    frame operator of the result acts as the identity on probes to within
    TIGHT_TOL.  Raises ConvergenceError at a plateau (less than 1% gain past
    dimension 40) or when the largest dimension misses TIGHT_TOL.
    """
    spec = sys.window.spec
    rng = np.random.default_rng(11)
    checks = [random_timefreq_probe(spec, rng, spread=1.8) for _ in range(3)]
    last_residual = np.inf
    for basis, alphas, betas in _lanczos(sys._apply_solve, sys.window, KRYLOV_DIMS):
        k = len(alphas)
        evals, evecs = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        evals = np.maximum(evals, evals[-1] * 1e-15)
        y = evecs @ (evecs[0] / np.sqrt(evals))   # T^{-1/2}e₁
        t_vals = (np.array(basis).T @ y) * (norm(sys.window) / np.sqrt(spec.dx))
        tight = GridSignal(spec, t_vals.reshape(spec.q, spec.N))
        tight_sys = FrameSystem(tight, sys.params, sys.radius)
        residual = max(norm(tight_sys.apply(f) - f) / norm(f) for f in checks)
        if residual <= TIGHT_TOL:
            return tight
        if 40 < k < KRYLOV_DIMS[-1] and residual > 0.99 * last_residual:
            raise ConvergenceError(
                f"Lanczos: tight-window residual plateau at {residual:.3e}")
        last_residual = residual
    raise ConvergenceError(
        f"Lanczos: tight-window residual {residual:.3e} above "
        f"tol {TIGHT_TOL:.1e} at Krylov dimension {k}")


def wexler_raz_residual(g: GridSignal, h: GridSignal, params: TorusParams,
                        radius: float) -> float:
    """ℓ¹ distance of the adjoint-lattice pairing ⟨g,h⟩ from δ₀.

    Vanishes exactly when (g,h) generate dual frames (biorthogonality
    ⟨h, π°(ν°)g⟩ = q|αβ|·δ_{ν°,0}).
    """
    b = inner_right(g, h, params, radius)
    return (b - LatticeSeq.delta(params, LatticeKind.ADJOINT)).l1_norm()


def project_dual_pair(g: GridSignal, h: GridSignal, params: TorusParams,
                      radius: float, require_self_adjoint: bool = False) -> LatticeSeq:
    """Idempotent a = ⟨g,h⟩ built from a verified dual pair.

    Raises if the Wexler-Raz residual exceeds PAIR_TOL ("not dual"), if the
    idempotency residual ‖a♮a−a‖₁ exceeds PAIR_TOL, or (for canonical duals,
    require_self_adjoint=True) if ‖a*−a‖₁ exceeds PAIR_TOL.
    """
    wr = wexler_raz_residual(g, h, params, radius)
    if wr > PAIR_TOL:
        raise ToleranceError(f"not dual: Wexler-Raz residual {wr:.3e} > {PAIR_TOL:.1e}")
    a = inner_left(g, h, params, radius)
    idem = (twisted_conv(a, a) - a).l1_norm()
    if idem > PAIR_TOL:
        raise ToleranceError(f"projection residual too large: {idem:.3e}")
    if require_self_adjoint:
        sa = (twisted_star(a) - a).l1_norm()
        if sa > PAIR_TOL:
            raise ToleranceError(f"projection not self-adjoint: {sa:.3e}")
    return a


@dataclass(frozen=True)
class LaurentSymbol:
    """Sampled symbol of the adjoint-lattice Gram operator."""

    t: np.ndarray            # mesh points k/grid of both t₁ and t₂
    values: np.ndarray       # real part of F on the t-mesh
    min_abs: float
    max_abs: float
    max_imag: float          # sanity: should vanish under the phase-free condition
    is_riesz: bool


def laurent_symbol(g: GridSignal, params: TorusParams, grid: int = 64,
                   radius: float = 6.0) -> LaurentSymbol:
    """Symbol F(t₁,t₂) = Σ ⟨g, π°(ν°(n₁,n₂))g⟩ e^{2πi(n₂t₁+n₁t₂)} on a mesh.

    Available only when the adjoint twist (αβq²)⁻¹ + r°s°/q is an integer;
    then the adjoint Gram matrix is Laurent and g generates a Riesz sequence
    over the adjoint lattice iff min|F| > 0.  The Riesz verdict uses
    min|F| > RIESZ_REL·max|F|.  A mesh `grid` below 1 is refused.
    """
    if grid < 1:
        raise ValueError(f"Laurent mesh must be at least 1, got {grid}")
    if not params.integer_adjoint_twist:
        raise ValueError(
            "Laurent structure unavailable: (alpha*beta*q^2)^-1 + r°s°/q "
            f"= {params.adjoint_twist!r} is not an integer")
    _check_params_spec(params, g.spec)
    coeff = inner_right(g, g, params, radius)   # ⟨g,π°g⟩ up to the q|αβ| scale
    ts = np.arange(grid) / grid
    # F(t1,t2) = Σ_{n1,n2} G(n1,n2) e^{2πi(n2·t1 + n1·t2)}; n1 is the time index
    ph1 = np.exp(2j * np.pi * np.outer(coeff.index[:, 1], ts))
    ph2 = np.exp(2j * np.pi * np.outer(coeff.index[:, 0], ts))
    f_vals = np.einsum("m,ma,mb->ab", params.density * coeff.values, ph1, ph2)
    max_abs = float(np.abs(f_vals).max())
    min_abs = float(np.abs(f_vals).min())
    return LaurentSymbol(
        t=ts, values=f_vals.real,
        min_abs=min_abs, max_abs=max_abs,
        max_imag=float(np.abs(f_vals.imag).max()),
        is_riesz=bool(min_abs > RIESZ_REL * max_abs),
    )


def lift_scalar_window(g_scalar: GridSignal, params: TorusParams) -> GridSignal:
    """Replicate a 1-channel window across all q channels.

    Under the integer-twist condition, the lift generates a frame for Λ×Γ
    whenever the scalar window generates a frame over αℤ×(qβ)ℤ.  That
    scalar lattice always has Laurent structure, since its adjoint twist
    1/(αβq) = q·θ̃ − r°s° is an integer, so the hypothesis is verified at
    the default radius by the scalar Laurent symbol F.  By duality its
    frame bounds are min|F| and max|F| over |α·qβ|; NotAFrameError
    carries them when F is not a Riesz symbol.
    """
    if g_scalar.spec.q != 1:
        raise ValueError("lift_scalar_window expects a single-channel window")
    if params.q == 1:
        return g_scalar
    scalar = params.scalar_lattice
    if scalar is None:
        raise ValueError(f"lift condition violated: adjoint twist "
                         f"{params.adjoint_twist!r} is not an integer")
    sym = laurent_symbol(g_scalar, scalar)
    if not sym.is_riesz:
        raise NotAFrameError(sym.min_abs / scalar.density, sym.max_abs / scalar.density)
    return lift_channels(g_scalar, params.q)


def lift_channels(f: GridSignal, q: int) -> GridSignal:
    """The q-channel signal with every channel equal to the 1-channel f."""
    return GridSignal(GridSpec(L=f.spec.L, N=f.spec.N, q=q), np.repeat(f.values, q, axis=0))


def adjoint_shift_family(g: GridSignal, params: TorusParams,
                         radius: float) -> np.ndarray:
    """Matrix whose columns are π°(ν°)g over the truncated adjoint lattice,
    refused before allocation above BOX_BUDGET cells."""
    n1s, n2s = _box_axes(params, LatticeKind.ADJOINT, radius)
    if n1s.size * n2s.size * g.values.size > BOX_BUDGET:
        raise ValueError(f"a {n1s.size}x{n2s.size} adjoint shift family of {g.values.size}"
                         f"-sample columns exceeds {BOX_BUDGET} cells")
    tg, mod = _atoms(g, lattice_generators(params, LatticeKind.ADJOINT), n1s, n2s)
    cols = tg[:, None, :] * mod[None, :, :]
    cols *= np.conj(_twist_phase(params, LatticeKind.ADJOINT, n1s, n2s))[:, :, None]
    return cols.reshape(-1, g.values.size).T


def adjoint_span_residual(v, g: GridSignal, params: TorusParams,
                          radius: float, scale: Optional[float] = None):
    """Least-squares distance of v from span{π°(ν°)g : |ν°| ≤ radius}.

    Finite surrogate for membership in the closed adjoint-shift span.  v is
    one signal, or a tuple of signals that share one shift family and one
    least-squares solve and get a tuple of distances.  Each distance is
    reported relative to `scale` (default ‖v‖); pass the scale of the
    expression v was assembled from when v itself may be a numerical zero,
    e.g. (∇₁+i∇₂)g for a Gaussian g.
    """
    vs = v if isinstance(v, tuple) else (v,)
    scales = [norm(w) if scale is None else scale for w in vs]
    a = adjoint_shift_family(g, params, radius)
    b = np.stack([w.values.ravel() for w in vs], axis=1)
    coeff, *_ = np.linalg.lstsq(a, b, rcond=None)
    res = np.linalg.norm(a @ coeff - b, axis=0) * np.sqrt(g.spec.dx)
    dist = tuple(0.0 if s < 1e-300 else float(r / s) for r, s in zip(res, scales))
    return dist if isinstance(v, tuple) else dist[0]


def reconstruction_residual(f: GridSignal, g: GridSignal, h: GridSignal,
                            params: TorusParams, radius: float) -> float:
    """Relative error of f ≈ Σ ⟨f,π(ν)g⟩ π(ν)h over the truncated lattice."""
    rec = act_left(inner_left(f, g, params, radius), h)
    return norm(rec - f) / norm(f)
