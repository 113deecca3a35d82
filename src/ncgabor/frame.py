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

from .lattice import LatticeKind, TorusParams, index_bounds, lattice_generators
from .algebra import (LatticeSeq, act_left, inner_left, inner_right,
                      twisted_conv, twisted_star, trace_l, _translate_batch,
                      _mod_phases, _adjoint_self_phase, _check_params_spec)
from .signal import GridSignal, GridSpec, inner, norm, random_timefreq_probe


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


@dataclass
class FrameSystem:
    """A window with its lattice, truncation radius, and cached frame data.

    `cache` holds the results of frame_bounds, canonical_dual and
    canonical_tight keyed on the solver arguments they were computed with;
    `bounds_residuals` are the Rayleigh residuals of the bounds that
    frame_bounds returned last.

    `solve_margin` widens the lattice truncation used *inside* the dual and
    tight-window solves (never inside reported sums): the canonical dual of
    the full system decays exponentially, so solving S h = g at the bare
    verification radius would limit every downstream duality residual to the
    solve-truncation error instead of the verification-truncation error.
    """

    window: GridSignal
    params: TorusParams
    radius: float = 6.0
    solve_margin: float = 2.0
    cache: dict = field(default_factory=dict, repr=False, compare=False)
    bounds_residuals: Optional[dict] = None

    def __post_init__(self):
        _check_params_spec(self.params, self.window.spec)
        if self.radius <= 0:
            raise ValueError("truncation radius must be positive")
        if self.solve_margin < 0:
            raise ValueError("solve margin must be nonnegative")

    def apply(self, f: GridSignal) -> GridSignal:
        """Truncated frame operator image S_g f = ⟨f,g⟩·g."""
        return act_left(inner_left(f, self.window, self.params, self.radius),
                        self.window)

    def _apply_solve(self, f: GridSignal) -> GridSignal:
        r = self.radius + self.solve_margin
        return act_left(inner_left(f, self.window, self.params, r), self.window)


def _cg_solve(apply_op, rhs: GridSignal, tol: float, max_iter: int,
              target: float = 1e-12) -> GridSignal:
    """Conjugate gradients for a positive operator on grid signals.

    Iterates toward relative residual `target` and returns as soon as it is
    reached; if progress stalls (no 2x improvement over 60 iterations) the
    best iterate is returned provided its residual is below `tol`, and a
    ConvergenceError("CG stagnation") is raised otherwise.  Truncated frame
    operators commonly have a finite attainable floor between target and tol
    set by the window's overlap with the uncovered phase-space sector.
    """
    b2 = norm(rhs)
    if b2 == 0.0:
        return rhs
    target = min(target, tol)
    x = GridSignal(rhs.spec, np.zeros_like(rhs.values))
    r = rhs
    p = r
    rr = inner(r, r).real
    best_x, best_res = x, 1.0
    stall = 0
    for _ in range(max_iter):
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
        f"after {max_iter} iterations")


def frame_bounds(sys: FrameSystem, probes: int = 24, seed: int = 7,
                 require_frame: bool = True):
    """Estimated frame bounds (A, B) from Rayleigh quotients of S_g.

    The estimate restricts S_g to the span of random band-concentrated
    probes (Rayleigh-Ritz), then refines B by power iteration and A by
    inverse-power iteration with capped conjugate-gradient solves.  Rayleigh
    quotients over un-concentrated grid vectors would instead probe the
    region the truncated lattice cannot cover.  Raises NotAFrameError when
    A_est < 1e-6 · B_est (unless require_frame=False).
    """
    if probes < 16:
        raise ValueError("need at least 16 probes")
    if norm(sys.window) == 0.0:
        raise NotAFrameError(0.0, 0.0)
    key = ("bounds", probes, seed)
    if key not in sys.cache:
        rng = np.random.default_rng(seed)
        spec = sys.window.spec
        basis = np.stack([
            random_timefreq_probe(spec, rng, spread=2.2).values.ravel()
            for _ in range(probes)
        ], axis=1)
        qmat, _ = np.linalg.qr(basis)
        qmat = qmat / np.sqrt(spec.dx)  # orthonormal in the Δx-weighted pairing
        cols = [GridSignal(spec, qmat[:, i].reshape(spec.q, spec.N))
                for i in range(qmat.shape[1])]
        images = [sys.apply(c) for c in cols]
        gram = np.empty((len(cols), len(cols)), dtype=np.complex128)
        for i, c in enumerate(cols):
            for j, img in enumerate(images):
                gram[i, j] = inner(img, c)
        gram = 0.5 * (gram + gram.conj().T)
        evals, evecs = np.linalg.eigh(gram)

        def ritz_vector(col):
            v = qmat @ evecs[:, col]
            return GridSignal(spec, v.reshape(spec.q, spec.N))

        # power iteration from the top Ritz vector
        v = ritz_vector(-1)
        b_est = float(evals[-1])
        for _ in range(15):
            w = sys.apply(v)
            b_est = inner(w, v).real / inner(v, v).real
            v = w * (1.0 / norm(w))

        # inverse power iteration from the bottom Ritz vector
        u = ritz_vector(0)
        a_est = float(evals[0])
        try:
            for _ in range(4):
                w = _cg_solve(sys.apply, u, tol=1e-8, max_iter=200)
                u = w * (1.0 / norm(w))
                a_est = inner(sys.apply(u), u).real / inner(u, u).real
        except ConvergenceError:
            pass  # keep the last Rayleigh quotient; S is effectively singular
        a_est, b_est = float(min(a_est, b_est)), float(max(a_est, b_est))
        scale = max(b_est, 1e-300)
        sys.cache[key] = (a_est, b_est, {
            "rayleigh_B": norm(sys.apply(v) - b_est * v) / (scale * norm(v)),
            "rayleigh_A": norm(sys.apply(u) - a_est * u) / (scale * norm(u)),
        })
    a_est, b_est, sys.bounds_residuals = sys.cache[key]
    if require_frame and a_est < 1e-6 * b_est:
        raise NotAFrameError(a_est, b_est)
    return a_est, b_est


def canonical_dual(sys: FrameSystem, tol: float = 1e-7,
                   max_iter: int = 500) -> GridSignal:
    """Canonical dual window h = S_g^{-1} g via conjugate gradients.

    The solver pushes well below `tol` whenever the spectrum allows;
    `tol` is the acceptance threshold beyond which stagnation raises.
    """
    key = ("dual", tol, max_iter)
    if key not in sys.cache:
        sys.cache[key] = _cg_solve(sys._apply_solve, sys.window, tol=tol,
                                   max_iter=max_iter)
    return sys.cache[key]


def _lanczos(apply_op, start: GridSignal, m: int):
    """Lanczos tridiagonalization with full reorthogonalization."""
    spec = start.spec
    v = start.values.ravel() / (norm(start) / np.sqrt(spec.dx))
    vs = [v]
    alphas, betas = [], []
    w = apply_op(GridSignal(spec, v.reshape(spec.q, spec.N))).values.ravel()
    for j in range(m):
        a = np.vdot(vs[-1], w).real
        alphas.append(a)
        w = w - a * vs[-1]
        if j > 0:
            w = w - betas[-1] * vs[-2]
        for u in vs:  # full reorthogonalization
            w = w - np.vdot(u, w) * u
        b = float(np.linalg.norm(w))
        if b < 1e-14 or j == m - 1:
            break
        betas.append(b)
        vs.append(w / b)
        w = apply_op(GridSignal(spec, vs[-1].reshape(spec.q, spec.N))).values.ravel()
    return np.array(vs).T, np.array(alphas), np.array(betas)


def canonical_tight(sys: FrameSystem, tol: float = 1e-6,
                    max_steps: int = 160) -> GridSignal:
    """Canonical tight window S_g^{-1/2} g.

    Computed as ‖g‖·V·T^{-1/2}e₁ from the Lanczos tridiagonalization T of
    S_g started at g, doubling the Krylov dimension until the frame operator
    of the result acts as the identity on probes to within tol.
    """
    key = ("tight", tol, max_steps)
    if key in sys.cache:
        return sys.cache[key]
    spec = sys.window.spec
    rng = np.random.default_rng(11)
    checks = [random_timefreq_probe(spec, rng, spread=1.8) for _ in range(3)]
    m = 20
    last_residual = np.inf
    while True:
        vmat, alphas, betas = _lanczos(sys._apply_solve, sys.window, m)
        k = len(alphas)
        tmat = np.diag(alphas)
        if k > 1:
            tmat += np.diag(betas[:k - 1], 1) + np.diag(betas[:k - 1], -1)
        evals, evecs = np.linalg.eigh(tmat)
        evals = np.maximum(evals, evals[-1] * 1e-15)
        e1 = np.zeros(k)
        e1[0] = 1.0
        y = evecs @ ((evecs.T @ e1) / np.sqrt(evals))
        t_vals = (vmat[:, :k] @ y) * (norm(sys.window) / np.sqrt(spec.dx))
        tight = GridSignal(spec, t_vals.reshape(spec.q, spec.N))
        tight_sys = FrameSystem(tight, sys.params, sys.radius)
        residual = max(norm(tight_sys.apply(f) - f) / norm(f) for f in checks)
        if residual <= tol:
            sys.cache[key] = tight
            return tight
        if m >= max_steps:
            raise ConvergenceError(
                f"CG stagnation: tight-window residual {residual:.3e} above "
                f"tol {tol:.1e} at Krylov dimension {m}")
        if residual > 0.99 * last_residual and m > 40:
            raise ConvergenceError(
                f"CG stagnation: tight-window residual plateau at {residual:.3e}")
        last_residual = residual
        m = min(2 * m, max_steps)


def wexler_raz_residual(g: GridSignal, h: GridSignal, params: TorusParams,
                        radius: float) -> float:
    """ℓ¹ distance of the adjoint-lattice pairing ⟨g,h⟩ from δ₀.

    Vanishes exactly when (g,h) generate dual frames (biorthogonality
    ⟨h, π°(ν°)g⟩ = q|αβ|·δ_{ν°,0}).
    """
    b = inner_right(g, h, params, radius)
    return (b - LatticeSeq.delta(params, LatticeKind.ADJOINT, radius)).l1_norm()


def project_dual_pair(g: GridSignal, h: GridSignal, params: TorusParams,
                      radius: float, wr_tol: float = 1e-6,
                      idem_tol: float = 1e-6,
                      require_self_adjoint: bool = False) -> LatticeSeq:
    """Idempotent a = ⟨g,h⟩ built from a verified dual pair.

    Raises if the Wexler-Raz residual exceeds wr_tol ("not dual"), if the
    idempotency residual ‖a♮a−a‖₁ exceeds idem_tol, or (for canonical duals,
    require_self_adjoint=True) if ‖a*−a‖₁ exceeds idem_tol.
    """
    wr = wexler_raz_residual(g, h, params, radius)
    if wr > wr_tol:
        raise ToleranceError(f"not dual: Wexler-Raz residual {wr:.3e} > {wr_tol:.1e}")
    a = inner_left(g, h, params, radius)
    idem = (twisted_conv(a, a) - a).l1_norm()
    if idem > idem_tol:
        raise ToleranceError(f"projection residual too large: {idem:.3e}")
    if require_self_adjoint:
        sa = (twisted_star(a) - a).l1_norm()
        if sa > idem_tol:
            raise ToleranceError(f"projection not self-adjoint: {sa:.3e}")
    return a


@dataclass(frozen=True)
class LaurentSymbol:
    """Sampled symbol of the adjoint-lattice Gram operator."""

    t1: np.ndarray
    t2: np.ndarray
    values: np.ndarray       # real part of F on the t-mesh
    min_abs: float
    max_abs: float
    max_imag: float          # sanity: should vanish under the phase-free condition
    is_riesz: bool


def laurent_symbol(g: GridSignal, params: TorusParams, grid: int = 64,
                   radius: float = 6.0, rel_threshold: float = 1e-6) -> LaurentSymbol:
    """Symbol F(t₁,t₂) = Σ ⟨g, π°(ν°(n₁,n₂))g⟩ e^{2πi(n₂t₁+n₁t₂)} on a mesh.

    Available only when the adjoint twist (αβq²)⁻¹ + r°s°/q is an integer;
    then the adjoint Gram matrix is Laurent and g generates a Riesz sequence
    over the adjoint lattice iff min|F| > 0.  The Riesz verdict uses
    min|F| > rel_threshold·max|F|.
    """
    twist = params.adjoint_twist
    if abs(twist - round(twist)) > 1e-9:
        raise ValueError(
            "Laurent structure unavailable: (alpha*beta*q^2)^-1 + r°s°/q "
            f"= {twist!r} is not an integer")
    _check_params_spec(params, g.spec)
    coeff = inner_right(g, g, params, radius)   # ⟨g,π°g⟩ up to the q|αβ| scale
    scale = params.q * abs(params.alpha * params.beta)
    ts = np.arange(grid) / grid
    # F(t1,t2) = Σ_{n1,n2} G(n1,n2) e^{2πi(n2·t1 + n1·t2)}; n1 is the time index
    ph1 = np.exp(2j * np.pi * np.outer(coeff.index[:, 1], ts))
    ph2 = np.exp(2j * np.pi * np.outer(coeff.index[:, 0], ts))
    f_vals = np.einsum("m,ma,mb->ab", scale * coeff.values, ph1, ph2)
    max_abs = float(np.abs(f_vals).max())
    min_abs = float(np.abs(f_vals).min())
    return LaurentSymbol(
        t1=ts, t2=ts, values=f_vals.real,
        min_abs=min_abs, max_abs=max_abs,
        max_imag=float(np.abs(f_vals.imag).max()),
        is_riesz=bool(min_abs > rel_threshold * max_abs),
    )


def lift_scalar_window(g_scalar: GridSignal, params: TorusParams,
                       check: bool = True, radius: float = 6.0) -> GridSignal:
    """Replicate a 1-channel window across all q channels.

    Under the integer-twist condition, the lift generates a frame for Λ×Γ
    whenever the scalar window generates a frame over αℤ×(qβ)ℤ; with
    check=True that scalar hypothesis is verified via the scalar Laurent
    symbol (or, if the scalar lattice has no Laurent structure, via scalar
    frame bounds).
    """
    if g_scalar.spec.q != 1:
        raise ValueError("lift_scalar_window expects a single-channel window")
    if params.q == 1:
        return g_scalar
    twist = params.adjoint_twist
    if abs(twist - round(twist)) > 1e-9:
        raise ValueError(
            f"lift condition violated: adjoint twist {twist!r} is not an integer")
    if check:
        scalar = TorusParams(alpha=params.alpha, beta=params.beta * params.q)
        try:
            sym = laurent_symbol(g_scalar, scalar, radius=radius)
            ok = sym.is_riesz
        except ValueError:
            sys_scalar = FrameSystem(g_scalar, scalar, radius)
            a_est, b_est = frame_bounds(sys_scalar, require_frame=False)
            ok = a_est > 1e-6 * b_est
        if not ok:
            raise NotAFrameError(0.0, 1.0)
    spec = g_scalar.spec
    lifted = np.broadcast_to(g_scalar.values[0], (params.q, spec.N)).copy()
    return GridSignal(GridSpec(L=spec.L, N=spec.N, q=params.q), lifted)


def adjoint_shift_family(g: GridSignal, params: TorusParams,
                         radius: float) -> np.ndarray:
    """Matrix whose columns are π°(ν°)g over the truncated adjoint lattice."""
    spec = g.spec
    k1, k2 = index_bounds(params, LatticeKind.ADJOINT, radius)
    n1s, n2s = np.arange(-k1, k1 + 1), np.arange(-k2, k2 + 1)
    t_step, t_slope, f_step, f_slope = lattice_generators(params, LatticeKind.ADJOINT)
    tg = _translate_batch(g.values, spec, t_step * n1s, (t_slope * n1s) % spec.q)
    chph, xph = _mod_phases(spec, f_step, f_slope, n2s, sign=+1.0)
    phi0 = _adjoint_self_phase(params, n1s, n2s)
    cols = np.einsum("akj,bk,bj,ab->abkj", tg, chph, xph, phi0, optimize=True)
    return cols.reshape(n1s.size * n2s.size, spec.q * spec.N).T


def adjoint_span_residual(v: GridSignal, g: GridSignal, params: TorusParams,
                          radius: float, scale: Optional[float] = None) -> float:
    """Least-squares distance of v from span{π°(ν°)g : |ν°| ≤ radius}.

    Finite surrogate for membership in the closed adjoint-shift span.  The
    distance is reported relative to `scale` (default ‖v‖); pass the scale
    of the expression v was assembled from when v itself may be a numerical
    zero, e.g. (∇₁+i∇₂)g for a Gaussian g.
    """
    if scale is None:
        scale = norm(v)
    if scale < 1e-300:
        return 0.0
    a = adjoint_shift_family(g, params, radius)
    coeff, *_ = np.linalg.lstsq(a, v.values.ravel(), rcond=None)
    res = np.linalg.norm(a @ coeff - v.values.ravel()) * np.sqrt(v.spec.dx)
    return float(res / scale)


def reconstruction_residual(f: GridSignal, g: GridSignal, h: GridSignal,
                            params: TorusParams, radius: float) -> float:
    """Relative error of f ≈ Σ ⟨f,π(ν)g⟩ π(ν)h over the truncated lattice."""
    rec = act_left(inner_left(f, g, params, radius), h)
    return norm(rec - f) / norm(f)
