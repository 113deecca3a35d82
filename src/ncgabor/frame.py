"""Gabor frame machinery: frame operator, bounds, duals, and duality checks.

By the fundamental identity ⟨f,g⟩·h = f·⟨g,h⟩°, the frame operator of a
window g over Λ×Γ is S_g f = Σ_ν ⟨f, π(ν)g⟩ π(ν)g = f·⟨g,g⟩° (Janssen's
representation): a few dozen adjoint-lattice terms for windows of Gaussian
class.  The canonical dual S_g⁻¹g and the canonical tight window S_g^{−1/2}g
are read off one Lanczos run on that form, started at g and stopped by the
dual's residual.  Where the adjoint twist is an integer the form is a Laurent
operator, and the frame bounds are the extremes of its symbol, read from the
coefficients ⟨g,g⟩° without an apply; elsewhere they are Rayleigh–Ritz
estimates.  One verdict, _is_frame(A, B), serves frame_bounds, the symbol's
Riesz test and the lift; FrameSystem refuses S_g = 0 and density > 1.  The
solvers only solve: their caller judges a pair (g,h) by the biorthogonality
residual ‖⟨g,h⟩_adjoint − δ₀‖₁ and by reconstruction on probes, and a tight
window as its own dual (h = g).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .lattice import LatticeKind, TorusParams, index_bounds, lattice_generators
from .algebra import (BOX_BUDGET, PRUNE_TOL, LatticeSeq, inner_left, inner_right, l1_diff,
                      twisted_conv, twisted_star, _analyse, _atoms, _box_axes,
                      _check_params_spec, _right_action, _synthesise, _translates,
                      _twist_phase)
from .signal import (GridSignal, GridSpec, _check_same_spec, inner, norm,
                     random_timefreq_probe)


class NotAFrameError(RuntimeError):
    """Raised when the frame bounds (A, B) fail _is_frame."""

    def __init__(self, a_est: float, b_est: float):
        super().__init__(f"not a frame (numerically): A={a_est:.3e}, B={b_est:.3e}")
        self.a_est = a_est
        self.b_est = b_est


class ConvergenceError(RuntimeError):
    """Raised when the Lanczos run misses the dual's tolerance (_krylov_reading)."""


class ToleranceError(ValueError):
    """Raised when an asserted identity misses its tolerance."""


class GridError(ValueError):
    """Raised when the grid does not represent S_g or a window's lattice sums."""


FRAME_REL = 1e-6          # A ≤ FRAME_REL·B: not a frame; below −FRAME_REL·max: grid error
PROBES = 24               # band-concentrated probes of the Rayleigh-Ritz bounds
SYMBOL_MESH = 64          # points a side of the first symbol mesh of the bounds
MESH_REL = 1e-3           # the mesh is refined until its error is at most MESH_REL·A
MESH_POINTS = 1 << 20     # ... or until it holds this many points
CG_TARGET = 1e-13         # dual residual at which the Lanczos run stops at once
PAIR_TOL = 1e-6           # Wexler-Raz and idempotency gates of project_dual_pair


def _is_frame(a_est: float, b_est: float) -> bool:
    """The frame verdict on bounds A ≤ S_g ≤ B: A > FRAME_REL·B."""
    return a_est > FRAME_REL * b_est


@dataclass
class FrameSystem:
    """A window with its lattice and radius, and its frame operator in Janssen
    form, S_g f = f·⟨g,g⟩°.  The coefficients ⟨g,g⟩° on the adjoint box at
    `radius` (`coefficients`) and the table of their right action are built
    on construction; bounds, dual and tight window are computed on every
    call.  `bounds_residuals` are the diagnostics of the last frame_bounds.
    S_g = 0 (no coefficient above PRUNE_TOL) raises NotAFrameError(0, 0);
    density q|αβ| > 1, where no window generates a frame (Ramanathan & Steger
    1995), raises NotAFrameError(0, ‖⟨g,g⟩°‖₁), B ≥ ‖S_g‖ as each π° is unitary.
    """

    window: GridSignal
    params: TorusParams
    radius: float = 6.0
    bounds_residuals: Optional[dict] = field(default=None, init=False)

    def __post_init__(self):
        _check_params_spec(self.params, self.window.spec)
        g = self.window   # inner_right refuses a radius that is not positive
        self.coefficients = inner_right(g, g, self.params, self.radius)
        if not self.coefficients.values.size:
            raise NotAFrameError(0.0, 0.0)
        if self.params.density > 1 + 1e-9:
            raise NotAFrameError(0.0, self.coefficients.l1_norm())
        self._janssen = _right_action(self.coefficients, g.spec)

    def apply(self, f: GridSignal) -> GridSignal:
        """Frame operator image S_g f = f·⟨g,g⟩°."""
        _check_same_spec(f, self.window)
        return self._janssen(f)

    _apply_solve = apply   # perfbench/spans.py wraps this name until its next change


def frame_bounds(sys: FrameSystem, seed: int = 7):
    """Frame bounds (A, B) of S_g; sets sys.bounds_residuals.

    Where the adjoint twist is an integer, S_g is a Laurent operator and A, B
    enclose the extremes of its symbol F (_symbol_bounds, no apply of S_g):
    the residuals are {"mesh", "mesh_error"}.  Elsewhere they are the
    Rayleigh–Ritz estimates of _rayleigh_ritz (`seed` fixes its probes),
    which lie inside the spectrum: the residuals are {"rayleigh_A",
    "rayleigh_B"}.  Raises NotAFrameError, which carries both values, unless
    _is_frame(A, B), and GridError when the grid does not represent S_g
    (_require_positive on the symbol mesh or the Ritz values).
    """
    if sys.params.integer_adjoint_twist:
        a_est, b_est, sys.bounds_residuals = _symbol_bounds(sys.coefficients)
    else:
        a_est, b_est, sys.bounds_residuals = _rayleigh_ritz(sys, seed)
    if not _is_frame(a_est, b_est):
        raise NotAFrameError(a_est, b_est)
    return a_est, b_est


def _symbol_mesh(coeff: LatticeSeq, weights, shape):
    """For each weight vector w (one weight per entry of coeff), the sum
    Σ_n w_n e^{2πi(n₂t₁ + n₁t₂)} on the mesh t₁ = a/shape[0], t₂ = b/shape[1],
    as [a, b]: the one evaluator of the Laurent symbol; n₁ is the time index."""
    t1, t2 = (np.arange(points) / points for points in shape)
    ph1 = np.exp(2j * np.pi * np.outer(coeff.index[:, 1], t1))
    ph2 = np.exp(2j * np.pi * np.outer(coeff.index[:, 0], t2))
    return [(w[:, None] * ph1).T @ ph2 for w in weights]


def _negative(values) -> bool:
    """S_g ≥ 0, so a reading of it (symbol values, Ritz values) below
    −FRAME_REL × its largest shows a grid that does not represent S_g."""
    return float(np.min(values)) < -FRAME_REL * float(np.max(values))


def _require_positive(values, what: str):
    """Raise the GridError of a reading that is _negative."""
    if _negative(values):
        raise GridError(f"the frame operator's symbol is negative ({what} min "
                         f"{float(np.min(values)):.3e}, max {float(np.max(values)):.3e}): "
                         "the grid does not represent S_g; raise --N or lower --radius")


def _symbol_bounds(coeff: LatticeSeq):
    """(A, B, residuals) with A ≤ F ≤ B on the whole torus, for the symbol
    F = Σ c_n e^{2πi(n₂t₁ + n₁t₂)} of the Laurent operator f ↦ f·c.

    Every t lies within δ = (h₁/2, h₂/2) of a mesh point t₀, so by Taylor's
    theorem |F(t) − F(t₀)| ≤ |∂₁F(t₀)|δ₁ + |∂₂F(t₀)|δ₂ + ½·4π²Σ(|n₂|δ₁ + |n₁|δ₂)²|c_n|,
    and A and B are the mesh extremes of F ∓ that bound.  The mesh starts at
    SYMBOL_MESH points a side and doubles the side with the larger second-order
    term until the widening past the mesh extremes ("mesh_error") is at most
    MESH_REL·A, or the mesh holds MESH_POINTS points.
    """
    c, (n1, n2) = coeff.values, coeff.index.T
    weights = (c, 2j * np.pi * n2 * c, 2j * np.pi * n1 * c)   # F, ∂F/∂t₁, ∂F/∂t₂
    n1, n2 = np.abs(n1), np.abs(n2)                           # the remainder reads |n|
    moments = np.sum(n2 ** 2 * np.abs(c)), np.sum(n1 ** 2 * np.abs(c))  # of t₁, t₂
    shape = [SYMBOL_MESH if m > 0 else 1 for m in moments]   # F is constant along t_j
    while True:
        f, d1, d2 = (v.real for v in _symbol_mesh(coeff, weights, shape))
        _require_positive(f, "mesh")
        h1, h2 = 0.5 / shape[0], 0.5 / shape[1]
        drift = (h1 * np.abs(d1) + h2 * np.abs(d2)
                 + 2 * np.pi ** 2 * np.sum((n2 * h1 + n1 * h2) ** 2 * np.abs(c)))
        a_est, b_est = float((f - drift).min()), float((f + drift).max())
        error = max(float(f.min()) - a_est, b_est - float(f.max()))
        if (error <= MESH_REL * a_est or shape[0] * shape[1] >= MESH_POINTS
                or not _is_frame(f.min(), f.max())):   # no finer mesh makes it a frame
            return a_est, b_est, {"mesh": shape, "mesh_error": error}
        shape[int(moments[1] * h2 ** 2 > moments[0] * h1 ** 2)] *= 2


def _rayleigh_ritz(sys: FrameSystem, seed: int):
    """Estimated frame bounds (A, B, residuals) from Rayleigh quotients of S_g.

    The estimate restricts S_g to the span of PROBES random band-concentrated
    probes (Rayleigh-Ritz): A is the smallest Ritz value, and B the largest
    refined by 15 power steps, 41 applies of S_g in all.  The probes stay
    clear of the periodisation seam, where the adjoint modulations by
    1/(αq) need not be L-periodic.  The residuals are "rayleigh_B" of the
    last power iterate and "rayleigh_A" of the bottom Ritz vector.
    """
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
    _require_positive(evals, "Ritz")

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
    return a_est, b_est, {
        "rayleigh_B": norm(sys.apply(v) - b_est * v) / (scale * norm(v)),
        "rayleigh_A": norm(sys.apply(u) - a_est * u) / (scale * norm(u)),
    }


def _lanczos(apply_op, start: GridSignal, steps: int):
    """Lanczos tridiagonalization with full reorthogonalization.

    One orthonormal basis v₁ = start/‖start‖, v₂, … of the Krylov space,
    extended step by step: yields (basis vectors, α, H) at every dimension
    k ≤ `steps`, and last when the Krylov space becomes invariant.  The
    (k+1)×k Hessenberg H holds every coefficient a step removes, three-term
    and reorthogonalization, so apply_op·V_k = V_{k+1}·H, self-adjoint
    apply_op or not; α₁…α_k and H's subdiagonal make the Lanczos tridiagonal
    T_k.  The lists are live, not copies; H is a view.
    """
    spec, hess = start.spec, np.zeros((17, 16), complex)
    vs, alphas = [start.values.ravel() / (norm(start) / np.sqrt(spec.dx))], []
    for j in range(steps):
        if j == hess.shape[1]:   # H doubles as the basis outgrows it
            hess = np.pad(hess, ((0, j), (0, j)))
        w = apply_op(GridSignal(spec, vs[-1].reshape(spec.q, spec.N))).values.ravel()
        hess[j, j] = a = np.vdot(vs[-1], w).real
        alphas.append(a)
        w = w - a * vs[-1]
        if j > 0:
            hess[j - 1, j] = hess[j, j - 1]
            w = w - hess[j - 1, j] * vs[-2]
        for i, u in enumerate(vs):  # full reorthogonalization
            c = np.vdot(u, w)
            hess[i, j] += c
            w = w - c * u
        hess[j + 1, j] = b = float(np.linalg.norm(w))
        yield vs, alphas, hess[:j + 2, :j + 1]
        if b < 1e-14:
            return
        vs.append(w / b)


def _ritz(alphas, hess, k: int):
    """Eigenpairs of T_k, the Ritz pairs of S_g on the first k Lanczos vectors.
    T_k leads every later T, so Ritz values interlace: once a k fails
    _require_positive, every larger k does."""
    beta = hess.diagonal(-1)[:k - 1].real
    return np.linalg.eigh(np.diag(alphas[:k]) + np.diag(beta, 1) + np.diag(beta, -1))


def _krylov_window(g: GridSignal, basis, y) -> GridSignal:
    """‖g‖·V·y: the window of coefficients y on the first y.size vectors of a
    Lanczos basis started at g."""
    spec = g.spec
    values = (np.array(basis[:y.size]).T @ y) * (norm(g) / np.sqrt(spec.dx))
    return GridSignal(spec, values.reshape(spec.q, spec.N))


def _krylov_reading(sys: FrameSystem, tol: float, max_iter: int):
    """(basis, α, H, m): the Lanczos run of S_g started at g, and the Krylov
    dimension m at which both canonical windows are read off it: where the
    dual reading h_k = ‖g‖·V_k·H_k⁻¹e₁ (k ≤ `max_iter`) stops.  With
    v_{k+1} = p_k(S_g)v₁, the residual S_g h_k − g is parallel to v_{k+1} and
    its relative size is 1/|p_k(0)|, where h_{k+1,k}·p_k(0) = −Σ_{i≤k}
    h_{ik}·p_{i−1}(0): exact by the Arnoldi relation, self-adjoint apply or
    not, with no further apply.  The run stops at the first k whose residual
    is at most min(CG_TARGET, tol); at `max_iter`, m is the k of least
    residual if that is within `tol`, else ConvergenceError.  Past the first
    k whose Ritz values fail _require_positive (checked at powers of two,
    then bisected) the grid no longer represents S_g: m is the best earlier
    k if its residual is within `tol`, else the GridError.
    """
    residuals, u, k = [1.0], np.ones(1), 0   # u_j = p_j(0)·residuals[-1]
    for basis, alphas, hess in _lanczos(sys.apply, sys.window, max_iter):
        k = hess.shape[1]
        s = hess[:k, -1] @ u
        ratio = abs(hess[k, -1]) / abs(s)   # of the residuals at k and k − 1
        residuals.append(residuals[-1] * ratio)
        if residuals[-1] <= min(CG_TARGET, tol) or (
                k & (k - 1) == 0 and _negative(_ritz(alphas, hess, k)[0])):
            break
        u = np.append(u, -s / hess[k, -1]) * ratio
    good = 0 if k and _negative(_ritz(alphas, hess, k)[0]) else k   # dimensions ≤ good pass
    while k - good > 1:   # bisection: `good` passes (0 vacuously), k fails
        mid = (good + k) // 2
        good, k = (good, mid) if _negative(_ritz(alphas, hess, mid)[0]) else (mid, k)
    if min(residuals[1:good + 1], default=np.inf) > tol:
        if good < k:
            _require_positive(_ritz(alphas, hess, k)[0], "Ritz")
        raise ConvergenceError(f"Lanczos: dual residual {min(residuals):.3e} above "
                               f"tol {tol:.1e} by Krylov dimension {k}")
    return basis, alphas, hess, int(np.argmin(residuals[1:good + 1])) + 1


def canonical_dual(sys: FrameSystem, tol: float = 1e-7, max_iter: int = 500,
                   reading=None) -> GridSignal:
    """Canonical dual window h = S_g^{-1} g = ‖g‖·V_m·H_m⁻¹e₁ (full
    orthogonalization) at the Krylov dimension m of _krylov_reading(sys, tol,
    max_iter), or of `reading()`, which returns that reading when a caller
    keeps it (Pipeline's, so that its dual and tight window read one run)."""
    basis, _, hess, m = reading() if reading else _krylov_reading(sys, tol, max_iter)
    return _krylov_window(sys.window, basis, np.linalg.solve(hess[:m, :m], np.eye(m)[0]))


def canonical_tight(sys: FrameSystem, reading=None) -> GridSignal:
    """Canonical tight window t = S_g^{-1/2} g = ‖g‖·V_m·T_m^{-1/2}e₁ at the
    dual's Krylov dimension m (the reading of canonical_dual at its defaults,
    or `reading()` as there); GridError when T_m's Ritz values fail
    _require_positive.  t is tight exactly when WR(t, t) vanishes (duality
    principle), which the caller judges, as it judges the dual's."""
    basis, alphas, hess, m = reading() if reading else _krylov_reading(sys, 1e-7, 500)
    evals, evecs = _ritz(alphas, hess, m)
    _require_positive(evals, "Ritz")
    evals = np.maximum(evals, evals[-1] * 1e-15)
    return _krylov_window(sys.window, basis, evecs @ (evecs[0] / np.sqrt(evals)))


def wexler_raz_residual(g: GridSignal, h: GridSignal, params: TorusParams,
                        radius: float) -> float:
    """ℓ¹ distance of the adjoint-lattice pairing ⟨g,h⟩ from δ₀.

    Vanishes exactly when (g,h) generate dual frames (biorthogonality
    ⟨h, π°(ν°)g⟩ = q|αβ|·δ_{ν°,0}).
    """
    delta = LatticeSeq.delta(params, LatticeKind.ADJOINT)
    return l1_diff(inner_right(g, h, params, radius), delta)


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
    then the Gram matrix is Laurent, and g is a Riesz sequence over the
    adjoint lattice iff a frame over Λ×Γ: `is_riesz` is _is_frame on the
    bounds of frame_bounds (_symbol_bounds, grid rule included), false for a
    zero window (A = B = 0).  A mesh `grid` below 1 is refused.
    """
    if grid < 1:
        raise ValueError(f"Laurent mesh must be at least 1, got {grid}")
    if not params.integer_adjoint_twist:
        raise ValueError(
            "Laurent structure unavailable: (alpha*beta*q^2)^-1 + r°s°/q "
            f"= {params.adjoint_twist!r} is not an integer")
    _check_params_spec(params, g.spec)
    coeff = inner_right(g, g, params, radius)   # ⟨g,π°g⟩ up to the q|αβ| scale
    a_est, b_est, _ = _symbol_bounds(coeff)
    (f_vals,) = _symbol_mesh(coeff, (params.density * coeff.values,), (grid, grid))
    return LaurentSymbol(
        t=np.arange(grid) / grid, values=f_vals.real,
        min_abs=float(np.abs(f_vals).min()), max_abs=float(np.abs(f_vals).max()),
        max_imag=float(np.abs(f_vals.imag).max()), is_riesz=_is_frame(a_est, b_est))


def lift_scalar_window(g_scalar: GridSignal, params: TorusParams) -> GridSignal:
    """Replicate a 1-channel window across all q channels.

    Under the integer-twist condition the lift generates a frame for Λ×Γ
    whenever the scalar window generates one over αℤ×(qβ)ℤ, whose adjoint
    twist 1/(αβq) = q·θ̃ − r°s° is an integer: frame_bounds checks this at
    the default radius from the scalar symbol, and its NotAFrameError carries
    the scalar bounds, as `frame` reports them on that lattice.
    """
    if g_scalar.spec.q != 1:
        raise ValueError("lift_scalar_window expects a single-channel window")
    if params.q == 1:
        return g_scalar
    scalar = params.scalar_lattice
    if scalar is None:
        raise ValueError(f"lift condition violated: adjoint twist "
                         f"{params.adjoint_twist!r} is not an integer")
    frame_bounds(FrameSystem(g_scalar, scalar))
    return lift_channels(g_scalar, params.q)


def lift_channels(f: GridSignal, q: int) -> GridSignal:
    """The q-channel signal with every channel equal to the 1-channel f."""
    return GridSignal(GridSpec(L=f.spec.L, N=f.spec.N, q=q), np.repeat(f.values, q, axis=0))


def adjoint_shift_family(g: GridSignal, params: TorusParams,
                         radius: float) -> np.ndarray:
    """Matrix whose columns are π°(ν°)g over the truncated adjoint lattice,
    refused before allocation above BOX_BUDGET cells."""
    m1, m2 = (2 * k + 1 for k in index_bounds(params, LatticeKind.ADJOINT, radius))
    if m1 * m2 * g.values.size > BOX_BUDGET:
        raise ValueError(f"a {m1}x{m2} adjoint shift family of {g.values.size}"
                         f"-sample columns exceeds {BOX_BUDGET} cells")
    n1s, n2s = _box_axes(params, LatticeKind.ADJOINT, radius, g.spec)
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


def reconstruction_residual(probes, g: GridSignal, h: GridSignal,
                            params: TorusParams, radius: float) -> float:
    """Worst relative error of f ≈ Σ ⟨f,π(ν)g⟩ π(ν)h over the probes f, the sum
    over Λ×Γ ∩ {max(|λ|,|γ|) ≤ radius}.  The atoms of g are built once, and
    those of h once unless h is g; coefficients at most PRUNE_TOL are
    dropped, as inner_left does."""
    _check_same_spec(g, h)
    _check_params_spec(params, g.spec)
    gen = lattice_generators(params, LatticeKind.TIME_FREQ)
    n1s, n2s = _box_axes(params, LatticeKind.TIME_FREQ, radius, g.spec)
    tg, mod = _atoms(g, gen, n1s, n2s)
    th = tg if h is g else _translates(h, gen, n1s)

    def residual(f: GridSignal) -> float:
        _check_same_spec(f, g)
        v = _analyse(f, tg, mod)
        rec = _synthesise(th, np.where(np.abs(v) > PRUNE_TOL, v, 0.0) @ mod, f.spec)
        return norm(rec - f) / norm(f)
    return max(residual(f) for f in probes)
