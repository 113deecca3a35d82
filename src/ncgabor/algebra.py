"""Twisted convolution algebras on truncated lattices and the module actions.

Finitely supported sequences a on Λ×Γ (or b on Γ⊥×Λ⊥) stand in for the
weighted ℓ¹ algebra elements, each stored as a complex box over a rectangle
of generator index pairs (n₁,n₂).  For lattice points indexed by integer
pairs the 2-cocycle collapses to a single twist constant t per lattice:

    (a₁ ♮ a₂)(m) = Σ_k a₁(k) a₂(m−k) · exp(2πi·t·k₁(m−k)₂),
    (a*)(m)      = exp(2πi·t·m₁m₂) · conj(a(−m)),

with t = −θ on Λ×Γ and t = +θ̃ on the adjoint lattice, θ̃ = (αβq²)⁻¹+r°s°/q.
The adjoint convention is the one under which the right action composes,
(f·b₁)·b₂ = f·(b₁♮b₂).  Left/right actions and the two lattice-valued
inner products are one GEMM each over the atoms of an index box, which
`_atoms` builds as translated windows times modulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import LatticeKind, TorusParams, index_bounds, lattice_generators, lattice_twist
from .signal import GridSignal, GridSpec, _check_same_spec

PRUNE_TOL = 1e-14  # entries below this magnitude are dropped after arithmetic
BOX_BUDGET = 1 << 22  # cells (64 MiB); larger boxes are refused before allocation


def _zeros(rows, cols) -> np.ndarray:
    """Zero box of the given shape, refused above BOX_BUDGET cells."""
    if rows * cols > BOX_BUDGET:
        raise ValueError(f"a {rows}x{cols} lattice box exceeds {BOX_BUDGET} cells")
    return np.zeros((rows, cols), dtype=np.complex128)


@dataclass(frozen=True)
class LatticeSeq:
    """Finitely supported complex sequence on one of the two lattices.

    `box[i, j]` is the entry at the generator pair (n₁,n₂) = origin + (i,j),
    trimmed by `from_box` to the entries above the prune threshold.
    `index`, an (M,2) integer array in lexicographic order, and `values`
    are read-only views of the nonzero entries.
    """

    params: TorusParams
    kind: LatticeKind
    origin: tuple
    box: np.ndarray

    def __post_init__(self):
        box = np.asarray(self.box, dtype=np.complex128)
        box.setflags(write=False)
        object.__setattr__(self, "origin", (int(self.origin[0]), int(self.origin[1])))
        object.__setattr__(self, "box", box)

    @cached_property
    def index(self) -> np.ndarray:
        idx = np.argwhere(self.box != 0) + self.origin
        idx.setflags(write=False)
        return idx

    @cached_property
    def values(self) -> np.ndarray:
        vals = self.box[self.box != 0]
        vals.setflags(write=False)
        return vals

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_box(params, kind, origin, box, *, prune=PRUNE_TOL):
        """Canonical form: zero the entries not above `prune`, trim to the rest."""
        keep = np.abs(box) > prune
        rows, cols = np.flatnonzero(keep.any(axis=1)), np.flatnonzero(keep.any(axis=0))
        if not rows.size:
            return LatticeSeq(params, kind, (0, 0), _zeros(0, 0))
        trim = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
        return LatticeSeq(params, kind, (origin[0] + rows[0], origin[1] + cols[0]),
                          np.where(keep, box, 0.0)[trim])

    @staticmethod
    def from_entries(params, kind, index, values, *, prune=PRUNE_TOL):
        """Sum the values of repeated indices into a box, then `from_box`."""
        index = np.asarray(index, dtype=np.int64).reshape(-1, 2)
        values = np.asarray(values, dtype=np.complex128).reshape(-1)
        if not index.shape[0]:
            return LatticeSeq.from_box(params, kind, (0, 0), _zeros(0, 0))
        lo, hi = index.min(axis=0), index.max(axis=0)
        box = _zeros(int(hi[0]) - int(lo[0]) + 1, int(hi[1]) - int(lo[1]) + 1)
        np.add.at(box, tuple((index - lo).T), values)
        return LatticeSeq.from_box(params, kind, lo, box, prune=prune)

    @staticmethod
    def delta(params, kind):
        """δ₀, the unit of the twisted algebra."""
        return LatticeSeq(params, kind, (0, 0), np.ones((1, 1)))

    # -- coordinates -------------------------------------------------------

    def axes(self):
        """Generator indices n₁ of the box rows and n₂ of its columns."""
        return (self.origin[0] + np.arange(self.box.shape[0]),
                self.origin[1] + np.arange(self.box.shape[1]))

    def phase_coords(self):
        """(λ, l, γ, c) arrays of the support points."""
        t_step, t_slope, f_step, f_slope = lattice_generators(self.params, self.kind)
        n1, n2 = self.index[:, 0], self.index[:, 1]
        q = self.params.q
        return t_step * n1, (t_slope * n1) % q, f_step * n2, (f_slope * n2) % q

    def value_at(self, n1: int, n2: int) -> complex:
        i, j = n1 - self.origin[0], n2 - self.origin[1]
        inside = 0 <= i < self.box.shape[0] and 0 <= j < self.box.shape[1]
        return complex(self.box[i, j]) if inside else 0.0j

    def l1_norm(self) -> float:
        return float(np.sum(np.abs(self.values)))

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        _check_compatible(self, other)
        return LatticeSeq.from_entries(self.params, self.kind,
                                       np.vstack([self.index, other.index]),
                                       np.concatenate([self.values, other.values]))

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        return LatticeSeq(self.params, self.kind, self.origin, self.box * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self


def _check_compatible(a: LatticeSeq, b: LatticeSeq):
    if a.params != b.params or a.kind != b.kind:
        raise ValueError("lattice mismatch: sequences live on different lattices")


def l1_diff(a: LatticeSeq, b: LatticeSeq) -> float:
    """Exact ℓ¹ norm of a − b (no pruning; supports aligned automatically)."""
    _check_compatible(a, b)
    return LatticeSeq.from_entries(a.params, a.kind, np.vstack([a.index, b.index]),
                                   np.concatenate([a.values, -b.values]),
                                   prune=0.0).l1_norm()


# -- twisted algebra ---------------------------------------------------------


def _twist_phase(params: TorusParams, kind: LatticeKind, n1s, n2s) -> np.ndarray:
    """exp(2πi·t·n₁n₂) on the grid n1s × n2s, t = real + num/q = lattice_twist.

    The rational part enters as (num·n₁n₂ mod q)/q, reduced in integers, and
    the sum is reduced mod 1 before it is scaled by 2π, so only the float
    part's rounding grows with n₁n₂.  The one evaluation of the cocycle phase.
    """
    real, num = lattice_twist(params, kind)
    n = np.outer(n1s, n2s)
    return np.exp(2j * np.pi * ((real * n + num * n % params.q / params.q) % 1.0))


def twisted_conv(a1: LatticeSeq, a2: LatticeSeq) -> LatticeSeq:
    """♮-product, one matrix product per nonzero row i of a₁:

        out[i:i+r₂, :] += (a₂ · phase[i]) @ Toep(a₁[i])ᵀ,

    with Toep(a₁[i])[J, v] = a₁[i, J−v] the (c₁+c₂−1) × c₂ Toeplitz matrix of
    the row, copied from a reversed strided view of the row padded with c₂−1
    zeros on each side.  An entry that no a₁(k)·a₂(m−k) reaches is a sum of
    products with 0, an exact 0, so the support is that of the entry-by-entry
    sum.  The Toeplitz matrix is copied BOX_BUDGET cells at a time at most, so
    a factor wider than that takes one product per block of its rows.
    """
    _check_compatible(a1, a2)
    if not a1.values.size or not a2.values.size:
        return LatticeSeq.from_box(a1.params, a1.kind, (0, 0), _zeros(0, 0))
    (r1, c1), (r2, c2) = a1.box.shape, a2.box.shape
    width = c1 + c2 - 1
    out = _zeros(r1 + r2 - 1, width)
    padded = np.zeros(width + c2 - 1, dtype=np.complex128)
    step = padded.itemsize   # window[J, v] = padded[c2−1 + J − v]
    window = np.ndarray((width, c2), padded.dtype, padded, (c2 - 1) * step, (step, -step))
    block = min(width, BOX_BUDGET // c2)
    toep = np.empty((block, c2), dtype=np.complex128)
    phase = _twist_phase(a1.params, a1.kind, a1.axes()[0], a2.axes()[1])
    for i in np.flatnonzero(a1.box.any(axis=1)):
        padded[c2 - 1:width] = a1.box[i]
        phased = a2.box * phase[i]
        for j in range(0, width, block):
            rows = toep[:width - j]
            rows[:] = window[j:j + block]
            out[i:i + r2, j:j + block] += phased @ rows.T
    origin = (a1.origin[0] + a2.origin[0], a1.origin[1] + a2.origin[1])
    return LatticeSeq.from_box(a1.params, a1.kind, origin, out)


def twisted_star(a: LatticeSeq) -> LatticeSeq:
    """Twisted involution; satisfies (a*)* = a and (a♮b)* = b*♮a*."""
    n1s, n2s = (-n[::-1] for n in a.axes())
    diag = _twist_phase(a.params, a.kind, n1s, n2s)
    origin = (-(a.origin[0] + a.box.shape[0] - 1), -(a.origin[1] + a.box.shape[1] - 1))
    return LatticeSeq.from_box(a.params, a.kind, origin, diag * np.conj(a.box[::-1, ::-1]))


def trace_l(a: LatticeSeq) -> complex:
    """tr(a) = a(0); tracial and positive on Λ×Γ."""
    if a.kind is not LatticeKind.TIME_FREQ:
        raise ValueError("trace_l expects a sequence on the time-frequency lattice")
    return a.value_at(0, 0)


def trace_r(b: LatticeSeq) -> complex:
    """tr°(b) = q|αβ|·b(0) on the adjoint lattice."""
    if b.kind is not LatticeKind.ADJOINT:
        raise ValueError("trace_r expects a sequence on the adjoint lattice")
    return b.params.density * b.value_at(0, 0)


# -- the atom kernel ---------------------------------------------------------


def _box_axes(params: TorusParams, kind: LatticeKind, radius: float, scale: int = 1):
    """Generator indices |n₁| ≤ scale·K₁, |n₂| ≤ scale·K₂ of the box at `radius`."""
    k1, k2 = index_bounds(params, kind, radius)
    return np.arange(-scale * k1, scale * k1 + 1), np.arange(-scale * k2, scale * k2 + 1)


def _atoms(g: GridSignal, gen, n1s, n2s):
    """The Gabor atoms E_{f_step·b, f_slope·b} T_{t_step·a, t_slope·a} g of the
    index box n1s × n2s, as two factors: the (M₁, qN) translated windows `tg`
    and the (M₂, qN) modulations `mod`; atom (a, b) is mod[b]·tg[a].  Refused
    before allocation when the box or the two factors exceed BOX_BUDGET cells.
    """
    t_step, t_slope, f_step, f_slope = gen
    spec = g.spec
    m1, m2, size = len(n1s), len(n2s), spec.q * spec.N
    if max(m1 * m2, (m1 + m2) * size) > BOX_BUDGET:
        raise ValueError(f"a {m1}x{m2} box of {size}-sample atoms exceeds {BOX_BUDGET} cells")
    rows = (np.arange(spec.q)[None, :] - (t_slope * n1s)[:, None]) % spec.q
    tg = np.fft.fft(g.values, axis=1)[rows]       # channel k of row a: ĝ(k − l_a)
    tg *= np.exp(-2j * np.pi * np.outer(t_step * n1s, spec.freqs()))[:, None, :]
    tg = np.fft.ifft(tg, axis=2).reshape(m1, size)
    xph = np.exp(2j * np.pi * np.outer(f_step * n2s, spec.x()))
    chph = np.exp(2j * np.pi * np.outer(f_slope * n2s, np.arange(spec.q)) / spec.q)
    return tg, (chph[:, :, None] * xph[:, None, :]).reshape(m2, size)


def _analyse(f: GridSignal, tg: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """V[a,b] = ⟨f, mod[b]·tg[a]⟩, one GEMM."""
    return f.spec.dx * np.conj((np.conj(f.values).reshape(1, -1) * tg) @ mod.T)


def _synthesise(coeff: np.ndarray, tg: np.ndarray, mod: np.ndarray,
                spec: GridSpec) -> GridSignal:
    """Σ_{a,b} coeff[a,b]·mod[b]·tg[a], one GEMM and a sum over a."""
    return GridSignal(spec, np.einsum("ak,ak->k", tg, coeff @ mod).reshape(spec.q, spec.N))


def _check_params_spec(params: TorusParams, spec: GridSpec):
    if params.q != spec.q:
        raise ValueError(f"channel mismatch: lattice q={params.q}, grid q={spec.q}")


# -- module actions and lattice inner products -------------------------------


def act_left(a: LatticeSeq, f: GridSignal) -> GridSignal:
    """a·f = Σ a(ν) π(ν) f for a on Λ×Γ."""
    if a.kind is not LatticeKind.TIME_FREQ:
        raise ValueError("act_left expects a time-frequency lattice sequence")
    _check_params_spec(a.params, f.spec)
    gen = lattice_generators(a.params, LatticeKind.TIME_FREQ)
    return _synthesise(a.box, *_atoms(f, gen, *a.axes()), f.spec)


def act_right(f: GridSignal, b: LatticeSeq) -> GridSignal:
    """f·b = Σ b(ν°) π°(ν°) f for b on the adjoint lattice."""
    if b.kind is not LatticeKind.ADJOINT:
        raise ValueError("act_right expects an adjoint lattice sequence")
    _check_params_spec(b.params, f.spec)
    n1s, n2s = b.axes()
    gen = lattice_generators(b.params, LatticeKind.ADJOINT)
    coeff = b.box * np.conj(_twist_phase(b.params, LatticeKind.ADJOINT, n1s, n2s))  # φ(ν°,ν°)
    return _synthesise(coeff, *_atoms(f, gen, n1s, n2s), f.spec)


def _pairing(f: GridSignal, g: GridSignal, params: TorusParams, kind: LatticeKind,
             radius: float, scale: int = 1):
    """⟨f, π(ν)g⟩ on the index box of `kind` at `radius` (`scale` times as
    wide, as in _box_axes), and the box axes."""
    _check_same_spec(f, g)
    _check_params_spec(params, f.spec)
    n1s, n2s = _box_axes(params, kind, radius, scale)
    return _analyse(f, *_atoms(g, lattice_generators(params, kind), n1s, n2s)), n1s, n2s


def inner_left(f: GridSignal, g: GridSignal, params: TorusParams,
               radius: float) -> LatticeSeq:
    """Sampled STFT ⟨f, π(ν)g⟩ on Λ×Γ ∩ {max(|λ|,|γ|) ≤ radius}."""
    v, n1s, n2s = _pairing(f, g, params, LatticeKind.TIME_FREQ, radius)
    return LatticeSeq.from_box(params, LatticeKind.TIME_FREQ, (n1s[0], n2s[0]), v)


def inner_right(f: GridSignal, g: GridSignal, params: TorusParams,
                radius: float) -> LatticeSeq:
    """Adjoint-lattice pairing (q|αβ|)⁻¹⟨g, π°(ν°)f⟩; linear in g."""
    v, n1s, n2s = _pairing(g, f, params, LatticeKind.ADJOINT, radius)
    v *= _twist_phase(params, LatticeKind.ADJOINT, n1s, n2s)
    v /= params.density
    return LatticeSeq.from_box(params, LatticeKind.ADJOINT, (n1s[0], n2s[0]), v)


# -- serialization ------------------------------------------------------------


def save_seq(a: LatticeSeq, path):
    """Header "alpha beta r s q kind", then rows "n1 n2 re im"."""
    p = a.params
    with open(path, "w") as fh:
        fh.write(f"{p.alpha!r} {p.beta!r} {p.r} {p.s} {p.q} {a.kind.value}\n")
        for (n1, n2), v in zip(a.index, a.values):
            fh.write(f"{n1} {n2} {float(v.real)!r} {float(v.imag)!r}\n")


def load_seq(path) -> LatticeSeq:
    """Read save_seq's format; header fields past the sixth are ignored."""
    with open(path) as fh:
        head = fh.readline().split()
        params = TorusParams(alpha=float(head[0]), beta=float(head[1]),
                             r=int(head[2]), s=int(head[3]), q=int(head[4]))
        kind = LatticeKind(head[5])
        idx, vals = [], []
        for line in fh:
            n1, n2, re, im = line.split()
            idx.append((int(n1), int(n2)))
            vals.append(float(re) + 1j * float(im))
    return LatticeSeq.from_entries(params, kind, idx, vals)
