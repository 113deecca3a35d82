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

import math
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
    are read-only views of the nonzero entries.  The box columns that hold
    an entry lie a multiple of `col_step` columns from the first: `from_box`
    sets it to the gcd of those offsets (0 when one column holds them all),
    a scalar multiple keeps it, and the default 1 claims nothing.
    """

    params: TorusParams
    kind: LatticeKind
    origin: tuple
    box: np.ndarray
    col_step: int = 1

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
        rows, cols = keep.any(axis=1).nonzero()[0].tolist(), keep.any(axis=0).nonzero()[0].tolist()
        if not rows:
            return LatticeSeq(params, kind, (0, 0), _zeros(0, 0))
        trim = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
        # col_step, 1 at once when the first two columns are adjacent
        step = 1 if cols[1:2] == [cols[0] + 1] else math.gcd(*[j - cols[0] for j in cols])
        return LatticeSeq(params, kind, (origin[0] + rows[0], origin[1] + cols[0]),
                          np.where(keep, box, 0.0)[trim], step)

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
        return LatticeSeq.from_box(self.params, self.kind, *_aligned_sum(self, other, 1))

    def __sub__(self, other):
        return LatticeSeq.from_box(self.params, self.kind, *_aligned_sum(self, other, -1))

    def __mul__(self, scalar):
        return LatticeSeq(self.params, self.kind, self.origin, self.box * scalar, self.col_step)

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self


def _check_compatible(a: LatticeSeq, b: LatticeSeq):
    if a.params != b.params or a.kind != b.kind:
        raise ValueError("lattice mismatch: sequences live on different lattices")


def _aligned_sum(a: LatticeSeq, b: LatticeSeq, sign: int):
    """(origin, box) of a + sign·b, sign = ±1, unpruned, on the smallest box
    holding both; each entry is a's plus or minus b's, so a sum with one
    side's entry alone is that entry exactly."""
    _check_compatible(a, b)
    parts = [s for s in (a, b) if s.box.size]
    if not parts:
        return (0, 0), _zeros(0, 0)
    lo = [min(s.origin[k] for s in parts) for k in (0, 1)]
    hi = [max(s.origin[k] + s.box.shape[k] for s in parts) for k in (0, 1)]
    out = _zeros(hi[0] - lo[0], hi[1] - lo[1])
    for s, add in ((a, True), (b, sign > 0)):
        (i, j), (rows, cols) = (s.origin[0] - lo[0], s.origin[1] - lo[1]), s.box.shape
        if add:
            out[i:i + rows, j:j + cols] += s.box
        else:
            out[i:i + rows, j:j + cols] -= s.box
    return lo, out


def l1_diff(a: LatticeSeq, b: LatticeSeq) -> float:
    """Exact ℓ¹ norm of a − b: no pruning, the nonzero entries summed in
    lexicographic order."""
    box = _aligned_sum(a, b, -1)[1]
    return float(np.sum(np.abs(box[box != 0])))


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
    """♮-product as one batched matrix product over the nonzero rows i of a₁:

        out[i:i+r₂, :] += (a₂ · phase[i]) @ Toep(a₁[i])ᵀ,

    with Toep(a₁[i])[J, v] = a₁[i, J−v] the (c₁+c₂−1) × c₂ Toeplitz matrix of
    the row, copied from a reversed strided view of the rows padded with c₂−1
    zeros on each side.  Both boxes are first sliced to every step-th column,
    step the gcd of their `col_step`s: the product runs on those columns, with
    the phase at their true n₂, and fills every step-th column of the output
    box.  An entry that no a₁(k)·a₂(m−k) reaches, such as one in the columns
    between, is a sum of products with 0, an exact 0, so the support is that
    of the entry-by-entry sum.  The rows go in groups and the Toeplitz columns
    in blocks, so that the stacked factors and products of one step stay
    within BOX_BUDGET cells; a factor wider than that takes one product per
    block of its columns.
    """
    _check_compatible(a1, a2)
    if not a1.box.size or not a2.box.size:
        return LatticeSeq.from_box(a1.params, a1.kind, (0, 0), _zeros(0, 0))
    col = math.gcd(a1.col_step, a2.col_step) or 1
    b1, b2 = a1.box[:, ::col], a2.box[:, ::col]
    (r1, c1), (r2, c2) = b1.shape, b2.shape
    width = c1 + c2 - 1
    full = _zeros(r1 + r2 - 1, a1.box.shape[1] + a2.box.shape[1] - 1)
    out = full[:, :col * width:col]   # the columns that products reach
    rows = b1.any(axis=1).nonzero()[0]
    phase = _twist_phase(a1.params, a1.kind, a1.origin[0] + rows,
                         np.arange(a2.origin[1], a2.origin[1] + col * c2, col))
    block = min(width, BOX_BUDGET // c2)
    group = max(1, min(rows.size, BOX_BUDGET // (block * c2 + r2 * c2 + r2 * block)))
    padded = np.zeros((group, width + c2 - 1), dtype=np.complex128)
    step = padded.itemsize   # window[k, J, v] = padded[k, c2−1 + J − v]
    window = np.ndarray((group, width, c2), padded.dtype, padded, (c2 - 1) * step,
                        (padded.strides[0], step, -step))
    toep = np.empty((group, block, c2), dtype=np.complex128)
    for g in range(0, rows.size, group):
        rs = rows[g:g + group]
        padded[:rs.size, c2 - 1:width] = b1[rs]
        phased = b2 * phase[g:g + group, None, :]
        for j in range(0, width, block):
            cols = toep[:rs.size, :width - j]
            cols[:] = window[:rs.size, j:j + block]
            for i, prod in zip(rs.tolist(), phased @ cols.swapaxes(1, 2)):
                out[i:i + r2, j:j + block] += prod
    origin = (a1.origin[0] + a2.origin[0], a1.origin[1] + a2.origin[1])
    return LatticeSeq.from_box(a1.params, a1.kind, origin, full)


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


def trace_pairing(a: LatticeSeq, b: LatticeSeq) -> complex:
    """τ(a, b) = tr(a♮b) = Σ_k a(k)·b(−k)·exp(−2πi·t·k₁k₂) on Λ×Γ, summed over
    the overlap of a's box with b's reflected box, with no product formed.
    A value at most PRUNE_TOL is 0, as trace_l reads the pruned (a♮b)(0)."""
    _check_compatible(a, b)
    if a.kind is not LatticeKind.TIME_FREQ:
        raise ValueError("trace_pairing expects sequences on the time-frequency lattice")
    lo = [max(a.origin[k], 1 - b.origin[k] - b.box.shape[k]) for k in (0, 1)]
    hi = [min(a.origin[k] + a.box.shape[k], 1 - b.origin[k]) for k in (0, 1)]
    if lo[0] >= hi[0] or lo[1] >= hi[1]:
        return 0.0j
    a_part = a.box[tuple(slice(l - o, h - o) for l, h, o in zip(lo, hi, a.origin))]
    b_part = b.box[tuple(slice(1 - h - o, 1 - l - o) for l, h, o in zip(lo, hi, b.origin))]
    phase = np.conj(_twist_phase(a.params, a.kind, np.arange(lo[0], hi[0]),
                                 np.arange(lo[1], hi[1])))
    tau = complex(np.sum(a_part * b_part[::-1, ::-1] * phase))
    return tau if abs(tau) > PRUNE_TOL else 0.0j


def trace_r(b: LatticeSeq) -> complex:
    """tr°(b) = q|αβ|·b(0) on the adjoint lattice."""
    if b.kind is not LatticeKind.ADJOINT:
        raise ValueError("trace_r expects a sequence on the adjoint lattice")
    return b.params.density * b.value_at(0, 0)


# -- the atom kernel ---------------------------------------------------------


def _box_axes(params: TorusParams, kind: LatticeKind, radius: float, spec: GridSpec):
    """Generator indices |n₁| ≤ K₁, |n₂| ≤ K₂ of the index box at `radius`,
    refused from K₁, K₂ alone when its atoms on `spec` exceed BOX_BUDGET."""
    k1, k2 = index_bounds(params, kind, radius)
    _check_atom_box(2 * k1 + 1, 2 * k2 + 1, spec)
    return np.arange(-k1, k1 + 1), np.arange(-k2, k2 + 1)


def _atoms(g: GridSignal, gen, n1s, n2s):
    """The Gabor atoms E_{f_step·b, f_slope·b} T_{t_step·a, t_slope·a} g of the
    index box n1s × n2s, as two factors: the (M₁, qN) translated windows `tg`
    and the (M₂, qN) modulations `mod`; atom (a, b) is mod[b]·tg[a].  Refused
    before allocation when the box or the two factors exceed BOX_BUDGET cells.
    """
    _check_atom_box(len(n1s), len(n2s), g.spec)
    return _translates(g, gen, n1s), _modulations(g.spec, gen, n2s)


def _check_atom_box(m1: int, m2: int, spec: GridSpec):
    size = spec.q * spec.N
    if max(m1 * m2, (m1 + m2) * size) > BOX_BUDGET:
        raise ValueError(f"a {m1}x{m2} box of {size}-sample atoms exceeds {BOX_BUDGET} cells")


def _translates(g: GridSignal, gen, n1s) -> np.ndarray:
    """The (M₁, qN) translated windows T_{t_step·a, t_slope·a} g, a in n1s."""
    t_step, t_slope, _, _ = gen
    spec = g.spec
    rows = (np.arange(spec.q)[None, :] - (t_slope * n1s)[:, None]) % spec.q
    tg = np.fft.fft(g.values, axis=1)[rows]       # channel k of row a: ĝ(k − l_a)
    tg *= np.exp(-2j * np.pi * np.outer(t_step * n1s, spec.freqs()))[:, None, :]
    return np.fft.ifft(tg, axis=2).reshape(len(n1s), spec.q * spec.N)


def _modulations(spec: GridSpec, gen, n2s) -> np.ndarray:
    """The (M₂, qN) modulations E_{f_step·b, f_slope·b}, b in n2s."""
    _, _, f_step, f_slope = gen
    xph = np.exp(2j * np.pi * np.outer(f_step * n2s, spec.x()))
    chph = np.exp(2j * np.pi * np.outer(f_slope * n2s, np.arange(spec.q)) / spec.q)
    return (chph[:, :, None] * xph[:, None, :]).reshape(len(n2s), spec.q * spec.N)


def _analyse(f: GridSignal, tg: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """V[a,b] = ⟨f, mod[b]·tg[a]⟩, one GEMM."""
    return f.spec.dx * np.conj((np.conj(f.values).reshape(1, -1) * tg) @ mod.T)


def _synthesise(tg: np.ndarray, table: np.ndarray, spec: GridSpec) -> GridSignal:
    """Σ_a tg[a]·table[a]; with table = coeff @ mod, the synthesis
    Σ_{a,b} coeff[a,b]·mod[b]·tg[a] of the atoms."""
    return GridSignal(spec, np.einsum("ak,ak->k", tg, table).reshape(spec.q, spec.N))


def _right_action(b: LatticeSeq, spec: GridSpec):
    """f ↦ f·b on signals of `spec`, with the half that does not read f built
    once: the (rows, qN) table (b·conj φ(ν°,ν°)) @ mod over the rows n₁ of b
    that hold a nonzero entry, against which the translates of f sum."""
    n1s, n2s = b.axes()
    _check_atom_box(len(n1s), len(n2s), spec)
    gen = lattice_generators(b.params, LatticeKind.ADJOINT)
    coeff = b.box * np.conj(_twist_phase(b.params, LatticeKind.ADJOINT, n1s, n2s))
    rows = coeff.any(axis=1)
    n1s, table = n1s[rows], coeff[rows] @ _modulations(spec, gen, n2s)
    return lambda f: _synthesise(_translates(f, gen, n1s), table, spec)


def _check_params_spec(params: TorusParams, spec: GridSpec):
    if params.q != spec.q:
        raise ValueError(f"channel mismatch: lattice q={params.q}, grid q={spec.q}")


# -- module actions and lattice inner products -------------------------------


def act_left(a: LatticeSeq, f: GridSignal) -> GridSignal:
    """a·f = Σ a(ν) π(ν) f for a on Λ×Γ."""
    if a.kind is not LatticeKind.TIME_FREQ:
        raise ValueError("act_left expects a time-frequency lattice sequence")
    _check_params_spec(a.params, f.spec)
    tg, mod = _atoms(f, lattice_generators(a.params, LatticeKind.TIME_FREQ), *a.axes())
    return _synthesise(tg, a.box @ mod, f.spec)


def act_right(f: GridSignal, b: LatticeSeq) -> GridSignal:
    """f·b = Σ b(ν°) π°(ν°) f for b on the adjoint lattice."""
    if b.kind is not LatticeKind.ADJOINT:
        raise ValueError("act_right expects an adjoint lattice sequence")
    _check_params_spec(b.params, f.spec)
    return _right_action(b, f.spec)(f)


def _pairing(f: GridSignal, g: GridSignal, params: TorusParams, kind: LatticeKind,
             radius: float):
    """⟨f, π(ν)g⟩ on the index box of `kind` at `radius`, and the box axes."""
    _check_same_spec(f, g)
    _check_params_spec(params, f.spec)
    n1s, n2s = _box_axes(params, kind, radius, f.spec)
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
