"""Twisted convolution algebras on truncated lattices and the module actions.

Finitely supported sequences a on Λ×Γ (or b on Γ⊥×Λ⊥) stand in for the
weighted ℓ¹ algebra elements, each a `LatticeSeq` stored as a complex box
over a rectangle of generator index pairs (n₁,n₂) and built by its one
constructor, which casts the box and origin.  For lattice points indexed
by integer pairs the 2-cocycle collapses to a single twist constant t per
lattice:

    (a₁ ♮ a₂)(m) = Σ_k a₁(k) a₂(m−k) · exp(2πi·t·k₁(m−k)₂),
    (a*)(m)      = exp(2πi·t·m₁m₂) · conj(a(−m)),

with t = −θ on Λ×Γ and t = +θ̃ on the adjoint lattice, θ̃ = (αβq²)⁻¹+r°s°/q.
The adjoint convention is the one under which the right action composes,
(f·b₁)·b₂ = f·(b₁♮b₂).  Left/right actions and the two lattice-valued
inner products are one GEMM each over the atoms of an index box, which
`_atoms` builds as translated windows times modulations.
"""

from __future__ import annotations

import itertools
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


@dataclass(frozen=True, init=False)
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

    def __init__(self, params, kind, origin, box, col_step=1):
        """The one constructor: the box cast to complex128 (no copy when it
        is already) and made read-only, the origin made Python ints."""
        box = np.asarray(box, np.complex128)
        box.setflags(write=False)
        vars(self).update(params=params, kind=kind, origin=(int(origin[0]), int(origin[1])),
                          box=box, col_step=col_step)

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
        # a complex128 fill makes the box complex128 whatever the input's dtype
        return LatticeSeq(params, kind, (origin[0] + rows[0], origin[1] + cols[0]),
                          np.where(keep[trim], box[trim], np.complex128(0)), step)

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
        return float(np.abs(self.values).sum())

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        return LatticeSeq.from_box(self.params, self.kind, *_aligned_sum(self, other, 1))

    def __sub__(self, other):
        return LatticeSeq.from_box(self.params, self.kind, *_aligned_sum(self, other, -1))

    def __mul__(self, scalar):
        # a Python complex keeps the box complex128 whatever the scalar's type
        return LatticeSeq(self.params, self.kind, self.origin, self.box * complex(scalar),
                          self.col_step)

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self


def _check_compatible(a: LatticeSeq, b: LatticeSeq):
    if (a.params is not b.params and a.params != b.params) or a.kind is not b.kind:
        raise ValueError("lattice mismatch: sequences live on different lattices")


def _aligned_sum(a: LatticeSeq, b: LatticeSeq, sign: int):
    """(origin, box) of a + sign·b, sign = ±1, unpruned, on the smallest box
    holding both; each entry is a's plus or minus b's, so a sum with one
    side's entry alone is that entry exactly."""
    _check_compatible(a, b)
    if a.origin == b.origin and a.box.shape == b.box.shape:   # one box: no alignment
        return a.origin, a.box + b.box if sign > 0 else a.box - b.box
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
    return float(np.abs(box[box != 0]).sum())


# -- twisted algebra ---------------------------------------------------------


TABLE_CELLS = 1 << 16   # cells the phase-table memo holds at once (1 MiB of complex128)
PHASE_REACH = 1 << 14   # |n₁n₂| up to which cocycle phases are read off a table
_tables: dict = {}      # key → read-only phase table, oldest first


def _memo(key, build) -> np.ndarray:
    """The read-only table of `key`, `build()` on first use.

    The one memo of phase tables, keyed by what the table is a function of:
    the cocycle tables of _twist_phase and the atom phase tables of
    _translates and _modulations.  A new table drops the oldest ones until
    the memo holds at most TABLE_CELLS cells; a table larger than that is
    built and not held.
    """
    table = _tables.get(key)
    if table is None:
        table = build()
        table.setflags(write=False)
        if table.size > TABLE_CELLS:
            return table
        held = sum(t.size for t in _tables.values())
        while held + table.size > TABLE_CELLS:
            held -= _tables.pop(next(iter(_tables))).size
        _tables[key] = table
    return table


def _phase_formula(params: TorusParams, kind: LatticeKind, n) -> np.ndarray:
    """exp(2πi·t·n) at integers n, t = real + num/q = lattice_twist.

    The rational part enters as (num·n mod q)/q, reduced in integers, and
    the sum is reduced mod 1 before it is scaled by 2π, so only the float
    part's rounding grows with n.
    """
    real, num = lattice_twist(params, kind)
    return np.exp(2j * np.pi * ((real * n + num * n % params.q / params.q) % 1.0))


def _twist_phase(params: TorusParams, kind: LatticeKind, n1s, n2s) -> np.ndarray:
    """exp(2πi·t·n₁n₂) on the grid of the integer arrays n1s × n2s.

    The one evaluation of the cocycle phase.  Values are read off a table of
    `_phase_formula` over |n| ≤ h, one per (params, kind) held by _memo, so
    each is bitwise the formula's own.  A table is built on first use with h
    the least power of two (at least 64) above the grid's largest |n₁n₂|, and
    replaced by a larger one when a grid reaches past it; a grid that reaches
    past PHASE_REACH is evaluated by the formula, so no table exceeds
    2·PHASE_REACH + 1 cells.
    """
    n = n1s[:, None] * n2s
    reach = int(np.abs(n).max(initial=0))
    if reach > PHASE_REACH:
        return _phase_formula(params, kind, n)
    key = ("cocycle", params, kind)
    table = _tables.get(key)
    if table is None or 2 * reach >= table.size:
        _tables.pop(key, None)
        half = min(PHASE_REACH, max(64, 1 << reach.bit_length()))
        # n = 0..h, then −h..−1: numpy's negative indices read table[n] for |n| ≤ h
        table = _memo(key, lambda: _phase_formula(
            params, kind, np.concatenate([np.arange(half + 1), np.arange(-half, 0)])))
    return table[n]


def _band_product(rows1: np.ndarray, cols2: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Σ_{(i,v)} L[I, (i,v)]·R[(i,v), J] for k consecutive rows of a₁ (k×c₁),
    w columns of a₂ (r₂×w) and the phase on their grid (k×w), with

        L[I, i, v] = a₂[I−i, v]·phase[i, v],   R[i, v, J] = a₁[i, J−v],

    the two banded block-Toeplitz factors, each written into zeros through
    a strided view of its band: a (k+r₂−1)×(w+c₁−1) block of the product."""
    (k, c1), (r2, w) = rows1.shape, cols2.shape
    lhs = np.zeros((k + r2 - 1, k, w), dtype=np.complex128)
    s0, s1, s2 = lhs.strides   # band[i, u, v] = L[i+u, i, v]
    np.multiply(cols2, phase[:, None], out=np.ndarray((k, r2, w), lhs.dtype, lhs,
                                                      strides=(s0 + s1, s0, s2)))
    rhs = np.zeros((k, w, w + c1 - 1), dtype=np.complex128)
    s0, s1, s2 = rhs.strides   # band[i, v, j] = R[i, v, v+j]
    np.ndarray((k, w, c1), rhs.dtype, rhs, strides=(s0, s1 + s2, s2))[...] = rows1[:, None]
    return lhs.reshape(k + r2 - 1, k * w) @ rhs.reshape(k * w, w + c1 - 1)


def twisted_conv(a1: LatticeSeq, a2: LatticeSeq) -> LatticeSeq:
    """♮-product as one GEMM per group of a₁'s rows (`_band_product`).

    Both boxes are first sliced to every step-th column, step the gcd of
    their `col_step`s: the product runs on those columns, with the phase at
    their true n₂, and fills every step-th column of the output box.  An
    entry that no a₁(k)·a₂(m−k) reaches, such as one in the columns between,
    is a sum of products with 0, an exact 0, so the support is that of the
    entry-by-entry sum.  a₁'s nonzero rows are grouped by the cell of a
    fixed grid, min(max(8, 4·r₂), r₁) rows wide, that holds them, and a
    group runs from its first to its last nonzero row: L's band fills at
    least an eighth of a full cell.  The width is halved, and a₂'s columns
    go in blocks, one GEMM each into the output columns the block reaches,
    so that one GEMM's factors and product stay within BOX_BUDGET cells.
    When one cell in budget holds a₁'s rows and all of a₂'s columns, and
    step is 1, the one GEMM of the whole boxes is the output box.
    """
    _check_compatible(a1, a2)
    if not a1.box.size or not a2.box.size:
        return LatticeSeq.from_box(a1.params, a1.kind, (0, 0), _zeros(0, 0))
    col = math.gcd(a1.col_step, a2.col_step) or 1
    b1, b2 = a1.box[:, ::col], a2.box[:, ::col]
    (r1, c1), (r2, c2) = b1.shape, b2.shape

    def cells(g, b):   # L, R and L·R of a g-row group and b of a₂'s columns
        return (g + r2 - 1) * (g * b + b + c1 - 1) + g * b * (b + c1 - 1)

    block = c2
    while block > 1 and cells(1, block) > BOX_BUDGET:
        block = (block + 1) // 2
    group = min(max(8, 4 * r2), r1)
    while group > 1 and cells(group, block) > BOX_BUDGET:
        group //= 2
    origin = (a1.origin[0] + a2.origin[0], a1.origin[1] + a2.origin[1])
    n2s = np.arange(a2.origin[1], a2.origin[1] + col * c2, col)
    if col == 1 and group == r1 and block == c2 and cells(r1, c2) <= BOX_BUDGET:
        n1s = np.arange(a1.origin[0], a1.origin[0] + r1)
        return LatticeSeq.from_box(a1.params, a1.kind, origin, _band_product(
            b1, b2, _twist_phase(a1.params, a1.kind, n1s, n2s)))
    full = _zeros(r1 + r2 - 1, a1.box.shape[1] + a2.box.shape[1] - 1)
    out = full[:, :col * (c1 + c2 - 1):col]   # the columns that products reach
    rows = b1.any(axis=1).nonzero()[0].tolist()
    for _, cell in itertools.groupby(rows, lambda i: i // group):
        cell = list(cell)
        i0, i1 = cell[0], cell[-1] + 1
        n1s = np.arange(a1.origin[0] + i0, a1.origin[0] + i1)
        for v in range(0, c2, block):
            phase = _twist_phase(a1.params, a1.kind, n1s, n2s[v:v + block])
            out[i0:i1 + r2 - 1, v:v + block + c1 - 1] += _band_product(
                b1[i0:i1], b2[:, v:v + block], phase)
    return LatticeSeq.from_box(a1.params, a1.kind, origin, full)


def twisted_star(a: LatticeSeq) -> LatticeSeq:
    """Twisted involution; satisfies (a*)* = a and (a♮b)* = b*♮a*."""
    (rows, cols), (n1, n2) = a.box.shape, a.origin
    origin = (-(n1 + rows - 1), -(n2 + cols - 1))
    diag = _twist_phase(a.params, a.kind, np.arange(origin[0], origin[0] + rows),
                        np.arange(origin[1], origin[1] + cols))
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


def _atom_key(factor: str, spec: GridSpec, step: float, ns) -> tuple:
    """_memo key of an atom phase table: the factor, the grid, the step and
    the exact index list, so that the translate and the modulation tables of
    one step and one index list never share a table."""
    return factor, spec, float(step), ns.dtype.str, ns.tobytes()


def _translates(g: GridSignal, gen, n1s) -> np.ndarray:
    """The (M₁, qN) translated windows T_{t_step·a, t_slope·a} g, a in n1s."""
    t_step, t_slope, _, _ = gen
    spec = g.spec
    rows = (np.arange(spec.q)[None, :] - (t_slope * n1s)[:, None]) % spec.q
    tg = np.fft.fft(g.values, axis=1)[rows]       # channel k of row a: ĝ(k − l_a)
    tg *= _memo(_atom_key("translate", spec, t_step, n1s),
                lambda: np.exp(-2j * np.pi * np.outer(t_step * n1s, spec.freqs())))[:, None, :]
    return np.fft.ifft(tg, axis=2).reshape(len(n1s), spec.q * spec.N)


def _modulations(spec: GridSpec, gen, n2s) -> np.ndarray:
    """The (M₂, qN) modulations E_{f_step·b, f_slope·b}, b in n2s."""
    _, _, f_step, f_slope = gen
    xph = _memo(_atom_key("modulate", spec, f_step, n2s),
                lambda: np.exp(2j * np.pi * np.outer(f_step * n2s, spec.x())))
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
