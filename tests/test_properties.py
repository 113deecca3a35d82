"""Property tests of the twisted algebra and the Chern double-sum kernel.

Lattices are drawn over (α, β, r, s, q ≤ 7) with r, s coprime to q (r = s = 0
at q = 1); supports are random subsets of [-3, 3]², so empty, single-entry
and negative-origin supports all occur.  Entries have magnitudes in
[0.1, 1], as in the fixed-seed tests, so that no product entry lands near
PRUNE_TOL, where pruning breaks an identity by up to PRUNE_TOL per entry.
The Chern kernel is compared with a term-by-term loop on random tables.
Runs are derandomized, so the examples are the same on every run.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from ncgabor.algebra import (LatticeSeq, l1_diff, load_seq, save_seq,
                             twisted_conv, twisted_star)
from ncgabor.geometry import _chern_double_sum
from ncgabor.lattice import LatticeKind, TorusParams, lattice_generators, lattice_twist
from conftest import naive_chern_double_sum, naive_twisted_conv

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)


@st.composite
def sequences(draw, count=1, unit_l1=True):
    """`count` sequences on one random lattice, scaled to unit ℓ¹ if nonzero."""
    q = draw(st.integers(1, 7))
    slopes = st.sampled_from([v for v in range(q) if math.gcd(v, q) == 1])
    steps = st.floats(0.25, 1.5) | st.floats(-1.5, -0.25)
    params = TorusParams(draw(steps), draw(steps), draw(slopes), draw(slopes), q)
    kind = draw(st.sampled_from(list(LatticeKind)))
    entry = st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                      st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0))
    seqs = []
    for _ in range(count):
        entries = draw(st.lists(entry, max_size=8, unique_by=lambda e: e[:2]))
        seq = LatticeSeq.from_entries(params, kind, [e[:2] for e in entries],
                                      [e[2] for e in entries], 3.0)
        norm = seq.l1_norm()
        seqs.append(seq * (1.0 / norm) if unit_l1 and norm else seq)
    return seqs


def _phase_turns(a, b):
    """Bound on |phase|/2π in either product formula: t·k₁m₂ here, λγ + lc/q in the oracle."""
    if not a.values.size or not b.values.size:
        return 0.0
    t_step, _, f_step, _ = lattice_generators(a.params, a.kind)
    k1m2 = np.abs(a.index[:, 0]).max() * np.abs(b.index[:, 1]).max()
    return (abs(lattice_twist(a.params, a.kind)) + abs(t_step * f_step)) * k1m2 + a.params.q


@PROPERTY
@given(sequences(count=2))
def test_twisted_conv_matches_naive_loop(seqs):
    a, b = seqs
    # the fixed-seed tolerance, plus the rounding of exp(2πi·x) at the phase
    # arguments both formulas reach on these lattices (up to ~60 turns at q = 7)
    tol = 1e-14 + 4 * np.pi * np.finfo(float).eps * _phase_turns(a, b)
    assert l1_diff(twisted_conv(a, b), naive_twisted_conv(a, b)) < tol


@PROPERTY
@given(sequences(count=2))
def test_star_is_an_involutive_anti_homomorphism(seqs):
    a, b = seqs
    assert l1_diff(twisted_star(twisted_star(a)), a) < 1e-15
    lhs = twisted_star(twisted_conv(a, b))
    rhs = twisted_conv(twisted_star(b), twisted_star(a))
    assert l1_diff(lhs, rhs) < 1e-12


@PROPERTY
@given(sequences(unit_l1=False))
def test_seq_file_roundtrip(seqs):
    (a,) = seqs
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seq.dat"
        save_seq(a, path)
        b = load_seq(path)
    assert b.params == a.params and b.kind == a.kind
    assert l1_diff(a, b) < 1e-15


@PROPERTY
@given(st.integers(1, 3), st.sampled_from([1, 3, 5, 7]), st.sampled_from([1, 3, 5, 7]),
       st.floats(-2.0, 2.0), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_chern_double_sum_matches_naive_loop(nq, m1, m2, theta, silent_channel, seed):
    rng = np.random.default_rng(seed)

    def table(rows, cols):
        shape = (nq, nq, rows, cols)
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    v, v3 = table(m1, m2), table(2 * m1 - 1, 2 * m2 - 1)
    if silent_channel:
        v[nq - 1, 0] = 0.0      # skipped by the kernel, summed by the oracle
    expected, scale = naive_chern_double_sum(v, v3, theta)
    assert abs(_chern_double_sum(v, v3, theta) - expected) <= 1e-12 * scale
