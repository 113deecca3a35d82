import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ncgabor.lattice import LatticeKind, TorusParams, lattice_generators, lattice_twist
from ncgabor.signal import GridSpec, cocycle, gaussian, inner, norm
from ncgabor import algebra
from ncgabor.algebra import (BOX_BUDGET, LatticeSeq, act_left, act_right, inner_left,
                             inner_right, l1_diff, load_seq, save_seq,
                             trace_l, trace_r, twisted_conv, twisted_star)
from ncgabor.frame import adjoint_shift_family
from ncgabor.geometry import Pipeline, build_window, derive, grid_for_radius
from conftest import (PROPERTY, entry_sum, gaussian_probe, grouped_twisted_conv, lattices,
                      loop_twisted_conv, naive_act_left, naive_act_right, naive_twisted_conv,
                      phase_point, random_seq)

BOTH_KINDS = [LatticeKind.TIME_FREQ, LatticeKind.ADJOINT]


@pytest.fixture(params=["q1", "q2"])
def params(request, params_q1, params_q2):
    return {"q1": params_q1, "q2": params_q2}[request.param]


def test_twisted_conv_matches_naive_loop(params, rng):
    for kind in BOTH_KINDS:
        for _ in range(5):
            a = random_seq(params, kind, rng, points=7)
            b = random_seq(params, kind, rng, points=6)
            assert l1_diff(twisted_conv(a, b), naive_twisted_conv(a, b)) < 1e-14


def _assert_matches_loop(a, b):
    """Same support as the entry-by-entry loop, ℓ¹ gap at rounding level."""
    new, old = twisted_conv(a, b), loop_twisted_conv(a, b)
    assert np.array_equal(new.index, old.index)
    assert l1_diff(new, old) <= 1e-15 * a.l1_norm() * b.l1_norm()


@pytest.mark.parametrize("lattice", [(0.5, 0.5, 0, 0, 1), (0.5, 1 / 3, 1, 1, 2),
                                     (0.5, 2 / 15, 1, 1, 3)], ids=["q1", "q2", "q3"])
def test_twisted_conv_matches_loop_on_pipeline_products(lattice):
    params = TorusParams(*lattice)
    window = build_window(None, grid_for_radius(6.0, q=params.q), params)
    p = Pipeline(params, window).projection
    d1, d2 = derive(p, 1), derive(p, 2)
    comm = loop_twisted_conv(d1, d2) - loop_twisted_conv(d2, d1)
    for a, b in [(p, p), (d1, d2), (d2, d1), (p, comm), (d1, d1), (d2, d2),
                 (d1 + 1j * d2, p), (d1 + (-1j) * d2, p)]:
        _assert_matches_loop(a, b)


@pytest.mark.parametrize("kind", BOTH_KINDS, ids=lambda k: k.value)
def test_twisted_conv_matches_loop_on_edge_shapes(params, kind, rng):
    def seq(index):
        values = rng.normal(size=len(index)) + 1j * rng.normal(size=len(index))
        return LatticeSeq.from_entries(params, kind, index, values)

    delta = LatticeSeq.delta(params, kind)
    row = seq([(2, n) for n in range(-4, 5)])
    col = seq([(n, -3) for n in range(-5, 3)])
    hollow = seq([(-3, 0), (-3, 2), (3, -1), (3, 4)])   # rows -2..2 of its box are zero
    dense = random_seq(params, kind, rng, points=30)
    zero = 0.0 * dense   # a box without entries
    # column-sparse boxes, compressed to the gcd of the two column steps
    step2 = seq([(n, 2 * j) for n in (-1, 0, 2) for j in range(-2, 3)])
    step3 = seq([(n, 1 + 3 * j) for n in (0, 1) for j in range(4)])   # first column n₂ = 1
    step3_off = seq([(n, -5 + 3 * j) for n in (-2, 3) for j in (0, 1, 3)])
    step7 = seq([(1, -7), (0, 0), (2, 7), (-1, 14)])
    sparse = [step2, step3, step3_off, step7, 0.0 * step3]
    assert [s.col_step for s in sparse] == [2, 3, 3, 7, 3]   # a scalar multiple keeps its step
    # from_box measures the step from the first column it keeps
    shifted = np.pad(step3.box, ((0, 0), (1, 0)))
    assert LatticeSeq.from_box(params, kind, (0, 0), shifted).col_step == 3
    shapes = [delta, row, col, hollow, dense, zero] + sparse
    for a in shapes:
        for b in shapes:
            _assert_matches_loop(a, b)


@st.composite
def box_pairs(draw, qs=(1, 2, 3, 7)):
    """Two random boxes of at most 12×12 on one lattice with q drawn from
    `qs`, some entries and some interior rows zero, at random origins."""
    params = draw(lattices(qs=qs))
    kind = draw(st.sampled_from(BOTH_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    seqs = []
    for _ in range(2):
        rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        box = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        box[rng.random((rows, cols)) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0
        if rows > 2:
            box[draw(st.lists(st.integers(1, rows - 2), max_size=rows - 2))] = 0
        origin = (draw(st.integers(-20, 20)), draw(st.integers(-20, 20)))
        seqs.append(LatticeSeq.from_box(params, kind, origin, box))
    return seqs


@PROPERTY
@given(box_pairs())
def test_batched_rows_match_the_entry_loop(seqs):
    _assert_matches_loop(*seqs)


def closed_phase(params, kind, n1s, n2s):
    """exp(2πi·t·n₁n₂) by the closed formula on the whole grid n1s × n2s."""
    real, num = lattice_twist(params, kind)
    n = np.outer(n1s, n2s)
    return np.exp(2j * np.pi * ((real * n + num * n % params.q / params.q) % 1.0))


def _assert_closed_phase_bits(params, kind, n1s, n2s):
    got, want = algebra._twist_phase(params, kind, n1s, n2s), closed_phase(params, kind, n1s, n2s)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@PROPERTY
@given(lattices(qs=(1, 2, 3, 7)), st.sampled_from(BOTH_KINDS),
       st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
       st.tuples(st.integers(1, 20), st.integers(1, 20)), st.sampled_from([1, 2, 3, 7]))
def test_twist_phase_is_the_closed_formula_bitwise(params, kind, origin, shape, step):
    n1s = np.arange(origin[0], origin[0] + shape[0])
    n2s = np.arange(origin[1], origin[1] + shape[1])
    far = np.arange(-3, 4) * algebra.PHASE_REACH
    with mock.patch.object(algebra, "_tables", {}):
        grids = [(n1s, n2s),                                        # a box, as a product reads it
                 tuple(-n[::-1] for n in (n1s, n2s)),                # reversed, as twisted_star
                 (n1s, np.arange(origin[1], origin[1] + step * shape[1], step)),   # compressed
                 (n1s, 40 * n2s),                                   # a wider table
                 (np.array([1, -1]), np.array([algebra.PHASE_REACH])),   # at the table's bound
                 (n1s, far),                                        # past it: the formula
                 (n1s, n2s)]                                        # the grown table again
        for n1, n2 in grids:
            _assert_closed_phase_bits(params, kind, n1, n2)
        tables = algebra._tables
        # one table per lattice and kind: grown to the bound, and the last,
        # narrower grid read off it
        assert list(tables) == [("cocycle", params, kind)]
        assert tables[("cocycle", params, kind)].size == 2 * algebra.PHASE_REACH + 1


def held_cells():
    return sum(table.size for table in algebra._tables.values())


def test_phase_tables_answer_only_for_their_own_lattice():
    # two lattices that share α (and r, s, q), called in turn, and more
    # lattices than the memo holds: each call reads its own lattice's phases
    n1s, n2s = np.arange(-6, 7), np.arange(-9, 10)   # one 129-cell table each
    same_alpha = [TorusParams(0.5, beta, 1, 1, 3) for beta in (2 / 15, 1 / 6)]
    assert not np.array_equal(*(closed_phase(p, LatticeKind.TIME_FREQ, n1s, n2s)
                                for p in same_alpha))
    many = [TorusParams(0.5, 1 / (3 * d), 1, 1, 3) for d in range(2, 10)]
    with mock.patch.object(algebra, "_tables", {}), mock.patch.object(algebra, "TABLE_CELLS", 1024):
        for _ in range(3):
            for params in same_alpha + many:
                for kind in BOTH_KINDS:
                    _assert_closed_phase_bits(params, kind, n1s, n2s)
                    assert held_cells() <= 1024
            assert len(algebra._tables) == 1024 // 129


def closed_translates(g, gen, n1s):
    """_translates with its phase by the closed formula."""
    t_step, t_slope, _, _ = gen
    spec = g.spec
    rows = (np.arange(spec.q)[None, :] - (t_slope * n1s)[:, None]) % spec.q
    tg = np.fft.fft(g.values, axis=1)[rows]
    tg *= np.exp(-2j * np.pi * np.outer(t_step * n1s, spec.freqs()))[:, None, :]
    return np.fft.ifft(tg, axis=2).reshape(len(n1s), spec.q * spec.N)


def closed_modulations(spec, gen, n2s):
    """_modulations with its phase by the closed formula."""
    _, _, f_step, f_slope = gen
    xph = np.exp(2j * np.pi * np.outer(f_step * n2s, spec.x()))
    chph = np.exp(2j * np.pi * np.outer(f_slope * n2s, np.arange(spec.q)) / spec.q)
    return (chph[:, :, None] * xph[:, None, :]).reshape(len(n2s), spec.q * spec.N)


def _assert_closed_atom_bits(g, gen_t, n1s, gen_m, n2s):
    """_translates and _modulations, built or read, are bitwise the closed formulas."""
    for got, want in ((algebra._translates(g, gen_t, n1s), closed_translates(g, gen_t, n1s)),
                      (algebra._modulations(g.spec, gen_m, n2s),
                       closed_modulations(g.spec, gen_m, n2s))):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@PROPERTY
@given(lattices(qs=(1, 2, 3, 7)), st.sampled_from(BOTH_KINDS),
       st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
       st.tuples(st.integers(0, 12), st.integers(0, 12)), st.sampled_from([1, 2, -3]))
def test_atom_phase_tables_are_the_closed_formula_bitwise(params, kind, origin, shape, step):
    # index lists as the kernels pass them (a box axis, its nonzero rows, a
    # stride), each read twice: the first read builds the table, the second
    # reads it; the lattices draw negative steps too
    g = gaussian_probe(GridSpec(L=12.0, N=64, q=params.q), np.random.default_rng(shape))
    gen = lattice_generators(params, kind)
    n1s = np.arange(origin[0], origin[0] + shape[0])
    n2s = np.arange(origin[1], origin[1] + step * shape[1], step)
    with mock.patch.object(algebra, "_tables", {}):
        for n1, n2 in [(n1s, n2s), (n1s[::2], n2s[::-1]), (n1s, n2s)]:
            _assert_closed_atom_bits(g, gen, n1, gen, n2)
        assert {key[0] for key in algebra._tables} <= {"translate", "modulate"}


def test_atom_phase_tables_keep_factors_and_grids_apart():
    # at α = 1, β = −1 translate and modulation steps coincide across the two
    # lattices: on one grid and one index list each factor reads its own
    # table; two grids with one spacing Δx read their own tables too
    params = TorusParams(1.0, -1.0)
    gens = [lattice_generators(params, kind) for kind in BOTH_KINDS]
    assert {gen[0] for gen in gens} & {gen[2] for gen in gens}
    ns = np.arange(-4, 5)
    grids = [GridSpec(L=8.0, N=64), GridSpec(L=16.0, N=128)]
    with mock.patch.object(algebra, "_tables", {}):
        for _ in range(2):
            for spec in grids:
                g = gaussian_probe(spec, np.random.default_rng(3))
                for gen_t in gens:
                    for gen_m in gens:
                        _assert_closed_atom_bits(g, gen_t, ns, gen_m, ns)
        assert len(algebra._tables) == 8   # 2 factors × 2 grids × 2 distinct steps


def test_phase_memo_holds_at_most_its_bound():
    # more atom tables than fit in TABLE_CELLS, and tables larger than it,
    # which are built and not held; every read is the closed formula's
    spec = GridSpec(L=16.0, N=512)
    g = gaussian_probe(spec, np.random.default_rng(1))
    rows = algebra.TABLE_CELLS // spec.N
    with mock.patch.object(algebra, "_tables", {}):
        for width in (rows // 4, rows // 3, rows // 2, rows + 1, rows // 4, rows):
            gen = (0.5 + width / 100, 0, 0.25 + width / 100, 0)
            ns = np.arange(-(width // 2), width - width // 2)
            held = list(algebra._tables)
            _assert_closed_atom_bits(g, gen, ns, gen, ns)
            assert held_cells() <= algebra.TABLE_CELLS
            if width * spec.N > algebra.TABLE_CELLS:
                assert list(algebra._tables) == held
        # a table of TABLE_CELLS cells drops every older one
        assert [(key[0], len(key[-1]) // 8) for key in algebra._tables] == [("modulate", rows)]


def test_phase_tables_are_read_only():
    params = TorusParams(0.5, 1 / 3, 1, 1, 2)
    g = gaussian(GridSpec(L=16.0, N=128, q=2))
    with mock.patch.object(algebra, "_tables", {}):
        inner_right(g, g, params, 3.0)
        assert {key[0] for key in algebra._tables} == {"cocycle", "translate", "modulate"}
        for table in algebra._tables.values():
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0


def test_no_phase_table_is_built_at_import():
    # neither a cocycle table nor an atom table
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    probe = "import ncgabor.cli, ncgabor.moyal, ncgabor.algebra as a; assert a._tables == {}"
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)


def _row_group_cases(params):
    kind = LatticeKind.TIME_FREQ
    spaced = LatticeSeq.from_entries(params, kind, [(n, 0) for n in (0, 2, 4, 6, 8)],
                                     [1.0, 2.0, 3.0, 4.0, 5.0])
    col = _far_apart_pairs(params)["col-col"][0]
    return {"spaced-delta": (spaced, LatticeSeq.delta(params, kind)), "col-col": (col, col)}


@pytest.mark.parametrize("name, sizes", [
    ("spaced-delta", [7, 1]),   # a grid of 8 rows: rows 0–6, then row 8
    ("col-col", [1, 1])],       # 2101 rows halved to 1050 under the budget: rows 0 and 2100
    ids=["spaced-delta", "col-col"])
def test_row_groups_are_the_cells_of_a_fixed_grid(params_q2, monkeypatch, name, sizes):
    groups, band = [], algebra._band_product

    def counted(rows1, cols2, phase):
        groups.append(rows1.shape[0])
        return band(rows1, cols2, phase)

    monkeypatch.setattr(algebra, "_band_product", counted)
    a, b = _row_group_cases(params_q2)[name]
    _assert_matches_loop(a, b)
    assert groups == sizes


def test_budget_blocks_and_row_groups_match_the_entry_loop(params, rng, monkeypatch):
    def box(rows, cols, hollow=(), step=1):
        values = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        values[list(hollow)] = 0
        values[:, np.arange(cols) % step != 0] = 0
        return LatticeSeq.from_box(params, LatticeKind.TIME_FREQ, (-2, 1), values)

    # at 200 cells, the factors L, R and L·R of a g-row group and b of a₂'s
    # columns take (g+r₂−1)(gb+b+c₁−1) + gb(b+c₁−1)
    pairs = [(box(4, 12, hollow=[1]), box(3, 12)),   # rows one at a time, a₂ in 6-column blocks
             (box(10, 3, hollow=[2, 5]), box(2, 3)),  # grid of 4 rows: zero rows 2, 5 inside
             # compressed to 11 columns: rows one at a time, a₂ in blocks of 6 and 5
             (box(3, 21, step=2), box(1, 21, step=2)),
             (box(1, 12), box(1, 12))]                # a single row, a₂ in two 6-column blocks
    monkeypatch.setattr(algebra, "BOX_BUDGET", 200)
    for a, b in pairs:
        _assert_matches_loop(a, b)


def test_delta_is_unit(params, rng):
    for kind in BOTH_KINDS:
        a = random_seq(params, kind, rng)
        d = LatticeSeq.delta(params, kind)
        assert l1_diff(twisted_conv(d, a), a) < 1e-15
        assert l1_diff(twisted_conv(a, d), a) < 1e-15


def test_two_delta_product_mirrors_shift_composition(params):
    # δ_{ν₁} ♮ δ_{ν₂} = φ(ν₁,ν₂)·δ_{ν₁+ν₂} on the time-frequency lattice
    kind = LatticeKind.TIME_FREQ
    d1 = LatticeSeq.from_entries(params, kind, [(1, 2)], [1.0])
    d2 = LatticeSeq.from_entries(params, kind, [(2, -1)], [1.0])
    prod = twisted_conv(d1, d2)
    assert prod.index.tolist() == [[3, 1]]
    nu1 = phase_point(params, kind, 1, 2)
    nu2 = phase_point(params, kind, 2, -1)
    assert prod.values[0] == pytest.approx(cocycle(nu1, nu2, params.q))


def test_associativity(params, rng):
    for kind in BOTH_KINDS:
        for _ in range(10):
            a, b, c = (random_seq(params, kind, rng, points=10) for _ in range(3))
            lhs = twisted_conv(twisted_conv(a, b), c)
            rhs = twisted_conv(a, twisted_conv(b, c))
            assert l1_diff(lhs, rhs) < 1e-12


def test_involution(params, rng):
    for kind in BOTH_KINDS:
        for _ in range(10):
            a = random_seq(params, kind, rng)
            b = random_seq(params, kind, rng)
            assert l1_diff(twisted_star(twisted_star(a)), a) < 1e-15
            lhs = twisted_star(twisted_conv(a, b))
            rhs = twisted_conv(twisted_star(b), twisted_star(a))
            assert l1_diff(lhs, rhs) < 1e-12
        d = LatticeSeq.delta(params, kind)
        assert l1_diff(twisted_star(d), d) < 1e-16


def test_lattice_mismatch_rejected(params, rng):
    a = random_seq(params, LatticeKind.TIME_FREQ, rng)
    b = random_seq(params, LatticeKind.ADJOINT, rng)
    with pytest.raises(ValueError, match="lattice mismatch"):
        twisted_conv(a, b)


def test_trace_values(params, rng):
    d = LatticeSeq.delta(params, LatticeKind.TIME_FREQ)
    assert trace_l(d) == pytest.approx(1.0)
    a = random_seq(params, LatticeKind.TIME_FREQ, rng, unit_l1=False)
    # positivity: tr(a*♮a) = Σ|a(ν)|²
    val = trace_l(twisted_conv(twisted_star(a), a))
    assert val.real == pytest.approx(float(np.sum(np.abs(a.values) ** 2)))
    assert abs(val.imag) < 1e-13
    # adjoint-lattice trace carries the covolume normalization q|αβ|
    b = LatticeSeq.delta(params, LatticeKind.ADJOINT)
    assert trace_r(b) == pytest.approx(params.q * abs(params.alpha * params.beta))
    with pytest.raises(ValueError):
        trace_l(b)
    with pytest.raises(ValueError):
        trace_r(a)


def test_trace_cyclicity(params, rng):
    for _ in range(10):
        a = random_seq(params, LatticeKind.TIME_FREQ, rng)
        b = random_seq(params, LatticeKind.TIME_FREQ, rng)
        assert abs(trace_l(twisted_conv(a, b))
                   - trace_l(twisted_conv(b, a))) < 1e-13


def test_act_left_matches_naive(params, rng):
    spec = GridSpec(L=22.0, N=512, q=params.q)
    f = gaussian_probe(spec, rng)
    a = random_seq(params, LatticeKind.TIME_FREQ, rng, points=6)
    assert norm(act_left(a, f) - naive_act_left(a, f)) < 1e-13


def test_act_right_matches_naive(params, rng):
    spec = GridSpec(L=22.0, N=512, q=params.q)
    f = gaussian_probe(spec, rng)
    b = random_seq(params, LatticeKind.ADJOINT, rng, points=6)
    assert norm(act_right(f, b) - naive_act_right(f, b)) < 1e-13


def test_delta_acts_as_identity(params, rng):
    spec = GridSpec(L=22.0, N=512, q=params.q)
    f = gaussian_probe(spec, rng)
    assert norm(act_left(LatticeSeq.delta(params, LatticeKind.TIME_FREQ), f) - f) < 1e-13
    assert norm(act_right(f, LatticeSeq.delta(params, LatticeKind.ADJOINT)) - f) < 1e-13


def test_left_action_is_module_action(params, rng):
    spec = GridSpec(L=22.0, N=512, q=params.q)
    f = gaussian_probe(spec, rng)
    a = random_seq(params, LatticeKind.TIME_FREQ, rng, points=5)
    b = random_seq(params, LatticeKind.TIME_FREQ, rng, points=5)
    lhs = act_left(twisted_conv(a, b), f)
    rhs = act_left(a, act_left(b, f))
    assert norm(lhs - rhs) / norm(f) < 1e-8


def test_right_action_is_module_action(params, rng):
    spec = GridSpec(L=22.0, N=512, q=params.q)
    f = gaussian_probe(spec, rng)
    b1 = random_seq(params, LatticeKind.ADJOINT, rng, points=5)
    b2 = random_seq(params, LatticeKind.ADJOINT, rng, points=5)
    lhs = act_right(act_right(f, b1), b2)
    rhs = act_right(f, twisted_conv(b1, b2))
    assert norm(lhs - rhs) / norm(f) < 1e-8


def test_inner_left_entries(params, rng):
    spec = GridSpec(L=22.0, N=512, q=params.q)
    f, g = gaussian_probe(spec, rng), gaussian_probe(spec, rng)
    il = inner_left(f, g, params, 2.0)
    assert il.value_at(0, 0) == pytest.approx(inner(f, g), abs=1e-13)


def test_inner_left_hermitian(params, rng):
    spec = GridSpec(L=22.0, N=512, q=params.q)
    f, g = gaussian_probe(spec, rng), gaussian_probe(spec, rng)
    lhs = twisted_star(inner_left(f, g, params, 6.0))
    rhs = inner_left(g, f, params, 6.0)
    assert l1_diff(lhs, rhs) < 1e-8


def test_inner_left_positivity(params, rng):
    spec = GridSpec(L=22.0, N=512, q=params.q)
    f = gaussian_probe(spec, rng)
    assert trace_l(inner_left(f, f, params, 6.0)).real == pytest.approx(
        norm(f) ** 2, rel=1e-12)


def test_inner_right_entries(params, rng):
    spec = GridSpec(L=22.0, N=512, q=params.q)
    f = gaussian_probe(spec, rng)
    b = inner_right(f, f, params, 2.0)
    scale = params.q * abs(params.alpha * params.beta)
    assert b.value_at(0, 0) == pytest.approx(norm(f) ** 2 / scale, rel=1e-12)


def test_right_trace_compatibility(params, rng):
    # tr°(<g,f>_right) = <f,g>
    spec = GridSpec(L=22.0, N=512, q=params.q)
    f, g = gaussian_probe(spec, rng), gaussian_probe(spec, rng)
    assert trace_r(inner_right(g, f, params, 4.0)) == pytest.approx(
        inner(f, g), abs=1e-12)


def test_inner_right_linearity(params, rng):
    spec = GridSpec(L=22.0, N=512, q=params.q)
    f, g = gaussian_probe(spec, rng), gaussian_probe(spec, rng)
    b1 = inner_right(f, 2j * g, params, 3.0)
    b2 = inner_right(f, g, params, 3.0)
    assert l1_diff(b1, 2j * b2) < 1e-12  # linear in the second argument
    b3 = inner_right(2j * f, g, params, 3.0)
    assert l1_diff(b3, -2j * b2) < 1e-12  # conjugate-linear in the first


def test_module_compatibility_left(params, rng):
    spec = GridSpec(L=22.0, N=512, q=params.q)
    f, g = gaussian_probe(spec, rng, spread=1.5), gaussian(spec)
    a = random_seq(params, LatticeKind.TIME_FREQ, rng, points=4, span=2)
    lhs = twisted_conv(a, inner_left(f, g, params, 6.0))
    rhs = inner_left(act_left(a, f), g, params, 6.0)
    # compare on the common radius-6 box: products extend the support
    diff = lhs - rhs
    mask = np.ones(len(diff.values), dtype=bool)
    lam, _, gam, _ = diff.phase_coords()
    mask &= (np.abs(lam) <= 6.0) & (np.abs(gam) <= 6.0)
    assert float(np.sum(np.abs(diff.values[mask]))) < 1e-8

    lhs2 = twisted_conv(inner_left(f, g, params, 6.0), twisted_star(a))
    rhs2 = inner_left(f, act_left(a, g), params, 6.0)
    diff2 = lhs2 - rhs2
    lam2, _, gam2, _ = diff2.phase_coords()
    m2 = (np.abs(lam2) <= 6.0) & (np.abs(gam2) <= 6.0)
    assert float(np.sum(np.abs(diff2.values[m2]))) < 1e-8


def test_module_compatibility_right(params, rng):
    spec = GridSpec(L=22.0, N=512, q=params.q)
    f, g = gaussian_probe(spec, rng, spread=1.5), gaussian(spec)
    b = random_seq(params, LatticeKind.ADJOINT, rng, points=3, span=1)
    lhs = twisted_conv(inner_right(f, g, params, 6.0), b)
    rhs = inner_right(f, act_right(g, b), params, 6.0)
    diff = lhs - rhs
    lam, _, gam, _ = diff.phase_coords()
    m = (np.abs(lam) <= 6.0) & (np.abs(gam) <= 6.0)
    assert float(np.sum(np.abs(diff.values[m]))) < 1e-8

    lhs2 = twisted_conv(twisted_star(b), inner_right(f, g, params, 6.0))
    rhs2 = inner_right(act_right(f, b), g, params, 6.0)
    diff2 = lhs2 - rhs2
    lam2, _, gam2, _ = diff2.phase_coords()
    m2 = (np.abs(lam2) <= 6.0) & (np.abs(gam2) <= 6.0)
    assert float(np.sum(np.abs(diff2.values[m2]))) < 1e-8


def test_fundamental_identity(params, rng):
    # <f,g>·h = f·<g,h>_right, the bridge between the two module actions
    spec = GridSpec(L=22.0, N=512, q=params.q)
    radius = 6.0
    f = gaussian(spec, coeffs=np.ones(params.q))
    g = gaussian_probe(spec, rng, spread=1.0)
    h = gaussian_probe(spec, rng, spread=1.0)
    lhs = act_left(inner_left(f, g, params, radius), h)
    rhs = act_right(f, inner_right(g, h, params, radius))
    residual = norm(lhs - rhs) / norm(lhs)
    assert residual < 1e-6, f"radius={radius}, residual={residual}"


def test_l1_norm_weights(params):
    seq = LatticeSeq.from_entries(params, LatticeKind.TIME_FREQ,
                                  [(0, 0), (1, 1)], [1.0, 1.0])
    assert seq.l1_norm() == pytest.approx(2.0)


def test_pruning():
    p = TorusParams(0.5, 0.5)
    seq = LatticeSeq.from_entries(p, LatticeKind.TIME_FREQ,
                                  [(0, 0), (1, 0)], [1.0, 1e-16])
    assert len(seq.values) == 1


def test_prune_is_keyword_only():
    # a stale positional radius fails instead of pruning the sequence away
    p = TorusParams(0.5, 0.5)
    with pytest.raises(TypeError):
        LatticeSeq.from_entries(p, LatticeKind.TIME_FREQ, [(0, 0)], [1.0], 6.0)
    with pytest.raises(TypeError):
        LatticeSeq.from_box(p, LatticeKind.TIME_FREQ, (0, 0), np.ones((1, 1)), 6.0)


def test_seq_roundtrip(tmp_path, params, rng):
    a = random_seq(params, LatticeKind.ADJOINT, rng, unit_l1=False)
    path = tmp_path / "seq.dat"
    save_seq(a, path)
    b = load_seq(path)
    assert b.params == a.params and b.kind == a.kind
    assert l1_diff(a, b) < 1e-15


def test_far_apart_entries_are_refused_before_allocation(tmp_path):
    # two entries at (0,0) and (10⁶,10⁶) would need a 10¹²-cell box
    path = tmp_path / "far.dat"
    path.write_text("0.5 0.5 0 0 1 time_freq 1.0\n"
                    "0 0 1.0 0.0\n1000000 1000000 1.0 0.0\n")
    with pytest.raises(ValueError, match="exceeds"):
        load_seq(path)


def test_product_box_is_refused_before_allocation(params_q1):
    kind = LatticeKind.TIME_FREQ
    row = LatticeSeq.from_entries(params_q1, kind, [(0, 0), (0, 2100)], [1.0, 1.0])
    col = LatticeSeq.from_entries(params_q1, kind, [(0, 0), (2100, 0)], [1.0, 1.0])
    assert twisted_conv(row, row).values.size == 3   # a 1x4201 box fits
    with pytest.raises(ValueError, match="exceeds"):
        twisted_conv(row, col)                       # 2101x2101 does not
    # column step 1: a one-row a₁ against a one-column a₂ is one cell of the
    # row grid, and its 2101x2102 product is refused all the same
    dense_row = LatticeSeq.from_entries(params_q1, kind, [(0, 0), (0, 1), (0, 2101)], [1.0] * 3)
    with pytest.raises(ValueError, match="exceeds"):
        twisted_conv(dense_row, col)


def _traced_product(a, b):
    """twisted_conv(a, b) and the peak of the memory traced while it runs."""
    tracemalloc.start()
    try:
        prod = twisted_conv(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return prod, peak


def test_wide_product_copies_its_toeplitz_factor_in_budget_blocks(params_q1):
    # the 3000x5999 Toeplitz factor R of a 1x3000 row would take 288 MB and is
    # written in four blocks of a₂'s columns; the entry at (0,1) keeps the
    # column step at 1, so the box is not compressed
    row = LatticeSeq.from_entries(params_q1, LatticeKind.TIME_FREQ,
                                  [(0, 0), (0, 1), (0, 2999)], [1.0, 1.0, 1.0])
    assert row.col_step == 1
    prod, peak = _traced_product(row, row)
    assert prod.index.tolist() == [[0, n] for n in (0, 1, 2, 2999, 3000, 5998)]
    assert l1_diff(prod, loop_twisted_conv(row, row)) == 0.0
    assert peak < 16 * BOX_BUDGET + (1 << 20)


def _far_apart_pairs(params):
    rng = np.random.default_rng(25)
    kind = LatticeKind.TIME_FREQ

    def seq(index):
        values = rng.normal(size=len(index)) + 1j * rng.normal(size=len(index))
        return LatticeSeq.from_entries(params, kind, index, values)

    col = seq([(0, 0), (2100, 0)])
    hollow = seq([(n, j) for n in (0, 2000) for j in range(100)])   # 2001 rows, 2 nonzero
    row = seq([(0, j) for j in range(100)])
    far1, far2 = seq([(10 ** 5, 0)]), seq([(0, 10 ** 5)])   # |n₁n₂| = 10¹⁰ past the table
    return {"col-col": (col, col), "hollow-row": (hollow, row), "delta-delta": (far1, far2)}


@pytest.mark.parametrize("name", ["col-col", "hollow-row", "delta-delta"])
def test_far_apart_operands_match_the_entry_loop_in_budget(params_q2, name):
    a, b = _far_apart_pairs(params_q2)[name]
    prod, peak = _traced_product(a, b)
    assert peak < 16 * BOX_BUDGET + (1 << 20)
    old = loop_twisted_conv(a, b)
    assert np.array_equal(prod.index, old.index)
    assert l1_diff(prod, old) <= 1e-15 * a.l1_norm() * b.l1_norm()
    assert prod.values.size == {"col-col": 3, "hollow-row": 398, "delta-delta": 1}[name]


def test_lifted_q7_product_stays_in_budget(rng):
    # 17 × 547 boxes filling one column in seven, as the lifted windows at
    # q = 7, β = 2/91: compressed to 17 × 79, one group and one GEMM
    params = TorusParams(0.5, 2 / 91, 1, 1, 7)

    def lifted():
        box = np.zeros((17, 547), dtype=complex)
        box[:, ::7] = rng.normal(size=(17, 79)) + 1j * rng.normal(size=(17, 79))
        return LatticeSeq.from_box(params, LatticeKind.TIME_FREQ, (-8, -273), box)

    a, b = lifted(), lifted()
    prod, peak = _traced_product(a, b)
    assert peak < 16 * BOX_BUDGET + (1 << 20)
    old = loop_twisted_conv(a, b)
    assert np.array_equal(prod.index, old.index)
    assert l1_diff(prod, old) <= 1e-15 * a.l1_norm() * b.l1_norm()


def _assert_grouped_bits(a, b):
    """twisted_conv(a, b) is the grouped loop's product, bit for bit."""
    new, old = twisted_conv(a, b), grouped_twisted_conv(a, b)
    assert (new.origin, new.box.shape, new.col_step) == (old.origin, old.box.shape, old.col_step)
    assert np.array_equal(new.box, old.box)


def _with_step(seq, step):
    """seq with every column not a multiple of `step` from its first zeroed."""
    box = np.array(seq.box)
    box[:, np.arange(box.shape[1]) % step != 0] = 0
    return LatticeSeq.from_box(seq.params, seq.kind, seq.origin, box)


@PROPERTY
@given(box_pairs(qs=(1, 2, 3)), st.sampled_from([1, 2, 3]), st.sampled_from([1, 2, 3]))
def test_twisted_conv_is_the_grouped_loop_bitwise(seqs, step1, step2):
    a, b = seqs
    _assert_grouped_bits(a, b)
    _assert_grouped_bits(_with_step(a, step1), _with_step(b, step2))


def _one_cell_pairs(params, kind, rng):
    """(name, a, b) pairs whose a₁ rows fit one cell of the row grid."""
    a, b = random_seq(params, kind, rng), random_seq(params, kind, rng, points=12)
    delta = LatticeSeq.delta(params, kind)
    return [("random", a, b), ("delta-left", delta, a), ("delta-delta", delta, delta),
            ("step 2", _with_step(a, 2), _with_step(b, 2)),
            ("mixed steps", _with_step(a, 2), _with_step(b, 3))]


@pytest.mark.parametrize("kind", BOTH_KINDS, ids=lambda k: k.value)
def test_twisted_conv_is_the_grouped_loop_on_fixed_cases(params, kind, rng, monkeypatch):
    a = random_seq(params, kind, rng, points=30)
    cases = _one_cell_pairs(params, kind, rng) + [
        ("delta-right", a, LatticeSeq.delta(params, kind)),
        ("box without entries", a, 0.0 * a), ("no entries on the left", 0.0 * a, a)]
    if kind is LatticeKind.TIME_FREQ:
        cases += [(name, *pair) for name, pair in _row_group_cases(params).items()]
        cases += [(name, *pair) for name, pair in _far_apart_pairs(params).items()]
    for name, a1, a2 in cases:
        _assert_grouped_bits(a1, a2)
    calls, band = [], algebra._band_product
    monkeypatch.setattr(algebra, "_band_product",
                        lambda *args: calls.append(1) or band(*args))
    for name, a1, a2 in _one_cell_pairs(params, kind, rng):
        calls.clear()
        twisted_conv(a1, a2)
        assert len(calls) == 1, name


def _made_seqs(params, kind, rng):
    """(name, sequence) of each way the package makes a LatticeSeq."""
    a, b = random_seq(params, kind, rng), random_seq(params, kind, rng)
    real = np.zeros((4, 5))
    real[1, 1:4] = [1.0, 0.0, 2.0]
    return [("from_box", LatticeSeq.from_box(params, kind, (np.int64(-3), np.int64(2)), real)),
            ("from_box empty", LatticeSeq.from_box(params, kind, (5, 5), np.zeros((2, 2)))),
            ("from_entries", LatticeSeq.from_entries(params, kind, [(1, -2), (0, 4)], [1, 2j])),
            ("scalar", 2.5 * a), ("negative", -a), ("zero multiple", 0.0 * a),
            ("numpy scalar", a * np.float32(2)), ("fraction", a * Fraction(1, 3)),
            ("star", twisted_star(a)), ("conv", twisted_conv(a, b)),
            ("stepped conv", twisted_conv(_with_step(a, 2), _with_step(b, 2))),
            ("float box", LatticeSeq(params, kind, (1, -1), real)),
            ("numpy origin", LatticeSeq(params, kind, np.array([-3, 2]), a.box, a.col_step)),
            ("delta", LatticeSeq.delta(params, kind))]


@pytest.mark.parametrize("kind", BOTH_KINDS, ids=lambda k: k.value)
def test_every_made_sequence_has_the_dataclass_fields(params, kind, rng, tmp_path):
    for name, seq in _made_seqs(params, kind, rng):
        assert seq.box.dtype == np.complex128 and not seq.box.flags.writeable, name
        assert [type(n) for n in seq.origin] == [int, int] and type(seq.col_step) is int, name
        ref = LatticeSeq(seq.params, seq.kind, seq.origin, seq.box, seq.col_step)
        assert vars(seq).keys() == vars(ref).keys(), name
        for field in dataclasses.fields(LatticeSeq):
            assert np.array_equal(getattr(seq, field.name), getattr(ref, field.name)), name
        assert np.array_equal(seq.index, ref.index) and np.array_equal(seq.values, ref.values)
        assert not seq.index.flags.writeable and not seq.values.flags.writeable, name
        json.dumps(seq.origin)   # Python ints, as a report writes them
        save_seq(seq, tmp_path / "made.dat")
        save_seq(ref, tmp_path / "ref.dat")
        assert (tmp_path / "made.dat").read_text() == (tmp_path / "ref.dat").read_text(), name


def _sum_cases(params, kind, rng):
    """(name, a, b) pairs of the box layouts a sum can meet."""
    def seq(origin, rows, cols):
        values = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        values[rng.random((rows, cols)) < 0.3] = 0
        values[0, 0] = values[-1, -1] = 1.0   # keep the box's extent
        return LatticeSeq.from_box(params, kind, origin, values)

    a = seq((-2, 3), 5, 6)
    empty = LatticeSeq.from_box(params, kind, (4, 4), np.zeros((2, 2)))
    return [("disjoint", a, seq((9, -7), 3, 4)),
            ("nested", a, seq((-1, 4), 2, 3)),
            ("overlapping", a, seq((1, 6), 6, 7)),
            ("empty right", a, empty),
            ("empty left", empty, a),
            ("both empty", empty, empty),
            ("box without entries", a, 0.0 * seq((20, 20), 2, 2)),
            ("one box", a, seq((-2, 3), 5, 6)),
            ("cancelling", a, a),
            ("rounding-level", a, a * (1 + 1e-15))]


def _same_seq(x, y):
    return (x.origin == y.origin and x.box.shape == y.box.shape
            and np.array_equal(x.box, y.box))


@pytest.mark.parametrize("kind", BOTH_KINDS, ids=lambda k: k.value)
def test_box_aligned_sums_equal_the_entry_scatter_bitwise(params, kind, rng):
    cases = _sum_cases(params, kind, rng)
    for name, a, b in cases:
        assert _same_seq(a + b, entry_sum(a, b, 1)), name
        assert _same_seq(a - b, entry_sum(a, b, -1)), name
        assert _same_seq(b - a, entry_sum(b, a, -1)), name
        assert l1_diff(a, b) == entry_sum(a, b, -1, prune=0.0).l1_norm(), name
    a = cases[0][1]
    assert (a - a).values.size == 0 and (a + (-1.0) * a).values.size == 0
    assert l1_diff(a, a) == 0.0


def test_atom_box_is_refused_before_allocation(params_q1):
    g = gaussian(GridSpec(L=22.0, N=512, q=1))
    with pytest.raises(ValueError, match="2401x2401 box .* exceeds"):
        inner_left(g, g, params_q1, 600.0)
    with pytest.raises(ValueError, match="93x93 adjoint shift family .* exceeds"):
        adjoint_shift_family(g, params_q1, 92.0)     # 93·93·512 cells, factors fit
