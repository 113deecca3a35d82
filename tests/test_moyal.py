import math
import re
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import quad

from ncgabor import algebra, geometry, moyal, signal
from ncgabor.lattice import TorusParams
from ncgabor.signal import (GridSignal, GridSpec, PhasePoint, gaussian, hermite, inner, norm,
                            tf_shift)
from ncgabor.frame import lift_scalar_window
from ncgabor.moyal import (_corpus_entry, _stft_chunks, bump_window, bandlimited_noise_window,
                           continuous_chern, continuous_energy,
                           continuous_inner_right, continuous_trace_r,
                           default_window_corpus, eigen_residual,
                           load_corpus_file, moyal_check)
from conftest import (full_grid_energy, gathered_stft_blocks, gaussian_probe,
                      single_stage_stft_blocks)


SPEC = GridSpec(L=16.0, N=512, q=1)
CORPUS = Path(__file__).resolve().parents[1] / "configs" / "moyal_corpus.cfg"


def test_moyal_identity_gaussian():
    g = gaussian(SPEC) * 2 ** 0.25
    lhs, rhs, err = moyal_check(g, g)
    assert rhs == pytest.approx(1.0)
    assert err < 1e-10


def test_moyal_identity_channel_factor():
    spec3 = GridSpec(L=16.0, N=512, q=3)
    g = gaussian(spec3)
    f = gaussian(spec3, coeffs=[1.0, 0.5j, -0.2], lam=0.8)
    lhs, rhs, err = moyal_check(f, g)
    assert rhs == pytest.approx(3 * norm(g) ** 2 * norm(f) ** 2)
    assert err < 1e-10


def test_moyal_orthogonal_pair():
    # no interference term: orthogonality of f and g is irrelevant
    g = gaussian(SPEC) * 2 ** 0.25
    h1 = hermite(SPEC, 1)
    assert abs(inner(h1, g)) < 1e-14
    lhs, rhs, err = moyal_check(h1, g)
    assert lhs == pytest.approx(1.0, abs=1e-10)  # q·‖g‖²·‖h₁‖²
    assert err < 1e-10


def test_moyal_random_pairs(rng):
    for q in (1, 2, 3):
        spec = GridSpec(L=16.0, N=512, q=q)
        for _ in range(3):
            f = gaussian_probe(spec, rng, spread=1.5)
            g = gaussian_probe(spec, rng, spread=1.5)
            _, _, err = moyal_check(f, g)
            assert err < 1e-8


@pytest.mark.parametrize("channels, period", [
    pytest.param((0,), 1, id="1"), pytest.param((0, 1), 2, id="2"),
    pytest.param((0, 1, 2), 3, id="3"), pytest.param((0, 0, 0), 1, id="lifted3"),
    pytest.param((0, 1, 0, 1), 2, id="period2"), pytest.param((0, 1, 0), 3, id="aba"),
    pytest.param((0, 1, 2, 0, 1, 2), 3, id="period3of6"),
    pytest.param((0, 1, 0, 1, 0, 1), 2, id="period2of6"),
    pytest.param((0,) * 4, 1, id="lifted4"), pytest.param((0,) * 6, 1, id="lifted6")])
def test_stft_nodes_match_their_definition(channels, period):
    # N = 200 leaves a partial last chunk of x nodes; channel k of g is channel
    # channels[k] of a random window of pairwise distinct channels, so
    # q/period columns l share each block
    q, rng = len(channels), np.random.default_rng(29)
    spec = GridSpec(L=12.0, N=200, q=q)
    f = gaussian_probe(spec, rng, spread=1.5)
    head = gaussian_probe(GridSpec(L=12.0, N=200, q=len(set(channels))), rng, spread=1.5)
    assert len({row.tobytes() for row in head.values}) == head.spec.q
    g = GridSignal(spec, head.values[list(channels)])
    nodes = rng.integers(0, [q, q, spec.N, spec.N], size=(20, 4))   # (c, l, j, m)
    got = {}
    for js, v, mult, group in _stft_chunks(f, g):
        assert v.shape[1] == period and mult == q // period
        assert np.array_equal(group, np.arange(q) % period)
        for c, l, j, m in nodes:
            if js[0] <= j <= js[-1]:
                got[c, l, j, m] = v[c, group[l], j - js[0], m]
    x = np.roll(spec.x(), spec.N // 2)   # roll order: the shifts j·Δx from 0
    for c, l, j, m in nodes:
        expected = inner(f, tf_shift(g, PhasePoint(x[j], l, spec.freqs()[m], c)))
        assert abs(got[c, l, j, m] - expected) < 1e-12


@pytest.mark.parametrize("q", [1, 2, 3])
def test_stft_chunks_match_the_single_stage_dft(q):
    # against one q x q channel DFT per block: bitwise at q = 1 and for every
    # window of distinct channels (p = q, the noise windows and the default
    # corpus's random channels), within 1e-15 max|V| for the lifted windows (p = 1)
    spec = GridSpec(L=16.0, N=512, q=q)
    f = gaussian_probe(spec, np.random.default_rng(q), spread=2.0)
    periods = set()
    for name, w, _ in load_corpus_file(CORPUS, spec) + default_window_corpus(spec):
        oracle, p = single_stage_stft_blocks(f, w)
        periods.add(p)
        gap = scale = 0.0
        for js, v, _, _ in _stft_chunks(f, w):
            old = oracle(js, lambda u: np.fft.fft(u, axis=3))
            if p == q:
                assert np.array_equal(v, old), name
            gap, scale = max(gap, np.abs(v - old).max()), max(scale, np.abs(old).max())
        assert gap <= 1e-15 * scale, name
    assert periods == {1, q}


@pytest.mark.parametrize("n", [200, 512])
@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
def test_stft_chunks_match_the_gathered_blocks(q, n):
    # the blocks streamed through two reused buffers are bitwise those of the
    # gathered rolled translates (N = 200 leaves a partial last chunk), and
    # every chunk is a view of one buffer: nothing is allocated per chunk
    spec = GridSpec(L=16.0, N=n, q=q)
    f = gaussian_probe(spec, np.random.default_rng(q), spread=2.0)
    for name, w, _ in load_corpus_file(CORPUS, spec):
        oracle, _ = gathered_stft_blocks(f, w)
        chunks = _stft_chunks(f, w)
        js, first, _, _ = next(chunks)
        assert np.array_equal(first, oracle(js, lambda u: np.fft.fft(u, axis=-1))), name
        for js, v, _, _ in chunks:
            assert np.shares_memory(v, first), name
            assert np.array_equal(v, oracle(js, lambda u: np.fft.fft(u, axis=-1))), name


@pytest.mark.parametrize("q, box", [(1, 5.0), (1, 9.0), (1, 12.0), (2, 9.0)])
def test_continuous_chern_blocks_match_the_gathered_blocks(q, box, monkeypatch):
    # continuous_chern's x nodes, 4 samples apart, span 320 samples at box = 5
    # and more than the 512-sample period at box = 9 (576) and 12 (768); its
    # blocks are bitwise those of the gather, for one class of l at q = 1 and
    # for the two distinct channels at q = 2 (the p-point stage's buffer)
    spec = GridSpec(L=16.0, N=512, q=q)
    g = gaussian(spec, coeffs=[1.0, 0.3 - 0.4j][:q], lam=0.8)
    streamed, checked = moyal._stft_blocks, []

    def checking_blocks(f, w, *args):
        blocks, (oracle, _) = streamed(f, w, *args), gathered_stft_blocks(f, w)

        def both(js, contract):
            v = blocks(js, contract)
            checked.append(np.array_equal(v, oracle(js, contract)))
            return v
        return both

    monkeypatch.setattr(moyal, "_stft_blocks", checking_blocks)
    assert abs(continuous_chern(g, box=box) - q) < 1e-6
    assert checked == [True]


def test_moyal_check_allocates_nothing_per_chunk():
    # one q = 3 noise_a check (p = 3: 32 chunks of 16 x nodes) holds its two
    # chunk buffers and the tile of conj(g), 2p - 1 rows of 2N + 14 samples,
    # and at most 64 KiB besides; a block formed per chunk would add 1.2 MB
    spec = GridSpec(L=16.0, N=512, q=3)
    w = {n: w for n, w, _ in load_corpus_file(CORPUS, spec)}["noise_a"]
    f = gaussian_probe(spec, np.random.default_rng(3), spread=2.0)
    moyal_check(f, w)   # the FFT's plan cache is filled once
    tracemalloc.start()
    try:
        moyal_check(f, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffers, tile = 2 * 3 * 3 * moyal.CHUNK * spec.N, 5 * (2 * spec.N + moyal.CHUNK - 2)
    assert peak <= 16 * (buffers + tile) + (64 << 10)


def test_moyal_chunk_is_sized_from_the_budget(monkeypatch):
    # one x node at q = 3, N = 512 holds 3·1·512 cells for a lifted window and
    # 2·3·3·512 (two buffers) for distinct channels; a budget of 5 such nodes
    # makes chunks of 5, whose sums agree with the chunks of 16 to roundoff
    spec = GridSpec(L=16.0, N=512, q=3)
    f = gaussian_probe(spec, np.random.default_rng(3), spread=2.0)
    windows = {n: w for n, w, _ in load_corpus_file(CORPUS, spec)}
    for name, cells in [("hermite1", 3 * 512), ("noise_a", 2 * 3 * 3 * 512)]:
        _, rhs, err = moyal_check(f, windows[name])
        monkeypatch.setattr(signal, "BOX_BUDGET", 5 * cells + 1)
        assert {len(js) for js, _, _, _ in _stft_chunks(f, windows[name])} == {5, 2}
        _, rhs_small, err_small = moyal_check(f, windows[name])
        assert rhs_small == rhs and abs(err_small - err) < 1e-15
        monkeypatch.setattr(signal, "BOX_BUDGET", cells - 1)
        with pytest.raises(ValueError, match=re.escape(
                f"one x node at q=3, p={3 if name == 'noise_a' else 1}, N=512 "
                f"({cells} cells) exceeds {cells - 1} cells")):
            moyal_check(f, windows[name])
        monkeypatch.undo()


@pytest.mark.parametrize("window, kwargs, match", [
    ("noise", {"bandwidth": math.nan}, "noise bandwidth must be finite and positive, got nan"),
    ("noise", {"bandwidth": -1.0}, "noise bandwidth must be finite and positive, got -1.0"),
    ("noise", {"envelope": math.inf}, "noise envelope must be finite and positive, got inf"),
    ("noise", {"envelope": 0.0}, "noise envelope must be finite and positive, got 0.0"),
    ("bump", {"width": math.inf}, "bump width must be finite and positive, got inf"),
    ("bump", {"width": math.nan}, "bump width must be finite and positive, got nan"),
    ("bump", {"power": -1}, "bump power must be non-negative, got -1"),
    ("gaussian", {"lam": math.inf}, "Gaussian lam must be finite, got (inf+0j)"),
    ("gaussian", {"lam": complex(math.nan)}, "Gaussian lam must be finite, got (nan+0j)"),
    ("gaussian", {"lam": 1e300j}, "Gaussian lam = 1e+300j overflows floating point on the grid"),
    ("gaussian", {"lam": 1e308}, "Gaussian lam = (1e+308+0j) overflows floating point on the grid"),
    ("hermite", {"n": 400}, "Hermite order 400 overflows floating point on the grid"),
    # at n = 150 the profile is finite and its norm overflows
    ("hermite", {"n": 150}, "Hermite order 150 overflows floating point on the grid")])
def test_window_sizes_are_refused_by_name(window, kwargs, match):
    # refused before any array is formed or an overflow reaches numpy's
    # warnings, so numpy warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(match)):
            if window == "noise":
                bandlimited_noise_window(SPEC, np.random.default_rng(0), **kwargs)
            else:
                {"bump": bump_window, "gaussian": gaussian, "hermite": hermite}[window](
                    SPEC, **kwargs)


@pytest.mark.parametrize("name, rows", [("hermite1", 3), ("noise_a", 9)])
def test_moyal_check_transforms_each_distinct_column_once(name, rows, monkeypatch):
    # a channel-constant window at q = 3 makes one block of 3 channel rows per
    # x node, a window with distinct channels 3 blocks, as the full grid had
    spec = GridSpec(L=16.0, N=512, q=3)
    w = {n: w for n, w, _ in load_corpus_file(CORPUS, spec)}[name]
    f = gaussian_probe(spec, np.random.default_rng(3), spread=2.0)
    fft, counted, in_place = np.fft.fft, [], []

    def counting_fft(a, *args, **kwargs):
        counted.append(a.size // a.shape[-1])
        in_place.append(kwargs.get("out") is a)
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting_fft)
    _, _, err = moyal_check(f, w)
    assert sum(counted) == rows * spec.N
    assert all(in_place)   # every FFT writes into the block it transforms
    assert err < 1e-13


def test_lifted_continuous_chern_runs_one_channel_triple():
    # the q = 2 lifted Gaussian has two equal active channel tables (l, 0):
    # its four channel pairs read one triple of tables
    scalar = gaussian(GridSpec(L=16.0, N=512, q=1))
    lifted = lift_scalar_window(scalar, TorusParams(0.5, 1 / 3, 1, 1, 2))
    with mock.patch.object(geometry, "_chern_triple_sum",
                           wraps=geometry._chern_triple_sum) as triple:
        c1 = continuous_chern(lifted)
    assert triple.call_count == 1
    assert abs(c1 - 2) < 1e-6


@pytest.mark.parametrize("q", [1, 2, 3])
def test_continuous_energy_matches_the_full_grid(q):
    corpus = load_corpus_file(CORPUS, GridSpec(L=16.0, N=512, q=q))
    assert len(corpus) == 12
    for name, w, _ in corpus:
        oracle = full_grid_energy(w)
        assert abs(continuous_energy(w) - oracle) <= 1e-12 * oracle, name


def test_roll_order_nodes_are_the_wrapped_shifts():
    # the x nodes of the Moyal sums, the sample grid read N/2 samples late, are
    # the shifts j·Δx wrapped to [−L/2, L/2): bitwise where N is a power of
    # two, so that every sum is exact, to roundoff where it is not (N = 200)
    for L, N in [(16.0, 512), (22.0, 512), (10.0, 256), (30.0, 1024), (12.0, 200)]:
        spec = GridSpec(L=L, N=N)
        x = np.roll(spec.x(), N // 2)
        wrapped = (spec.dx * np.arange(N) + L / 2) % L - L / 2
        assert x[0] == 0.0 and x.min() == -L / 2
        assert np.array_equal(x, wrapped) == (N != 200)
        assert np.abs(x - wrapped).max() <= 4 * np.finfo(float).eps * L


def test_continuous_energy_gaussian_scale_invariant():
    for lam, scale in [(0.0, 1.0), (2.0, 1.0), (1 + 0.7j, 3.2)]:
        g = scale * gaussian(SPEC, lam=lam)
        assert continuous_energy(g) == pytest.approx(1.0, abs=1e-6)


def test_continuous_energy_lifted_gaussian():
    for q in (2, 3):
        spec = GridSpec(L=16.0, N=512, q=q)
        assert continuous_energy(gaussian(spec)) == pytest.approx(q, abs=1e-6)


def test_hermite_energy_golden_value():
    # quadrature oracle: E(h₁) = π∫(x²+ω²)|V_{h₁}h₁|² with the ambiguity
    # |V|² = e^{−πr²}(1−πr²)², evaluated in polar coordinates
    oracle, _ = quad(lambda r: 2 * np.pi ** 2 * r ** 3 * np.exp(-np.pi * r ** 2)
                     * (1 - np.pi * r ** 2) ** 2, 0, 12)
    assert oracle == pytest.approx(3.0, abs=1e-10)
    assert continuous_energy(hermite(SPEC, 1)) == pytest.approx(oracle, abs=1e-6)


def test_corpus_minimizer_screening():
    corpus = default_window_corpus(SPEC)
    assert len(corpus) == 12
    for name, w, is_gauss in corpus:
        e = continuous_energy(w)
        gap = e - SPEC.q
        assert gap > -1e-6, name
        assert (gap < 1e-6) == is_gauss, (name, gap)
    gaps = {name: continuous_energy(w) - 1 for name, w, _ in corpus}
    assert gaps["hermite1"] > 0.5


def test_corpus_file_roundtrip(tmp_path):
    path = tmp_path / "corpus.cfg"
    path.write_text("a = gaussian lam=1+1j\nb = hermite n=2\n"
                    "c = bump width=2 power=3\nd = noise seed=3\n")
    corpus = load_corpus_file(path, SPEC)
    assert [name for name, _, _ in corpus] == ["a", "b", "c", "d"]
    assert [g for _, _, g in corpus] == [True, False, False, False]
    bad = tmp_path / "bad.cfg"
    bad.write_text("x = wavelet\n")
    with pytest.raises(ValueError, match="unknown corpus"):
        load_corpus_file(bad, SPEC)


def test_eigen_residual_gaussian():
    lam_est, res = eigen_residual(gaussian(SPEC) * 2 ** 0.25, +1)
    assert abs(lam_est) < 1e-10
    assert res < 1e-8


def test_eigen_residual_generalized_gaussian():
    lam = 1.0 + 1.0j
    lam_est, res = eigen_residual(gaussian(SPEC, lam=lam), +1)
    assert lam_est == pytest.approx(lam, abs=1e-8)
    assert res < 1e-8


def test_eigen_residual_hermite_bounded_away():
    _, res = eigen_residual(hermite(SPEC, 1), +1)
    assert res > 0.5
    _, res_minus = eigen_residual(hermite(SPEC, 1), -1)
    assert res_minus > 0.5


def test_eigen_residual_minus_sign():
    # the conjugate Gaussian e^{−πx²+...} direction solves the minus equation:
    # for the standard Gaussian (∇₁−i∇₂)g = 4πi·x·g is far from span{g}
    _, res = eigen_residual(gaussian(SPEC), -1)
    assert res > 0.5


def test_continuous_trace_compatibility(rng):
    for q in (1, 3):
        spec = GridSpec(L=16.0, N=512, q=q)
        f, g = gaussian_probe(spec, rng), gaussian_probe(spec, rng)
        b = continuous_inner_right(g, f)          # right pairing <g,f> = q<f,g>
        assert continuous_trace_r(b, q) == pytest.approx(inner(f, g), abs=1e-12)


def test_continuous_chern_q1():
    g = gaussian(SPEC) * 2 ** 0.25
    c1 = continuous_chern(g)
    assert abs(c1 - 1.0) < 1e-6
    assert abs(c1.imag) < 1e-10


def test_continuous_chern_q2():
    params = TorusParams(0.5, 1 / 3, 1, 1, 2)
    g = lift_scalar_window(gaussian(GridSpec(L=16.0, N=512, q=1)), params)
    c1 = continuous_chern(g)
    assert abs(c1 - 2.0) < 1e-6


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("window", ["hermite1", "hermite2", "hermite3", "bump"])
def test_continuous_chern_non_gaussian(window, q):
    # any window whose phase-space mass lies inside the box gives c1 = q
    spec = GridSpec(L=16.0, N=512, q=q)
    g = bump_window(spec) if window == "bump" else hermite(spec, int(window[-1]))
    assert abs(continuous_chern(g) - q) < 1e-6


def _chern_window(name, q):
    # at L = 12 the omega nodes b/8 are no FFT bins (1/12): their phases at x and x + L/2 differ
    spec = GridSpec(L=12.0, N=384, q=q)
    if name == "lifted":
        return lift_scalar_window(gaussian(GridSpec(L=12.0, N=384, q=1)),
                                  TorusParams(0.5, 1 / 3, 1, 1, 2))
    if name == "distinct":   # pairwise distinct channels: q classes of l
        return gaussian(spec, coeffs=[1.0, 0.3 - 0.4j, -0.2j][:q], lam=0.8)
    return hermite(spec, 2) if name == "hermite2" else gaussian(spec)


@pytest.mark.parametrize("q, name", [(1, "gaussian"), (2, "lifted"), (2, "distinct"),
                                     (3, "distinct"), (3, "hermite2")])
def test_continuous_chern_table_matches_its_definition(q, name, rng):
    # the double sum reads p[l,c,a,b] = <g, E_{w_b,c}T_{x_a,l}g>/(q|g|^2) on the
    # nodes x_a = (a-k)*step, w_b = (b-k)*step, step = 0.125 = 4 dx; checked at
    # 30 nodes with |x|, |w| <= 2.5, where the table is not negligible
    g = _chern_window(name, q)
    with mock.patch.object(moyal, "_chern_double_sum", wraps=moyal._chern_double_sum) as kernel:
        c1 = continuous_chern(g)
    assert abs(c1 - q) < 1e-6
    p = kernel.call_args.args[0]
    k, step = (p.shape[2] - 1) // 2, 4 * g.spec.dx
    assert p.shape == (q, q, 2 * k + 1, 2 * k + 1) and k == 40
    scale = q * norm(g) ** 2
    for l, c, a, b in rng.integers([0, 0, -20, -20], [q, q, 21, 21], size=(30, 4)):
        nu = PhasePoint(a * step, l, b * step, c)
        assert abs(p[l, c, a + k, b + k] - inner(g, tf_shift(g, nu)) / scale) < 1e-14
    if name == "lifted":   # one class of l: the columns l are one table
        assert np.array_equal(p[0], p[1])


def test_continuous_chern_reads_no_atom_table(monkeypatch):
    # the table is the rolled-product STFT of moyal_check: the phase-table memo
    # serves only the twist table, no lattice translate or modulation phases
    keys, memo = [], algebra._memo
    monkeypatch.setattr(algebra, "_memo", lambda key, build: keys.append(key) or memo(key, build))
    for q in (1, 2):
        assert abs(continuous_chern(_chern_window("distinct", q)) - q) < 1e-6
    assert not {key[0] for key in keys} & {"translate", "modulate"}


@pytest.mark.parametrize("kwargs, match", [
    *(({name: value}, f"{name} must be finite and positive in samples of dx = 0.0078125, "
                      f"got {value}")
      for name in ("step", "box") for value in (0.0, -1.0, math.inf, math.nan, 1e308)),
    ({"step": 1 / 128, "box": 4.0},
     "1025 nodes a side at q=3, N=2048 needing 37804050 cells at p=3 exceeds 4194304 cells"),
    ({"box": 1e300}, "nodes a side at q=3, N=2048 needing")])
def test_continuous_chern_refuses_bad_arguments(kwargs, match):
    # step and box must be finite and positive, also in samples (1e308 / dx
    # overflows); at step = dx = 1/128 and box = 4 the q = 3 window of distinct
    # channels has 1025 nodes a side, and its two STFT buffers, 3·3·1025 x
    # (2048 + 1025) cells, and its 3·3·1025² table are refused before they are
    # formed, as is a box of 1e300
    spec = GridSpec(L=16.0, N=2048, q=3)
    with pytest.raises(ValueError, match=re.escape(match)):
        continuous_chern(gaussian(spec, coeffs=[1.0, 0.3 - 0.4j, -0.2j], lam=0.8), **kwargs)


@pytest.mark.parametrize("q", [1, 2])
def test_continuous_chern_refuses_windows_leaving_the_box(q):
    # noise_c reaches beyond |x|, |omega| <= 5: its c1 would be 0.372 at q = 1, 0.671 at q = 2
    spec = GridSpec(L=16.0, N=512, q=q)
    noise_c = {name: w for name, w, _ in default_window_corpus(spec)}["noise_c"]
    with pytest.raises(ValueError, match=r"relative mass 1\.\d+e-02 .* box = 5"):
        continuous_chern(noise_c)


def test_bump_and_noise_windows(rng):
    b = bump_window(SPEC, width=2.0)
    assert norm(b) == pytest.approx(1.0)
    assert np.all(np.abs(b.values[0][np.abs(SPEC.x()) > 2.0]) == 0.0)
    n = bandlimited_noise_window(SPEC, rng)
    assert norm(n) == pytest.approx(1.0)


def test_moyal_check_and_eigen_residual_refusals():
    spec = GridSpec(L=16.0, N=128)
    with pytest.raises(ValueError, match="grid mismatch"):
        moyal_check(gaussian(spec), gaussian(GridSpec(L=16.0, N=256)))
    with pytest.raises(ValueError, match="zero window"):
        eigen_residual(GridSignal(spec, np.zeros((1, spec.N))), 1)


@pytest.mark.parametrize("line, message", [
    ("x = gaussian lamda=2", "a gaussian window reads no key 'lamda'"),
    ("x = bump widht=9", "a bump window reads no key 'widht'"),
    ("x = hermite n=2 lam=1", "a hermite window reads no key 'lam'"),
    ("x = bump width=3 width=9", "key 'width' is given twice"),
    ("x = noise seed=1 bandwidth=2 seed=2", "key 'seed' is given twice")])
def test_corpus_entry_names_the_key_it_refuses(line, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _corpus_entry(line, GridSpec(L=16.0, N=128))
