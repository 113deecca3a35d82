import math

import numpy as np
import pytest
from hypothesis import given

from ncgabor.lattice import (LatticeKind, TorusParams, annihilator_params,
                             enumerate_lattice, index_bounds, lattice_twist,
                             mod_inverse, point_at, soliton_admissible)
from conftest import PROPERTY, lattices


def brute_inverse(r, q):
    for x in range(1, q):
        if (r * x) % q == 1:
            return x
    raise AssertionError("no inverse")


def test_mod_inverse_degenerate():
    assert mod_inverse(0, 1) == 0


@pytest.mark.parametrize("q", [2, 3, 5, 8, 12])
def test_mod_inverse_of_one(q):
    assert mod_inverse(1, q) == 1


def test_mod_inverse_example():
    assert mod_inverse(2, 3) == brute_inverse(2, 3) == 2


def test_mod_inverse_matches_brute_force():
    for q in range(2, 30):
        for r in range(1, q):
            if math.gcd(r, q) == 1:
                assert mod_inverse(r, q) == brute_inverse(r, q)


def test_mod_inverse_involution():
    for q in range(2, 25):
        for r in range(1, q):
            if math.gcd(r, q) == 1:
                assert mod_inverse(mod_inverse(r, q), q) == r


def test_mod_inverse_top_element():
    # r = q-1 is its own inverse
    for q in [2, 3, 5, 7, 11]:
        assert mod_inverse(q - 1, q) == q - 1


def test_mod_inverse_rejects_non_coprime():
    with pytest.raises(ValueError, match="not coprime"):
        mod_inverse(2, 4)
    with pytest.raises(ValueError):
        mod_inverse(1, 1)
    with pytest.raises(ValueError, match="modulus must be a positive integer, got q=0"):
        mod_inverse(1, 0)


def test_params_validation():
    with pytest.raises(ValueError):
        TorusParams(0.0, 1.0)
    with pytest.raises(ValueError):
        TorusParams(1.0, 1.0, r=1, s=0, q=1)
    with pytest.raises(ValueError, match="not coprime"):
        TorusParams(1.0, 1.0, r=2, s=1, q=4)
    with pytest.raises(ValueError):
        TorusParams(1.0, 1.0, r=5, s=1, q=4)  # out of range
    with pytest.raises(ValueError):
        TorusParams(1.0, 1.0, q=0)
    with pytest.raises(ValueError, match="lattice steps must be finite"):
        TorusParams(math.inf, 1.0)


def test_twists():
    p = TorusParams(0.5, 1 / 3, 1, 1, 2)
    assert p.theta == pytest.approx(1 / 6 + 1 / 2)
    assert p.adjoint_twist == pytest.approx(3 / 2 + 1 / 2)
    # t = real + num/q: −αβ − rs/q on Λ×Γ, (αβq²)⁻¹ + r°s°/q on the adjoint lattice
    assert lattice_twist(p, LatticeKind.TIME_FREQ) == (-0.5 * (1 / 3), -1)
    assert lattice_twist(p, LatticeKind.ADJOINT) == (pytest.approx(3 / 2), 1)


def test_scalar_lattice_of_a_lift():
    assert TorusParams(0.5, 1 / 3, 1, 1, 2).scalar_lattice == TorusParams(0.5, 2 * (1 / 3))
    assert TorusParams(0.5, 2 / 15, 1, 1, 3).scalar_lattice == TorusParams(0.5, 3 * (2 / 15))
    assert TorusParams(0.5, 0.5).scalar_lattice is None                # q = 1
    assert TorusParams(0.52, 1 / 3, 1, 1, 2).scalar_lattice is None    # twist 1.942…


def test_annihilator_example_q2():
    p = TorusParams(0.5, 1 / 3, 1, 1, 2)
    adj = annihilator_params(p)
    assert adj.time_step == pytest.approx(1.5)       # 1/(βq)
    assert adj.time_slope == (-1) % 2                # slope −s° mod q
    assert adj.freq_step == pytest.approx(1.0)       # 1/(αq)
    assert adj.freq_slope == (-1) % 2
    assert adj.mu_time == pytest.approx(1.0)         # q|α|
    assert adj.mu_time_perp == pytest.approx(1.0)


def test_annihilator_degenerate_q1():
    p = TorusParams(1.0, 1.0)
    adj = annihilator_params(p)
    assert adj.time_step == pytest.approx(1.0)
    assert adj.freq_step == pytest.approx(1.0)
    assert adj.time_slope == 0 and adj.freq_slope == 0


def test_covolume_products_exact(rng):
    for _ in range(10):
        alpha = float(rng.uniform(0.3, 1.6))
        beta = float(rng.uniform(0.3, 1.6))
        q = int(rng.integers(1, 6))
        r = s = 0
        if q > 1:
            units = [u for u in range(1, q) if math.gcd(u, q) == 1]
            r = int(rng.choice(units))
            s = int(rng.choice(units))
        adj = annihilator_params(TorusParams(alpha, beta, r, s, q))
        assert abs(adj.mu_time * adj.mu_time_perp - 1.0) < 1e-15
        assert abs(adj.mu_freq * adj.mu_freq_perp - 1.0) < 1e-15


def test_enumerate_integer_lattice():
    pts = enumerate_lattice(TorusParams(1.0, 1.0), LatticeKind.TIME_FREQ, 1.5)
    assert len(pts) == 9
    assert {(p.n1, p.n2) for p in pts} == {(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)}


def test_enumerate_q2_example():
    p = TorusParams(0.5, 1 / 3, 1, 1, 2)
    pts = enumerate_lattice(p, LatticeKind.TIME_FREQ, 1.0)
    assert len(pts) == 35  # 5 time values x 7 frequency values
    lams = sorted({pt.lam for pt in pts})
    assert lams == pytest.approx([-1.0, -0.5, 0.0, 0.5, 1.0])
    for pt in pts:
        assert pt.l == pt.n1 % 2
        assert pt.c == pt.n2 % 2


def test_origin_always_present(rng):
    for _ in range(5):
        p = TorusParams(float(rng.uniform(0.2, 2)), float(rng.uniform(0.2, 2)))
        for kind in LatticeKind:
            pts = enumerate_lattice(p, kind, 0.05)
            assert any(pt.n1 == 0 and pt.n2 == 0 for pt in pts)


def test_enumeration_is_lexicographic():
    p = TorusParams(0.7, 0.9)
    pts = enumerate_lattice(p, LatticeKind.TIME_FREQ, 2.0)
    order = [(pt.n1, pt.n2) for pt in pts]
    assert order == sorted(order)


@PROPERTY
@given(lattices())
def test_annihilator_biorthogonality(p):
    # e^{2πi(λξ + lτ/q)} = 1 for lattice vs annihilator, over 20x20 index boxes
    adj = annihilator_params(p)
    worst = 0.0
    for n in range(-10, 10):
        lam, l = p.alpha * n, (p.r * n) % p.q
        gam, c = p.beta * n, (p.s * n) % p.q
        for m in range(-10, 10):
            # Λ against Λ⊥ (frequency-domain annihilator)
            xi, tau = adj.freq_step * m, (adj.freq_slope * m) % p.q
            ph = np.exp(2j * np.pi * (lam * xi + l * tau / p.q))
            worst = max(worst, abs(ph - 1.0))
            # Γ against Γ⊥ (time-domain annihilator)
            xi2, tau2 = adj.time_step * m, (adj.time_slope * m) % p.q
            ph2 = np.exp(2j * np.pi * (gam * xi2 + c * tau2 / p.q))
            worst = max(worst, abs(ph2 - 1.0))
    assert worst < 1e-12


def test_soliton_admissible_examples():
    ok, d = soliton_admissible(TorusParams(0.5, 0.5))
    assert ok and d["integer_combination"] == pytest.approx(4.0)
    assert d["density"] == pytest.approx(0.25)

    ok2, d2 = soliton_admissible(TorusParams(0.5, 1 / 3, 1, 1, 2))
    assert ok2 and d2["integer_combination"] == pytest.approx(2.0)
    assert d2["density"] == pytest.approx(1 / 3)

    ok3, d3 = soliton_admissible(TorusParams(1.0, 1.0))
    assert not ok3  # critical density excluded
    assert d3["density"] == pytest.approx(1.0)


def test_index_bounds_and_points():
    p = TorusParams(0.5, 1 / 3, 1, 1, 2)
    assert index_bounds(p, LatticeKind.TIME_FREQ, 6.0) == (12, 18)
    pt = point_at(p, LatticeKind.ADJOINT, 1, 2)
    assert pt.lam == pytest.approx(1.5)
    assert pt.gamma == pytest.approx(2.0)
    assert pt.l == 1 and pt.c == 0
    with pytest.raises(ValueError):
        index_bounds(p, LatticeKind.TIME_FREQ, -1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            index_bounds(p, LatticeKind.ADJOINT, bad)
