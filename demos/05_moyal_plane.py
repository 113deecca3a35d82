"""The continuous picture: Moyal identity, energies, and Gaussian uniqueness.

Over the full time-frequency plane every window generates a tight
continuous frame (the Moyal identity), the Chern number of the projection
⟨g,g⟩/(q‖g‖²) equals q for every window, and the phase-space energy

    E(g) = (π/‖g‖⁴) Σ_{c,l} ∬ (x²+ω²)|V_g g|² d(x,ω)

is minimized exactly on generalized Gaussians c_k·e^{−πx²−iλx} — the only
windows solving the eigenvalue problem (∇₁+i∇₂)g ∈ span{g}.
"""

import numpy as np

from ncgabor import GridSpec, gaussian, hermite, random_timefreq_probe
from ncgabor.moyal import (continuous_chern, continuous_energy,
                           default_window_corpus, eigen_residual, moyal_check)

spec = GridSpec(L=16.0, N=512, q=1)
rng = np.random.default_rng(2)

g = gaussian(spec) * 2 ** 0.25
f = random_timefreq_probe(spec, rng, spread=1.5)
lhs, rhs, err = moyal_check(f, g)
print(f"Moyal identity: quadrature {lhs:.12f} vs q·‖g‖²·‖f‖² = {rhs:.12f} "
      f"(relative error {err:.1e})")

spec3 = GridSpec(L=16.0, N=512, q=3)
_, _, err3 = moyal_check(random_timefreq_probe(spec3, rng),
                         gaussian(spec3, coeffs=[1, 2j, -0.5]))
print(f"Moyal identity at q=3, arbitrary channel weights: error {err3:.1e}")

print(f"\ncontinuous Chern number of the Gaussian projection: "
      f"{continuous_chern(g).real:+.9f} (q for every window inside the box)")

print("\nphase-space energy screening (minimum is q = 1):")
for name, w, is_gauss in default_window_corpus(spec):
    e = continuous_energy(w)
    tag = "minimizer" if is_gauss else f"gap {e - 1:+.4f}"
    print(f"  {name:26s} E = {e:9.6f}   {tag}")

print("\neigenvalue problem (∇₁+i∇₂)g = λg:")
for name, w in [("gaussian", g),
                ("gaussian λ=1+1j", gaussian(spec, lam=1 + 1j)),
                ("hermite1", hermite(spec, 1))]:
    lam_est, res = eigen_residual(w, +1)
    print(f"  {name:18s} λ_est = {lam_est:+.6f}, residual {res:.2e}")
print("only generalized Gaussians solve it; every other window is bounded "
      "away from the eigenline")
