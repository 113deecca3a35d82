"""Gabor frames: bounds, canonical dual and tight windows, duality checks.

The canonical dual S_g⁻¹g is read off a Lanczos run of the frame operator
S_g; biorthogonality across the annihilator lattice (the
Wexler-Raz relations) certifies duality, and the Laurent symbol of the
adjoint Gram operator gives an independent frame verdict.  A scalar
Gaussian lifts to a q-channel frame whenever the adjoint twist is an
integer.
"""

import numpy as np

from ncgabor import GridSpec, TorusParams, gaussian, random_timefreq_probe
from ncgabor.frame import (FrameSystem, canonical_dual, canonical_tight,
                           frame_bounds, laurent_symbol, lift_scalar_window,
                           project_dual_pair, reconstruction_residual,
                           wexler_raz_residual)
from ncgabor.algebra import inner_left, l1_diff, trace_l

params = TorusParams(0.5, 0.5)
spec = GridSpec(L=22.0, N=512, q=1)
g = gaussian(spec)
system = FrameSystem(g, params, radius=6.0)

a_est, b_est = frame_bounds(system)
print(f"frame bounds of the Gaussian at (α,β)=(½,½): "
      f"A={a_est:.4f}, B={b_est:.4f}, B/A={b_est / a_est:.4f}")

h = canonical_dual(system)
print(f"canonical dual: Wexler-Raz residual "
      f"{wexler_raz_residual(g, h, params, 6.0):.2e}")

rng = np.random.default_rng(1)
probes = [random_timefreq_probe(spec, rng, spread=2.5) for _ in range(10)]
rec = reconstruction_residual(probes, g, h, params, 6.0)
print(f"reconstruction residual over 10 random probes: {rec:.2e}")

t = canonical_tight(system)
ta, tb = frame_bounds(FrameSystem(t, params, radius=6.0))
print(f"canonical tight window: bounds A={ta:.8f}, B={tb:.8f}, "
      f"Wexler-Raz residual {wexler_raz_residual(t, t, params, 6.0):.2e}")
gauge = l1_diff(inner_left(g, h, params, 6.0), inner_left(t, t, params, 6.0))
print(f"gauge identity ⟨g,S⁻¹g⟩ = ⟨S^(-1/2)g, S^(-1/2)g⟩: ℓ¹ residual {gauge:.2e}")

a = project_dual_pair(g, h, params, 6.0, require_self_adjoint=True)
print(f"dual-pair projection: tr(a) = {trace_l(a).real:.6f} "
      f"(expected q|αβ| = {params.q * abs(params.alpha * params.beta)})")

sym = laurent_symbol(g, params)
print(f"Laurent symbol: min|F|={sym.min_abs:.4f}, max|F|={sym.max_abs:.4f}, "
      f"Riesz-sequence verdict: {sym.is_riesz}")
sym_crit = laurent_symbol(g, TorusParams(1.0, 1.0))
print(f"at critical density (α=β=1): min|F|={sym_crit.min_abs:.2e} → "
      f"verdict {sym_crit.is_riesz} (the Gaussian fails at density one)")

# lifting a scalar frame to q = 2 channels
p2 = TorusParams(0.5, 1 / 3, 1, 1, 2)
g2 = lift_scalar_window(g, p2)
a2, b2 = frame_bounds(FrameSystem(g2, p2, radius=6.0))
print(f"\nlifted q=2 window: frame bounds A={a2:.4f}, B={b2:.4f}")
h2 = canonical_dual(FrameSystem(g2, p2, radius=6.0))
print(f"lifted Wexler-Raz residual: {wexler_raz_residual(g2, h2, p2, 6.0):.2e}")
