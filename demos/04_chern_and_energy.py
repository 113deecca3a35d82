"""Topological charge and soliton energy of dual-pair projections.

Every dual pair (g, S⁻¹g) generates an idempotent a = ⟨g, S⁻¹g⟩ whose
Connes-Chern number equals the channel count q — an integer pinned by
topology, stable under perturbations of the window.  The sigma-model
energy E = (4π|αβ|)⁻¹·tr((∂₁a)² + (∂₂a)²) is bounded below by |c₁| and
the Gaussian attains E = q exactly, solving the self-duality equation
(∂₁a + i∂₂a)♮a = 0.
"""

from ncgabor import TorusParams, gaussian, hermite, norm
from ncgabor.frame import lift_scalar_window
from ncgabor.geometry import grid_for_radius, soliton_experiment

print("=== q = 1, (α,β) = (1/2, 1/2), standard Gaussian ===")
run1 = soliton_experiment(TorusParams(0.5, 0.5), gaussian(grid_for_radius(6.0)))
print(f"  c1 (trace formula)  = {run1.c1_trace.real:+.12f} "
      f"{run1.c1_trace.imag:+.1e}j")
print(f"  c1 (double sum)     = {run1.c1_sum.real:+.12f}")
print(f"  energy              = {run1.energy_trace:.12f}   (window form "
      f"{run1.energy_window:.12f})")
print(f"  gap E − |c1|        = {run1.gap:+.2e}")
print(f"  self-duality: plus-sign residual {run1.self_duality[0]:.2e}, "
      f"minus-sign {run1.self_duality[1]:.2f}")
print(f"  frame bounds ({run1.bounds[0]:.3f}, {run1.bounds[1]:.3f}), "
      f"Wexler-Raz {run1.wexler_raz:.1e}")
print(f"  verdict: {'PASS' if run1.passes() else 'FAIL'}")

print("\n=== q = 2, (α,β,r,s) = (1/2, 1/3, 1, 1), lifted Gaussian ===")
p2 = TorusParams(0.5, 1 / 3, 1, 1, 2)
g2 = lift_scalar_window(gaussian(grid_for_radius(6.0, q=1)), p2)
run2 = soliton_experiment(p2, g2)
print(f"  c1 = {run2.c1_trace.real:+.10f} (rounds to {round(run2.c1_trace.real)}), "
      f"energy = {run2.energy_trace:.10f}")
print(f"  the charge equals the channel count q = {p2.q}")
print(f"  verdict: {'PASS' if run2.passes() else 'FAIL'}")

print("\n=== perturbed window: charge is stable, energy rises ===")
spec = grid_for_radius(6.0)
g0 = gaussian(spec)
for eps in (0.1, 0.15):
    g = g0 + eps * norm(g0) * hermite(spec, 2)
    run = soliton_experiment(TorusParams(0.5, 0.5), g)
    print(f"  ε={eps}: c1 = {run.c1_trace.real:.9f}, E = {run.energy_trace:.6f}, "
          f"gap = {run.gap:.4f}, sd+ = {run.self_duality[0]:.3f}")
print("the integer never moves; the energy gap measures distance from the "
      "soliton manifold")
