"""The twisted convolution algebra and its two module actions.

Finitely supported sequences on the lattice form an involutive algebra
under the cocycle-weighted convolution ♮; sequences on the annihilator
lattice act on signals from the right.  The fundamental identity
⟨f,g⟩·h = f·⟨g,h⟩ ties the two actions together and is the engine behind
frame duality.
"""

import numpy as np

from ncgabor import (GridSpec, LatticeKind, LatticeSeq, TorusParams,
                     act_left, act_right, gaussian, inner_left, inner_right,
                     l1_diff, norm, trace_l, trace_r, twisted_conv,
                     twisted_star, random_timefreq_probe)

params = TorusParams(0.5, 1 / 3, 1, 1, 2)
rng = np.random.default_rng(0)


def random_seq(kind, points=8):
    idx = rng.integers(-3, 4, size=(points, 2))
    vals = rng.normal(size=points) + 1j * rng.normal(size=points)
    seq = LatticeSeq.from_entries(params, kind, idx, vals)
    return seq * (1.0 / seq.l1_norm())


for kind in (LatticeKind.TIME_FREQ, LatticeKind.ADJOINT):
    a, b, c = (random_seq(kind) for _ in range(3))
    assoc = l1_diff(twisted_conv(twisted_conv(a, b), c),
                    twisted_conv(a, twisted_conv(b, c)))
    invol = l1_diff(twisted_star(twisted_conv(a, b)),
                    twisted_conv(twisted_star(b), twisted_star(a)))
    print(f"{kind.value:10s}: associativity {assoc:.2e}, "
          f"(a♮b)* = b*♮a* residual {invol:.2e}")

a, b = random_seq(LatticeKind.TIME_FREQ), random_seq(LatticeKind.TIME_FREQ)
print(f"trace cyclicity |tr(a♮b) − tr(b♮a)| = "
      f"{abs(trace_l(twisted_conv(a, b)) - trace_l(twisted_conv(b, a))):.2e}")
star_a = twisted_star(a)
positivity = trace_l(twisted_conv(star_a, a)).real
print(f"positivity tr(a*♮a) = {positivity:.6f} "
      f"(= Σ|a|² = {float(np.sum(np.abs(a.values) ** 2)):.6f})")

# module actions and the fundamental identity
spec = GridSpec(L=22.0, N=512, q=2)
f = gaussian(spec)
g = random_timefreq_probe(spec, rng, spread=1.0)
h = random_timefreq_probe(spec, rng, spread=1.0)
radius = 6.0

lhs = act_left(inner_left(f, g, params, radius), h)
rhs = act_right(f, inner_right(g, h, params, radius))
print(f"\nfundamental identity ⟨f,g⟩·h = f·⟨g,h⟩ at radius {radius}: "
      f"relative residual {norm(lhs - rhs) / norm(lhs):.2e}")

b1, b2 = random_seq(LatticeKind.ADJOINT, 5), random_seq(LatticeKind.ADJOINT, 5)
module = norm(act_right(act_right(f, b1), b2)
              - act_right(f, twisted_conv(b1, b2))) / norm(f)
print(f"right module law (f·b₁)·b₂ = f·(b₁♮b₂): residual {module:.2e}")

inner_tr = trace_r(inner_right(g, f, params, 4.0))
from ncgabor import inner
print(f"trace compatibility tr°(⟨g,f⟩°) = ⟨f,g⟩: "
      f"difference {abs(inner_tr - inner(f, g)):.2e}")
