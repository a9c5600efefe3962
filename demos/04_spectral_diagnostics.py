"""
The analysis side: mode family, propagator, observability
=========================================================

The continuation problem has an explicit mode family on the analysis
interval [0, pi/4]: paired cosine profiles that are orthonormal in an energy
pairing and that the propagator scales by exp(lam * x) with lam = 6 - 8n.
Positive rates (n <= 0) grow: that growth IS the ill-posedness of completing
boundary data, and the diagnostics keep it visible rather than hiding it.
"""

import numpy as np

from cauchy_observer.spectral import (DEFAULT_MODE_INDICES, FunctionPair,
                                      ModeSet, eigen_residual, gram_matrix,
                                      observability_lower_bound, sample_mode,
                                      semigroup_apply)

modes = ModeSet(DEFAULT_MODE_INDICES)
print(f"mode set: n in {modes.indices[0]}..{modes.indices[-1]}, "
      f"{modes.quadrature} quadrature nodes")

# 1) orthonormality: the Gram matrix is the identity to round-off because
#    the trapezoid rule is exact for these trigonometric products
G = gram_matrix(modes)
print(f"Gram matrix departure from identity: {np.abs(G - np.eye(len(G))).max():.2e}")

# 2) the eigen-relation defect of the discretized operator shrinks at
#    second order in the node spacing
for q in (101, 201, 401):
    print(f"  eigen-relation defect, mode 0, {q:4d} nodes: "
          f"{eigen_residual(ModeSet((0,), q))[0]:.3e}")

# 3) propagator: identity at x=0, one-parameter composition, exponential
#    scaling on a single mode
q = modes.quadrature
p1 = np.zeros(q); p2 = np.zeros(q); d1 = np.zeros(q)
for n in modes.indices:
    m = sample_mode(n, q)
    p1 += m.p1; p2 += m.p2; d1 += m.dp1
f = FunctionPair(p1, p2, d1)
ident = semigroup_apply(f, 0.0, modes)
print(f"identity defect at x=0: {np.abs(ident.p1 - f.p1).max():.2e}")
lhs = semigroup_apply(semigroup_apply(f, 0.1, modes), 0.2, modes)
rhs = semigroup_apply(f, 0.3, modes)
print(f"composition defect (0.1 then 0.2 vs 0.3): "
      f"{np.abs(lhs.p1 - rhs.p1).max():.2e}")

single = sample_mode(0, q)
grown = semigroup_apply(single, 0.25, modes)
print(f"single-mode growth factor at x=0.25: measured "
      f"{grown.p1[0] / single.p1[0]:.6f}, exact {np.exp(6 * 0.25):.6f}")

# 4) the observability lower bound is positive and grows with the mode set
xs = (0.0, 0.1, 0.5)
few = observability_lower_bound(ModeSet((0, 1), 801), xs)
many = observability_lower_bound(ModeSet((-2, -1, 0, 1, 2, 3), 801), xs)
for x, a, b in zip(xs, few, many):
    print(f"x={x}: bound with 2 modes {a:.3e}, with 6 modes {b:.3e}")
