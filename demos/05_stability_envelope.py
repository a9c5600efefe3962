"""
Where the marching scheme lives and where it dies
=================================================

Marching an elliptic problem in one space variable is explosively unstable:
the raw per-step growth factor is 1 + dx * sigma_max with sigma_max = 2/dy.
The injection gain makes the closed loop a contraction, but in double
precision that only helps while the gain itself stays representable:

  * dx * sigma_max < 1  (roughly):  small gains, accurate placement, the
    converged sweep reproduces the hidden boundary to a percent or two;
  * dx * sigma_max >> 1:  every stabilizing gain has entries beyond ~1e5,
    rounding it to float64 moves the closed-loop spectrum at order one, and
    the march either trips the divergence guard or converges to garbage.

This script sweeps grid resolutions to expose that envelope.  Note the
(nx=65, ny=9) cell: no gain route survives there in double precision.
"""

import numpy as np

import cauchy_observer as co

a, b = 2 * np.pi, 0.5
solution = co.neumann_example(a, b)

print(f"{'nx':>5} {'ny':>3} {'dx*sigma':>9} {'gain':>12} {'outcome':<28}")
for nx in (65, 129, 257):
    for ny in (5, 7, 9):
        grid = co.build_grid(a, b, nx, ny)
        stiffness = grid.dx * 2.0 / grid.dy
        mats = co.assemble(grid)
        data = co.make_cauchy_data(solution, grid)
        try:
            gain = co.ackermann_gain(mats.F, mats.C_row,
                                     co.ring_poles(2 * ny, 0.55),
                                     cond_cap=1e15)
        except (co.PlacementFailed, co.ObservabilityDeficient) as exc:
            print(f"{nx:>5} {ny:>3} {stiffness:>9.2f} {'--':>12} "
                  f"{type(exc).__name__:<28}")
            continue
        problem = co.ObserverProblem(grid, data, mats, gain)
        try:
            field, rep = co.run(problem, reference=solution)
            err = rep.bottom_error
            outcome = f"bottom error {err:.2%}"
        except co.NonFiniteState:
            outcome = "diverged (guard tripped)"
        kmax = np.abs(gain.k).max()
        print(f"{nx:>5} {ny:>3} {stiffness:>9.2f} {kmax:>12.2e} {outcome:<28}")

print()
print("Rule of thumb: refine nx together with ny; for the standard domain")
print("keep (nx - 1) >= 2 * a * (ny - 1) / b before trusting the recovery.")
