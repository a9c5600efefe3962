"""
Where the marching scheme lives and where it dies
=================================================

Marching an elliptic problem in one space variable is explosively unstable:
the raw per-step growth factor is 1 + dx * sigma_max with sigma_max = 2/dy.
The injection gain makes the closed loop a contraction.  Its entries are
large inside the envelope as well as outside it: the table's max|K| is
3.5e5 at 129x5 and 2.6e7 at 257x5, and grows with the grid.  What the
stiffness dx * sigma_max decides is the march's own accuracy:

  * dx * sigma_max < 1  (roughly):  the placement is accurate and the
    converged sweep reproduces the hidden boundary to a few percent
    (1.8% at 257x5, 4.9% at 129x5);
  * dx * sigma_max > 1:  the ring gain still places its poles (its float64
    rounding misses them by 7.8e-5 even at 65x9), but forward Euler's bias
    binds, and the march, still a stable linear map of the data, returns
    garbage (a 70% bottom error at 65x5, 4599% at 65x7).

This script sweeps grid resolutions to expose that envelope.  Note the
ny=9 cells: no gain designs there at all in double precision, and the
table names the failure (PlacementFailed or ObservabilityDeficient).
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
            field, _ = co.run(problem)
            err = co.error_bottom(field, co.bottom_trace(solution, grid),
                                  grid.dx)
            outcome = f"bottom error {err:.2%}"
        except co.NonFiniteState:
            outcome = "overflowed (state not finite)"
        kmax = np.abs(gain.k).max()
        print(f"{nx:>5} {ny:>3} {stiffness:>9.2f} {kmax:>12.2e} {outcome:<28}")

print()
print("Rule of thumb: refine nx together with ny; for the standard domain")
print("keep (nx - 1) >= 2 * a * (ny - 1) / b before trusting the recovery.")
