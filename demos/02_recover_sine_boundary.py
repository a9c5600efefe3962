"""
Sine data, zero-Dirichlet side walls
====================================

Same machinery as the cosine demo, but the hidden field is
u = cosh(2(y-b))/cosh(1) * sin(2x), which vanishes on both side walls.  The
observer never sees or imposes side conditions; they are compatibility
properties of the Cauchy data itself.
"""

import numpy as np

import cauchy_observer as co

a, b = 2 * np.pi, 0.5
solution = co.dirichlet_example(a, b)

grid = co.build_grid(a, b, nx=257, ny=5)
data = co.make_cauchy_data(solution, grid)
mats = co.assemble(grid)
gain = co.ackermann_gain(mats.F, mats.C_row, co.ring_poles(2 * grid.ny, 0.55))

field, report = co.run(co.ObserverProblem(grid, data, mats, gain),
                       co.ObserverConfig(), reference=solution)

print(f"periodicity defect: {report.periodicity_defect:.1e}")
print(f"bottom-trace error: {report.bottom_error:.3%}")

# the recovered trace should be sin(2x); check a few landmark points
for frac, label in ((0.125, "x = pi/4"), (0.25, "x = pi/2"), (0.375, "x = 3pi/4")):
    idx = int(frac * (grid.nx - 1))
    print(f"  {label}: exact {np.sin(2 * grid.x[idx]):+.4f}  "
          f"recovered {field[idx, 0]:+.4f}")
