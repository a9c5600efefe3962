"""
Linear combinations: anything with a short Fourier series
=========================================================

The recovery is linear in the data, so any combination of the basic cosine
and sine examples works too.  Here the hidden bottom trace is

    1.0 * cos(2x) + 0.5 * sin(2x),

and we also show a second-harmonic variant to illustrate how conditioning
degrades as the data frequency rises (the through-thickness amplification of
harmonic k grows like cosh(2 k b)).
"""

import numpy as np

import cauchy_observer as co

a, b = 2 * np.pi, 0.5
grid = co.build_grid(a, b, nx=257, ny=5)
mats = co.assemble(grid)
gain = co.ackermann_gain(mats.F, mats.C_row, co.ring_poles(2 * grid.ny, 0.55))

for label, terms in (
        ("k=1 mix", [co.TrigTerm(1, 1.0, "cos"), co.TrigTerm(1, 0.5, "sin")]),
        ("k=1 + k=2 mix", [co.TrigTerm(1, 1.0, "cos"), co.TrigTerm(2, 0.25, "sin")]),
):
    solution = co.combo_example(terms, a, b)
    data = co.make_cauchy_data(solution, grid)
    field, report = co.run(co.ObserverProblem(grid, data, mats, gain),
                           co.ObserverConfig(), reference=solution)
    print(f"{label}: periodicity defect {report.periodicity_defect:.1e}, "
          f"bottom error {report.bottom_error:.3%}")

print()
print("Linearity check: solving the mix equals mixing the solutions")
s_cos = co.neumann_example(a, b)
s_sin = co.dirichlet_example(a, b)
mix = co.combo_example([co.TrigTerm(1, 1.0, "cos"), co.TrigTerm(1, 0.5, "sin")], a, b)
traces = {}
for key, sol in (("cos", s_cos), ("sin", s_sin), ("mix", mix)):
    data = co.make_cauchy_data(sol, grid)
    field, _ = co.run(co.ObserverProblem(grid, data, mats, gain),
                      co.ObserverConfig(), reference=sol)
    traces[key] = field[:, 0]
gap = np.abs(traces["mix"] - (traces["cos"] + 0.5 * traces["sin"])).max()
print(f"max |mix - (cos + 0.5 sin)| on the bottom edge: {gap:.2e}")
