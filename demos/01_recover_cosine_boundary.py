"""
Recovering a cosine boundary trace from data on the opposite edge
=================================================================

A harmonic field on the rectangle (0, 2*pi) x (0, 1/2) is known only through
its value and normal derivative on the TOP edge.  We rebuild its values on
the BOTTOM edge by sweeping a marching observer across the strip: the state
(u, du/dx) on a vertical grid line is advanced in x, and at every step the
measured top value is injected through a gain that keeps the closed-loop
marching operator a contraction.
"""

import numpy as np

import cauchy_observer as co

a, b = 2 * np.pi, 0.5

# The hidden truth: u = cosh(2(y-b))/cosh(1) * cos(2x).  Its bottom trace is
# exactly cos(2x); only its top trace and top normal derivative are handed
# to the solver.
solution = co.neumann_example(a, b)

# Stay inside the marching stability envelope: the per-step growth of the
# raw operator is 1 + dx * 2/dy, so nx is chosen large relative to ny.
grid = co.build_grid(a, b, nx=257, ny=5)
data = co.make_cauchy_data(solution, grid)
print(f"grid {grid.nx} x {grid.ny}: dx = {grid.dx:.4f}, dy = {grid.dy:.4f}")

mats = co.assemble(grid)

# Gain design: place the closed-loop spectrum on a ring of modulus 0.55.
# The ring keeps the placement polynomial perfectly conditioned and leaves
# the whole spectrum far away from the slow data frequencies near +1.
gain = co.ackermann_gain(mats.F, mats.C_row, co.ring_poles(2 * grid.ny, 0.55))
print(f"closed-loop spectral radius: {gain.spectral_radius:.4f} "
      f"(observability condition {gain.obs_condition:.2e})")

problem = co.ObserverProblem(grid, data, mats, gain)
field, report = co.run(problem, co.ObserverConfig(), reference=solution)

# One sweep, led in by a warm-up over the last W data steps, lands on the
# periodic fixed point; the periodicity defect max|x_N - x_0| / max|x| is
# the evidence.
print(f"warm-up steps:        {report.warmup_steps}")
print(f"periodicity defect:   {report.periodicity_defect:.1e}")
print(f"top-trace residual:   {report.top_residual:.3e}")
print(f"bottom-trace error:   {report.bottom_error:.3%} (relative L2)")

recovered = field[:, 0]
exact = co.bottom_trace(solution, grid)
worst = np.abs(recovered - exact).max()
print(f"worst pointwise mismatch on the bottom edge: {worst:.4f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(8, 4))
    ax.plot(grid.x, exact, label="exact bottom trace", lw=2)
    ax.plot(grid.x, recovered, "--", label="observer estimate", lw=2)
    ax.set_xlabel("x")
    ax.set_ylabel("u(x, 0)")
    ax.legend()
    fig.tight_layout()
    fig.savefig("recovered_cosine.png", dpi=120)
    print("wrote recovered_cosine.png")
except ImportError:
    pass
