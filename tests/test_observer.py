import gc
import inspect
import math
import re
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest

from cauchy_observer import (CauchyData, GainVector, NonFiniteState,
                             ObservabilityDeficient, ObserverConfig,
                             ObserverProblem, SweepReport, TrigTerm,
                             ackermann_gain, assemble,
                             bottom_trace, build_grid, combo_example,
                             design, error_bottom, make_cauchy_data,
                             neumann_example, ring_poles, run, top_residual,
                             uniform_poles)
from cauchy_observer import observer
from cauchy_observer.observer import _STEP_WORK, _layout, discrete_l2

A, B = 2 * np.pi, 0.5


def bottom_error(field, problem, sol):
    """Relative L2 error of the field's bottom trace against the truth."""
    grid = problem.grid
    return error_bottom(field, bottom_trace(sol, grid), grid.dx)


def standard_problem(nx=65, ny=5, layout="uniform"):
    grid = build_grid(A, B, nx, ny)
    mats = assemble(grid)
    if layout == "uniform":
        spec = uniform_poles(2 * ny, 0.3, 0.8)
    else:
        spec = ring_poles(2 * ny, 0.55)
    gain = ackermann_gain(mats.F, mats.C_row, spec)
    sol = neumann_example(A, B)
    data = make_cauchy_data(sol, grid)
    return grid, mats, gain, sol, data


class TestNorms:
    def test_top_residual_zero_for_matching_trace(self):
        grid = build_grid(A, B, 17, 3)
        f = np.cos(2 * grid.x)
        field = np.zeros((17, 6))
        field[:, 2] = f
        assert top_residual(field, f, grid.dx) == 0.0

    def test_error_bottom_doubled_reference(self):
        grid = build_grid(A, B, 33, 3)
        ref = np.cos(2 * grid.x)
        field = np.zeros((33, 6))
        field[:, 0] = 2 * ref
        assert error_bottom(field, ref, grid.dx) == pytest.approx(1.0, rel=1e-12)

    def test_error_bottom_constant_offset(self):
        # || 0.01 ||_L2(0,2pi) / || cos 2x ||_L2(0,2pi) = 0.01 sqrt(2)
        grid = build_grid(A, B, 65, 3)
        ref = np.cos(2 * grid.x)
        field = np.zeros((65, 6))
        field[:, 0] = ref + 0.01
        assert error_bottom(field, ref, grid.dx) == pytest.approx(
            0.014142135623730951, rel=1e-12)

    def test_zero_reference_falls_back_to_absolute(self):
        # the absolute error, with no warning
        grid = build_grid(A, B, 9, 3)
        field = np.ones((9, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = error_bottom(field, np.zeros(9), grid.dx)
        assert err == pytest.approx(np.sqrt(2 * np.pi), rel=1e-12)

    def test_norm_of_values_near_the_float_range(self):
        # the squares of these values overflow; the norm scales exactly
        grid = build_grid(A, B, 65, 3)
        ref = np.cos(2 * grid.x)
        field = np.zeros((65, 6))
        field[:, 0] = ref + 0.01
        for power in (600, 1000):
            big = 2.0 ** power
            assert discrete_l2(big * ref, grid.dx) == big * discrete_l2(
                ref, grid.dx)
            assert error_bottom(big * field, big * ref, grid.dx) == (
                error_bottom(field, ref, grid.dx))

    def test_norm_of_values_near_the_underflow(self):
        # the squares of these values underflow; the norm scales exactly
        grid = build_grid(A, B, 65, 3)
        rng = np.random.default_rng(22)
        ref = rng.uniform(0.5, 2.0, 65) * rng.choice([-1.0, 1.0], 65)
        field = np.zeros((65, 6))
        field[:, 0] = ref + 0.01
        for power in (300, 600, 1000):
            tiny = 2.0 ** -power
            assert discrete_l2(tiny * ref, grid.dx) == tiny * discrete_l2(
                ref, grid.dx)
            assert error_bottom(tiny * field, tiny * ref, grid.dx) == (
                error_bottom(field, ref, grid.dx))

    def test_length_mismatch_rejected(self):
        grid = build_grid(A, B, 9, 3)
        with pytest.raises(ValueError):
            top_residual(np.zeros((8, 6)), np.zeros(9), grid.dx)
        with pytest.raises(ValueError):
            error_bottom(np.zeros((8, 6)), np.zeros(9), grid.dx)


class TestRun:
    @pytest.mark.parametrize("nx,b", [(129, B), (257, 0.6)],
                             ids=["dx", "dy"])
    def test_matrices_of_another_grid_rejected(self, nx, b):
        # 129x5 matrices and gain would march 257x5 data to a bottom error
        # of 0.270 (0.0178 on the matching grid); a grid with the same node
        # counts but another b has another dy
        grid, _, _, _, data = standard_problem(257, 5, "ring")
        other = build_grid(A, b, nx, 5)
        mats = assemble(other)
        gain = ackermann_gain(mats.F, mats.C_row, ring_poles(10, 0.55))
        with pytest.raises(ValueError, match="assembled for a different grid"):
            ObserverProblem(grid, data, mats, gain)

    @pytest.mark.parametrize("designed, used", [
        ((257, 5), (129, 5)), ((129, 5), (257, 5)), ((2049, 3), (513, 3)),
        ((385, 5), (257, 5))], ids=lambda g: "%dx%d" % g)
    def test_gain_of_other_matrices_rejected(self, designed, used):
        # the gain's certificate holds for the closed loop it was designed
        # on.  Paired with another grid's matrices, and the grid and data
        # those match, the march ran a loop of spectral radius 4.6-6.8 for
        # the gain's W = 91-101 steps, to bottom errors of 1e84-1e100
        grid, mats, own, _, data = standard_problem(*used, "ring")
        other = standard_problem(*designed, "ring")[2]
        with pytest.raises(ValueError, match="gain designed on other matrices"):
            ObserverProblem(grid, data, mats, other)
        assert ObserverProblem(grid, data, mats, own).gain is own

    def test_uncertified_gain_of_other_matrices_rejected(self):
        # the closed loop is checked for every gain, certified or not: run
        # marches it
        grid, mats, own, _, data = standard_problem(129, 5, "ring")
        other = standard_problem(257, 5, "ring")[2]
        stale = GainVector(own.k, own.spectral_radius, own.obs_condition,
                           mats.F, own.settle_steps)
        for gain in (other, stale):
            bare = GainVector(gain.k, gain.spectral_radius,
                              gain.obs_condition, gain.closed_loop, None)
            with pytest.raises(ValueError,
                               match="gain designed on other matrices"):
                ObserverProblem(grid, data, mats, bare)
        bare = GainVector(own.k, own.spectral_radius, own.obs_condition,
                          own.closed_loop, None)
        assert ObserverProblem(grid, data, mats, bare).gain is bare

    def test_closed_loop_of_another_shape_rejected(self):
        grid, mats, gain, _, data = standard_problem()
        for loop in (gain.closed_loop[:-1], gain.closed_loop.ravel()):
            bad = GainVector(gain.k, gain.spectral_radius,
                             gain.obs_condition, loop, gain.settle_steps)
            with pytest.raises(ValueError,
                               match="gain designed on other matrices"):
                ObserverProblem(grid, data, mats, bad)

    @pytest.mark.parametrize("nx,ny", [(65, 5), (257, 6), (2049, 3)])
    def test_step_is_k_d_and_the_certified_loop(self, nx, ny):
        grid, mats, gain, _, data = standard_problem(nx, ny, "ring")
        step = ObserverProblem(grid, data, mats, gain).step
        assert step.shape == (2 * ny, 2 * ny + 2)
        assert step[:, 0].tobytes() == gain.k.tobytes()
        assert step[:, 1].tobytes() == mats.d.tobytes()
        assert step[:, 2:].tobytes() == gain.closed_loop.tobytes()
        assert step.flags.c_contiguous and not step.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            step[0, 0] = 1.0

    def test_run_marches_the_problem_step(self):
        # a step whose state columns are scaled marches another field: run
        # reads problem.step, not the gain's loop
        grid, mats, gain, _, data = standard_problem(257, 5, "ring")
        problem = ObserverProblem(grid, data, mats, gain)
        field = run(problem)[0]
        halved = problem.step.copy()
        halved[:, 2:] *= 0.5
        problem.__dict__["step"] = halved
        assert not np.array_equal(run(problem)[0], field)

    def test_zero_data_zero_solution(self):
        grid, mats, gain, _, _ = standard_problem()
        data = CauchyData(f=np.zeros(grid.nx), g=np.zeros(grid.nx))
        problem = ObserverProblem(grid, data, mats, gain)
        field, report = run(problem, ObserverConfig())
        assert np.array_equal(field, np.zeros_like(field))
        assert report.converged_at == 1

    def test_recovers_reference_within_tolerance(self):
        grid, mats, gain, sol, data = standard_problem(257, 5, "ring")
        problem = ObserverProblem(grid, data, mats, gain)
        field, report = run(problem, ObserverConfig())
        assert report.converged_at is not None
        assert bottom_error(field, problem, sol) <= 0.05

    def test_report_describes_the_one_sweep(self):
        grid, mats, gain, sol, data = standard_problem(257, 5, "ring")
        problem = ObserverProblem(grid, data, mats, gain)
        field, report = run(problem)
        assert report.sweeps == 1 and report.converged_at == 1
        assert report.warmup_steps == gain.settle_steps
        # run reports on its march only; solve scores the data residual
        assert list(inspect.signature(SweepReport).parameters) == list(
            vars(report)) == ["warmup_steps", "periodicity_defect"]
        assert report.periodicity_defect == (
            np.abs(field[-1] - field[0]).max() / np.abs(field).max())
        _, bare = run(problem, ObserverConfig(start_line=field[-1]))
        assert bare.warmup_steps == 0 and bare.converged_at is None

    def test_start_line_independence(self):
        # sweeps chained from two random start lines both reach the
        # per-step reference of the wrapped warm-up and its sweep
        grid, mats, gain, sol, data = standard_problem(257, 5, "ring")
        problem = ObserverProblem(grid, data, mats, gain)
        reference = per_step_march(step_matrix(problem),
                                   wrapped_inputs(problem),
                                   np.zeros(2 * grid.ny))[gain.settle_steps:, 0]
        rng = np.random.default_rng(0)
        tol = 1e-6    # just above the round-off floor of this gain magnitude
        traces = []
        for _ in range(2):
            field = rng.standard_normal((grid.nx, 2 * grid.ny))
            for _ in range(3):
                field, report = run(problem,
                                    ObserverConfig(start_line=field[-1]))
            assert report.periodicity_defect <= tol
            traces.append(field[:, 0].copy())
        assert np.abs(traces[0] - traces[1]).max() <= 10 * tol
        assert np.abs(traces[0] - reference).max() <= 10 * tol

    def test_error_recursion_between_twin_runs(self):
        # two sweeps fed identical data differ exactly by powers of F - K C
        grid, mats, gain, _, data = standard_problem(65, 3)
        problem = ObserverProblem(grid, data, mats, gain)
        rng = np.random.default_rng(1)
        s1 = rng.standard_normal((grid.nx, 2 * grid.ny))[-1]
        s2 = rng.standard_normal((grid.nx, 2 * grid.ny))[-1]
        f1, _ = run(problem, ObserverConfig(start_line=s1))
        f2, _ = run(problem, ObserverConfig(start_line=s2))
        M = mats.F - np.outer(gain.k, mats.C_row)
        diff = s1 - s2
        worst = 0.0
        for n in range(grid.nx - 1):
            diff = M @ diff
            worst = max(worst, np.abs((f1[n + 1] - f2[n + 1]) - diff).max())
        assert worst <= 1e-10

    def test_unstable_gain_requires_override(self):
        # no gain at all: the bare marching operator, which is unstable
        grid, mats, gain, _, data = standard_problem()
        radius = float(np.abs(np.linalg.eigvals(mats.F)).max())
        unstable = GainVector(k=np.zeros(2 * grid.ny), spectral_radius=radius,
                              obs_condition=gain.obs_condition,
                              closed_loop=mats.F)
        problem = ObserverProblem(grid, data, mats, unstable)
        with pytest.raises(ValueError, match="not certified stable"):
            run(problem, ObserverConfig())

    def test_divergence_guard_raises(self):
        # the certified 65x5 ring gain settles only after W = 87 >= 64
        # steps, so the warm-up wraps around the data; from rest it peaks
        # near 1.5e4 within its first steps, and a sweep from an explicit
        # zero start line near 1.3e5.  Data scaled to lift that peak past
        # the float range overflow; the step named is the first state of
        # a per-step march of the same inputs that is not finite
        grid, mats, gain, _, data = standard_problem(65, 5, "ring")
        steps, W = grid.nx - 1, gain.settle_steps
        assert W >= steps
        problem = ObserverProblem(grid, data, mats, gain)
        zero = np.zeros(2 * grid.ny)
        step = step_matrix(problem)
        for start, inputs, label in ((None, wrapped_inputs, "warm-up"),
                                     (zero, sweep_inputs, "sweep")):
            size = np.abs(per_step_march(step, inputs(problem), zero)).max(
                axis=1)
            big = scaled_data(problem, past_float_range(size.max()))
            with pytest.raises(NonFiniteState) as excinfo:
                run(big, ObserverConfig(start_line=start))
            first_out = first_non_finite(step, inputs(big), zero)
            assert first_out > 1
            named = int(re.search(label + r" step (\d+)",
                                  str(excinfo.value)).group(1))
            assert named == first_out

    def test_uncertified_gain_refused(self):
        # a stable gain that carries no settling certificate
        grid, mats, gain, _, data = standard_problem(257, 5, "ring")
        bare = GainVector(gain.k, gain.spectral_radius, gain.obs_condition,
                          gain.closed_loop, None)
        problem = ObserverProblem(grid, data, mats, bare)
        zero = np.zeros(2 * grid.ny)
        for config in (ObserverConfig(), ObserverConfig(start_line=zero)):
            with pytest.raises(ValueError, match="not certified stable"):
                run(problem, config)

    def test_gain_length_validated(self):
        grid, mats, gain, _, data = standard_problem()
        short = GainVector(gain.k[:-1], gain.spectral_radius,
                           gain.obs_condition, gain.closed_loop,
                           gain.settle_steps)
        with pytest.raises(ValueError):
            ObserverProblem(grid, data, mats, short)

    def test_data_length_validated(self):
        grid, mats, gain, _, _ = standard_problem()
        bad = CauchyData(f=np.zeros(grid.nx - 1), g=np.zeros(grid.nx - 1))
        with pytest.raises(ValueError):
            ObserverProblem(grid, bad, mats, gain)

    def test_bad_start_line_shape(self):
        # a whole (nx, 2*ny) field is refused, as is any shape but (2*ny,)
        grid, mats, gain, _, data = standard_problem()
        problem = ObserverProblem(grid, data, mats, gain)
        for shape in ((3, 3), (grid.nx, 2 * grid.ny), (2 * grid.ny + 1,)):
            with pytest.raises(ValueError, match="start line"):
                run(problem, ObserverConfig(start_line=np.zeros(shape)))

    def test_complex_start_line_refused(self):
        # refused before the float cast, which would drop the imaginary part
        # with a ComplexWarning, an error under -W error
        grid, mats, gain, _, data = standard_problem()
        problem = ObserverProblem(grid, data, mats, gain)
        line = np.zeros(2 * grid.ny, dtype=complex)
        for imag in (1.0, 0.0):
            line[3] = 1.0 + imag * 1j
            for given in (line, list(line)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError,
                                       match="start line must be real"):
                        run(problem, ObserverConfig(start_line=given))

    def test_non_finite_start_line_refused(self):
        # refused before marching, not reported as an overflow at sweep
        # step 1; a finite line too large for the march still overflows, at
        # the step a per-step march of the same inputs names
        grid, mats, gain, _, data = standard_problem()
        problem = ObserverProblem(grid, data, mats, gain)
        for bad in (np.nan, np.inf, -np.inf):
            line = np.zeros(2 * grid.ny)
            line[3] = bad
            with pytest.raises(ValueError, match="start line must be finite"):
                run(problem, ObserverConfig(start_line=line))
        huge = np.full(2 * grid.ny, 1e308)
        with pytest.raises(NonFiniteState) as excinfo:
            run(problem, ObserverConfig(start_line=huge))
        first_out = first_non_finite(step_matrix(problem),
                                     sweep_inputs(problem), huge)
        assert str(excinfo.value) == (
            f"state is not finite at sweep step {first_out}")


# grids of the top Neumann closed form; its data are mode k = 1's cosine
TOP_NEUMANN = [(257, 5), (513, 3), (129, 5)]


def top_neumann_problem(nx, ny, sign=1.0):
    """The ring gain's problem on the top Neumann closed form's data, with g
    or with -g, and the true bottom trace."""
    grid = build_grid(A, B, nx, ny)
    f = np.cos(2.0 * grid.x) / math.cosh(1.0)
    return (design(grid, CauchyData(f=f, g=sign * 2.0 * f),
                   ring_poles(2 * ny, 0.55)),
            f * math.exp(-1.0))


class TestTopNeumannData:
    """g, the top Neumann data, enters the march through its own column of
    the step, -2 dx / dy in the top du/dx row.  The closed form
    u = cos 2x e^{2(y - b)} / cosh 1 (b = 0.5) is harmonic, with
    f = cos 2x / cosh 1 and g = 2 cos 2x / cosh 1 on y = b and the bottom
    trace cos 2x e^{-1} / cosh 1.  Every reference family has g = 0."""

    @staticmethod
    def bottom_errors(nx, ny):
        """Bottom errors of the ring gain's run with g and with -g."""
        errors = []
        for sign in (1.0, -1.0):
            problem, exact = top_neumann_problem(nx, ny, sign)
            field, _ = run(problem)
            errors.append(error_bottom(field, exact, problem.grid.dx))
        return errors

    # errors 6.2e-2, 0.103 and 0.126; with -g, 6.2 to 6.4
    @pytest.mark.parametrize("nx,ny", TOP_NEUMANN)
    def test_recovers_the_closed_form(self, nx, ny):
        err, flipped = self.bottom_errors(nx, ny)
        assert err < 0.15
        assert flipped > 10.0 * err


# the verified window: grids where the ring gain designs and settles within
# a sweep, with the Fourier indices recovered there
WINDOW = [(129, 5, 1)] + [(nx, ny, k) for nx, ny in ((257, 5), (385, 5),
                                                    (257, 6), (513, 3),
                                                    (1025, 3), (2049, 3))
                          for k in (1, 2)]
# grid, index and pole layout where a top-residual stop rule never fired
# within 500 chained sweeps, although the sweeps reach the fixed point; the
# ring gain settles in W >= N steps at 65x3 and 65x5, the uniform gain at
# 129x5
STALLED = [(nx, ny, k, "ring") for nx, ny in ((65, 3), (65, 5), (129, 3))
           for k in (1, 2)] + [(129, 5, 2, "ring")] + [
    (nx, 5, k, "uniform") for nx in (129, 257) for k in (1, 2)]


def window_problem(nx, ny, k, parity, layout="ring"):
    grid = build_grid(A, B, nx, ny)
    spec = (ring_poles(2 * ny, 0.55) if layout == "ring"
            else uniform_poles(2 * ny, 0.3, 0.8))
    sol = combo_example([TrigTerm(k, 1.0, parity)], A, B)
    return design(grid, make_cauchy_data(sol, grid), spec), sol


class TestDesign:
    """``design`` is the hand-built chain: ``assemble``, ``ackermann_gain``
    at its default cap, ``ObserverProblem``."""

    @staticmethod
    def by_hand(grid, cauchy, spec):
        mats = assemble(grid)
        return ObserverProblem(grid, cauchy, mats,
                               ackermann_gain(mats.F, mats.C_row, spec))

    def test_takes_the_grid_the_data_and_the_poles_only(self):
        params = inspect.signature(design).parameters
        assert list(params) == ["grid", "cauchy", "poles"]
        assert all(p.default is p.empty for p in params.values())

    # the ring gain at 65x5 and the uniform one at 129x5 settle in W >= N
    # steps, so their march is one block
    @pytest.mark.parametrize("nx,ny,layout,data,one_block", [
        (257, 5, "ring", "cos", False), (65, 5, "ring", "cos", True),
        (129, 5, "uniform", "cos", True), (257, 5, "ring", "top", False)],
        ids=["257x5", "65x5", "129x5_uniform", "top_neumann"])
    def test_equals_the_hand_built_chain(self, nx, ny, layout, data,
                                         one_block):
        if data == "top":
            problem, _ = top_neumann_problem(nx, ny)
            grid, cauchy = problem.grid, problem.cauchy
            assert cauchy.g.any()
        else:
            grid = build_grid(A, B, nx, ny)
            cauchy = make_cauchy_data(neumann_example(A, B), grid)
        spec = (ring_poles(2 * ny, 0.55) if layout == "ring"
                else uniform_poles(2 * ny, 0.3, 0.8))
        ours, theirs = design(grid, cauchy, spec), self.by_hand(grid, cauchy,
                                                                spec)
        assert ours.grid is grid and ours.cauchy is cauchy
        for name in ("k", "closed_loop"):
            assert np.array_equal(getattr(ours.gain, name),
                                  getattr(theirs.gain, name))
        assert ours.gain.settle_steps == theirs.gain.settle_steps
        assert (ours.gain.settle_steps >= nx - 1) == one_block
        (field, report), (want, want_report) = run(ours), run(theirs)
        assert np.array_equal(field, want)
        assert ((report.warmup_steps, report.periodicity_defect)
                == (want_report.warmup_steps, want_report.periodicity_defect))

    def test_raises_what_the_gain_design_raises(self):
        # cond(O) is 6.8e12 at 65x9, above the default cap of 1e12
        grid = build_grid(A, B, 65, 9)
        cauchy = make_cauchy_data(neumann_example(A, B), grid)
        spec = ring_poles(18, 0.55)
        with pytest.raises(ObservabilityDeficient) as want:
            self.by_hand(grid, cauchy, spec)
        with pytest.raises(ObservabilityDeficient) as got:
            design(grid, cauchy, spec)
        assert str(got.value) == str(want.value)


def problem_and_truth(nx, ny, k, data):
    """A window problem on mode k's "cos" or "sin" data, or the top Neumann
    closed form's problem ("top", k = 1), with its true bottom trace."""
    if data == "top":
        return top_neumann_problem(nx, ny)
    problem, sol = window_problem(nx, ny, k, data)
    return problem, bottom_trace(sol, problem.grid)


# the verified window's cases, each data parity, then the top Neumann
# closed form, whose g enters through its own column of the step
WINDOW_DATA = [(nx, ny, k, parity) for nx, ny, k in WINDOW
               for parity in ("cos", "sin")] + [
    (nx, ny, 1, "top") for nx, ny in TOP_NEUMANN]


def one_block_problem(case):
    """A certified gain that settles only after a whole sweep (W >= N)."""
    problem, _ = (window_problem(65, 5, 1, "cos") if case == "unsettled"
                  else window_problem(129, 5, 1, "cos", "uniform"))
    assert problem.gain.settle_steps >= problem.grid.nx - 1
    return problem


def chained_sweeps(problem, count):
    """``count`` sweeps chained from a zero start line, each one ``run``
    started from the previous sweep's last line."""
    line = np.zeros(2 * problem.grid.ny)
    for _ in range(count):
        field, report = run(problem, ObserverConfig(start_line=line))
        line = field[-1]
    return field, report


class TestWarmStart:
    @pytest.mark.parametrize("parity", ["cos", "sin"])
    @pytest.mark.parametrize("nx,ny,k", WINDOW)
    def test_first_sweep_is_the_fixed_point(self, nx, ny, k, parity):
        problem, sol = window_problem(nx, ny, k, parity)
        field, report = run(problem)
        # a cold start: the second sweep chained from a zero start line
        cold_field, cold = chained_sweeps(problem, 2)
        assert report.warmup_steps == problem.gain.settle_steps < nx - 1
        assert cold.warmup_steps == 0
        assert report.converged_at == 1 and cold.converged_at is None
        err = bottom_error(field, problem, sol)
        cold_err = bottom_error(cold_field, problem, sol)
        assert abs(err - cold_err) <= 1e-5 * cold_err

    @pytest.mark.parametrize("parity", ["cos", "sin"])
    @pytest.mark.parametrize("nx,ny,k,layout", STALLED)
    def test_stalled_cases_reach_the_fixed_point(self, nx, ny, k, layout,
                                                 parity):
        problem, _ = window_problem(nx, ny, k, parity, layout)
        field, report = run(problem)
        chained, _ = chained_sweeps(problem, 500)
        assert report.warmup_steps == problem.gain.settle_steps
        assert report.sweeps == 1 and report.converged_at == 1
        scale = np.abs(chained).max()
        assert np.abs(field - chained).max() <= 1e-7 * scale

    @pytest.mark.parametrize("parity", ["cos", "sin"])
    @pytest.mark.parametrize("nx,ny,k,layout",
                             [case + ("ring",) for case in WINDOW] + STALLED)
    def test_periodicity_defect_within_transient_growth(self, nx, ny, k,
                                                        layout, parity):
        # the defect is rounding amplified by the march's transient growth
        problem, _ = window_problem(nx, ny, k, parity, layout)
        _, report = run(problem)
        M = problem.gain.closed_loop
        growth, power = 0.0, np.eye(len(M))
        for _ in range(problem.gain.settle_steps + nx - 1):
            power = power @ M
            growth = max(growth, np.linalg.norm(power, 2))
        assert report.periodicity_defect <= 64 * 2.0 ** -52 * growth

    def test_explicit_guess_chains_single_sweeps(self):
        # sweeps chained from a random start line reach the default run's
        # fixed point; each is one sweep with no warm-up
        problem, _ = window_problem(129, 3, 1, "sin")
        grid = problem.grid
        expected, _ = run(problem)
        field = np.random.default_rng(3).standard_normal((grid.nx, 2 * grid.ny))
        for _ in range(3):
            field, report = run(problem, ObserverConfig(start_line=field[-1]))
            assert report.warmup_steps == 0 and report.sweeps == 1
            assert report.converged_at is None
        scale = np.abs(expected).max()
        assert np.abs(field - expected).max() <= 1e-9 * scale

    def test_guard_names_the_warmup_step(self):
        # data scaled to lift the warm-up's peak past the float range
        # overflow within the warm-up, at the first state of a per-step
        # reference march of the same inputs that is not finite
        problem, _ = window_problem(257, 5, 1, "cos")
        W, zero = problem.gain.settle_steps, np.zeros(2 * problem.grid.ny)
        step = step_matrix(problem)
        size = np.abs(per_step_march(step, wrapped_inputs(problem), zero)).max(
            axis=1)
        big = scaled_data(problem, past_float_range(size[:W + 1].max()))
        with pytest.raises(NonFiniteState) as excinfo:
            run(big)
        first_out = first_non_finite(step, wrapped_inputs(big), zero)
        assert 1 < first_out <= W
        named = int(re.search(r"warm-up step (\d+)", str(excinfo.value)).group(1))
        assert named == first_out


def per_step_march(A, D, x0):
    """States x0, A (D[0], x0), ..., one A.dot((f, g, x)) per step in the
    dtype of the step matrix A."""
    out = np.empty((len(D) + 1, len(A)), dtype=A.dtype)
    x = out[0] = x0
    for n, data in enumerate(D.astype(A.dtype), 1):
        x = out[n] = A.dot(np.concatenate((data, x)))
    return out


def first_non_finite(A, D, x0):
    """Step of the first state of ``per_step_march`` that is not finite."""
    with np.errstate(all="ignore"):
        states = per_step_march(A, D, x0)
    bad = ~np.isfinite(states).all(axis=1)
    assert bad.any()
    return int(bad.argmax())


def past_float_range(size):
    """The least power of two that scales ``size`` past the float range."""
    return 2.0 ** np.ceil(np.log2(np.finfo(float).max / size))


def scaled_data(problem, factor):
    cauchy = problem.cauchy
    return ObserverProblem(problem.grid, CauchyData(
        f=factor * cauchy.f, g=factor * cauchy.g), problem.mats, problem.gain)


def step_matrix(problem, dtype=float):
    """The step A = [K | d | F - K C] of a run, restated here rather than
    read from the gain: d is the mirror node's data coefficient -2 dx / dy
    in the top du/dx row, formed in ``dtype``.  A long-double march with it
    forms K f - 2 dx g / dy of the float64 k, f and g without rounding
    them to float64 first."""
    mats, k = problem.mats, problem.gain.k
    A = np.zeros((len(k), 2 + len(k)), dtype=dtype)
    A[:, 0] = k
    A[-1, 1] = -2 * dtype(mats.dx) / dtype(mats.dy)
    A[:, 2:] = mats.F - np.outer(k, mats.C_row)
    return A


def sweep_inputs(problem):
    """The inputs of a run from an explicit start line: one sweep's data
    rows (f[n], g[n])."""
    cauchy = problem.cauchy
    return np.stack((cauchy.f, cauchy.g), axis=1)[:-1]


def wrapped_inputs(problem):
    """The default run's inputs: the last W data rows wrapped around the
    periodic data, then one sweep's rows."""
    D = sweep_inputs(problem)
    W, steps = problem.gain.settle_steps, problem.grid.nx - 1
    return np.concatenate([D[np.arange(steps - W, steps) % steps], D])


def late_block_overflow():
    """A 2049x3 problem whose data vanish outside nodes 1400..1700, and its
    data scaled so that they first overflow there: the warm-up and the
    first 1400 states are zero, and the overflow is in a late block."""
    problem, _ = window_problem(2049, 3, 1, "cos")
    grid = problem.grid
    f = np.zeros(grid.nx)
    f[1400:1701] = np.sin(np.linspace(0.0, np.pi, 301)) ** 2
    problem = ObserverProblem(grid, CauchyData(f=f, g=np.zeros(grid.nx)),
                              problem.mats, problem.gain)
    size = np.abs(per_step_march(step_matrix(problem), sweep_inputs(problem),
                                 np.zeros(2 * grid.ny))).max(axis=1)
    first_big = int((size > 0.5 * size.max()).argmax())
    return problem, scaled_data(problem, past_float_range(size[first_big]))


# ny = 4 grids outside the window's settling evidence: W = 64 settles, but
# the powers M^(64 + j), j < 32, that the lockstep march drops reach 1.4e5
# to 4.2e8 rounding units (gain.settle_steps)
SETTLE_EXCEPTION_DATA = [(nx, 4, k, parity) for nx in (129, 257, 513)
                         for k in (1, 2) for parity in ("cos", "sin")]


class TestWindowedMarch:
    @pytest.mark.parametrize("nx,ny,k,data",
                             WINDOW_DATA + SETTLE_EXCEPTION_DATA)
    def test_accuracy_against_long_double_march(self, nx, ny, k, data):
        # per-step references of the same warm-up and sweep from rest.  The
        # long-double one forms its inputs K f - 2 dx g / dy in long double
        # from the float64 k, f and g, so it marches the recursion, not one
        # rounding of its inputs.  Worst windowed-to-plain ratios over the
        # 29 window cases: 1.31 (2049x3) for the largest deviation, 1.26
        # (513x3) for the L2 one; worst score change 7.0e-6 (257x6); over the
        # 12 ny = 4 cases 1.20, 0.99 and 6.6e-7.  On 385x5 and 257x6 the
        # 1e-5 score check sits at the rounding floor: for k = 1, 2 data of
        # 40 other amplitudes, 7 to 8 of 80 cases exceed it in each order
        # of the step's terms tried, (f, g, x) and (x, f, g) alike
        problem, truth = problem_and_truth(nx, ny, k, data)
        grid, W = problem.grid, problem.gain.settle_steps
        assert W < nx - 1
        field, _ = run(problem)
        V, x0 = wrapped_inputs(problem), np.zeros(2 * grid.ny)
        exact = per_step_march(step_matrix(problem, np.longdouble), V,
                               x0)[W:, 0]
        plain = per_step_march(step_matrix(problem), V, x0)[W:, 0]
        windowed = field[:, 0]
        assert (np.abs(windowed - exact).max()
                <= 1.5 * np.abs(plain - exact).max())
        assert (discrete_l2((windowed - exact).astype(float), grid.dx)
                <= 1.5 * discrete_l2((plain - exact).astype(float), grid.dx))
        plain_err = error_bottom(plain[:, None], truth, grid.dx)
        assert (abs(error_bottom(field, truth, grid.dx) - plain_err)
                <= 1e-5 * plain_err)

    @pytest.mark.parametrize("nx,ny", [(385, 5), (257, 6)])
    def test_l2_accuracy_over_random_amplitudes(self, nx, ny):
        # the L2 check above on 20 seeded amplitudes of k = 1, 2 cos and sin
        # data, where its largest-deviation and score checks sit at the
        # rounding floor; worst L2 ratios 1.04 (385x5) and 1.01 (257x6)
        grid = build_grid(A, B, nx, ny)
        rng = np.random.default_rng(28)
        for i in range(20):
            amplitude = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            term = TrigTerm(1 + i % 2, amplitude, ("cos", "sin")[i // 2 % 2])
            problem = design(grid, make_cauchy_data(combo_example(
                [term], A, B), grid), ring_poles(2 * ny, 0.55))
            W = problem.gain.settle_steps
            field, _ = run(problem)
            V, x0 = wrapped_inputs(problem), np.zeros(2 * ny)
            exact = per_step_march(step_matrix(problem, np.longdouble), V,
                                   x0)[W:, 0]
            plain = per_step_march(step_matrix(problem), V, x0)[W:, 0]
            assert (discrete_l2((field[:, 0] - exact).astype(float), grid.dx)
                    <= 1.5 * discrete_l2((plain - exact).astype(float),
                                         grid.dx)), term

    @pytest.mark.parametrize("power", [6, 40, -30])
    @pytest.mark.parametrize("nx,ny,k,data", [
        pytest.param(nx, ny, k, "cos", id=f"{nx}-{ny}-{k}")
        for nx, ny, k in WINDOW + [(65, 5, 1)]] + [
        pytest.param(nx, ny, 1, "top", id=f"{nx}-{ny}-1-top")
        for nx, ny in TOP_NEUMANN])
    def test_field_scales_with_the_data(self, nx, ny, k, data, power):
        # a certified march is linear: data scaled by a power of two give
        # the field scaled by it, bit for bit, at any size short of
        # overflow (65x5 marches as one block); the top Neumann data scale
        # g's column too
        problem, _ = problem_and_truth(nx, ny, k, data)
        field, report = run(problem)
        big, big_report = run(scaled_data(problem, 2.0 ** power))
        assert np.array_equal(big, 2.0 ** power * field)
        assert big_report.periodicity_defect == report.periodicity_defect

    def test_guard_names_a_step_in_a_late_block(self):
        problem, big = late_block_overflow()
        with pytest.raises(NonFiniteState) as excinfo:
            run(big)
        first_out = first_non_finite(step_matrix(problem), sweep_inputs(big),
                                     np.zeros(2 * problem.grid.ny))
        assert first_out > 1000
        named = int(re.search(r"sweep step (\d+)", str(excinfo.value)).group(1))
        assert named == first_out

    @pytest.mark.parametrize("guess", [False, True], ids=["zero", "guess"])
    @pytest.mark.parametrize("case", ["unsettled", "uniform"])
    def test_one_block_is_the_plain_march(self, case, guess):
        problem = one_block_problem(case)
        grid, W = problem.grid, problem.gain.settle_steps
        step = step_matrix(problem)
        if guess:
            start = np.random.default_rng(4).standard_normal(
                (grid.nx, 2 * grid.ny))[-1]
            field, report = run(problem, ObserverConfig(start_line=start))
            expected = per_step_march(step, sweep_inputs(problem), start)
        else:
            field, report = run(problem)
            expected = per_step_march(step, wrapped_inputs(problem),
                                      np.zeros(2 * grid.ny))[W:]
        assert report.warmup_steps == (0 if guess else W)
        assert np.array_equal(field, expected)

    def test_start_line_forgotten_past_the_first_block(self):
        # the first block marches at most W + 31 steps from the start line;
        # every later block starts from rest W steps before its own states
        problem, _ = window_problem(257, 5, 1, "cos")
        grid, W = problem.grid, problem.gain.settle_steps
        rng = np.random.default_rng(5)
        f1, f2 = (run(problem, ObserverConfig(
            start_line=rng.standard_normal((grid.nx, 2 * grid.ny))[-1]))[0]
            for _ in range(2))
        assert not np.array_equal(f1[1], f2[1])
        assert np.array_equal(f1[W + 32:], f2[W + 32:])


# the cli_solve grids keep blocks of 17 states; at 2049x3 blocks of 17
# would make a step's product 121 x 48 = 5808 multiply-adds
BLOCKS = [(129, 5, 17, 8), (257, 5, 17, 16), (385, 5, 17, 23),
          (257, 6, 17, 16), (513, 3, 17, 31), (1025, 3, 17, 61),
          (2049, 3, 31, 67)]


class TestBlockLayout:
    @pytest.mark.parametrize("n", range(6, 19))
    def test_blocks_hold_16_to_31_states(self, n):
        # a window of one step, so that every sweep is cut into blocks;
        # block 0 keeps states 0 to span - 1, each later block its last per
        for states in range(16, 4098):
            per, span, later = _layout(states, 1, 1, n)
            assert 16 <= per <= 31
            assert states <= span + later * per < states + per
            assert later + 1 <= states // 16
            assert per == 31 or n * (n + 2) * (later + 1) <= _STEP_WORK

    @pytest.mark.parametrize("nx,ny,per,blocks", BLOCKS)
    def test_block_length_on_the_window(self, nx, ny, per, blocks):
        problem, _ = window_problem(nx, ny, 1, "cos")
        W = problem.gain.settle_steps
        got, span, later = _layout(nx - 1 + W, W, W, 2 * ny)
        assert (got, span, later + 1) == (per, W + per, blocks)

    def test_start_line_reaches_through_a_31_state_block(self):
        # at 2049x3 the first block of a run from a start line marches W + 31
        # steps from it, and the later blocks start from rest
        problem, _ = window_problem(2049, 3, 1, "cos")
        W = problem.gain.settle_steps
        rng = np.random.default_rng(6)
        f1, f2 = (run(problem, ObserverConfig(start_line=rng.standard_normal(
            6)))[0] for _ in range(2))
        assert not np.array_equal(f1[W + 31], f2[W + 31])
        assert np.array_equal(f1[W + 32:], f2[W + 32:])

    @pytest.mark.parametrize("k,parity", [(1, "cos"), (1, "sin"),
                                          (2, "cos"), (2, "sin")])
    def test_field_at_2049x3_against_long_double_march(self, k, parity):
        # the whole field, every column, within the ratios the bottom trace
        # keeps in TestWindowedMarch (at most 1.31 and 1.10 here)
        problem, _ = window_problem(2049, 3, k, parity)
        W = problem.gain.settle_steps
        field, _ = run(problem)
        V, x0 = wrapped_inputs(problem), np.zeros(6)
        exact = per_step_march(step_matrix(problem, np.longdouble), V, x0)[W:]
        plain = per_step_march(step_matrix(problem), V, x0)[W:]
        assert (np.abs(field - exact).max()
                <= 1.5 * np.abs(plain - exact).max())
        assert (np.linalg.norm((field - exact).astype(float))
                <= 1.5 * np.linalg.norm((plain - exact).astype(float)))


# the window's grids, a one-block march (65x5) and a ny = 4 grid
SPACE_GRIDS = sorted({(nx, ny) for nx, ny, _ in WINDOW}) + [(65, 5), (129, 4)]


def on_gain(problem, cauchy, gain=None):
    """A problem of ``cauchy`` on ``problem``'s grid and matrices, marched
    by ``gain``, by default ``problem``'s own."""
    return ObserverProblem(problem.grid, cauchy, problem.mats,
                           gain or problem.gain)


def fresh_gain_run(problem, config=None):
    """``run`` on a fresh gain equal in value to ``problem``'s: its march
    has no kept workspace and streams a fresh buffer."""
    gain = problem.gain
    twin = GainVector(gain.k, gain.spectral_radius, gain.obs_condition,
                      gain.closed_loop, gain.settle_steps)
    return run(on_gain(problem, problem.cauchy, twin), config)


def space_config(problem, mode, seed=7):
    """The default run's config, or one from a seeded random start line."""
    if mode == "warm":
        return ObserverConfig()
    line = np.random.default_rng(seed).standard_normal(2 * problem.grid.ny)
    return ObserverConfig(start_line=line)


def same_run(got, want):
    (field, report), (want_field, want_report) = got, want
    return (np.array_equal(field, want_field)
            and report.warmup_steps == want_report.warmup_steps
            and (report.periodicity_defect.hex()
                 == want_report.periodicity_defect.hex()))


def kept(problem):
    """The workspaces kept for ``problem``'s gain, by warm-up length."""
    return observer._SPACES[problem.gain]


class TestWorkspacePool:
    """Each gain keeps its march's lockstep buffer and step views between
    runs, one for each warm-up length; no run's field or report depends on
    what is kept."""

    @pytest.mark.parametrize("mode", ["warm", "line"])
    @pytest.mark.parametrize("nx,ny", SPACE_GRIDS)
    def test_fresh_repeated_and_interleaved_runs_agree(self, nx, ny, mode):
        # two data sets (and start lines) on one shared gain, as
        # batch_recover builds them, and a run of another gain between
        # them; a workspace's first run streams its views, the second lists
        # them and the later ones loop over the list
        problem, _ = window_problem(nx, ny, 1, "cos")
        twin = on_gain(problem, window_problem(nx, ny, 2, "sin")[0].cauchy)
        other, _ = window_problem(*((257, 5) if (nx, ny) == (129, 4)
                                    else (129, 4)), 1, "sin")
        cases = [(problem, space_config(problem, mode)),
                 (twin, space_config(twin, mode, seed=8)),
                 (other, space_config(other, "line"))]
        wants = [fresh_gain_run(*case) for case in cases]
        for _ in range(3):
            for case, want in zip(cases, wants):
                assert same_run(run(*case), want)
        lead = problem.gain.settle_steps if mode == "warm" else 0
        [(key, space)] = kept(problem).items()
        Z = space[4]
        assert key == lead and Z is not None
        assert same_run(run(*cases[1]), wants[1])
        assert kept(twin)[lead][4] is Z
        assert list(kept(other)) == [0]

    def test_threads_give_the_sequential_fields(self):
        # two data sets on one shared gain, each run warm and from a start
        # line: four threads contend for the gain's two workspaces, and a
        # switch interval of 1 us makes them trade the interpreter inside
        # every march
        problem, _ = window_problem(257, 5, 1, "cos")
        twin = on_gain(problem, window_problem(257, 5, 2, "cos")[0].cauchy)
        cases = [(p, space_config(p, mode, seed))
                 for p, seed in ((problem, 7), (twin, 8))
                 for mode in ("warm", "line")]
        want = [fresh_gain_run(*case) for case in cases]
        start, got = threading.Barrier(4), [[] for _ in range(4)]

        def runs(first, out):
            # 10 runs of each case, each thread from its own case
            start.wait()
            for i in range(40):
                which = (first + i) % 4
                out.append((which, run(*cases[which])))

        threads = [threading.Thread(target=runs, args=pair)
                   for pair in enumerate(got)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert [len(out) for out in got] == [40] * 4
        for out in got:
            for which, result in out:
                assert same_run(result, want[which])
        assert sorted(kept(problem)) == [0, problem.gain.settle_steps]

    def test_one_gain_on_two_sweep_lengths(self):
        # a 257x5 gain marches a 513x5 grid of twice the extent: its dx,
        # dy and matrices are the same, its sweep twice as long.  Each run
        # makes a workspace of its own length; none takes the other's
        problem, _ = window_problem(257, 5, 1, "cos")
        grid = build_grid(2 * A, B, 513, 5)
        long = ObserverProblem(grid, make_cauchy_data(
            neumann_example(2 * A, B), grid), problem.mats, problem.gain)
        cases = [(p, space_config(p, mode))
                 for p in (problem, long) for mode in ("warm", "line")]
        wants = [fresh_gain_run(*case) for case in cases]
        for _ in range(3):
            for case, want in zip(cases, wants):
                assert same_run(run(*case), want)
            for case, want in zip(cases[::-1], wants[::-1]):
                assert same_run(run(*case), want)

    def test_workspaces_are_freed_with_the_gain(self):
        problem, _ = window_problem(257, 5, 1, "cos")
        twin = on_gain(problem, window_problem(257, 5, 2, "sin")[0].cauchy)
        for _ in range(2):
            run(problem)
            run(twin, space_config(twin, "line"))
        buffers = [weakref.ref(space[4]) for space in kept(problem).values()]
        assert len(buffers) == 2 and all(ref() is not None for ref in buffers)
        gain = weakref.ref(problem.gain)
        del problem, twin
        gc.collect()
        assert gain() is None
        assert all(ref() is None for ref in buffers)

    def test_clean_run_after_an_overflow(self):
        problem, big = late_block_overflow()
        assert big.gain is problem.gain
        want = fresh_gain_run(problem)
        run(problem)
        for _ in range(2):
            with pytest.raises(NonFiniteState):
                run(big)
            assert same_run(run(problem), want)

    def test_clean_run_after_an_interrupted_march(self):
        # a step product that raises part-way through the march leaves the
        # workspace in its dict, half marched, and the next march refills it
        problem, _ = window_problem(257, 5, 1, "cos")
        field, _ = fresh_gain_run(problem)

        class Interrupted(Exception):
            pass

        class Stops(np.ndarray):
            calls = 0

            def dot(self, *args):
                Stops.calls += 1
                if Stops.calls == 40:
                    raise Interrupted
                return np.asarray(self).dot(*args)

        grid, W = problem.grid, problem.gain.settle_steps
        step = problem.step
        x0, inputs, spaces = np.zeros(2 * grid.ny), wrapped_inputs(problem), {}
        for _ in range(2):
            observer._march(x0, step, inputs, W, W, spaces)
        Z = spaces[W][4]
        with pytest.raises(Interrupted):
            observer._march(x0, step.view(Stops), inputs, W, W, spaces)
        assert list(spaces) == [W] and spaces[W][4] is Z
        assert np.array_equal(observer._march(x0, step, inputs, W, W, spaces),
                              field)

    def test_field_is_not_the_pool_buffer(self):
        problem, _ = window_problem(513, 3, 1, "cos")
        want = fresh_gain_run(problem)
        for _ in range(3):
            field, _ = run(problem)
            assert not any(np.shares_memory(field, space[4])
                           for space in kept(problem).values()
                           if space[4] is not None)
            field[...] = np.nan
            assert same_run(run(problem), want)

    def test_first_run_keeps_no_buffer(self):
        # the first run's buffer is freed, as when nothing was kept; the
        # second run's buffer and views are kept
        problem, _ = window_problem(257, 5, 1, "cos")
        run(problem)
        [(layout, per, span, later, Z, pairs)] = kept(problem).values()
        assert layout == (256 + 99, 99, 99, 10)
        assert (per, span, later + 1) == (17, 99 + 17, 16)
        assert Z is None and pairs is None
        run(problem)
        [(_, _, _, _, Z, pairs)] = kept(problem).values()
        assert Z.shape == (span + 1, 12, later + 1) and len(pairs) == span


class TestDiscreteL2Bits:
    @staticmethod
    def rescaled(values, dx):
        # the norm with its rescaling always applied
        w = np.full(len(values), dx)
        w[0] = w[-1] = 0.5 * dx
        e = math.frexp(np.abs(values).max(initial=0.0))[1]
        return math.ldexp(
            float(np.sqrt((w * (values / 2.0 ** e) ** 2).sum())), e)

    @pytest.mark.parametrize("peak", [0.75, 1.0, 3.5, 2.0 ** 600])
    def test_equals_the_rescaled_formula(self, peak):
        rng = np.random.default_rng(19)
        values = rng.uniform(-peak, peak, 41)
        values[[3, 7]] = -0.0, 0.0
        values[[11, 12]] = 5e-324, -2.0 ** -1060     # subnormals
        values[20] = peak
        for dx in (0.1, 2 * np.pi / 40):
            got = discrete_l2(values, dx)
            assert got.hex() == self.rescaled(values, dx).hex()

    def test_all_zero_and_all_subnormal(self):
        for values in (np.zeros(9), np.array([-0.0] * 9),
                       np.full(9, 5e-324)):
            assert discrete_l2(values, 0.5).hex() == self.rescaled(
                values, 0.5).hex()
