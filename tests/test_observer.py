import dataclasses
import re

import numpy as np
import pytest

from cauchy_observer import (CauchyData, GainVector, NonFiniteState, ObserverConfig,
                             ObserverProblem, TrigTerm, ackermann_gain, assemble,
                             bottom_trace, build_grid, combo_example,
                             error_bottom, make_cauchy_data, neumann_example,
                             ring_poles, run, sweep_form, top_residual,
                             uniform_poles)

A, B = 2 * np.pi, 0.5


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
        grid = build_grid(A, B, 9, 3)
        field = np.ones((9, 6))
        with pytest.warns(UserWarning):
            err = error_bottom(field, np.zeros(9), grid.dx)
        assert err == pytest.approx(np.sqrt(2 * np.pi), rel=1e-12)

    def test_length_mismatch_rejected(self):
        grid = build_grid(A, B, 9, 3)
        with pytest.raises(ValueError):
            top_residual(np.zeros((8, 6)), np.zeros(9), grid.dx)
        with pytest.raises(ValueError):
            error_bottom(np.zeros((8, 6)), np.zeros(9), grid.dx)


class TestRun:
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
        field, report = run(problem, ObserverConfig(), reference=sol)
        assert report.converged_at is not None
        assert report.bottom_error <= 0.05

    def test_report_describes_the_one_sweep(self):
        grid, mats, gain, sol, data = standard_problem(257, 5, "ring")
        problem = ObserverProblem(grid, data, mats, gain)
        field, report = run(problem, reference=sol)
        assert report.sweeps == 1 and report.converged_at == 1
        assert report.warmup_steps == gain.settle_steps
        assert report.top_residual == top_residual(field, data.f, grid.dx)
        assert report.bottom_error == error_bottom(
            field, bottom_trace(sol, grid), grid.dx)
        assert report.periodicity_defect == (
            np.abs(field[-1] - field[0]).max() / np.abs(field).max())
        _, bare = run(problem, ObserverConfig(initial_guess=field))
        assert bare.bottom_error is None
        assert bare.warmup_steps == 0 and bare.converged_at is None

    def test_initial_guess_independence(self):
        # sweeps chained from two random start lines both reach the
        # per-step reference of the wrapped warm-up and its sweep
        grid, mats, gain, sol, data = standard_problem(257, 5, "ring")
        problem = ObserverProblem(grid, data, mats, gain)
        M, _ = affine_form(problem)
        reference = per_step_march(M, wrapped_inputs(problem),
                                   np.zeros(2 * grid.ny))[gain.settle_steps:, 0]
        rng = np.random.default_rng(0)
        tol = 1e-6    # just above the round-off floor of this gain magnitude
        traces = []
        for _ in range(2):
            field = rng.standard_normal((grid.nx, 2 * grid.ny))
            for _ in range(3):
                field, report = run(problem, ObserverConfig(initial_guess=field))
            assert report.periodicity_defect <= tol
            traces.append(field[:, 0].copy())
        assert np.abs(traces[0] - traces[1]).max() <= 10 * tol
        assert np.abs(traces[0] - reference).max() <= 10 * tol

    def test_error_recursion_between_twin_runs(self):
        # two sweeps fed identical data differ exactly by powers of F - K C
        grid, mats, gain, _, data = standard_problem(65, 3)
        problem = ObserverProblem(grid, data, mats, gain)
        rng = np.random.default_rng(1)
        i1 = rng.standard_normal((grid.nx, 2 * grid.ny))
        i2 = rng.standard_normal((grid.nx, 2 * grid.ny))
        f1, _ = run(problem, ObserverConfig(initial_guess=i1))
        f2, _ = run(problem, ObserverConfig(initial_guess=i2))
        M = mats.F - np.outer(gain.k, mats.C_row)
        diff = i1[-1] - i2[-1]
        worst = 0.0
        for n in range(grid.nx - 1):
            diff = M @ diff
            worst = max(worst, np.abs((f1[n + 1] - f2[n + 1]) - diff).max())
        assert worst <= 1e-10

    def test_unstable_gain_requires_override(self):
        # no gain at all: the bare marching operator, which is unstable
        grid, mats, gain, _, data = standard_problem()
        radius = float(np.abs(np.linalg.eigvals(mats.F)).max())
        unstable = GainVector(k=np.zeros(2 * grid.ny), method="none",
                              spectral_radius=radius,
                              obs_condition=gain.obs_condition,
                              pole_min=gain.pole_min, pole_max=gain.pole_max)
        problem = ObserverProblem(grid, data, mats, unstable)
        with pytest.raises(ValueError, match="not certified stable"):
            run(problem, ObserverConfig())

    def test_divergence_guard_raises(self):
        # the certified 65x5 ring gain settles only after W = 87 >= 64
        # steps, so the warm-up wraps around the data; from rest it peaks
        # near 1.5e4 within its first steps, and a sweep from an explicit
        # zero start line near 1.3e5
        grid, mats, gain, _, data = standard_problem(65, 5, "ring")
        steps, W = grid.nx - 1, gain.settle_steps
        assert W >= steps
        problem = ObserverProblem(grid, data, mats, gain)
        guard = 1e4
        ny, k = grid.ny, gain.k
        zero = np.zeros((grid.nx, 2 * ny))
        # per-step reference marches of the wrapped warm-up and its sweep,
        # and of the sweep alone, both from rest
        for guess, rows, label in ((None, range(-W, steps), "warm-up"),
                                   (zero, range(steps), "sweep")):
            with pytest.raises(NonFiniteState) as excinfo:
                run(problem, ObserverConfig(initial_guess=guess, guard=guard))
            s = np.zeros(2 * ny)
            first_out = None
            for t, n in enumerate(rows, 1):
                n %= steps
                b = np.zeros(2 * ny)
                b[-1] = -2.0 * data.g[n] / grid.dy
                s = mats.F @ s - k * (s[ny - 1] - data.f[n]) + grid.dx * b
                if not (np.abs(s) <= guard).all():
                    first_out = t
                    break
            assert first_out is not None and first_out > 1
            named = int(re.search(label + r" step (\d+)",
                                  str(excinfo.value)).group(1))
            assert named == first_out

    def test_uncertified_gain_refused(self):
        # a stable gain that carries no settling certificate
        grid, mats, gain, _, data = standard_problem(257, 5, "ring")
        bare = dataclasses.replace(gain, settle_steps=None)
        problem = ObserverProblem(grid, data, mats, bare)
        guess = np.zeros((grid.nx, 2 * grid.ny))
        for config in (ObserverConfig(), ObserverConfig(initial_guess=guess)):
            with pytest.raises(ValueError, match="not certified stable"):
                run(problem, config)

    def test_gain_length_validated(self):
        grid, mats, gain, _, data = standard_problem()
        short = dataclasses.replace(gain, k=gain.k[:-1])
        with pytest.raises(ValueError):
            ObserverProblem(grid, data, mats, short)

    def test_data_length_validated(self):
        grid, mats, gain, _, _ = standard_problem()
        bad = CauchyData(f=np.zeros(grid.nx - 1), g=np.zeros(grid.nx - 1))
        with pytest.raises(ValueError):
            ObserverProblem(grid, bad, mats, gain)

    @pytest.mark.parametrize("guard", [0.0, -1.0, float("nan")])
    def test_non_positive_guard_rejected(self, guard):
        with pytest.raises(ValueError, match="guard"):
            ObserverConfig(guard=guard)

    def test_bad_initial_guess_shape(self):
        grid, mats, gain, _, data = standard_problem()
        problem = ObserverProblem(grid, data, mats, gain)
        with pytest.raises(ValueError):
            run(problem, ObserverConfig(initial_guess=np.zeros((3, 3))))


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
# for explicit start lines far from the fixed point
NO_GUARD = 1e300


def window_problem(nx, ny, k, parity, layout="ring"):
    grid = build_grid(A, B, nx, ny)
    mats = assemble(grid)
    spec = (ring_poles(2 * ny, 0.55) if layout == "ring"
            else uniform_poles(2 * ny, 0.3, 0.8))
    gv = ackermann_gain(mats.F, mats.C_row, spec)
    sol = combo_example([TrigTerm(k, 1.0, parity)], A, B)
    return ObserverProblem(grid, make_cauchy_data(sol, grid), mats, gv), sol


def one_block_problem(case):
    """A certified gain that settles only after a whole sweep (W >= N)."""
    problem, _ = (window_problem(65, 5, 1, "cos") if case == "unsettled"
                  else window_problem(129, 5, 1, "cos", "uniform"))
    assert problem.gain.settle_steps >= problem.grid.nx - 1
    return problem


def chained_sweeps(problem, count, reference=None):
    """``count`` sweeps chained from a zero start line, each one ``run``
    with the previous sweep's field as its initial guess."""
    grid = problem.grid
    field = np.zeros((grid.nx, 2 * grid.ny))
    for _ in range(count):
        field, report = run(problem, ObserverConfig(
            initial_guess=field, guard=NO_GUARD), reference=reference)
    return field, report


class TestWarmStart:
    @pytest.mark.parametrize("parity", ["cos", "sin"])
    @pytest.mark.parametrize("nx,ny,k", WINDOW)
    def test_first_sweep_is_the_fixed_point(self, nx, ny, k, parity):
        problem, sol = window_problem(nx, ny, k, parity)
        _, report = run(problem, reference=sol)
        # a cold start: the second sweep chained from a zero start line
        _, cold = chained_sweeps(problem, 2, reference=sol)
        assert report.warmup_steps == problem.gain.settle_steps < nx - 1
        assert cold.warmup_steps == 0
        assert report.converged_at == 1 and cold.converged_at is None
        err, cold_err = report.bottom_error, cold.bottom_error
        assert abs(err - cold_err) <= 1e-5 * cold_err

    @pytest.mark.parametrize("parity", ["cos", "sin"])
    @pytest.mark.parametrize("nx,ny,k,layout", STALLED)
    def test_stalled_cases_reach_the_fixed_point(self, nx, ny, k, layout,
                                                 parity):
        problem, sol = window_problem(nx, ny, k, parity, layout)
        field, report = run(problem, reference=sol)
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
        M, _ = affine_form(problem)
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
            field, report = run(problem, ObserverConfig(initial_guess=field,
                                                        guard=NO_GUARD))
            assert report.warmup_steps == 0 and report.sweeps == 1
            assert report.converged_at is None
        scale = np.abs(expected).max()
        assert np.abs(field - expected).max() <= 1e-9 * scale

    def test_guard_names_the_warmup_step(self):
        problem, _ = window_problem(257, 5, 1, "cos")
        grid, mats, data = problem.grid, problem.mats, problem.cauchy
        k = problem.gain.k
        guard = 1e8
        with pytest.raises(NonFiniteState) as excinfo:
            run(problem, ObserverConfig(guard=guard))
        # per-step reference march of the last W steps from rest
        ny, steps, W = grid.ny, grid.nx - 1, problem.gain.settle_steps
        s = np.zeros(2 * ny)
        first_out = None
        for i, n in enumerate(range(steps - W, steps), 1):
            b = np.zeros(2 * ny)
            b[-1] = -2.0 * data.g[n] / grid.dy
            s = mats.F @ s - k * (s[ny - 1] - data.f[n]) + grid.dx * b
            if not (np.abs(s) <= guard).all():
                first_out = i
                break
        assert first_out is not None and first_out > 1
        named = int(re.search(r"warm-up step (\d+)", str(excinfo.value)).group(1))
        assert named == first_out


def per_step_march(M, V, x0, dtype=float):
    """States x0, M x0 + V[0], ..., one M.dot(x) + v per step in dtype."""
    M = M.astype(dtype)
    out = np.empty((len(V) + 1, len(M)), dtype=dtype)
    x = out[0] = x0
    for n, v in enumerate(V.astype(dtype), 1):
        x = out[n] = M.dot(x) + v
    return out


def affine_form(problem):
    return sweep_form(problem.mats, problem.gain.k, problem.cauchy.f,
                      problem.cauchy.g)


def wrapped_inputs(problem):
    """The default run's inputs: the last W data rows wrapped around the
    periodic data, then one sweep's rows."""
    _, U = affine_form(problem)
    W, steps = problem.gain.settle_steps, problem.grid.nx - 1
    return np.concatenate([U[np.arange(steps - W, steps) % steps], U])


class TestWindowedMarch:
    @pytest.mark.parametrize("parity", ["cos", "sin"])
    @pytest.mark.parametrize("nx,ny,k", WINDOW)
    def test_accuracy_against_long_double_march(self, nx, ny, k, parity):
        problem, sol = window_problem(nx, ny, k, parity)
        W = problem.gain.settle_steps
        assert W < nx - 1
        field, report = run(problem, reference=sol)
        # per-step references of the same warm-up and sweep from rest
        M, _ = affine_form(problem)
        V = wrapped_inputs(problem)
        x0 = np.zeros(2 * ny)
        exact = per_step_march(M, V, x0, np.longdouble)[W:, 0]
        plain = per_step_march(M, V, x0)[W:, 0]
        scale = np.abs(exact).max()
        windowed_dev = float(np.abs(field[:, 0] - exact).max() / scale)
        plain_dev = float(np.abs(plain - exact).max() / scale)
        assert windowed_dev <= 1.5 * plain_dev
        plain_err = error_bottom(plain[:, None], bottom_trace(sol, problem.grid),
                                 problem.grid.dx)
        assert abs(report.bottom_error - plain_err) <= 1e-5 * plain_err

    def test_guard_names_a_step_in_a_late_block(self):
        # data vanish outside nodes 1400..1700, so the warm-up and the first
        # 1400 states are zero and the guard first trips in a late block
        problem, _ = window_problem(2049, 3, 1, "cos")
        grid = problem.grid
        f = np.zeros(grid.nx)
        f[1400:1701] = np.sin(np.linspace(0.0, np.pi, 301)) ** 2
        problem = dataclasses.replace(
            problem, cauchy=CauchyData(f=f, g=np.zeros(grid.nx)))
        M, U = affine_form(problem)
        size = np.abs(per_step_march(M, U, np.zeros(2 * grid.ny))).max(axis=1)
        first_out = int((size > 0.5 * size.max()).argmax())
        assert first_out > 1000
        # halfway between the last state inside and the first one outside
        guard = 0.5 * (size[first_out - 1] + size[first_out])
        with pytest.raises(NonFiniteState) as excinfo:
            run(problem, ObserverConfig(guard=guard))
        named = int(re.search(r"sweep step (\d+)", str(excinfo.value)).group(1))
        assert named == first_out

    @pytest.mark.parametrize("guess", [False, True], ids=["zero", "guess"])
    @pytest.mark.parametrize("case", ["unsettled", "uniform"])
    def test_one_block_is_the_plain_march(self, case, guess):
        problem = one_block_problem(case)
        grid, W = problem.grid, problem.gain.settle_steps
        M, U = affine_form(problem)
        if guess:
            start = np.random.default_rng(4).standard_normal(
                (grid.nx, 2 * grid.ny))
            field, report = run(problem, ObserverConfig(
                initial_guess=start, guard=NO_GUARD))
            expected = per_step_march(M, U, start[-1])
        else:
            field, report = run(problem)
            expected = per_step_march(M, wrapped_inputs(problem), np.zeros(
                2 * grid.ny))[W:]
        assert report.warmup_steps == (0 if guess else W)
        assert np.array_equal(field, expected)

    def test_start_line_forgotten_past_the_first_block(self):
        # the first block marches at most W + 31 steps from the start line;
        # every later block starts from rest W steps before its own states
        problem, _ = window_problem(257, 5, 1, "cos")
        grid, W = problem.grid, problem.gain.settle_steps
        rng = np.random.default_rng(5)
        f1, f2 = (run(problem, ObserverConfig(
            initial_guess=rng.standard_normal((grid.nx, 2 * grid.ny))))[0]
            for _ in range(2))
        assert not np.array_equal(f1[1], f2[1])
        assert np.array_equal(f1[W + 32:], f2[W + 32:])
