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
        assert report.bottom_errors[-1] <= 0.05

    def test_histories_have_one_entry_per_sweep(self):
        grid, mats, gain, sol, data = standard_problem()
        problem = ObserverProblem(grid, data, mats, gain)
        field, report = run(problem, ObserverConfig(max_sweeps=4, tol=0.0),
                            reference=sol)
        assert report.sweeps == 4
        assert len(report.bottom_errors) == 4
        assert report.converged_at is None

    def test_initial_guess_independence(self):
        grid, mats, gain, sol, data = standard_problem(257, 5, "ring")
        problem = ObserverProblem(grid, data, mats, gain)
        rng = np.random.default_rng(0)
        tol = 1e-6    # just above the round-off floor of this gain magnitude
        traces = []
        for _ in range(2):
            guess = rng.standard_normal((grid.nx, 2 * grid.ny))
            field, report = run(problem, ObserverConfig(
                tol=tol, initial_guess=guess, max_sweeps=200))
            assert report.converged_at is not None
            traces.append(field[:, 0].copy())
        assert np.abs(traces[0] - traces[1]).max() <= 10 * tol

    def test_error_recursion_between_twin_runs(self):
        # two sweeps fed identical data differ exactly by powers of F - K C
        grid, mats, gain, _, data = standard_problem(65, 3)
        problem = ObserverProblem(grid, data, mats, gain)
        rng = np.random.default_rng(1)
        i1 = rng.standard_normal((grid.nx, 2 * grid.ny))
        i2 = rng.standard_normal((grid.nx, 2 * grid.ny))
        f1, _ = run(problem, ObserverConfig(initial_guess=i1, max_sweeps=1))
        f2, _ = run(problem, ObserverConfig(initial_guess=i2, max_sweeps=1))
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
                              spectral_radius=radius, stable=False,
                              obs_condition=gain.obs_condition,
                              pole_min=gain.pole_min, pole_max=gain.pole_max)
        problem = ObserverProblem(grid, data, mats, unstable)
        with pytest.raises(ValueError, match="not certified stable"):
            run(problem, ObserverConfig())

    def test_divergence_guard_raises(self):
        # the certified 65x5 ring gain settles only after W = 87 >= 64
        # steps, so the run starts from zero; sweep 1 peaks near 1.3e5
        grid, mats, gain, _, data = standard_problem(65, 5, "ring")
        assert gain.settle_steps >= grid.nx - 1
        problem = ObserverProblem(grid, data, mats, gain)
        guard = 1e4
        with pytest.raises(NonFiniteState) as excinfo:
            run(problem, ObserverConfig(guard=guard))
        # per-step reference march of the first sweep from the zero guess
        ny, k = grid.ny, gain.k
        s = np.zeros(2 * ny)
        first_out = None
        for n in range(grid.nx - 1):
            b = np.zeros(2 * ny)
            b[-1] = -2.0 * data.g[n] / grid.dy
            s = mats.F @ s - k * (s[ny - 1] - data.f[n]) + grid.dx * b
            if not (np.abs(s) <= guard).all():
                first_out = n + 1
                break
        assert first_out is not None
        named = int(re.search(r"sweep step (\d+)", str(excinfo.value)).group(1))
        assert named == first_out

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

    def test_nan_tol_rejected(self):
        with pytest.raises(ValueError, match="tol"):
            ObserverConfig(tol=float("nan"))

    def test_bad_initial_guess_shape(self):
        grid, mats, gain, _, data = standard_problem()
        problem = ObserverProblem(grid, data, mats, gain)
        with pytest.raises(ValueError):
            run(problem, ObserverConfig(initial_guess=np.zeros((3, 3))))


# the verified window: grids where the ring gain designs and the sweep
# converges, with the Fourier indices that converge there
WINDOW = [(129, 5, 1)] + [(nx, ny, k) for nx, ny in ((257, 5), (385, 5),
                                                    (257, 6), (513, 3),
                                                    (1025, 3), (2049, 3))
                          for k in (1, 2)]
# runs that must not trip the guard even while far from the fixed point
UNGUARDED = dict(max_sweeps=3, tol=0.0, guard=1e300)


def window_problem(nx, ny, k, parity):
    grid = build_grid(A, B, nx, ny)
    mats = assemble(grid)
    gv = ackermann_gain(mats.F, mats.C_row, ring_poles(2 * ny, 0.55))
    sol = combo_example([TrigTerm(k, 1.0, parity)], A, B)
    return ObserverProblem(grid, make_cauchy_data(sol, grid), mats, gv), sol


def unwindowed_problem(case):
    """A certified gain whose settling certificate is no use to a sweep."""
    if case == "unsettled":
        problem, _ = window_problem(65, 5, 1, "cos")
        assert problem.gain.settle_steps >= problem.grid.nx - 1
        return problem
    # a stable gain that carries no settling certificate
    problem, _ = window_problem(257, 5, 1, "cos")
    return dataclasses.replace(problem, gain=dataclasses.replace(
        problem.gain, settle_steps=None))


class TestWarmStart:
    @pytest.mark.parametrize("parity", ["cos", "sin"])
    @pytest.mark.parametrize("nx,ny,k", WINDOW)
    def test_first_sweep_is_the_fixed_point(self, nx, ny, k, parity):
        problem, sol = window_problem(nx, ny, k, parity)
        _, report = run(problem, reference=sol)
        _, cold = run(problem, ObserverConfig(
            initial_guess=np.zeros((nx, 2 * ny))), reference=sol)
        assert report.warmup_steps == problem.gain.settle_steps < nx - 1
        assert cold.warmup_steps == 0
        assert report.converged_at == 1 and cold.converged_at is not None
        err, cold_err = report.bottom_errors[-1], cold.bottom_errors[-1]
        assert abs(err - cold_err) <= 1e-5 * cold_err

    @pytest.mark.parametrize("case", ["unsettled", "uncertified"])
    def test_zero_start_without_usable_certificate(self, case):
        problem = unwindowed_problem(case)
        grid = problem.grid
        field, report = run(problem, ObserverConfig(**UNGUARDED))
        zero_field, zero = run(problem, ObserverConfig(
            initial_guess=np.zeros((grid.nx, 2 * grid.ny)), **UNGUARDED))
        assert report.warmup_steps == 0
        assert np.array_equal(field, zero_field)
        assert report.top_residuals == zero.top_residuals

    def test_explicit_guess_chains_single_sweeps(self):
        problem, _ = window_problem(129, 3, 1, "sin")
        grid = problem.grid
        guess = np.random.default_rng(3).standard_normal((grid.nx, 2 * grid.ny))
        field, report = run(problem, ObserverConfig(initial_guess=guess,
                                                    **UNGUARDED))
        expected = guess
        for _ in range(UNGUARDED["max_sweeps"]):
            expected, _ = run(problem, ObserverConfig(
                initial_guess=expected, max_sweeps=1,
                guard=UNGUARDED["guard"]))
        assert report.warmup_steps == 0 and report.sweeps == 3
        assert np.array_equal(field, expected)

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


class TestWindowedMarch:
    @pytest.mark.parametrize("parity", ["cos", "sin"])
    @pytest.mark.parametrize("nx,ny,k", WINDOW)
    def test_accuracy_against_long_double_march(self, nx, ny, k, parity):
        problem, sol = window_problem(nx, ny, k, parity)
        W = problem.gain.settle_steps
        assert W < nx - 1
        field, report = run(problem, reference=sol)
        # per-step references of the same warm-up and sweep from rest
        M, U = affine_form(problem)
        V = np.concatenate([U[nx - 1 - W:], U])
        x0 = np.zeros(2 * ny)
        exact = per_step_march(M, V, x0, np.longdouble)[W:, 0]
        plain = per_step_march(M, V, x0)[W:, 0]
        scale = np.abs(exact).max()
        windowed_dev = float(np.abs(field[:, 0] - exact).max() / scale)
        plain_dev = float(np.abs(plain - exact).max() / scale)
        assert windowed_dev <= 1.5 * plain_dev
        plain_err = error_bottom(plain[:, None], bottom_trace(sol, problem.grid),
                                 problem.grid.dx)
        assert abs(report.bottom_errors[-1] - plain_err) <= 1e-5 * plain_err

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
    @pytest.mark.parametrize("case", ["unsettled", "uncertified"])
    def test_one_block_is_the_plain_march(self, case, guess):
        problem = unwindowed_problem(case)
        grid = problem.grid
        start = np.zeros((grid.nx, 2 * grid.ny))
        if guess:
            start = np.random.default_rng(4).standard_normal(start.shape)
        field, _ = run(problem, ObserverConfig(
            initial_guess=start if guess else None, max_sweeps=1,
            guard=UNGUARDED["guard"]))
        M, U = affine_form(problem)
        assert np.array_equal(field, per_step_march(M, U, start[-1]))

    def test_start_line_forgotten_past_the_first_block(self):
        # the first block marches at most W + 31 steps from the start line;
        # every later block starts from rest W steps before its own states
        problem, _ = window_problem(257, 5, 1, "cos")
        grid, W = problem.grid, problem.gain.settle_steps
        rng = np.random.default_rng(5)
        f1, f2 = (run(problem, ObserverConfig(
            initial_guess=rng.standard_normal((grid.nx, 2 * grid.ny)),
            max_sweeps=1))[0] for _ in range(2))
        assert not np.array_equal(f1[1], f2[1])
        assert np.array_equal(f1[W + 32:], f2[W + 32:])
