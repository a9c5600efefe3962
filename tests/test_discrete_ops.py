import numpy as np
import pytest

from cauchy_observer import (assemble, build_grid, design, neumann_example,
                             ring_poles, sample_state_field)
from cauchy_observer.reference import make_cauchy_data

A, B = 2 * np.pi, 0.5


def second_difference_of(mats):
    """D from the lower-left block of F = I + dx*A, which is -dx*D."""
    return -mats.F[mats.ny:, :mats.ny] / mats.dx


def one_step(state, mats, k, f_meas, g_meas):
    """One marching step: the closed loop F - K C, restated here, and the
    input columns [K | d] applied to the step's data."""
    M = mats.F - np.outer(k, mats.C_row)
    return M @ state + k * f_meas + mats.d * g_meas


class TestAssemble:
    def test_interior_row(self):
        g = build_grid(1.0, 0.5, 5, 3)   # dy = 0.25
        D = second_difference_of(assemble(g))
        assert np.allclose(D[1], [16.0, -32.0, 16.0])

    def test_f_is_identity_plus_dx_a(self):
        # A = [[0, I], [-D, 0]], with D's rows written out for ny = 4
        g = build_grid(1.0, 0.5, 11, 4)
        mats = assemble(g)
        inv = 1.0 / (g.dy * g.dy)
        D = np.array([[2.0, -5.0, 4.0, -1.0], [1.0, -2.0, 1.0, 0.0],
                      [0.0, 1.0, -2.0, 1.0], [0.0, 0.0, 2.0, -2.0]]) * inv
        eye = np.eye(4)
        assert np.array_equal(mats.F, np.block([[eye, g.dx * eye],
                                                [-g.dx * D, eye]]))

    def test_top_row_mirror(self):
        g = build_grid(1.0, 0.5, 5, 5)
        D = second_difference_of(assemble(g))
        inv = 1.0 / g.dy ** 2
        assert D[-1, -2] == pytest.approx(2 * inv)
        assert D[-1, -1] == pytest.approx(-2 * inv)

    def test_bottom_row_one_sided(self):
        g = build_grid(1.0, 0.5, 5, 5)
        D = second_difference_of(assemble(g))
        inv = 1.0 / g.dy ** 2
        assert np.allclose(D[0, :4], np.array([2.0, -5.0, 4.0, -1.0]) * inv)

    def test_selector_row(self):
        g = build_grid(1.0, 0.5, 5, 4)
        mats = assemble(g)
        rng = np.random.default_rng(0)
        state = rng.standard_normal(8)
        assert mats.C_row @ state == state[3]


class TestInputColumns:
    def test_gain_and_mirror_node_coefficient(self):
        # the step's input columns are [K | d]: d is -2 dx / dy in the top
        # du/dx row, zero elsewhere
        g = build_grid(A, B, 65, 4)
        mats = assemble(g)
        d = np.zeros(8)
        d[-1] = -2.0 * g.dx / g.dy
        assert np.array_equal(mats.d, d)
        problem = design(g, make_cauchy_data(neumann_example(A, B), g),
                         ring_poles(8))
        assert np.array_equal(problem.step[:, :2],
                              np.column_stack((problem.gain.k, d)))


class TestStepLine:
    def test_gain_injection_from_rest(self):
        g = build_grid(1.0, 0.5, 5, 3)
        mats = assemble(g)
        k = np.zeros(6); k[2] = 1.0     # unit injection at the top u node
        out = one_step(np.zeros(6), mats, k, f_meas=1.0, g_meas=0.0)
        assert np.allclose(out, k)

    def test_zero_innovation_is_pure_march(self):
        g = build_grid(1.0, 0.5, 7, 5)
        mats = assemble(g)
        rng = np.random.default_rng(1)
        state = rng.standard_normal(10)
        k = rng.standard_normal(10)
        f = state[4]                    # measurement equals the top value
        gained = one_step(state, mats, k, f, 0.3)
        plain = one_step(state, mats, np.zeros(10), f, 0.3)
        assert np.allclose(gained, plain, atol=1e-14)

    def test_linear_profile_first_block(self):
        # u = y: du/dx = 0, so the u samples must not move
        g = build_grid(1.0, 0.5, 7, 5)
        mats = assemble(g)
        state = np.concatenate([g.y, np.zeros(5)])
        out = one_step(state, mats, np.zeros(10), f_meas=0.0, g_meas=0.0)
        assert np.allclose(out[:5], state[:5] + g.dx * state[5:], atol=1e-15)

    def test_linearity(self):
        g = build_grid(1.0, 0.5, 7, 4)
        mats = assemble(g)
        rng = np.random.default_rng(2)
        k = rng.standard_normal(8)
        s1 = rng.standard_normal(8); s2 = rng.standard_normal(8)
        f1, f2 = rng.standard_normal(2)
        g1, g2 = rng.standard_normal(2)
        al, be = 0.7, -1.3
        combo = one_step(al * s1 + be * s2, mats, k,
                         al * f1 + be * f2, al * g1 + be * g2)
        parts = al * one_step(s1, mats, k, f1, g1) \
            + be * one_step(s2, mats, k, f2, g2)
        assert np.allclose(combo, parts, rtol=1e-12, atol=1e-12)


def _defect_rate(nx, ny):
    """Max one-step mismatch of the analytic field, scaled by 1/dx."""
    grid = build_grid(A, B, nx, ny)
    mats = assemble(grid)
    sol = neumann_example(A, B)
    data = make_cauchy_data(sol, grid)
    field = sample_state_field(sol, grid)
    k = np.zeros(2 * grid.ny)
    M = mats.F - np.outer(k, mats.C_row)
    inputs = np.outer(data.f[:-1], k) + np.outer(data.g[:-1], mats.d)
    stepped = field[:-1] @ M.T + inputs
    return np.abs(stepped - field[1:]).max() / grid.dx


class TestMarchOrder:
    def test_first_order_in_dx(self):
        # at fine dy the defect rate is dominated by the A*dx term
        ny = 33
        r1 = _defect_rate(33, ny)
        r2 = _defect_rate(65, ny)
        r3 = _defect_rate(129, ny)
        d1, d2 = r1 - r3, r2 - r3
        assert d1 > d2 > 0
        assert np.log2(d1 / d2) >= 0.9

    def test_second_order_in_dy(self):
        nx = 1025
        r1 = _defect_rate(nx, 5)
        r2 = _defect_rate(nx, 9)
        r3 = _defect_rate(nx, 17)
        d1, d2 = r1 - r3, r2 - r3
        assert d1 > d2 > 0
        assert np.log2(d1 / d2) >= 1.9
