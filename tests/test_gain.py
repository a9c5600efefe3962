import numpy as np
import pytest

from cauchy_observer import (ObservabilityDeficient, PlacementFailed, PoleSpec,
                             ackermann_gain, assemble, build_grid,
                             observability_matrix, ring_poles, settle_steps,
                             uniform_poles)

A, B = 2 * np.pi, 0.5


class TestObservabilityMatrix:
    def test_identity_dynamics_rank_one(self):
        F = np.eye(4)
        C = np.array([0.5, 0.0, 1.0, 0.0])
        O = observability_matrix(F, C)
        assert all(np.array_equal(row, C) for row in O)
        assert np.linalg.matrix_rank(O) == 1

    def test_shift_pair_gives_identity(self):
        F = np.array([[0.0, 1.0], [0.0, 0.0]])
        C = np.array([1.0, 0.0])
        assert np.array_equal(observability_matrix(F, C), np.eye(2))

    def test_assembled_system_full_rank(self):
        g = build_grid(A, B, 65, 3)
        mats = assemble(g)
        O = observability_matrix(mats.F, mats.C_row)
        assert np.linalg.matrix_rank(O) == 2 * g.ny
        assert np.isfinite(np.linalg.cond(O))


class TestPoleSpec:
    def test_rejects_unit_modulus(self):
        with pytest.raises(ValueError):
            PoleSpec(np.array([0.5, 1.0 + 0j]))

    def test_rejects_unpaired_complex(self):
        with pytest.raises(ValueError):
            PoleSpec(np.array([0.1 + 0.2j, 0.5 + 0j]))

    def test_ring_is_conjugate_closed(self):
        spec = ring_poles(10, 0.55)
        assert len(spec) == 10
        assert np.allclose(np.abs(spec.poles), 0.55)

    def test_ring_needs_even_count(self):
        with pytest.raises(ValueError):
            ring_poles(7, 0.5)


class TestAckermann:
    def test_scalar_system(self):
        F = np.array([[2.0]])
        C = np.array([1.0])
        gv = ackermann_gain(F, C, PoleSpec(np.array([0.5 + 0j])))
        assert gv.k == pytest.approx([1.5])
        assert gv.spectral_radius == pytest.approx(0.5)
        assert gv.settle_steps is not None

    def test_deadbeat_shift_pair(self):
        F = np.array([[0.0, 1.0], [0.0, 0.0]])
        C = np.array([1.0, 0.0])
        gv = ackermann_gain(F, C, PoleSpec(np.array([0.0 + 0j, 0.0 + 0j])))
        assert np.allclose(gv.k, 0.0)
        assert gv.spectral_radius == pytest.approx(0.0)

    def test_assembled_ny5_uniform(self):
        g = build_grid(A, B, 65, 5)
        mats = assemble(g)
        gv = ackermann_gain(mats.F, mats.C_row, uniform_poles(10, 0.3, 0.8))
        assert gv.spectral_radius <= 0.8 + 1e-6
        assert gv.settle_steps is not None

    def test_matches_coefficient_oracle_1x1(self):
        F = np.array([[1.7]])
        C = np.array([2.0])
        pole = -0.25
        # q(z) = z - pole; K C = F - pole  =>  K = (1.7 - pole) / 2
        gv = ackermann_gain(F, C, PoleSpec(np.array([pole + 0j])))
        assert gv.k[0] == pytest.approx((1.7 - pole) / 2.0, abs=1e-10)

    def test_matches_coefficient_oracle_2x2(self):
        # the characteristic polynomial of F - K C is affine in K, so
        # matching its coefficients is an independent linear-solve oracle
        rng = np.random.default_rng(11)
        for _ in range(5):
            F = rng.standard_normal((2, 2))
            C = rng.standard_normal(2)
            poles = np.sort(rng.uniform(-0.8, 0.8, 2))
            # target: trace and determinant of the closed loop
            t_target = poles.sum()
            d_target = poles.prod()
            # trace(F - K C) = tr F - C.K ; det(F - K C) = det F - C adj(F) K
            adj = np.array([[F[1, 1], -F[0, 1]], [-F[1, 0], F[0, 0]]])
            Amat = np.vstack([C, C @ adj])
            rhs = np.array([np.trace(F) - t_target, np.linalg.det(F) - d_target])
            if abs(np.linalg.det(Amat)) < 1e-8:
                continue
            k_oracle = np.linalg.solve(Amat, rhs)
            gv = ackermann_gain(F, C, PoleSpec(poles.astype(complex)))
            assert np.allclose(gv.k, k_oracle, atol=1e-10)

    def test_pole_count_must_match(self):
        g = build_grid(A, B, 9, 3)
        mats = assemble(g)
        with pytest.raises(ValueError):
            ackermann_gain(mats.F, mats.C_row, uniform_poles(4, 0.3, 0.8))

    def test_unobservable_rejected(self):
        F = np.eye(3)
        C = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ObservabilityDeficient):
            ackermann_gain(F, C, uniform_poles(3, 0.1, 0.5))

    def test_placement_failure_is_detected(self):
        # at state dimension 14 the uniformly spaced real layout is not
        # representable in double precision; the post-check must say so
        g = build_grid(A, B, 65, 7)
        mats = assemble(g)
        with pytest.raises(PlacementFailed):
            ackermann_gain(mats.F, mats.C_row, uniform_poles(14, 0.3, 0.8))

    def test_geometric_decay_certificate(self):
        g = build_grid(A, B, 65, 5)
        mats = assemble(g)
        gv = ackermann_gain(mats.F, mats.C_row, ring_poles(10, 0.55))
        assert gv.spectral_radius <= 0.95
        M = mats.F - np.outer(gv.k, mats.C_row)
        rng = np.random.default_rng(9)
        e0 = rng.standard_normal(10)
        e = e0.copy()
        for _ in range(200):
            e = M @ e
        assert np.linalg.norm(e) <= 1e-3 * np.linalg.norm(e0)


class TestSettleSteps:
    @pytest.mark.parametrize("nx,ny", [(65, 5), (257, 5), (257, 6), (513, 3),
                                       (2049, 3)])
    def test_certificate_holds_for_plain_powers(self, nx, ny):
        mats = assemble(build_grid(A, B, nx, ny))
        gv = ackermann_gain(mats.F, mats.C_row, ring_poles(2 * ny, 0.55))
        M = mats.F - np.outer(gv.k, mats.C_row)
        W = settle_steps(M)
        assert W is not None and gv.settle_steps == W
        P = np.eye(len(M))
        for _ in range(W):
            P = P @ M
        assert np.linalg.norm(P, 2) <= 2.0 ** -52

    def test_exact_powers_give_the_first_settling_step(self):
        # powers of 1/2 are exact: ||M^W|| = 2^-W, first at most 2^-52 at 52
        assert settle_steps(np.array([[0.5]])) == 52
        assert settle_steps(np.zeros((3, 3))) == 1

    @pytest.mark.parametrize("M", [1.01 * np.eye(3), np.eye(2),
                                   np.array([[0.0, 2.0], [-2.0, 0.0]]),
                                   np.full((2, 2), np.nan)])
    def test_unstable_never_settles(self, M):
        assert settle_steps(M) is None
