import numpy as np
import pytest

from cauchy_observer import (GainVector, ObservabilityDeficient,
                             PlacementFailed, PoleSpec, ackermann_gain,
                             assemble, build_grid, observability_matrix,
                             ring_poles, settle_steps, uniform_poles)
from cauchy_observer.gain import (PLACEMENT_TOL_SCALE, _solve_extended,
                                  _spectrum_order)

A, B = 2 * np.pi, 0.5
# the grids of the working window (test_observer.WINDOW), then the grids
# where a sweep is shorter than the settling step count
WINDOW_GRIDS = [(129, 5), (257, 5), (385, 5), (257, 6), (513, 3), (1025, 3),
                (2049, 3)]
GRIDS = WINDOW_GRIDS + [(65, 3), (65, 5), (129, 3)]


def row_by_row_solve(A_, rhs):
    """Gauss-Jordan elimination with partial pivoting, one row at a time."""
    n = A_.shape[0]
    M = np.concatenate([A_, rhs[:, None]], axis=1)
    for col in range(n):
        piv = col + int(np.abs(M[col:, col]).argmax())
        if M[piv, col] == 0.0:
            raise ObservabilityDeficient("observability matrix is singular")
        M[[col, piv]] = M[[piv, col]]
        M[col] = M[col] / M[col, col]
        for r in range(n):
            if r != col:
                M[r] -= M[r, col] * M[col]
    return M[:, -1]


def reference_gain(F, C, spec, cond_cap=1e12):
    """Ackermann's formula done plainly: the pole polynomial from numpy
    scalars, q(F) by Horner from a zero matrix, row-by-row elimination;
    returns (k, spectral radius, cond(O), settle steps)."""
    O = observability_matrix(F, C)
    cond = float(np.linalg.cond(O))
    if cond > cond_cap:
        raise ObservabilityDeficient(f"condition {cond:.3e}")
    ld = np.longdouble
    coeffs = np.array([ld(1.0)])
    for r in sorted(p.real for p in spec.poles if abs(p.imag) <= 1e-14):
        nxt = np.zeros(len(coeffs) + 1, dtype=ld)
        nxt[:-1] += coeffs
        nxt[1:] -= ld(r) * coeffs
        coeffs = nxt
    for p in [p for p in spec.poles if p.imag > 1e-14]:
        nxt = np.zeros(len(coeffs) + 2, dtype=ld)
        nxt[:-2] += coeffs
        nxt[1:-1] += ld(-2.0 * p.real) * coeffs
        nxt[2:] += ld(p.real * p.real + p.imag * p.imag) * coeffs
        coeffs = nxt
    Fw = F.astype(ld)
    Q = np.zeros_like(Fw)
    for c in coeffs:
        Q = Q @ Fw + c * np.eye(len(F), dtype=ld)
    e_last = np.zeros(len(F), dtype=ld)
    e_last[-1] = 1.0
    k = np.asarray(Q @ row_by_row_solve(observability_matrix(F, C, ld),
                                        e_last), dtype=float)
    M = F - np.outer(k, C)
    achieved = np.linalg.eigvals(M)
    key = lambda z: (round(z.real, 9), round(z.imag, 9))
    mismatch = np.abs(np.array(sorted(achieved, key=key))
                      - np.array(sorted(spec.poles, key=key))).max()
    if mismatch > PLACEMENT_TOL_SCALE * (1.0 + np.abs(spec.poles).max()):
        raise PlacementFailed(f"misses request by {mismatch:.3e}")
    return k, float(np.abs(achieved).max()), cond, settle_steps(M)


def same_bits(x, y):
    """Equal values with equal signs of zero (long-double padding ignored)."""
    return (x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True)
            and np.array_equal(np.signbit(x), np.signbit(y)))


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

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, complex(0.1, np.nan)])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PoleSpec(np.array([bad, 0.5]))

    def test_rejects_unpaired_complex(self):
        with pytest.raises(ValueError):
            PoleSpec(np.array([0.1 + 0.2j, 0.5 + 0j]))

    @pytest.mark.parametrize("make", [lambda: PoleSpec([]),
                                      lambda: ring_poles(0),
                                      lambda: uniform_poles(0)],
                             ids=["PoleSpec", "ring_poles", "uniform_poles"])
    def test_rejects_empty_pole_set(self, make):
        with pytest.raises(ValueError, match="at least one pole, got 0"):
            make()

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

    def test_closed_loop_is_f_minus_kc(self):
        # the loop the observer marches and the certificate is for
        mats = assemble(build_grid(A, B, 257, 5))
        gv = ackermann_gain(mats.F, mats.C_row, ring_poles(10, 0.55))
        want = mats.F - np.outer(gv.k, mats.C_row)
        assert gv.closed_loop.tobytes() == want.tobytes()
        assert gv.settle_steps == settle_steps(want)

    def test_closed_loop_is_required(self):
        for extra in ({}, {"settle_steps": 3}):
            with pytest.raises(TypeError, match="closed_loop"):
                GainVector(k=np.zeros(2), spectral_radius=0.5,
                           obs_condition=1.0, **extra)

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

    @pytest.mark.parametrize("a,b", [(1e308, B), (A, 1e-150)])
    def test_overflowing_observability_rejected(self, a, b):
        # the powers of F overflow, so O is not finite; refused without a
        # warning and before numpy's SVD can fail on it
        mats = assemble(build_grid(a, b, 257, 5))
        with pytest.raises(ObservabilityDeficient, match="not finite"):
            ackermann_gain(mats.F, mats.C_row, ring_poles(10, 0.55))

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


class TestExtendedSolve:
    @pytest.mark.parametrize("n", range(2, 15))
    def test_matches_row_by_row_elimination(self, n):
        # a strictly column diagonally dominant matrix keeps its pivots on
        # the diagonal; with its rows reversed, the first n // 2 columns
        # pivot on a row swap
        rng = np.random.default_rng(n)
        for trial in range(8):
            D = rng.uniform(-1.0, 1.0, (n, n)) + n * np.eye(n)
            A_ = (D[::-1] * 10.0 ** rng.integers(-6, 7, n)).astype(
                np.longdouble) / np.longdouble(3.0)
            if trial % 2:
                rhs = np.zeros(n, dtype=np.longdouble)
                rhs[-1] = 1.0
            else:
                rhs = rng.standard_normal(n).astype(np.longdouble)
            assert same_bits(_solve_extended(A_.copy(), rhs.copy()),
                             row_by_row_solve(A_, rhs))

    def test_singular_system_raises(self):
        A_ = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]],
                      dtype=np.longdouble)
        with pytest.raises(ObservabilityDeficient, match="singular"):
            _solve_extended(A_, np.ones(3, dtype=np.longdouble))


class TestGainBits:
    @pytest.mark.parametrize("layout", ["ring", "uniform"])
    @pytest.mark.parametrize("nx,ny", GRIDS)
    def test_matches_reference_design(self, nx, ny, layout):
        mats = assemble(build_grid(A, B, nx, ny))
        spec = (ring_poles(2 * ny, 0.55) if layout == "ring"
                else uniform_poles(2 * ny, 0.3, 0.8))
        try:
            want = reference_gain(mats.F, mats.C_row, spec)
        except PlacementFailed:
            # 257x6 uniform: not representable in double precision
            with pytest.raises(PlacementFailed):
                ackermann_gain(mats.F, mats.C_row, spec)
            return
        gv = ackermann_gain(mats.F, mats.C_row, spec)
        assert gv.k.tobytes() == want[0].tobytes()
        assert (gv.spectral_radius, gv.obs_condition,
                gv.settle_steps) == want[1:]


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

    @pytest.mark.parametrize("nx,ny", WINDOW_GRIDS)
    def test_lockstep_window_stays_under_32_units(self, nx, ny):
        # the lockstep march drops M^(W+j) times an earlier state for j < 32
        # (observer module docstring); with the powers taken by sequential
        # products those stay within 32 rounding units.  A plain power
        # scan's first settled step is no substitute: the powers after it
        # climb back far above that
        mats = assemble(build_grid(A, B, nx, ny))
        gv = ackermann_gain(mats.F, mats.C_row, ring_poles(2 * ny, 0.55))
        M = mats.F - np.outer(gv.k, mats.C_row)
        W, unit = gv.settle_steps, 2.0 ** -52
        P, norms = np.eye(len(M)), []
        for _ in range(W + 32):
            norms.append(np.linalg.norm(P, 2))
            P = P @ M
        assert max(norms[W:]) <= 32 * unit
        plain = next(n for n, v in enumerate(norms) if v <= unit)
        assert plain < W and max(norms[plain:plain + 32]) > 1e3 * unit

    @pytest.mark.parametrize("nx", [129, 257, 513])
    def test_ny4_drops_powers_past_32_units(self, nx):
        # the exception the settle_steps docstring names: at ny = 4 the ring
        # gain's M^64 is a multiple of I and settles, but the powers the
        # lockstep march drops climb far past 32 units
        mats = assemble(build_grid(A, B, nx, 4))
        gv = ackermann_gain(mats.F, mats.C_row, ring_poles(8, 0.55))
        W, unit = gv.settle_steps, 2.0 ** -52
        assert W == 64
        P, norms = np.linalg.matrix_power(gv.closed_loop, W), []
        for _ in range(32):
            norms.append(np.linalg.norm(P, 2))
            P = P @ gv.closed_loop
        assert norms[0] <= unit and max(norms) > 1e5 * unit

    def test_exact_powers_give_the_first_settling_step(self):
        # powers of 1/2 are exact: ||M^W|| = 2^-W, first at most 2^-52 at 52
        assert settle_steps(np.array([[0.5]])) == 52
        assert settle_steps(np.zeros((3, 3))) == 1

    @pytest.mark.parametrize("M", [1.01 * np.eye(3), np.eye(2),
                                   np.array([[0.0, 2.0], [-2.0, 0.0]]),
                                   np.full((2, 2), np.nan)])
    def test_unstable_never_settles(self, M):
        assert settle_steps(M) is None


def test_degenerate_observability_condition_is_infinite():
    # a zero output row: every singular value of O is zero, and cond(O) is
    # inf, as np.linalg.cond gives it
    with pytest.raises(ObservabilityDeficient,
                       match="observability matrix condition inf exceeds"):
        ackermann_gain(np.eye(4), np.zeros(4), ring_poles(4, 0.5))


def python_round_order(z):
    """The spectrum order by a Python ``round(., 9)`` key per element."""
    re = [round(v, 9) for v in z.real.tolist()]
    im = [round(v, 9) for v in z.imag.tolist()]
    return z[np.lexsort((im, re))]


# ring radii 0.3, 0.55 and 0.8 and the uniform layout for ny = 3 to 9
POLE_SETS = [(ny, layout) for ny in range(3, 10)
             for layout in (0.3, 0.55, 0.8, "uniform")]


class TestSpectrumOrder:
    @pytest.mark.parametrize("ny,layout", POLE_SETS)
    def test_requested_poles_in_python_round_order(self, ny, layout):
        spec = (uniform_poles(2 * ny) if layout == "uniform"
                else ring_poles(2 * ny, layout))
        assert np.array_equal(_spectrum_order(spec.poles),
                              python_round_order(spec.poles))

    @pytest.mark.parametrize("nx,ny", WINDOW_GRIDS + [(65, 5)])
    def test_achieved_spectra_in_python_round_order(self, nx, ny):
        mats = assemble(build_grid(A, B, nx, ny))
        gv = ackermann_gain(mats.F, mats.C_row, ring_poles(2 * ny, 0.55))
        achieved = np.linalg.eigvals(gv.closed_loop)
        assert np.array_equal(_spectrum_order(achieved),
                              python_round_order(achieved))

    def test_ties_keep_their_order(self):
        z = np.array([0.5 + 1e-12j, 0.5 - 1e-12j, 0.25 + 0j, 0.5 + 0j])
        assert np.array_equal(_spectrum_order(z), z[[2, 0, 1, 3]])
