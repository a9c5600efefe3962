import warnings

import numpy as np
import pytest

from cauchy_observer.spectral import (ANALYSIS_LENGTH, DEFAULT_MODE_INDICES,
                                      MODE_AMPLITUDE, FunctionPair, ModeSet,
                                      _sample_rows, eigen_residual,
                                      gram_matrix, inner_product,
                                      mode_frequency,
                                      observability_lower_bound, sample_mode,
                                      semigroup_apply)


def combination(indices, quadrature, weights=None):
    """Weighted sum of sampled modes, derivative carried along."""
    q = quadrature
    p1 = np.zeros(q); p2 = np.zeros(q); d1 = np.zeros(q)
    for i, n in enumerate(indices):
        w = 1.0 if weights is None else weights[i]
        m = sample_mode(n, q)
        p1 += w * m.p1
        p2 += w * m.p2
        d1 += w * m.dp1
    return FunctionPair(p1, p2, d1)


class TestModeFamily:
    def test_frequencies_never_vanish(self):
        for n in range(-50, 51):
            assert mode_frequency(n) == 6.0 - 8.0 * n != 0.0
        lam = mode_frequency(np.arange(-50.0, 51.0))
        assert np.array_equal(lam, [6.0 - 8.0 * n for n in range(-50, 51)])

    def test_normalization_identity(self):
        # rho_n = 1 / (sqrt(2) lam_n) makes every sampled pair a unit vector
        for n in (-3, 0, 1, 7):
            m = sample_mode(n, 2001)
            assert inner_product(m, m) == pytest.approx(1.0, abs=1e-12)

    # the first and last quadrature nodes are s = 0 and s = pi/4
    def test_value_at_origin_mode0(self):
        m = sample_mode(0, 101)
        assert m.p1[0] == pytest.approx(-0.18806319451591876, rel=1e-13)
        assert m.p2[0] == pytest.approx(-1.1283791670955126, rel=1e-13)

    def test_value_vanishes_at_far_end_mode0(self):
        m = sample_mode(0, 101)
        assert abs(m.p1[-1]) < 1e-15 and abs(m.p2[-1]) < 1e-15

    def test_value_at_origin_mode1(self):
        assert sample_mode(1, 101).p1[0] == pytest.approx(
            0.5641895835477563, rel=1e-13)


class TestInnerProduct:
    def test_self_pairing_is_one(self):
        m = sample_mode(0, 2001)
        assert inner_product(m, m) == pytest.approx(1.0, abs=1e-12)

    def test_cross_pairing_is_zero(self):
        a = sample_mode(0, 2001)
        b = sample_mode(1, 2001)
        assert abs(inner_product(a, b)) < 1e-12

    def test_zero_pair(self):
        z = FunctionPair(np.zeros(501), np.zeros(501), np.zeros(501))
        q = sample_mode(2, 501)
        assert inner_product(z, q) == 0.0

    def test_mismatched_nodes_rejected(self):
        with pytest.raises(ValueError):
            inner_product(sample_mode(0, 101),
                          sample_mode(0, 201))

    def test_gram_identity(self):
        G = gram_matrix(ModeSet(tuple(range(-8, 9)), 2001))
        assert np.abs(G - np.eye(len(G))).max() <= 1e-6


class TestSemigroup:
    def test_identity_at_zero(self):
        ms = ModeSet(DEFAULT_MODE_INDICES)
        f = combination(ms.indices, ms.quadrature)
        out = semigroup_apply(f, 0.0, ms)
        assert np.abs(out.p1 - f.p1).max() < 1e-10
        assert np.abs(out.p2 - f.p2).max() < 1e-10

    def test_projection_idempotent(self):
        ms = ModeSet((-1, 0, 1, 2), 1001)
        rng = np.random.default_rng(3)
        f = FunctionPair(*rng.standard_normal((3, 1001)))
        once = semigroup_apply(f, 0.0, ms)
        twice = semigroup_apply(once, 0.0, ms)
        assert np.abs(twice.p1 - once.p1).max() < 1e-10
        assert np.abs(twice.p2 - once.p2).max() < 1e-10

    def test_single_mode_growth(self):
        ms = ModeSet(DEFAULT_MODE_INDICES, 1001)
        f = sample_mode(0, 1001)
        x = 0.17
        out = semigroup_apply(f, x, ms)
        assert np.allclose(out.p1, np.exp(6.0 * x) * f.p1, rtol=1e-11, atol=1e-12)
        assert np.allclose(out.p2, np.exp(6.0 * x) * f.p2, rtol=1e-11, atol=1e-12)

    def test_composition(self):
        ms = ModeSet(DEFAULT_MODE_INDICES)
        f = combination(ms.indices, ms.quadrature)
        lhs = semigroup_apply(semigroup_apply(f, 0.1, ms), 0.2, ms)
        rhs = semigroup_apply(f, 0.3, ms)
        assert np.abs(lhs.p1 - rhs.p1).max() <= 1e-10
        assert np.abs(lhs.p2 - rhs.p2).max() <= 1e-10

    def test_negative_distance_rejected(self):
        ms = ModeSet((0,), 101)
        with pytest.raises(ValueError):
            semigroup_apply(sample_mode(0, 101), -0.1, ms)

    def test_nan_distance_rejected(self):
        # NaN passed a guard of x < 0 and gave an all-NaN pair
        ms = ModeSet((0,), 101)
        with pytest.raises(ValueError, match="must be nonnegative"):
            semigroup_apply(sample_mode(0, 101), float("nan"), ms)

    @pytest.mark.parametrize("x", [float("inf"), 200.0])
    def test_overflowing_distance_rejected(self, x):
        # mode 1 decays to 0, but at inf the growing modes' exp(inf) times a
        # rounding-level projection gave a -inf pair with nan in dp1, and at
        # 200 exp(38 * 200) overflowed to a nan pair with a RuntimeWarning
        ms = ModeSet(DEFAULT_MODE_INDICES)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"distance {x} overflows"):
                semigroup_apply(sample_mode(1, ms.quadrature), x, ms)

    def test_finite_distance_keeps_its_bits(self):
        # the coefficients, restated without the overflow guard
        ms = ModeSet(DEFAULT_MODE_INDICES)
        f = combination((0, 1, 3), ms.quadrature, (1.0, -0.5, 0.25))
        lam, p1, dp1 = _sample_rows(ms)
        w = np.full(ms.quadrature, ANALYSIS_LENGTH / (ms.quadrature - 1))
        w[[0, -1]] *= 0.5
        c = np.exp(lam * 0.1) * (dp1 @ (w * f.dp1) + lam * (p1 @ (w * f.p2)))
        out = semigroup_apply(f, 0.1, ms)
        for got, want in ((out.p1, c @ p1), (out.p2, (c * lam) @ p1),
                          (out.dp1, c @ dp1)):
            assert got.tobytes() == want.tobytes()


class TestObservation:
    # the observation is the first component at the data end s = 0: p1[0]
    def test_mode0(self):
        f = sample_mode(0, 501)
        assert f.p1[0] == pytest.approx(-0.18806319451591876, rel=1e-13)

    def test_mode1(self):
        f = sample_mode(1, 501)
        assert f.p1[0] == pytest.approx(0.5641895835477563, rel=1e-13)

    def test_zero(self):
        ms = ModeSet((0, 1), 101)
        zero = FunctionPair(np.zeros(101), np.zeros(101), np.zeros(101))
        assert semigroup_apply(zero, 0.2, ms).p1[0] == 0.0


class TestObservabilityBound:
    def test_single_mode_at_origin(self):
        ms = ModeSet((0,), 2001)
        assert observability_lower_bound(ms, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_strictly_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            idx = tuple(rng.choice(np.arange(-6, 7), size=4, replace=False))
            ms = ModeSet(idx, 801)
            for x in (0.0, 0.1, 0.5):
                assert observability_lower_bound(ms, x) > 0.0

    def test_monotone_in_mode_set(self):
        small = ModeSet((0, 1), 801)
        large = ModeSet((0, 1, 2, -1), 801)
        for x in (0.0, 0.2):
            assert (observability_lower_bound(large, x)
                    >= observability_lower_bound(small, x))

    def test_single_mode_growth_rate(self):
        # each summand is (exp(lam x) * 1)^2, so mode 0 scales as exp(12 x)
        ms = ModeSet((0,), 801)
        x = 0.25
        ratio = observability_lower_bound(ms, x) / observability_lower_bound(ms, 0.0)
        assert ratio == pytest.approx(np.exp(12.0 * x), rel=1e-9)


class TestEigenResidual:
    def test_magnitude_mode0(self):
        res = eigen_residual(ModeSet((0,), 101))[0]
        h = ANALYSIS_LENGTH / 100
        lam = mode_frequency(0)
        rho = 1.0 / (np.sqrt(2.0) * lam)
        bound = abs(lam) ** 3 * h * h * abs(MODE_AMPLITUDE * rho)
        assert 0.0 < res <= bound

    def test_second_order_refinement(self):
        coarse = eigen_residual(ModeSet((0,), 101))[0]
        fine = eigen_residual(ModeSet((0,), 201))[0]
        assert fine < coarse
        assert coarse / fine == pytest.approx(4.0, rel=0.1)

    def test_first_row_exactly_zero(self):
        # the defect is entirely in the second row; scaling the first
        # component relation leaves no residue by construction
        pair = sample_mode(2, 301)
        assert np.array_equal(pair.p2, mode_frequency(2) * pair.p1)


class TestValidation:
    def test_duplicate_modes_rejected(self):
        with pytest.raises(ValueError):
            ModeSet((1, 1, 2), 101)

    def test_empty_modes_rejected(self):
        with pytest.raises(ValueError):
            ModeSet((), 101)

    def test_coarse_quadrature_rejected(self):
        with pytest.raises(ValueError):
            ModeSet((0,), 4)
        with pytest.raises(ValueError):
            eigen_residual(ModeSet((0,), 3))[0]

    def test_integral_quadrature_is_stored_as_int(self):
        # equal sets hash alike, so they must also sample alike
        plain = ModeSet((0, 1), 101)
        for q in (101.0, np.float64(101.0), np.int64(101)):
            ms = ModeSet((0, 1), q)
            assert type(ms.quadrature) is int
            assert ms == plain and hash(ms) == hash(plain)
            _sample_rows.cache_clear()
            assert np.array_equal(gram_matrix(ms), gram_matrix(plain))

    @pytest.mark.parametrize("q", [100.5, 1e-9 + 101, float("nan"),
                                   float("inf"), "101", None])
    def test_non_integral_quadrature_rejected(self, q):
        with pytest.raises(ValueError, match="whole number of nodes"):
            ModeSet((0,), q)

    def test_integral_indices_are_stored_as_ints(self):
        plain = ModeSet((0, 1), 101)
        for idx in ((0.0, 1.0), (np.float64(0.0), np.int64(1))):
            ms = ModeSet(idx, 101)
            assert all(type(i) is int for i in ms.indices)
            assert ms == plain and hash(ms) == hash(plain)

    @pytest.mark.parametrize("idx", [(0.5, 1.9), (0, 1.9), (float("nan"),),
                                     (float("inf"),), ("1",), (None,)])
    def test_non_integral_indices_rejected(self, idx):
        with pytest.raises(ValueError, match="whole numbers"):
            ModeSet(idx, 101)

    def test_pair_requires_derivative_samples(self):
        with pytest.raises(TypeError):
            FunctionPair(np.zeros(101), np.zeros(101))
        with pytest.raises(ValueError, match="derivative samples"):
            FunctionPair(np.zeros(101), np.zeros(101), np.zeros(100))

    def test_pair_components_must_be_1d(self):
        with pytest.raises(ValueError) as info:
            FunctionPair(np.zeros((2, 101)), np.zeros((2, 101)),
                         np.zeros((2, 101)))
        assert str(info.value) == (
            "components must be 1-d arrays on identical nodes")

    def test_propagating_a_pair_on_other_nodes_rejected(self):
        f = sample_mode(1, 101)
        with pytest.raises(ValueError) as info:
            semigroup_apply(f, 0.1, ModeSet((0, 1), 201))
        assert str(info.value) == (
            "pair and mode set use different quadrature nodes")


# Per-mode references built from sample_mode and inner_product: the
# whole-array diagnostics must agree with them on every mode set below.
REFERENCE_SETS = [ModeSet(tuple(range(lo, hi + 1)), q)
                  for lo, hi in ((-4, 8), (-6, 6), (-2, 10), (-5, 9))
                  for q in (1001, 4001)]
REFERENCE_IDS = [f"{ms.indices[0]}..{ms.indices[-1]}-q{ms.quadrature}"
                 for ms in REFERENCE_SETS]
reference_sets = pytest.mark.parametrize("ms", REFERENCE_SETS,
                                         ids=REFERENCE_IDS)


def per_mode_gram(ms):
    pairs = [sample_mode(n, ms.quadrature) for n in ms.indices]
    return np.array([[inner_product(a, b) for b in pairs] for a in pairs])


def per_mode_propagate(f, x, ms):
    out = [np.zeros(f.nodes) for _ in range(3)]
    for n in ms.indices:
        basis = sample_mode(n, ms.quadrature)
        c = np.exp(mode_frequency(n) * x) * inner_product(f, basis)
        for acc, comp in zip(out, (basis.p1, basis.p2, basis.dp1)):
            acc += c * comp
    return out


def per_mode_eigen_residual(n, quadrature):
    pair = sample_mode(n, quadrature)
    h = ANALYSIS_LENGTH / (quadrature - 1)
    d2 = (pair.p1[2:] - 2.0 * pair.p1[1:-1] + pair.p1[:-2]) / (h * h)
    return np.abs(-d2 - mode_frequency(n) * pair.p2[1:-1]).max()


class TestAgainstPerModeReference:
    @reference_sets
    def test_gram_matrix(self, ms):
        assert np.abs(gram_matrix(ms) - per_mode_gram(ms)).max() <= 1e-14

    @reference_sets
    def test_semigroup_apply(self, ms):
        rng = np.random.default_rng(ms.quadrature + len(ms.indices))
        f = FunctionPair(*rng.standard_normal((3, ms.quadrature)))
        for x in (0.0, 0.13):
            out = semigroup_apply(f, x, ms)
            for got, want in zip((out.p1, out.p2, out.dp1),
                                 per_mode_propagate(f, x, ms)):
                assert (np.abs(got - want).max()
                        <= 1e-12 * np.abs(want).max())

    @reference_sets
    def test_eigen_residual_bit_identical(self, ms):
        want = [per_mode_eigen_residual(n, ms.quadrature) for n in ms.indices]
        assert np.array_equal(eigen_residual(ms), want)

    @reference_sets
    def test_observability_bound(self, ms):
        xs = np.array([0.0, 0.05, 0.1, 0.5])
        bounds = observability_lower_bound(ms, xs)
        assert np.array_equal(
            bounds, [observability_lower_bound(ms, x) for x in xs])
        lam = mode_frequency(np.array(ms.indices, dtype=float))
        closed = np.exp(2.0 * np.multiply.outer(xs, lam)).sum(axis=1)
        assert np.abs(bounds / closed - 1.0).max() <= 1e-12

    @reference_sets
    def test_diagnostics_match_the_separate_calls(self, ms):
        # diagnose's three calls and a propagation on equal mode sets share
        # one sampling, and each gives bit for bit what it gives cold
        xs = (0.0, 0.1, 0.5)
        rng = np.random.default_rng(ms.quadrature)
        pair = FunctionPair(*rng.standard_normal((3, ms.quadrature)))

        def propagate(m):
            out = semigroup_apply(pair, 0.1, m)
            return np.stack([out.p1, out.p2, out.dp1])

        calls = (gram_matrix, eigen_residual,
                 lambda m: observability_lower_bound(m, xs), propagate)
        cold = []
        for call in calls:
            _sample_rows.cache_clear()
            cold.append(call(ms))
        _sample_rows.cache_clear()
        warm = [call(ModeSet(ms.indices, ms.quadrature)) for call in calls]
        info = _sample_rows.cache_info()
        assert (info.misses, info.hits) == (1, len(calls) - 1)
        for got, want in zip(warm, cold):
            assert np.array_equal(got, want)

    def test_scalar_bound_is_float(self):
        assert type(observability_lower_bound(ModeSet((0, 1), 101), 0.1)) is float

    def test_negative_distance_in_array_rejected(self):
        with pytest.raises(ValueError):
            observability_lower_bound(ModeSet((0,), 101), [0.1, -0.1])

    @pytest.mark.parametrize("x", [float("nan"), [0.1, float("nan")]])
    def test_nan_distance_rejected(self, x):
        # NaN passed a guard of (x < 0).any() and gave a NaN bound
        with pytest.raises(ValueError, match="x must be nonnegative"):
            observability_lower_bound(ModeSet((0,), 101), x)

    @pytest.mark.parametrize("x,named", [(float("inf"), "inf"),
                                         (200.0, "200.0"),
                                         ([0.1, 10.0, float("inf")], "10.0")])
    def test_overflowing_distance_rejected(self, x, named):
        # the bound was inf at x = inf, with no error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"x = {named} overflows"):
                observability_lower_bound(ModeSet(DEFAULT_MODE_INDICES), x)

    def test_finite_distance_keeps_its_bits(self):
        ms = ModeSet(DEFAULT_MODE_INDICES)
        lam, p1, dp1 = _sample_rows(ms)
        w = np.full(ms.quadrature, ANALYSIS_LENGTH / (ms.quadrature - 1))
        w[[0, -1]] *= 0.5
        diag = np.square(dp1) @ w + lam * lam * (np.square(p1) @ w)
        want = np.square(np.exp(lam * 0.1) * diag).sum()
        assert observability_lower_bound(ms, 0.1) == float(want)


class TestSamplingMemo:
    def test_rows_are_read_only(self):
        for rows in _sample_rows(ModeSet((0, 1), 101)):
            with pytest.raises(ValueError):
                rows[0] = 0.0

    def test_results_do_not_alias_the_rows(self):
        # results are the caller's to write; the shared rows stay intact
        ms = ModeSet((0, 1, 2), 101)
        gram = gram_matrix(ms)
        gram_matrix(ms)[:] = 0.0
        eigen_residual(ms)[:] = 0.0
        semigroup_apply(sample_mode(1, 101), 0.1, ms).p1[:] = 0.0
        assert np.array_equal(gram_matrix(ms), gram)

    def test_a_second_set_evicts_the_first(self):
        first, second = ModeSet((0, 1), 101), ModeSet((0, 1), 201)
        _sample_rows.cache_clear()
        gram_matrix(first)
        eigen_residual(first)
        assert _sample_rows.cache_info()[:2] == (1, 1)   # hits, misses
        gram_matrix(second)
        assert _sample_rows.cache_info()[:2] == (1, 2)
        assert _sample_rows.cache_info().currsize == 1
        gram_matrix(first)
        assert _sample_rows.cache_info()[:2] == (1, 3)

    def test_sample_mode_leaves_the_memo_alone(self):
        # a per-mode loop between calls on a family cannot evict it
        ms = ModeSet(DEFAULT_MODE_INDICES, 1001)
        _sample_rows.cache_clear()
        gram_matrix(ms)
        for n in ms.indices:
            sample_mode(n, ms.quadrature)
        semigroup_apply(sample_mode(0, 1001), 0.1, ms)
        assert _sample_rows.cache_info()[:2] == (1, 1)


class TestModeWalk:
    """The rows are e^{6is} (e^{-8is})^n, walked outward from n = 0."""

    # worst row error of the walk on these sets, in units of eps times the
    # row's maximum: 5.01 (modes -2..10, q = 4001); cos and sin of lam * s
    # sampled directly reached 16.0 there, since the rounding of the
    # argument lam * s grows with |lam|
    ROW_ERROR_EPS = 5.5

    @pytest.mark.parametrize("q", [1001, 2001, 4001])
    @pytest.mark.parametrize("lo,hi", [(-4, 8), (-6, 6), (-2, 10), (-5, 9)])
    def test_rows_against_long_double(self, lo, hi, q):
        ms = ModeSet(tuple(range(lo, hi + 1)), q)
        _sample_rows.cache_clear()
        lam, p1, dp1 = _sample_rows(ms)
        # lam * s is exact in long double: |lam| <= 90 needs 7 more bits
        s = np.linspace(0.0, ANALYSIS_LENGTH, q).astype(np.longdouble)
        phase = np.multiply.outer(lam.astype(np.longdouble), s)
        rho = 1.0 / (np.sqrt(2.0) * lam)
        scale = (rho * MODE_AMPLITUDE).astype(np.longdouble)[:, None]
        dscale = (-rho * MODE_AMPLITUDE * lam).astype(np.longdouble)[:, None]
        eps = np.finfo(float).eps
        for rows, exact in ((p1, scale * np.cos(phase)),
                            (dp1, dscale * np.sin(phase))):
            err = (np.abs(rows - exact).max(axis=1)
                   / np.abs(exact).max(axis=1))
            assert float(err.max()) <= self.ROW_ERROR_EPS * eps

    @pytest.mark.parametrize("indices", [(5, 6, 7, 8, 9), (-7, -6, -5, -4, -3),
                                         (3,), (-7, 12)])
    @pytest.mark.parametrize("q", [101, 2001])
    def test_rows_bit_identical_to_sample_mode(self, indices, q):
        # sets without mode 0, or on one side of it, walk past modes they
        # do not keep and must still give each mode's own samples
        _sample_rows.cache_clear()
        _, p1, dp1 = _sample_rows(ModeSet(indices, q))
        for i, n in enumerate(indices):
            pair = sample_mode(n, q)
            assert np.array_equal(p1[i], pair.p1)
            assert np.array_equal(dp1[i], pair.dp1)

    def test_trig_work_does_not_grow_with_the_set(self, monkeypatch):
        q = 1001
        calls = []

        def counted(trig):
            def wrapper(x, *args, **kwargs):
                calls.append((trig.__name__, np.shape(x)))
                return trig(x, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np, "cos", counted(np.cos))
        monkeypatch.setattr(np, "sin", counted(np.sin))
        counts = []
        for indices in ((3,), tuple(range(-6, 9))):
            calls.clear()
            _sample_rows.cache_clear()
            _sample_rows(ModeSet(indices, q))
            counts.append(sorted(calls))
        # cos and sin of 6s and of 8s, one node array each
        once = [("cos", (q,))] * 2 + [("sin", (q,))] * 2
        assert counts[0] == counts[1] == once
