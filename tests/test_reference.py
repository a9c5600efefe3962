import numpy as np
import pytest

from cauchy_observer import (CauchyData, TrigTerm, bottom_trace, build_grid,
                             combo_example, dirichlet_example, evaluate,
                             make_cauchy_data, neumann_example,
                             sample_state_field)
from cauchy_observer.reference import d_dx, d_dy

A, B = 2 * np.pi, 0.5


def test_bottom_trace_is_pure_cosine():
    sol = neumann_example(A, B)
    x = np.linspace(0, A, 33)
    # cosh(-1)/cosh(1) is exactly 1, so the trace equals cos(2x) exactly
    assert np.array_equal(np.asarray(evaluate(sol, x, 0.0)), np.cos(2 * x))


def test_top_trace_scaling():
    sol = neumann_example(A, B)
    x = np.linspace(0, A, 17)
    expect = np.cos(2 * x) / np.cosh(1.0)
    assert np.allclose(evaluate(sol, x, B), expect, rtol=1e-15, atol=1e-15)


def test_top_normal_derivative_vanishes():
    for sol in (neumann_example(A, B), dirichlet_example(A, B),
                combo_example([TrigTerm(1, 1.0, "cos"), TrigTerm(2, 0.25, "sin")], A, B)):
        x = np.linspace(0, A, 29)
        assert np.array_equal(np.asarray(d_dy(sol, x, B)), np.zeros(29))


def test_cauchy_data_samples():
    grid = build_grid(A, B, 5, 5)
    data = make_cauchy_data(neumann_example(A, B), grid)
    # cos(2x) at x = 0, pi/2, pi, 3pi/2, 2pi alternates in sign
    assert np.allclose(data.f, np.array([1, -1, 1, -1, 1]) / np.cosh(1.0),
                       rtol=1e-15)
    assert np.array_equal(data.g, np.zeros(5))


def test_dirichlet_trace_zero_at_origin():
    grid = build_grid(A, B, 9, 5)
    data = make_cauchy_data(dirichlet_example(A, B), grid)
    assert data.f[0] == 0.0


def test_combo_linearity():
    t1 = TrigTerm(1, 0.5, "cos")
    t2 = TrigTerm(2, 0.25, "sin")
    combo = combo_example([t1, t2], A, B)
    s1 = combo_example([t1], A, B)
    s2 = combo_example([t2], A, B)
    x = np.linspace(0, A, 41)
    y = 0.3
    assert np.allclose(evaluate(combo, x, y),
                       np.asarray(evaluate(s1, x, y)) + np.asarray(evaluate(s2, x, y)),
                       rtol=0, atol=1e-15)


def test_bottom_trace_sine():
    grid = build_grid(A, B, 33, 5)
    assert np.allclose(bottom_trace(dirichlet_example(A, B), grid),
                       np.sin(2 * grid.x), rtol=1e-14, atol=1e-14)


def test_bottom_trace_combo():
    combo = combo_example([TrigTerm(1, 0.5, "cos"), TrigTerm(2, 0.25, "sin")], A, B)
    grid = build_grid(A, B, 21, 5)
    x = grid.x
    expect = 0.5 * np.cos(2 * x) + 0.25 * np.sin(4 * x)
    assert np.allclose(bottom_trace(combo, grid), expect, rtol=1e-14, atol=1e-14)


def test_state_field_matches_pointwise_samples():
    combo = combo_example([TrigTerm(1, 0.5, "cos"), TrigTerm(2, 0.25, "sin")], A, B)
    grid = build_grid(A, B, 9, 4)
    field = sample_state_field(combo, grid)
    assert field.shape == (grid.nx, 2 * grid.ny)
    for n, x in enumerate(grid.x):
        for j, y in enumerate(grid.y):
            assert field[n, j] == pytest.approx(evaluate(combo, x, y),
                                                rel=1e-14, abs=1e-14)
            assert field[n, grid.ny + j] == pytest.approx(d_dx(combo, x, y),
                                                          rel=1e-14, abs=1e-14)


SAMPLER_TERMS = {
    "cos1": [TrigTerm(1, 1.0, "cos")],
    "cos1+sin1": [TrigTerm(1, 1.0, "cos"), TrigTerm(1, 0.5, "sin")],
    "cos2+sin1-sin2": [TrigTerm(2, 1.0, "cos"), TrigTerm(1, 0.5, "sin"),
                       TrigTerm(2, -0.3, "sin")],
    "cos1-sin1+cos1": [TrigTerm(1, 0.7, "cos"), TrigTerm(1, -0.4, "sin"),
                       TrigTerm(1, 0.2, "cos")],
}


@pytest.mark.parametrize("nx, ny", [(33, 3), (65, 8), (257, 5), (2049, 3)])
@pytest.mark.parametrize("name", list(SAMPLER_TERMS))
def test_state_field_matches_pointwise_reference(name, nx, ny):
    """The table-times-profile sampler agrees with the term-by-term
    evaluators to a few rounding units of the field's peak, also when
    terms share a frequency (and so a table row)."""
    sol = combo_example(SAMPLER_TERMS[name], A, B)
    grid = build_grid(A, B, nx, ny)
    field = sample_state_field(sol, grid)
    x, y = grid.x[:, None], grid.y[None, :]
    expect = np.concatenate([evaluate(sol, x, y), d_dx(sol, x, y)], axis=1)
    assert field.shape == (nx, 2 * ny) and field.dtype == np.float64
    assert np.abs(field - expect).max() <= 8 * 2.0 ** -52 * np.abs(field).max()


def _five_point_laplacian_max(sol, nx, ny):
    grid = build_grid(A, B, nx, ny)
    x, y = grid.x, grid.y
    U = np.asarray(evaluate(sol, x[:, None], y[None, :]))
    lap = ((U[2:, 1:-1] - 2 * U[1:-1, 1:-1] + U[:-2, 1:-1]) / grid.dx ** 2
           + (U[1:-1, 2:] - 2 * U[1:-1, 1:-1] + U[1:-1, :-2]) / grid.dy ** 2)
    return np.abs(lap).max()


def test_discrete_harmonicity_second_order():
    sol = combo_example([TrigTerm(1, 1.0, "cos"), TrigTerm(1, 0.5, "sin")], A, B)
    coarse = _five_point_laplacian_max(sol, 33, 9)
    fine = _five_point_laplacian_max(sol, 65, 17)
    order = np.log2(coarse / fine)
    assert order >= 1.9


def test_mismatched_grid_rejected():
    grid = build_grid(A, 0.7, 9, 5)
    with pytest.raises(ValueError):
        make_cauchy_data(neumann_example(A, B), grid)


def test_cauchy_data_of_unequal_lengths_rejected():
    with pytest.raises(ValueError) as info:
        CauchyData(f=np.zeros(9), g=np.zeros(8))
    assert str(info.value) == "f and g must have equal length"


@pytest.mark.parametrize("scale, refused", [
    (1e-315, True), (1e-308, True), (1e-300, False)])
def test_subnormal_cauchy_data_refused(scale, refused):
    # the top trace of scale*cos1 peaks at scale / cosh 1: 6.48e-309 for
    # 1e-308, below the smallest normal double 2**-1022 = 2.23e-308
    sol = combo_example([TrigTerm(1, scale, "cos")], A, B)
    grid = build_grid(A, B, 129, 5)
    if not refused:
        data = make_cauchy_data(sol, grid)
        assert np.abs(data.f).max() >= np.finfo(float).tiny
        return
    with pytest.raises(ValueError) as info:
        make_cauchy_data(sol, grid)
    peak = np.abs(evaluate(sol, grid.x, grid.b)).max()
    assert str(info.value) == (
        f"Cauchy data peak {peak:.3g} is subnormal: below the smallest "
        "normal double 2**-1022 = 2.23e-308")


def test_subnormal_neumann_data_refused_and_zero_data_accepted():
    zero = np.zeros(9)
    assert CauchyData(f=zero, g=zero).f is zero
    tiny = np.full(9, np.finfo(float).tiny)
    CauchyData(f=zero, g=tiny)
    for f, g in ((zero, tiny / 2), (tiny / 4, -tiny / 2)):
        with pytest.raises(ValueError, match="peak 1.11e-308 is subnormal"):
            CauchyData(f=f, g=g)


def test_non_finite_cauchy_data_refused():
    for bad in (np.inf, -np.inf, np.nan):
        for f, g in ((np.array([0.0, bad]), np.zeros(2)),
                     (np.zeros(2), np.array([bad, 1.0]))):
            with pytest.raises(ValueError, match="must be finite"):
                CauchyData(f=f, g=g)


def test_term_validation():
    with pytest.raises(ValueError):
        TrigTerm(0, 1.0, "cos")
    with pytest.raises(ValueError):
        TrigTerm(1, 1.0, "tan")
    with pytest.raises(ValueError):
        combo_example([], A, B)


@pytest.mark.parametrize("terms", [
    [TrigTerm(1, 1.0, "cos")],
    [TrigTerm(1, 1.0, "sin")],
    [TrigTerm(1, -1.0, "cos"), TrigTerm(2, 0.25, "sin"), TrigTerm(3, -3.0, "sin")],
])
def test_cauchy_g_at_matching_b_is_the_term_loop_zero(terms):
    # grid.b == sol.b: g skips the term loop; the loop's array, signs of
    # zero included, is what it stands for
    sol = combo_example(terms, A, B)
    grid = build_grid(A, B, 65, 5)
    g = make_cauchy_data(sol, grid).g
    want = np.asarray(d_dy(sol, grid.x, grid.b), dtype=float)
    assert g.dtype == want.dtype and g.shape == want.shape
    assert np.array_equal(g, want)
    assert np.array_equal(np.signbit(g), np.signbit(want))
    assert not np.signbit(g).any()


def test_cauchy_data_at_nearby_b_refused():
    # a b 1e-9 off the grid's once passed the extent check, and g was
    # sampled there; extents must now be equal
    sol = combo_example([TrigTerm(1, 1.0, "cos"), TrigTerm(2, 0.5, "sin")],
                        A, B)
    with pytest.raises(ValueError, match="share the domain extents"):
        make_cauchy_data(sol, build_grid(A, B + 1e-9, 65, 5))


def test_cauchy_data_at_nearby_a_refused():
    # at 257x5 a solution a 1e-5 off the grid's once passed the extent
    # check: its samples are not periodic on the grid, and the ring gain's
    # sweep recovered a bottom error of 1.11 (0.0178 at equal extents)
    # with a periodicity defect of 1.6e-8
    grid = build_grid(A, B, 257, 5)
    for a in (A + 1e-5, A - 1e-5, np.nextafter(A, 7.0)):
        with pytest.raises(ValueError, match="share the domain extents"):
            make_cauchy_data(neumann_example(a, B), grid)
    assert not make_cauchy_data(neumann_example(A, B), grid).g.any()
