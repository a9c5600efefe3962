import inspect

import numpy as np
import pytest

from cauchy_observer import RectGrid, build_grid


def test_standard_domain_spacing():
    g = build_grid(2 * np.pi, 0.5, 5, 5)
    assert g.dx == pytest.approx(np.pi / 2, abs=0.0)
    assert g.dy == pytest.approx(0.125, abs=0.0)


def test_fine_domain_spacing():
    g = build_grid(2 * np.pi, 0.5, 65, 9)
    assert g.dx == pytest.approx(2 * np.pi / 64, abs=0.0)
    assert g.dy == pytest.approx(0.0625, abs=0.0)


@pytest.mark.parametrize("kwargs", [
    dict(a=1.0, b=1.0, nx=2, ny=5),
    dict(a=1.0, b=1.0, nx=5, ny=2),
    dict(a=0.0, b=1.0, nx=5, ny=5),
    dict(a=1.0, b=-1.0, nx=5, ny=5),
    dict(a=float("inf"), b=1.0, nx=5, ny=5),
    dict(a=1.0, b=float("inf"), nx=5, ny=5),
    dict(a=float("nan"), b=1.0, nx=5, ny=5),
    dict(a=1.0, b=1e-300, nx=5, ny=5),      # dy*dy underflows to 0
    dict(a=1.0, b=1e-154, nx=5, ny=5),      # 1/dy**2 overflows
    dict(a=1e308, b=1e-150, nx=257, ny=5),  # 5*dx/dy**2 overflows
])
def test_rejects_bad_arguments(kwargs):
    with pytest.raises(ValueError):
        build_grid(**kwargs)


@pytest.mark.parametrize("nx,ny", [(257.5, 5), (257, 5.5), (float("nan"), 5),
                                   (257, float("inf")), ("257", 5), (None, 5)])
def test_rejects_a_count_that_is_not_whole(nx, ny):
    # 257.5 x nodes once gave nx = 257 with dx = a/256.5, while its x nodes
    # lay a/256 apart
    name = "x" if ny == 5 else "y"
    with pytest.raises(ValueError, match=f"{name} node count must be a whole"):
        build_grid(2 * np.pi, 0.5, nx, ny)


def test_whole_float_and_numpy_counts_give_the_int_grid():
    want = build_grid(2 * np.pi, 0.5, 257, 5)
    for nx, ny in ((257.0, 5.0), (np.int64(257), np.int32(5)),
                   (np.float64(257.0), 5)):
        got = build_grid(2 * np.pi, 0.5, nx, ny)
        assert got == want
        assert type(got.nx) is int and type(got.ny) is int
        assert np.array_equal(got.x, want.x)


def test_node_coordinates():
    g = build_grid(1.0, 0.5, 3, 3)
    assert np.allclose(g.x, [0.0, 0.5, 1.0])
    assert np.allclose(g.y, [0.0, 0.25, 0.5])


def test_spacing_times_count_recovers_extent():
    g = build_grid(2 * np.pi, 0.37, 19, 7)
    assert g.dx * (g.nx - 1) == pytest.approx(g.a, rel=1e-15)
    assert g.dy * (g.ny - 1) == pytest.approx(g.b, rel=1e-15)


def test_endpoints_exact():
    g = build_grid(2 * np.pi, 0.37, 17, 11)
    assert g.x[0] == 0.0
    assert g.x[-1] == g.a
    assert g.y[0] == 0.0
    assert g.y[-1] == g.b


@pytest.mark.parametrize("nx,ny", [(3, 3), (7, 4), (65, 9), (33, 12)])
def test_uniform_strictly_increasing(nx, ny):
    g = build_grid(3.7, 1.9, nx, ny)
    for nodes, h in ((g.x, g.dx), (g.y, g.dy)):
        steps = np.diff(nodes)
        assert (steps > 0).all()
        assert np.allclose(steps, h, rtol=1e-12)


def test_nodes_built_once_and_read_only():
    g = build_grid(2 * np.pi, 0.5, 257, 5)
    assert g.x is g.x and g.y is g.y
    assert np.array_equal(g.x, np.linspace(0.0, g.a, g.nx))
    assert np.array_equal(g.y, np.linspace(0.0, g.b, g.ny))
    for nodes in (g.x, g.y):
        with pytest.raises(ValueError):
            nodes[0] = 1.0
    # the cached nodes are not fields: equality and hashing ignore them
    fresh = build_grid(2 * np.pi, 0.5, 257, 5)
    assert g == fresh and hash(g) == hash(fresh)
    assert list(inspect.signature(RectGrid).parameters) == [
        "a", "b", "nx", "ny"]


@pytest.mark.parametrize("a,b,nx,ny", [(2 * np.pi, 0.5, 257, 5),
                                       (2 * np.pi, 0.37, 19, 7),
                                       (3.7, 1.9, 2049, 3)])
def test_direct_grid_equals_and_hashes_like_the_built_one(a, b, nx, ny):
    # a directly built grid derives its spacings: it once took them as
    # fields, and RectGrid(2 pi, 0.5, 257, 5, 1.0, 0.1) marched dx = 1.0 on
    # nodes 2 pi / 256 apart
    direct, built = RectGrid(a, b, nx, ny), build_grid(a, b, nx, ny)
    assert direct == built and hash(direct) == hash(built)
    assert (direct.dx, direct.dy) == (built.dx, built.dy)
    assert (direct.dx, direct.dy) == (a / (nx - 1), b / (ny - 1))
    with pytest.raises(TypeError):
        RectGrid(a, b, nx, ny, 1.0, 0.1)
