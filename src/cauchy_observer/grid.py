"""Uniform rectangular grid shared by the marching solver and data generators."""

import functools
import math

import numpy as np

from .records import Value, whole


class RectGrid(Value):
    """Node-centered uniform grid on [0, a] x [0, b].

    Row index 1 (the first y node) lies on the bottom boundary, row ny on the
    top boundary where the Cauchy data is given.  Immutable; safe to share.
    The spacings dx = a/(nx-1) and dy = b/(ny-1) follow from the fields;
    ``build_grid`` checks the fields.  The node arrays ``x`` and ``y`` are
    built on first read and are read-only.
    """

    def __init__(self, a: float, b: float, nx: int, ny: int):
        self.__dict__.update(a=a, b=b, nx=nx, ny=ny, dx=a / (nx - 1),
                             dy=b / (ny - 1))

    @functools.cached_property
    def x(self) -> np.ndarray:
        return _frozen(np.linspace(0.0, self.a, self.nx))

    @functools.cached_property
    def y(self) -> np.ndarray:
        return _frozen(np.linspace(0.0, self.b, self.ny))


def _frozen(nodes: np.ndarray) -> np.ndarray:
    nodes.flags.writeable = False
    return nodes


def build_grid(a: float, b: float, nx: int, ny: int) -> RectGrid:
    """Construct a grid with nx nodes along x and ny nodes along y.

    Both boundaries are grid nodes, so dx = a/(nx-1) and dy = b/(ny-1).
    Raises ValueError for extents that are not positive and finite, for a
    dy so small that the second difference's 1/dy**2 is not finite, for a
    dx/dy**2 so large that the marching step's largest entry, 5*dx/dy**2
    (the bottom one-sided stencil), is not finite, and for fewer than 3
    nodes per direction (centered differences need a full interior
    stencil).  A node count must be a whole number: an ``int``, or a float
    or numpy integer equal to one; any other raises ValueError.
    """
    if not (0.0 < a < math.inf) or not (0.0 < b < math.inf):
        raise ValueError(
            f"domain extents must be positive and finite, got a={a}, b={b}")
    nx = whole(nx, "x node count must be a whole number")
    ny = whole(ny, "y node count must be a whole number")
    if nx < 3:
        raise ValueError(f"insufficient x nodes: nx={nx} < 3")
    if ny < 3:
        raise ValueError(f"insufficient y nodes: ny={ny} < 3")
    grid = RectGrid(a=float(a), b=float(b), nx=nx, ny=ny)
    dx, dy = grid.dx, grid.dy
    if not (dy * dy > 0.0 and math.isfinite(1.0 / (dy * dy))):
        raise ValueError(f"y spacing dy={dy} is too small: 1/dy**2 overflows")
    if not math.isfinite(dx * (5.0 * (1.0 / (dy * dy)))):
        raise ValueError(f"spacings dx={dx}, dy={dy} overflow the marching "
                         "step: 5*dx/dy**2 is not finite")
    return grid

