"""Uniform rectangular grid shared by the marching solver and data generators."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RectGrid:
    """Node-centered uniform grid on [0, a] x [0, b].

    Row index 1 (the first y node) lies on the bottom boundary, row ny on the
    top boundary where the Cauchy data is given.  Immutable; safe to share.
    """

    a: float
    b: float
    nx: int
    ny: int
    dx: float
    dy: float

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.a, self.nx)

    @property
    def y(self) -> np.ndarray:
        return np.linspace(0.0, self.b, self.ny)


def build_grid(a: float, b: float, nx: int, ny: int) -> RectGrid:
    """Construct a grid with nx nodes along x and ny nodes along y.

    Both boundaries are grid nodes, so dx = a/(nx-1) and dy = b/(ny-1).
    Raises ValueError for non-positive extents or fewer than 3 nodes per
    direction (centered differences need a full interior stencil).
    """
    if not (a > 0.0) or not (b > 0.0):
        raise ValueError(f"domain extents must be positive, got a={a}, b={b}")
    if nx < 3:
        raise ValueError(f"insufficient x nodes: nx={nx} < 3")
    if ny < 3:
        raise ValueError(f"insufficient y nodes: ny={ny} < 3")
    return RectGrid(a=float(a), b=float(b), nx=int(nx), ny=int(ny),
                    dx=float(a) / (nx - 1), dy=float(b) / (ny - 1))

