"""Marching operator assembly: the plant F, d and C of one grid.

The second-order system is marched in x as a first-order recursion for the
stacked state (u samples, du/dx samples) on one vertical grid line.  With
output injection through the gain K every step is the same affine map

    state_{n+1} = (F - K C) @ state_n + K f[n] + d g[n]

F = I + dx * A with A = [[0, I], [-D, 0]], D the second-difference matrix in
y, and C selects the top u sample.  The top row of D folds the Neumann
condition in through a mirror node above the boundary, whose data term,
-2 dx g[n] / dy in the top du/dx row, is d g[n].  The bottom row, where no
data exists, is closed by a one-sided stencil on interior values only
(second order from four nodes up, first order at three).  The march is
therefore exactly linear in the state: the estimation error of two runs
with shared data obeys  e_next = (F - K C) e,  and a full sweep contracts
at rho(F - K C) ** (nx - 1), rho the spectral radius.

``assemble`` builds F, d and C, and is the one place that knows the
mirror node.  The step [K | d | F - K C] is formed once, by the
``observer.ObserverProblem`` that certifies it, and marched on the stacked
vector (f[n], g[n], state).
"""

import numpy as np

from .grid import RectGrid
from .records import Frozen


class SystemMatrices(Frozen):
    """The plant of one grid: the marching step F = I + dx*A, the g-data
    column d and the top-trace selector row C, with the grid's spacings;
    immutable and shareable."""

    def __init__(self, F: np.ndarray, d: np.ndarray, C_row: np.ndarray,
                 dx: float, dy: float, ny: int):
        self.__dict__.update(F=F, d=d, C_row=C_row, dx=dx, dy=dy, ny=ny)


def _second_difference(ny: int, dy: float) -> np.ndarray:
    D = np.zeros((ny, ny))
    inv = 1.0 / (dy * dy)
    for i in range(1, ny - 1):
        D[i, i - 1] = inv
        D[i, i] = -2.0 * inv
        D[i, i + 1] = inv
    # top row: mirror node for the Neumann condition, data term in forcing
    D[ny - 1, ny - 2] = 2.0 * inv
    D[ny - 1, ny - 1] = -2.0 * inv
    if ny >= 4:
        D[0, 0:4] = np.array([2.0, -5.0, 4.0, -1.0]) * inv
    else:
        # 3 nodes: shifted stencil, first-order but self-contained
        D[0, 0:3] = np.array([1.0, -2.0, 1.0]) * inv
    return D


def assemble(grid: RectGrid) -> SystemMatrices:
    """Build F = I + dx*A, the g-data column d and the top-trace selector
    row.  d is the mirror node's data coefficient -2 dx / dy of D's top
    row, in the top du/dx row, and zero elsewhere."""
    ny = grid.ny
    D = _second_difference(ny, grid.dy)
    A = np.zeros((2 * ny, 2 * ny))
    A[:ny, ny:] = np.eye(ny)
    A[ny:, :ny] = -D
    F = np.eye(2 * ny) + grid.dx * A
    d = np.zeros(2 * ny)
    d[-1] = -2.0 * grid.dx / grid.dy
    C = np.zeros(2 * ny)
    C[ny - 1] = 1.0
    return SystemMatrices(F=F, d=d, C_row=C, dx=grid.dx, dy=grid.dy, ny=ny)

