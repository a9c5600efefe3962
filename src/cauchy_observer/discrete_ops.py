"""Marching operator assembly and the sweep's input columns.

The second-order system is marched in x as a first-order recursion for the
stacked state (u samples, du/dx samples) on one vertical grid line.  With
output injection through the gain K every step is the same affine map

    state_{n+1} = M @ state_n + B @ (f[n], g[n]),   M = F - K C,   B = [K | d]

F = I + dx * A with A = [[0, I], [-D, 0]], D the second-difference matrix in
y, and C selects the top u sample.  The top row of D folds the Neumann
condition in through a mirror node above the boundary, whose data term,
-2 dx g[n] / dy in the top du/dx row, is d g[n].  The bottom row, where no
data exists, is closed by a one-sided stencil on interior values only
(second order from four nodes up, first order at three).  The march is
therefore exactly linear in the state: the estimation error of two runs
with shared data obeys  e_next = (F - K C) e,  and a full sweep contracts
at rho(F - K C) ** (nx - 1), rho the spectral radius.

``assemble`` builds F and C, and ``input_columns`` the columns B.  The
closed loop M is formed once, by the gain design, which certifies it
(``GainVector.closed_loop``); the observer marches [B | M] on the stacked
vector (f[n], g[n], state).
"""

import numpy as np

from .grid import RectGrid
from .records import Frozen


class SystemMatrices(Frozen):
    """The marching step F = I + dx*A and the top-trace selector row C of
    one grid, with the spacings the sweep's data term needs; immutable and
    shareable."""

    def __init__(self, F: np.ndarray, C_row: np.ndarray, dx: float,
                 dy: float, ny: int):
        self.__dict__.update(F=F, C_row=C_row, dx=dx, dy=dy, ny=ny)


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
    """Build F = I + dx*A and the top-trace selector row."""
    ny = grid.ny
    D = _second_difference(ny, grid.dy)
    A = np.zeros((2 * ny, 2 * ny))
    A[:ny, ny:] = np.eye(ny)
    A[ny:, :ny] = -D
    F = np.eye(2 * ny) + grid.dx * A
    C = np.zeros(2 * ny)
    C[ny - 1] = 1.0
    return SystemMatrices(F=F, C_row=C, dx=grid.dx, dy=grid.dy, ny=ny)


def input_columns(mats: SystemMatrices, k: np.ndarray) -> np.ndarray:
    """The input columns B = [K | d] of the step, shape (2*ny, 2): the
    sweep's input at step n is B @ (f[n], g[n]) = K f[n] + dx b(g[n]).

    d is the mirror node's data coefficient -2 dx / dy of D's top row, in
    the top du/dx row, and zero elsewhere.
    """
    B = np.zeros((2 * mats.ny, 2))
    B[:, 0] = k
    B[-1, 1] = -2.0 * mats.dx / mats.dy
    return B
