"""Marching operator assembly and the sweep's affine form.

The second-order system is marched in x as a first-order recursion for the
stacked state (u samples, du/dx samples) on one vertical grid line.  With
output injection through the gain K every step is the same affine map

    state_{n+1} = M @ state_n + U[n],   M = F - K C,   U[n] = K f[n] + dx b[n]

F = I + dx * A with A = [[0, I], [-D, 0]], D the second-difference matrix in
y, and C selects the top u sample.  The top row of D folds the Neumann
condition in through a mirror node above the boundary, whose data term,
-2 g[n] / dy in the top du/dx row, is b[n].  The bottom row, where no data
exists, is closed by a one-sided stencil on interior values only (second
order from four nodes up, first order at three).  The march is therefore
exactly linear in the state: the estimation error of two runs with shared
data obeys  e_next = (F - K C) e,  and a full sweep contracts at
rho(F - K C) ** (nx - 1), rho the spectral radius.
"""

from dataclasses import dataclass

import numpy as np

from .grid import RectGrid


@dataclass(frozen=True)
class SystemMatrices:
    """Dense marching matrices for one grid; immutable and shareable."""

    A_d: np.ndarray
    F: np.ndarray
    C_row: np.ndarray
    dx: float
    dy: float
    ny: int


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
    """Build A, F = I + dx*A and the top-trace selector row."""
    ny = grid.ny
    D = _second_difference(ny, grid.dy)
    A = np.zeros((2 * ny, 2 * ny))
    A[:ny, ny:] = np.eye(ny)
    A[ny:, :ny] = -D
    F = np.eye(2 * ny) + grid.dx * A
    C = np.zeros(2 * ny)
    C[ny - 1] = 1.0
    return SystemMatrices(A_d=A, F=F, C_row=C, dx=grid.dx, dy=grid.dy, ny=ny)


def sweep_form(mats: SystemMatrices, k: np.ndarray, f: np.ndarray,
               g: np.ndarray):
    """Affine form (M, U) of one sweep: state n+1 is M @ state n + U[n].

    M = F - K C and U[n] = K f[n] + dx * b(g[n]), one row per step, so U has
    len(f) - 1 rows.  The data term of b is -2 g / dy in the top du/dx row.
    """
    k = np.asarray(k, dtype=float)
    f = np.asarray(f, dtype=float)
    M = mats.F - np.outer(k, mats.C_row)
    U = np.outer(f[:-1], k)
    U[:, -1] -= 2.0 * mats.dx * np.asarray(g, dtype=float)[:-1] / mats.dy
    return M, U
