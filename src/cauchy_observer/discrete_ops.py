"""Marching operator assembly, boundary closures, and the sweep's affine form.

The second-order system is marched in x as a first-order recursion for the
stacked state (u samples, du/dx samples) on one vertical grid line.  With
output injection through the gain K every step is the same affine map

    state_{n+1} = M @ state_n + U[n],   M = F - K C,   U[n] = K f[n] + dx b[n]

F = I + dx * A with A = [[0, I], [-D, 0]], D the second-difference matrix in
y, and C selects the top u sample.  The top row of D folds the Neumann
condition in through a mirror ghost node whose data term, -2 g[n] / dy in
the top du/dx row, is b[n].  Two closures are available for the bottom row,
where no data exists:

``one_sided``  (default)
    Second-order one-sided stencil using interior values only.  The marching
    recursion is then exactly linear in the state, the estimation error of
    two runs with shared data obeys  e_next = (F - K C) e,  and a full sweep
    contracts at spectral_radius(F - K C) ** (nx - 1).

``ghost``
    The bottom row keeps the centered stencil and is closed per step by a
    fictitious node below the boundary (see ``fictitious_point``), whose
    value encodes the interior equation holding on the boundary.  Folded
    into the affine form, the bottom du/dx of step n+1 is the previous
    sweep's value there minus its innovation term, which couples
    consecutive sweeps; measurements show that feedback loop amplifies
    (sweep-map spectral radius far above one on stiff grids), so this
    closure is provided for study rather than production marching.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import RectGrid

BOTTOM_CLOSURES = ("one_sided", "ghost")


@dataclass(frozen=True)
class SystemMatrices:
    """Dense marching matrices for one grid; immutable and shareable."""

    A_d: np.ndarray
    F: np.ndarray
    C_row: np.ndarray
    dx: float
    dy: float
    ny: int
    bottom_closure: str


def _second_difference(ny: int, dy: float, bottom_closure: str) -> np.ndarray:
    D = np.zeros((ny, ny))
    inv = 1.0 / (dy * dy)
    for i in range(1, ny - 1):
        D[i, i - 1] = inv
        D[i, i] = -2.0 * inv
        D[i, i + 1] = inv
    # top row: mirror ghost for the Neumann condition, data term in forcing
    D[ny - 1, ny - 2] = 2.0 * inv
    D[ny - 1, ny - 1] = -2.0 * inv
    if bottom_closure == "ghost":
        # centered stencil left open below; closed per step by the ghost value
        D[0, 0] = -2.0 * inv
        D[0, 1] = inv
    elif ny >= 4:
        D[0, 0:4] = np.array([2.0, -5.0, 4.0, -1.0]) * inv
    else:
        # 3 nodes: shifted stencil, first-order but self-contained
        D[0, 0:3] = np.array([1.0, -2.0, 1.0]) * inv
    return D


def assemble(grid: RectGrid, bottom_closure: str = "one_sided") -> SystemMatrices:
    """Build A, F = I + dx*A and the top-trace selector row."""
    if bottom_closure not in BOTTOM_CLOSURES:
        raise ValueError(f"bottom_closure must be one of {BOTTOM_CLOSURES}")
    ny = grid.ny
    D = _second_difference(ny, grid.dy, bottom_closure)
    A = np.zeros((2 * ny, 2 * ny))
    A[:ny, ny:] = np.eye(ny)
    A[ny:, :ny] = -D
    F = np.eye(2 * ny) + grid.dx * A
    C = np.zeros(2 * ny)
    C[ny - 1] = 1.0
    return SystemMatrices(A_d=A, F=F, C_row=C, dx=grid.dx, dy=grid.dy,
                          ny=ny, bottom_closure=bottom_closure)


def fictitious_point(xi1_1: float, xi1_2: float, xi2_1_next: float,
                     xi2_1_cur: float, dy: float, dx: float) -> float:
    """Ghost value below the bottom boundary.

    Chosen so that inserting it into the centered second difference of the
    bottom row reproduces -(xi2_next - xi2_cur)/dx, i.e. the interior
    equation evaluated on the boundary.
    """
    if dx <= 0.0 or dy <= 0.0:
        raise ValueError("steps must be positive")
    return 2.0 * xi1_1 - xi1_2 - (dy * dy / dx) * (xi2_1_next - xi2_1_cur)




def sweep_base(mats: SystemMatrices, k: np.ndarray, f: np.ndarray,
               g: np.ndarray):
    """The part of ``sweep_form`` that is the same for every sweep: all of
    it for the one-sided closure, all but the ghost closure's lagged
    U[:, ny] term otherwise."""
    ny = mats.ny
    k = np.asarray(k, dtype=float)
    f = np.asarray(f, dtype=float)
    M = mats.F - np.outer(k, mats.C_row)
    U = np.outer(f[:-1], k)
    U[:, -1] -= 2.0 * mats.dx * np.asarray(g, dtype=float)[:-1] / mats.dy
    if mats.bottom_closure == "ghost":
        M[ny] = -k[ny] * mats.C_row
    return M, U


def sweep_form(mats: SystemMatrices, k: np.ndarray, f: np.ndarray,
               g: np.ndarray, prev_field: Optional[np.ndarray] = None):
    """Affine form (M, U) of one sweep: state n+1 is M @ state n + U[n].

    M = F - K C and U[n] = K f[n] + dx * b(g[n]), one row per step, so U has
    len(f) - 1 rows.  The data term of b is -2 g / dy in the top du/dx row.

    For the ghost closure, substituting ``fictitious_point`` into the
    centered bottom du/dx row cancels every F term there: that row of M is
    -k[ny] C and U[n, ny] gains prev_field[n + 1, ny], the lagged bottom
    du/dx of the previous sweep, which must then be given.
    """
    M, U = sweep_base(mats, k, f, g)
    if mats.bottom_closure == "ghost":
        if prev_field is None:
            raise ValueError("the ghost closure needs the previous sweep's field")
        U[:, mats.ny] += prev_field[1:, mats.ny]
    return M, U
