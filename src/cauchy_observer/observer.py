"""Iterative sweep observer: repeated marches across the rectangle.

Each sweep marches the estimated state line by line from x = 0 to x = a,
injecting the measured top trace at every step.  Sweeps are chained by
wrap-around: the starting line of a sweep is the final line of the previous
one, so the march never restarts from scratch and the domain behaves like a
periodic strip in x.

Within a sweep every step is the affine recursion

    x_{n+1} = M @ x_n + U[n],   M = F - K C,   U[n] = K f[n] + dx b(g[n])

built once per run by ``discrete_ops.sweep_form``; the divergence guard is
checked once over each marched stretch.  A sweep depends on the previous
one only through its final line, so the whole sweep map is a strict
contraction whenever the gain certificate holds, and two runs fed the same
data differ exactly by powers of M applied to the difference of their
starting lines.  ``run`` refuses a gain without that certificate.

Warm start.  With N = nx - 1 steps per sweep, the periodic fixed point's
start line is  x*_0 = c_W + M^W x*_{N-W}  for any W <= N, where c_W is the
state reached by marching only the last W steps of the data from rest.  A
gain whose settling certificate W = ``GainVector.settle_steps`` is below N
has ||M^W||_2 <= 2**-52, so the second term is under one rounding unit of
the field.  A run without an initial guess therefore marches those W
warm-up steps first and starts its first stored sweep from c_W, which makes
that sweep the fixed point.  In every other case the start line is zero.
``converged_at`` counts stored sweeps only; the warm-up is reported as
``SweepReport.warmup_steps``.
"""

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .discrete_ops import SystemMatrices, sweep_form
from .gain import GainVector
from .grid import RectGrid
from .reference import CauchyData, ReferenceSolution, bottom_trace


class NonFiniteState(Exception):
    """A marched state exceeded the divergence guard or became non-finite."""


@dataclass(frozen=True)
class ObserverProblem:
    grid: RectGrid
    cauchy: CauchyData
    mats: SystemMatrices
    gain: GainVector

    def __post_init__(self):
        if len(self.cauchy.f) != self.grid.nx:
            raise ValueError("Cauchy data must hold one sample per x node")
        if self.mats.ny != self.grid.ny:
            raise ValueError("matrices assembled for a different grid")
        if len(self.gain.k) != 2 * self.grid.ny:
            raise ValueError("gain length must be twice the y node count")


@dataclass
class ObserverConfig:
    max_sweeps: int = 500
    tol: Optional[float] = None          # default: 1e-6 * ||f||
    # (nx, 2*ny); default: zeros, or the warm-start line (see module docstring)
    initial_guess: Optional[np.ndarray] = None
    guard: float = 1e12

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        if self.tol is not None and self.tol < 0.0:
            raise ValueError("tol must be nonnegative")
        if not self.guard > 0.0:
            raise ValueError("guard must be positive")


@dataclass
class SweepReport:
    top_residuals: list = field(default_factory=list)
    bottom_errors: list = field(default_factory=list)
    converged_at: Optional[int] = None
    warmup_steps: int = 0       # steps marched before sweep 1; 0: zero start

    @property
    def sweeps(self) -> int:
        return len(self.top_residuals)


def _trapezoid_weights(nx: int, dx: float) -> np.ndarray:
    w = np.full(nx, dx)
    w[0] = w[-1] = 0.5 * dx
    return w


def discrete_l2(values: np.ndarray, dx: float) -> float:
    """Trapezoid-weighted discrete L2 norm over the x nodes."""
    w = _trapezoid_weights(len(values), dx)
    return float(np.sqrt((w * np.asarray(values) ** 2).sum()))


def top_residual(field: np.ndarray, f_samples: np.ndarray, dx: float) -> float:
    """Discrete L2 over x of the mismatch between the estimated top trace
    and the measured one."""
    field = np.asarray(field)
    f_samples = np.asarray(f_samples)
    if field.shape[0] != len(f_samples):
        raise ValueError("field and data lengths disagree")
    ny = field.shape[1] // 2
    return discrete_l2(field[:, ny - 1] - f_samples, dx)


def error_bottom(field: np.ndarray, reference: np.ndarray, dx: float) -> float:
    """Relative discrete L2 error of the recovered bottom trace.

    Falls back to the absolute error (with a warning) when the reference
    trace has zero norm.
    """
    field = np.asarray(field)
    reference = np.asarray(reference)
    if field.shape[0] != len(reference):
        raise ValueError("field and reference lengths disagree")
    err = discrete_l2(field[:, 0] - reference, dx)
    ref_norm = discrete_l2(reference, dx)
    if ref_norm == 0.0:
        warnings.warn("reference trace has zero norm; returning absolute error")
        return err
    return err / ref_norm


def _march(x0: np.ndarray, M: np.ndarray, U: np.ndarray, guard: float,
           stage: str = "sweep") -> np.ndarray:
    """States x0, M @ x0 + U[0], ...: one row per step after the first.

    Raises NonFiniteState, naming the first offending ``stage`` step, when
    any marched state leaves the guard ball or is not finite.
    """
    cur = np.empty((len(U) + 1, len(x0)))
    x = cur[0] = x0
    # a diverging march may overflow before the guard is checked below;
    # M.dot(x) gives the same bits as M @ x with less call overhead per step
    with np.errstate(over="ignore", invalid="ignore"):
        for n, u in enumerate(U, 1):
            x = cur[n] = M.dot(x) + u
        outside = ~(np.abs(cur[1:]) <= guard).all(axis=1)
    if outside.any():
        raise NonFiniteState(
            f"divergence guard tripped at {stage} step {outside.argmax() + 1}: "
            f"state magnitude exceeded {guard:.1e}")
    return cur


def run(problem: ObserverProblem, config: Optional[ObserverConfig] = None,
        reference: Optional[ReferenceSolution] = None):
    """Iterate sweeps until the top-trace residual drops below tolerance.

    Returns (field, report) where field has shape (nx, 2*ny): row n holds
    the stacked state on the vertical line at x node n.  The recovered
    bottom trace is field[:, 0].  Without an initial guess a run whose gain
    settles within a sweep first marches a warm-up (see the module
    docstring).  Raises ValueError for a gain not certified stable.
    """
    config = config or ObserverConfig()
    if not problem.gain.stable:
        raise ValueError(
            "gain is not certified stable (spectral radius "
            f"{problem.gain.spectral_radius:.6f})")
    grid = problem.grid
    ny, steps = grid.ny, grid.nx - 1
    f = problem.cauchy.f
    tol = config.tol
    if tol is None:
        tol = 1e-6 * discrete_l2(f, grid.dx)
    M, U = sweep_form(problem.mats, problem.gain.k, f, problem.cauchy.g)
    report = SweepReport()
    if config.initial_guess is None:
        prev = np.zeros((grid.nx, 2 * ny))
        warmup = problem.gain.settle_steps
        if warmup is not None and warmup < steps:
            prev[-1] = _march(prev[-1], M, U[steps - warmup:], config.guard,
                              "warm-up")[-1]
            report.warmup_steps = warmup
    else:
        prev = np.asarray(config.initial_guess, dtype=float).copy()
        if prev.shape != (grid.nx, 2 * ny):
            raise ValueError("initial guess must have shape (nx, 2*ny)")
    ref_trace = bottom_trace(reference, grid) if reference is not None else None

    for sweep in range(1, config.max_sweeps + 1):
        cur = _march(prev[-1], M, U, config.guard)
        res = top_residual(cur, f, grid.dx)
        report.top_residuals.append(res)
        if ref_trace is not None:
            report.bottom_errors.append(error_bottom(cur, ref_trace, grid.dx))
        prev = cur
        if res <= tol:
            report.converged_at = sweep
            break
    return prev, report
