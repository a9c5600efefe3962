"""Sweep observer: one march across the rectangle on the periodic fixed point.

A sweep marches the estimated state line by line from x = 0 to x = a,
injecting the measured top trace at every step.  Every step is the affine
recursion

    x_{n+1} = M @ x_n + U[n],   M = F - K C,   U[n] = K f[n] + dx b(g[n])

built once per run by ``discrete_ops.sweep_form``; the divergence guard is
checked once over the marched states.  The sweep map, start line to final
line, is a strict contraction whenever the gain certificate holds, and its
fixed point is the periodic solution: the answer the paper reaches by
chaining sweeps with wrap-around.  ``run`` reaches it in one sweep.

Warm start.  With N = nx - 1 steps per sweep, the periodic fixed point's
start line is  x*_0 = c_W + M^W x*_(-W mod N)  for any W, where c_W is the
state reached by marching the W data steps before node 0 of the periodic
data, rows U[(N - W) mod N], ..., U[N - 1], from rest.  The gain's settling
certificate W = ``GainVector.settle_steps`` has ||M^W||_2 <= 2**-52, so
the second term is under one rounding unit of the field.  A run without an
initial guess therefore leads its sweep in with those W warm-up steps
(wrapping around the data when W >= N) and starts the sweep from c_W, which
makes the sweep the fixed point.  ``SweepReport.periodicity_defect``,
max|x_N - x_0| / max|field|, is the evidence.  A run with an initial guess
is one application of the sweep map from the guess's last line, with no
warm-up.  A gain without a settling certificate (every unstable gain among
them) is refused.

Lockstep window.  The certificate bounds the later powers only through
||M^(W+j)||_2 <= ||M^j||_2 * 2**-52, not by one rounding unit: with ring
poles M^W can be tiny while the powers after it are not (at 2049x3,
max_{j<32} ||M^(96+j)||_2 is about 24 units of 2**-52).  When W < N a
sweep's states are cut into blocks of 16 to 31.  Block 0 marches from the
start line (after the warm-up, if any) and is exact.  Every later block
marches from rest over the W inputs before its own states, so its state j
drops M^(W+j) times one earlier state, at most ||M^j||_2 * 2**-52 of it:
the term the warm-up already leaves in sweep state j.  All blocks advance
together as one matrix product per step, so a sweep, warm-up included,
costs W + L interpreter steps (L <= 31) instead of W + N.  Two runs with
different start lines therefore agree bit for bit past the first block,
where a plain march leaves them M^q times the difference of their start
lines apart.  When W >= N there is one block: the plain per-step march.
"""

import warnings
from dataclasses import dataclass
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
    # (nx, 2*ny); only its last line is used, as the sweep's start line.
    # Default: the wrapped warm-up (see module docstring)
    initial_guess: Optional[np.ndarray] = None
    guard: float = 1e12

    def __post_init__(self):
        if not self.guard > 0.0:
            raise ValueError("guard must be positive")


@dataclass
class SweepReport:
    top_residual: float
    bottom_error: Optional[float]   # None without a reference
    warmup_steps: int               # 0 for an explicit start line
    periodicity_defect: float       # max|x_N - x_0| / max|field|

    # kept only for perfbench/, which reads them
    @property
    def sweeps(self) -> int:
        return 1

    @property
    def converged_at(self) -> Optional[int]:
        return 1 if self.warmup_steps else None


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


# nominal states per block of the windowed march; _march rounds it up (to
# at most 31) so that whole blocks cover the sweep
_BLOCK = 16


def _march(x0: np.ndarray, M: np.ndarray, V: np.ndarray, lead: int,
           window: int, guard: float) -> np.ndarray:
    """States s_lead, ..., s_T of s_0 = x0, s_{t+1} = M @ s_t + V[t].

    T = len(V).  The first ``lead`` rows of V are a warm-up and the rest one
    sweep.  When ``window`` (a W with ||M^W||_2 <= 2**-52) is below the
    sweep's step count, the states are cut into blocks that march W + L
    steps in lockstep, one M @ (n, blocks) product per step.  Block 0
    marches from s_0 and is exact; every later block marches from rest over
    the W inputs before its own L states, so its state j drops M^(W + j)
    times one earlier state.  Otherwise the one block is the plain march.

    Raises NonFiniteState, naming the first offending warm-up or sweep step,
    when any state s_1, ..., s_T leaves the guard ball or is not finite.
    """
    steps, n = V.shape
    span = per = steps              # one block of every step
    if window < steps - lead:
        states = steps - lead + 1
        per = -(-states // max(1, states // _BLOCK))
        span = min(window + per, steps)
    later = -(-(steps - span) // per)
    # S[j, :, b] holds block b's input j, then its state j + 1.  Block 0
    # reads V[:span]; later block b reads the span rows ending at
    # T - (later - b) * per, gathered through one strided view of V
    S = np.empty((span, n, later + 1))
    S[:, :, 0] = V[:span]
    row, col = V.strides
    S[:, :, 1:] = np.ndarray((span, n, later), V.dtype, V,
                             (steps - span - (later - 1) * per) * row,
                             (row, col, per * row))
    X = np.zeros((n, later + 1))
    X[:, 0] = x0
    traj = np.empty((steps + 1, n))
    traj[0] = x0
    # a diverging march may overflow before the guard is checked below;
    # M.dot on one block gives the bits of a per-step M.dot(x) + u
    with np.errstate(over="ignore", invalid="ignore"):
        for Sj in S:
            Sj += M.dot(X)
            X = Sj
        # later blocks keep their last per states; block 0, exact, is
        # written last over any overlap with block 1
        traj[steps + 1 - later * per:].reshape(later, per, n)[...] = (
            S[span - per:, :, 1:].transpose(2, 0, 1))
        traj[1:span + 1] = S[:, :, 0]
        outside = ~(np.abs(traj[1:]) <= guard).all(axis=1)
    if outside.any():
        t = int(outside.argmax()) + 1
        where = f"warm-up step {t}" if t <= lead else f"sweep step {t - lead}"
        raise NonFiniteState(f"divergence guard tripped at {where}: "
                             f"state magnitude exceeded {guard:.1e}")
    return traj[lead:]


def run(problem: ObserverProblem, config: Optional[ObserverConfig] = None,
        reference: Optional[ReferenceSolution] = None):
    """One sweep across the rectangle.

    Returns (field, report) where field has shape (nx, 2*ny): row n holds
    the stacked state on the vertical line at x node n.  The recovered
    bottom trace is field[:, 0].  Without an initial guess the sweep is led
    in by the wrapped warm-up and is the periodic fixed point; with one, it
    is one application of the sweep map from the guess's last line (see the
    module docstring).  Raises ValueError for a gain without a settling
    certificate.
    """
    config = config or ObserverConfig()
    window = problem.gain.settle_steps
    if window is None:
        raise ValueError(
            "gain is not certified stable (spectral radius "
            f"{problem.gain.spectral_radius:.6f})")
    grid = problem.grid
    ny, steps = grid.ny, grid.nx - 1
    f = problem.cauchy.f
    M, U = sweep_form(problem.mats, problem.gain.k, f, problem.cauchy.g)
    if config.initial_guess is None:
        # the warm-up: the last W data rows, wrapped around the periodic
        # data, then the sweep's rows
        start, lead = np.zeros(2 * ny), window
        V = U.take(np.arange(-lead, steps), axis=0, mode="wrap")
    else:
        guess = np.asarray(config.initial_guess, dtype=float)
        if guess.shape != (grid.nx, 2 * ny):
            raise ValueError("initial guess must have shape (nx, 2*ny)")
        start, lead, V = guess[-1], 0, U
    cur = _march(start, M, V, lead, window, config.guard)
    scale = np.abs(cur).max()
    defect = np.abs(cur[-1] - cur[0]).max()
    return cur, SweepReport(
        top_residual=top_residual(cur, f, grid.dx),
        bottom_error=(None if reference is None else error_bottom(
            cur, bottom_trace(reference, grid), grid.dx)),
        warmup_steps=lead,
        periodicity_defect=float(defect / scale) if scale else 0.0)
