"""Sweep observer: one march across the rectangle on the periodic fixed point.

A sweep marches the estimated state line by line from x = 0 to x = a,
injecting the measured top trace at every step.  Every step is the affine
recursion

    x_{n+1} = A @ (f[n], g[n], x_n),   A = [K | d | M],   M = F - K C,

the step ``ObserverProblem.step``, formed once, by the problem that
certifies it: its M must equal the gain's certified closed loop
``GainVector.closed_loop`` bit for bit, and d is ``assemble``'s g-data
column.  A forms K f[n] + d g[n] and adds M applied to the state in the
same matrix product, so the matrix marched is the one the settling
certificate below was computed for.  The sweep map, start line to final
line, is a strict contraction whenever the gain certificate holds, and
its fixed point is the periodic solution: the answer the paper reaches by
chaining sweeps with wrap-around.  ``run`` reaches it in one sweep.  A
certified march is a stable linear map of the data, so its states scale
with the data and cannot diverge; the one way it fails is overflow, which
``run`` reports as the first state that is not finite.

Warm start.  With N = nx - 1 steps per sweep, the periodic fixed point's
start line is  x*_0 = c_W + M^W x*_(-W mod N)  for any W, where c_W is the
state reached by marching the W data steps before node 0 of the periodic
data, steps (N - W) mod N, ..., N - 1, from rest.  The gain's settling
certificate W = ``GainVector.settle_steps`` has ||M^W||_2 <= 2**-52, so
the second term is under one rounding unit of the field.  A run without a
start line therefore leads its sweep in with those W warm-up steps
(wrapping around the data when W >= N) and starts the sweep from c_W, which
makes the sweep the fixed point.  ``SweepReport.periodicity_defect``,
max|x_N - x_0| / max|field|, is the evidence.  A run with a start line is
one application of the sweep map from that line, with no warm-up.  A gain
without a settling certificate (every unstable gain among them) is
refused.

``run`` sees the top Cauchy data and nothing else, and reports only on its
march.  A caller that knows the true bottom trace scores the recovered one
with ``error_bottom``; ``top_residual`` measures the data mismatch.

Lockstep window.  The certificate bounds the later powers only through
||M^(W+j)||_2 <= ||M^j||_2 * 2**-52, not by one rounding unit: with ring
poles M^W can be tiny while the powers after it are not (at 2049x3,
max_{j<32} ||M^(96+j)||_2 is about 24 units of 2**-52).  When W < N a
sweep's states are cut into blocks of 16 to 31, sized by the work of one
lockstep step: 17 states on the grids up to 1025x3, 31 at 2049x3, where
blocks of 17 would make each step's product 1.8 times the work.  Block 0
marches from the start line (after the warm-up, if any) and is exact.
Every later block marches from rest over the W inputs before its own
states, so its state j drops M^(W+j) times one earlier state, at most
||M^j||_2 * 2**-52 of it: the term the warm-up already leaves in sweep
state j.  All blocks advance
together as one matrix product per step, A times every block's (f, g,
state) column, written in place into the next step's states, so a sweep,
warm-up included, costs W + L interpreter steps (L <= 31) instead of
W + N.  Two runs with different start lines therefore agree bit for bit
past the first block, where a plain march leaves them M^q times the
difference of their start lines apart.  When W >= N there is one block:
the plain per-step march.

The lockstep buffer, of W + L + 1 steps of every block's (f, g, state),
is kept between runs with the list of its per-step views by the gain that
marches it, one for each warm-up length (the default run's and a start
line's), from its second run on.  A later run on that gain refills the
buffer's start states and data rows and loops over the kept views: 0.77
times a run's time at 257x5, with the same arithmetic and the same bits.
Problems that share a gain share its workspaces, which are freed with the
gain.  A run takes its workspace out and puts it back when it ends, by an
exception too, so concurrent runs never share a buffer; as every run
writes each row it reads, an interrupted run leaves nothing behind.  The
field returned is a fresh array.
"""

import math
import weakref
from typing import Optional

import numpy as np

from .discrete_ops import SystemMatrices, assemble
from .gain import GainVector, PoleSpec, ackermann_gain
from .grid import RectGrid
from .records import Frozen, Record
from .reference import CauchyData


class NonFiniteState(Exception):
    """A marched state is not finite: the data overflowed the float range."""


class ObserverProblem(Frozen):
    """The grid, its top Cauchy data, its matrices and the gain of one run,
    and the read-only step [K | d | F - K C] that ``run`` marches, of shape
    (2*ny, 2*ny + 2).

    The gain must have been designed on these matrices: its settling
    certificate holds for its closed loop only, so the step's F - K C must
    equal the gain's ``closed_loop`` bit for bit."""

    def __init__(self, grid: RectGrid, cauchy: CauchyData,
                 mats: SystemMatrices, gain: GainVector):
        if len(cauchy.f) != grid.nx:
            raise ValueError("Cauchy data must hold one sample per x node")
        if (mats.ny, mats.dx, mats.dy) != (grid.ny, grid.dx, grid.dy):
            raise ValueError("matrices assembled for a different grid")
        if len(gain.k) != 2 * grid.ny:
            raise ValueError("gain length must be twice the y node count")
        loop = mats.F - gain.k[:, None] * mats.C_row
        if (np.shape(gain.closed_loop) != loop.shape
                or not (gain.closed_loop == loop).all()):
            raise ValueError("gain designed on other matrices: its closed "
                             "loop is not F - K C of these")
        # the data columns first: in the order [M | K | d] the rounding
        # moved error_bottom 1.9e-5 off a per-step march's at 257x6, at
        # equal cost.  One concatenate: filling an empty step in place
        # took 1.3 us more
        step = np.concatenate((gain.k[:, None], mats.d[:, None], loop), axis=1)
        step.flags.writeable = False
        self.__dict__.update(grid=grid, cauchy=cauchy, mats=mats, gain=gain,
                             step=step)


def design(grid: RectGrid, cauchy: CauchyData,
           poles: PoleSpec) -> ObserverProblem:
    """The certified observer of ``cauchy`` on ``grid``: the grid's
    matrices and the gain that places ``poles``.  Raises what
    ``ackermann_gain`` raises when the gain cannot be designed."""
    mats = assemble(grid)
    return ObserverProblem(grid, cauchy, mats,
                           ackermann_gain(mats.F, mats.C_row, poles))


class ObserverConfig(Record):
    """Options of one run."""

    def __init__(self, start_line: Optional[np.ndarray] = None):
        # (2*ny,): the state the sweep starts from at x = 0, as the last
        # line of a previous sweep.  Default: the wrapped warm-up (see
        # module docstring)
        self.start_line = start_line


class SweepReport(Record):
    """What one run's march reports about itself."""

    def __init__(self, warmup_steps: int, periodicity_defect: float):
        self.warmup_steps = warmup_steps    # 0 for an explicit start line
        # max|x_N - x_0| / max|field|
        self.periodicity_defect = periodicity_defect

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
    """Trapezoid-weighted discrete L2 norm over the x nodes.

    The values are scaled by 2**-e, with 2**e just above their peak, before
    they are squared, and the norm by 2**e after: exact, and the largest
    squares neither overflow nor underflow at either end of the float
    range.  ``np.ldexp`` scales without forming 2**-e, which is past the
    float range for a subnormal peak.
    """
    values = np.asarray(values)
    w = _trapezoid_weights(len(values), dx)
    e = math.frexp(np.abs(values).max(initial=0.0))[1]
    values = np.ldexp(values, -e)
    return math.ldexp(float(np.sqrt((w * values ** 2).sum())), e)


def top_residual(field: np.ndarray, f_samples: np.ndarray, dx: float) -> float:
    """Discrete L2 over x of the mismatch between the estimated top trace
    and the measured one."""
    field = np.asarray(field)
    f_samples = np.asarray(f_samples)
    if field.shape[0] != len(f_samples):
        raise ValueError("field and data lengths disagree")
    return discrete_l2(field[:, field.shape[1] // 2 - 1] - f_samples, dx)


def error_bottom(field: np.ndarray, reference: np.ndarray, dx: float) -> float:
    """Relative discrete L2 error of the recovered bottom trace.

    The absolute error when the reference trace has zero norm.
    """
    field = np.asarray(field)
    reference = np.asarray(reference)
    if field.shape[0] != len(reference):
        raise ValueError("field and reference lengths disagree")
    err = discrete_l2(field[:, 0] - reference, dx)
    ref_norm = discrete_l2(reference, dx)
    return err / ref_norm if ref_norm else err


# States per block of the windowed march, at least and at most: a block's
# state j drops M^(W + j), and the settling evidence covers j < 32
_BLOCK, _BLOCK_MAX = 16, 31
# Multiply-adds of one lockstep product A @ (2 + n, blocks) below which its
# time is mostly numpy's call overhead: 1.3-1.6 us a step up to about 3000
# at n = 6, 8 and 10, then rising with the work (2.1 us at 6144, 3.9 us at
# 15360), on a 2-vCPU Xeon VM
_STEP_WORK = 3000


def _layout(steps: int, lead: int, window: int, n: int):
    """(per, span, later) of ``_march``'s blocks: ``per`` states kept from
    each later block, ``span`` steps marched, ``later`` blocks after block 0.

    Without a window below the sweep's step count, one block of every step.
    Otherwise as few blocks as keep a step's n (n + 2) blocks multiply-adds
    under ``_STEP_WORK``, but never more than ``states // _BLOCK`` and never
    longer than ``_BLOCK_MAX`` states: blocks of 17 states at 257x5, 31 at
    2049x3 (67 blocks, 3216 multiply-adds a step, against 121 blocks and
    5808 for 17).
    """
    if window >= steps - lead:
        return steps, steps, 0
    states = steps - lead + 1
    count = min(states // _BLOCK, _STEP_WORK // (n * (n + 2)) or 1)
    per = min(-(-states // count) if count else states, _BLOCK_MAX)
    span = min(window + per, steps)
    return per, span, -(-(steps - span) // per)


# Workspaces of ``_march`` by gain: a dict from warm-up length to
# (layout, per, span, later, Z, pairs), the layout (steps, lead, window, n)
# they were made for.  A layout's first run keeps no Z: its Z is freed.
# With glibc's malloc that matters: keeping the first Z left the mmap
# threshold lower, and a 1025x3 solve's temporaries over 128 KB were
# mmapped and faulted in afresh on every call (83 page faults an op).
# Keeping it under per-gain workspaces, against freeing it: cli_solve's
# p90 latency x1.145 (1.05-1.24), throughput x0.950 (0.93-0.98), peak RSS
# x0.999, worse in all of 6 alternating process pairs of 10 s
_SPACES = weakref.WeakKeyDictionary()


def _march(x0: np.ndarray, A: np.ndarray, D: np.ndarray, lead: int,
           window: int, spaces: dict) -> np.ndarray:
    """States s_lead, ..., s_T of s_0 = x0, s_{t+1} = A @ (D[t], s_t).

    T = len(D), and D[t] = (f, g) is the data of step t.  The first
    ``lead`` rows of D are a warm-up and the rest one sweep.  When
    ``window`` (a W with ||M^W||_2 <= 2**-52, M = A's state columns) is
    below the sweep's step count, the states are cut into blocks of L
    states (``_layout``: 16 to 31, as few blocks as keep a step's product
    cheap) that march W + L steps in lockstep, one A @ (2 + n, blocks)
    product per step.
    Block 0 marches from s_0 and is exact; every later block marches from
    rest over the W inputs before its own L states, so its state j drops
    M^(W + j) times one earlier state.  Otherwise the one block is the
    plain march.

    The buffer Z and its step views are kept in ``spaces``, the marching
    gain's dict of ``_SPACES``, under ``lead`` (see the module docstring);
    the returned states are a fresh array.

    Raises NonFiniteState, naming the first warm-up or sweep step whose
    state is not finite.
    """
    steps, n = len(D), len(A)
    layout = steps, lead, window, n
    space = spaces.pop(lead, None)
    # traj is allocated before a new Z: allocated after it, Z's pages were
    # faulted in afresh on many runs
    traj = np.empty((steps + 1, n))
    if space is None or space[0] != layout:
        per, span, later = _layout(*layout)
        space = Z = pairs = None
    else:
        _, per, span, later, Z, pairs = space
    if Z is None:
        # Z[j, :, b] holds block b's data of step j above its state j; the
        # later blocks' start states stay zero, as no step writes row 0
        Z = np.empty((span + 1, 2 + n, later + 1))
        Z[0, 2:] = 0.0
        if space is not None:
            pairs = list(zip(Z, Z[1:, 2:]))
    try:
        Z[0, 2:, 0] = x0
        # Block 0 reads D[:span]; later block b reads the span rows ending
        # at T - (later - b) * per, gathered through one strided view of D.
        # A D.take(..., mode="wrap") gather gives the same bits, but its
        # fresh copy made each call 11-47% slower on six window grids
        # (2049x3 worst)
        Z[:span, :2, 0] = D[:span]
        row, col = D.strides
        Z[:span, :2, 1:] = np.ndarray((span, 2, later), D.dtype, D,
                                      (steps - span - (later - 1) * per) * row,
                                      (row, col, per * row))
        # overflow is found once, below, over the kept states; A.dot on one
        # block gives the bits of a per-step A.dot((f, g, x)).  Bound once,
        # not looked up on each of the W + L steps
        dot = A.dot
        with np.errstate(over="ignore", invalid="ignore"):
            for z, out in pairs or zip(Z, Z[1:, 2:]):
                dot(z, out)
            # later blocks keep their last per states; block 0, exact, is
            # written last over any overlap with block 1
            traj[steps + 1 - later * per:].reshape(later, per, n)[...] = (
                Z[span + 1 - per:, 2:, 1:].transpose(2, 0, 1))
            traj[:span + 1] = Z[:, 2:, 0]
    finally:
        spaces[lead] = layout, per, span, later, Z if pairs else None, pairs
    if not np.isfinite(traj).all():
        t = int(np.isfinite(traj).all(axis=1).argmin())
        where = f"warm-up step {t}" if t <= lead else f"sweep step {t - lead}"
        raise NonFiniteState(f"state is not finite at {where}")
    return traj[lead:]


def run(problem: ObserverProblem, config: Optional[ObserverConfig] = None):
    """One sweep across the rectangle.

    Returns (field, report) where field has shape (nx, 2*ny): row n holds
    the stacked state on the vertical line at x node n.  The recovered
    bottom trace is field[:, 0].  Without a start line the sweep is led in
    by the wrapped warm-up and is the periodic fixed point; with one, it is
    one application of the sweep map from that line (see the module
    docstring).  Raises ValueError for a gain without a settling
    certificate and for a start line that is complex, whose shape is not
    (2*ny,) or that is not finite, and NonFiniteState when a marched state
    overflows.
    """
    config = config or ObserverConfig()
    window = problem.gain.settle_steps
    if window is None:
        raise ValueError(
            "gain is not certified stable (spectral radius "
            f"{problem.gain.spectral_radius:.6f})")
    grid, cauchy = problem.grid, problem.cauchy
    ny, steps = grid.ny, grid.nx - 1
    D = np.empty((steps, 2))
    D[:, 0], D[:, 1] = cauchy.f[:-1], cauchy.g[:-1]
    if config.start_line is None:
        # the warm-up: the last W data steps, wrapped around the periodic
        # data, then the sweep's steps
        start, lead = np.zeros(2 * ny), window
        D = D.take(np.arange(-lead, steps), axis=0, mode="wrap")
    else:
        # refused before the cast, which drops an imaginary part with only
        # a ComplexWarning
        if np.iscomplexobj(config.start_line):
            raise ValueError("start line must be real")
        start, lead = np.asarray(config.start_line, dtype=float), 0
        if start.shape != (2 * ny,):
            raise ValueError(f"start line must have shape (2*ny,) = "
                             f"({2 * ny},), not {start.shape}")
        if not np.isfinite(start).all():
            raise ValueError("start line must be finite")
    cur = _march(start, problem.step, D, lead, window,
                 _SPACES.setdefault(problem.gain, {}))
    scale = np.abs(cur).max()
    defect = np.abs(cur[-1] - cur[0]).max()
    return cur, SweepReport(
        warmup_steps=lead,
        periodicity_defect=float(defect / scale) if scale else 0.0)
