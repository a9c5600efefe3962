"""Mode family, energy inner product, propagator series, and diagnostics.

The analysis interval is [0, pi/4].  The mode family

    phi_n(s) = c1 * cos(lam_n * s),   lam_n = 6 - 8n,  c1 = -sqrt(8/pi)

is L2-orthonormal on that interval (c1 is ``MODE_AMPLITUDE``), and the
paired vectors

    Phi_n = rho_n * (phi_n, lam_n * phi_n),   rho_n = 1 / (sqrt(2) * lam_n)

are orthonormal in the energy pairing used throughout this module,

    <(p1, p2), (q1, q2)> = int p1' q1' + int p2 q2.

On uniform quadrature nodes the composite trapezoid rule integrates every
product of two family members exactly (all frequencies complete a whole
number of half periods), so the discrete Gram matrix is the identity to
round-off.  Every pair carries samples of its first component's derivative
(analytic ones for the mode family and for the propagator's output), and the
energy pairing reads them: nothing is differenced.

The public diagnostics compute on the mode set sampled as whole
(modes x nodes) arrays of the first components and their analytic
derivatives: the Gram matrix is two matrix products, the propagator two
matrix-vector products for the coefficients and three for the output.

The family is sampled from two base exponentials: e^{i lam_n s} =
e^{6is} (e^{-8is})^n, walked outward from n = 0 one unit-modulus factor at
a time, so a sampling costs cos and sin of 6s and 8s (four node arrays) and
one complex product per mode walked, whatever the number of modes.  Mode n
is always reached by the same products, so its samples depend only on n and
the node count: ``sample_mode`` and the whole-set rows agree bit for bit,
and mode 0 is exactly cos(6s) and sin(6s).  Against long-double cos and sin
of lam_n s on the same nodes the worst row error is 5.0 eps times the row's
maximum on the modes -6..10 at 1001 to 4001 nodes (6.0 eps for |n| <= 12);
cos and sin of the rounded argument lam_n s reached 16 eps (32 eps), as
that rounding grows with |lam_n|.

The sampling is memoized for one mode set at a time.  Every call on an equal
mode set after the first reuses the same arrays, which are read-only; a call
on a different set replaces them, so at most one family is held.
``sample_mode`` samples one mode afresh and leaves the memo alone.

The observability lower bound is sum_n (exp(lam_n x) * G_nn)^2 with G_nn the
Gram diagonal, which equals sum_n exp(2 lam_n x) to round-off.

Modes with lam_n > 0 grow under the propagator; no clamping is applied, the
growth is inherent to the continuation problem and should stay visible in
diagnostics.
"""

import functools

import numpy as np

from .records import Frozen, Value, whole

ANALYSIS_LENGTH = np.pi / 4.0
MODE_AMPLITUDE = -np.sqrt(8.0 / np.pi)

DEFAULT_MODE_INDICES = tuple(range(-4, 9))
DEFAULT_QUADRATURE = 2001


def mode_frequency(n: int) -> float:
    """Frequency (also the propagation rate) of mode n; never zero."""
    return 6.0 - 8.0 * n


class ModeSet(Value):
    """Finite, duplicate-free truncation of the mode family plus a node count.

    The indices and the node count are stored as ``int``s; an integral float
    such as 101.0 becomes 101, so equal sets sample alike.  A value that is
    not a whole number is refused."""

    def __init__(self, indices: tuple, quadrature: int = DEFAULT_QUADRATURE):
        idx = tuple(whole(i, "mode indices must be whole numbers")
                    for i in indices)
        if len(set(idx)) != len(idx):
            raise ValueError("mode indices must be duplicate-free")
        if len(idx) == 0:
            raise ValueError("mode set must be nonempty")
        q = whole(quadrature, "quadrature must be a whole number of nodes")
        if q < 5:
            raise ValueError("quadrature needs at least 5 nodes")
        self.__dict__.update(indices=idx, quadrature=q)


class FunctionPair(Frozen):
    """Two functions sampled on the uniform quadrature nodes of [0, pi/4].

    ``dp1`` holds samples of the first component's derivative, which the
    inner product and the propagator read.  Propagator output carries
    analytic ones, so repeated applications stay exact to round-off.
    """

    def __init__(self, p1: np.ndarray, p2: np.ndarray, dp1: np.ndarray):
        p1 = np.asarray(p1, dtype=float)
        p2 = np.asarray(p2, dtype=float)
        dp1 = np.asarray(dp1, dtype=float)
        if p1.shape != p2.shape or p1.ndim != 1:
            raise ValueError("components must be 1-d arrays on identical nodes")
        if dp1.shape != p1.shape:
            raise ValueError("derivative samples must match the node set")
        self.__dict__.update(p1=p1, p2=p2, dp1=dp1)

    @property
    def nodes(self) -> int:
        return len(self.p1)


@functools.lru_cache(maxsize=1)
def _sample_rows(modes: ModeSet):
    """Sample the whole mode set on its quadrature nodes, memoized for the
    last mode set asked for.

    Returns ``lam`` (one rate per mode), the ``p1`` rows (modes x nodes) and
    the analytic ``dp1`` rows, all read-only because every later call on an
    equal set gets the same arrays.  The rows are the real and imaginary
    parts of e^{i lam_n s} = e^{6is} (e^{-8is})^n, so four trig arrays (cos
    and sin of 6s and 8s) serve any number of modes: the walk starts from
    e^{6is} at n = 0 and steps outward one unit-modulus factor e^{-+8is} at
    a time, the positive n upward, then the negative n downward, past the n
    the set does not keep.  Every n is reached by the same products
    whatever else is walked, so its rows depend only on n and the node
    count, and each walked e^{i lam_n s} is scaled straight into its output
    rows: no (modes x nodes) complex array is made.  A row is within 5.0
    eps of its maximum of the exact samples on the modes -6..10 (module
    docstring).  The second components are ``lam * p1`` and are never
    stored.
    """
    lam = mode_frequency(np.array(modes.indices, dtype=float))
    rho = 1.0 / (np.sqrt(2.0) * lam)
    scale = rho * MODE_AMPLITUDE
    dscale = -rho * MODE_AMPLITUDE * lam
    row = {n: i for i, n in enumerate(modes.indices)}
    p1 = np.empty((len(lam), modes.quadrature))
    dp1 = np.empty_like(p1)

    def keep(n, w):
        if n in row:
            np.multiply(w.real, scale[row[n]], out=p1[row[n]])
            np.multiply(w.imag, dscale[row[n]], out=dp1[row[n]])

    s = np.linspace(0.0, ANALYSIS_LENGTH, modes.quadrature)
    w = np.empty(len(s), dtype=complex)
    w.real = np.cos(6.0 * s)
    w.imag = np.sin(6.0 * s)
    keep(0, w)
    back = np.empty_like(w)         # e^{8is}: the step from n to n - 1
    back.real = np.cos(8.0 * s)
    back.imag = np.sin(8.0 * s)
    for step, sign in ((np.conj(back), 1), (back, -1)):
        walked = w.copy()
        for k in range(1, max(sign * n for n in row) + 1):
            walked *= step
            keep(sign * k, walked)
    for rows in (lam, p1, dp1):
        rows.flags.writeable = False
    return lam, p1, dp1


def sample_mode(n: int, quadrature: int) -> FunctionPair:
    """Mode n sampled on ``quadrature`` nodes, with analytic derivative.

    The pair is row 0 of the sampler, uncached, on the one-mode set, so it
    is bit-identical to mode n's rows of any sampled set, and the memo is
    left alone.  Its ``p1`` and ``dp1`` are the sampler's read-only rows.
    """
    lam, p1, dp1 = _sample_rows.__wrapped__(ModeSet((n,), quadrature))
    return FunctionPair(p1=p1[0], p2=lam[0] * p1[0], dp1=dp1[0])


def _trapezoid_weights(nodes: int) -> np.ndarray:
    """Composite trapezoid weights on the uniform nodes of [0, pi/4]."""
    w = np.full(nodes, ANALYSIS_LENGTH / (nodes - 1))
    w[[0, -1]] *= 0.5
    return w


def inner_product(p: FunctionPair, q: FunctionPair) -> float:
    """Energy pairing: product of the first components' derivatives plus
    the product of the second components, both by composite trapezoid."""
    if p.nodes != q.nodes:
        raise ValueError(f"mismatched sampling: {p.nodes} vs {q.nodes} nodes")
    w = _trapezoid_weights(p.nodes)
    return w @ (p.dp1 * q.dp1) + w @ (p.p2 * q.p2)


def gram_matrix(modes: ModeSet) -> np.ndarray:
    """Pairwise inner products of the normalized mode pairs.

    With every row scaled by the square root of the trapezoid weights the
    pairing is ``dP1 dP1^T + (lam lam^T) * (P1 P1^T)``.
    """
    lam, p1, dp1 = _sample_rows(modes)
    root_w = np.sqrt(_trapezoid_weights(modes.quadrature))
    p1 = p1 * root_w
    dp1 = dp1 * root_w
    return dp1 @ dp1.T + np.outer(lam, lam) * (p1 @ p1.T)


def semigroup_apply(f: FunctionPair, x: float, modes: ModeSet) -> FunctionPair:
    """Truncated propagator: sum of exp(lam_n x) times the mode projections.

    At x = 0 this is the orthogonal projection onto the span of the mode
    set.  The projections read ``f.dp1``, as ``inner_product`` does.  The
    output carries analytic derivative samples so compositions stay exact
    up to round-off.  Raises ValueError for a distance at which a
    propagation coefficient is not finite: exp(lam_n x) of the fastest
    growing default mode (lam = 38) overflows past x = 18.68, and at an
    infinite x turns a rounding-level projection into inf or nan.
    """
    if not x >= 0.0:
        raise ValueError("propagation distance must be nonnegative")
    if f.nodes != modes.quadrature:
        raise ValueError("pair and mode set use different quadrature nodes")
    lam, p1, dp1 = _sample_rows(modes)
    w = _trapezoid_weights(f.nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.exp(lam * x) * (dp1 @ (w * f.dp1) + lam * (p1 @ (w * f.p2)))
    if not np.isfinite(c).all():
        raise ValueError(f"propagation distance {x} overflows the "
                         "propagator: a mode coefficient is not finite")
    return FunctionPair(p1=c @ p1, p2=(c * lam) @ p1, dp1=c @ dp1)


def observability_lower_bound(modes: ModeSet, x):
    """Sum over the mode set of (exp(lam_n x) * G_nn)^2.

    G_nn = <Phi_n, Phi_n> = rho_n^2 |phi_n|^2, with |phi_n| the energy norm
    of the unnormalized pair, so the bound equals sum_n exp(2 lam_n x) to
    round-off.  Each summand is strictly positive, so the bound is positive
    and grows monotonically as modes are added.  ``x`` is a distance or an
    array of distances; a scalar gives a float, an array one bound per entry.
    Raises ValueError naming the first distance whose bound overflows.
    """
    x = np.asarray(x, dtype=float)
    if not (x >= 0.0).all():
        raise ValueError("x must be nonnegative")
    lam, p1, dp1 = _sample_rows(modes)
    w = _trapezoid_weights(modes.quadrature)
    diag = np.square(dp1) @ w + lam * lam * (np.square(p1) @ w)
    with np.errstate(over="ignore"):
        total = np.square(np.exp(np.multiply.outer(x, lam)) * diag).sum(axis=-1)
    if not np.isfinite(total).all():
        raise ValueError(f"distance x = {x[~np.isfinite(total)].flat[0]} "
                         "overflows the observability bound")
    return float(total) if total.ndim == 0 else total


def eigen_residual(modes: ModeSet) -> np.ndarray:
    """Sup norm of the discrete eigen-relation defect over interior nodes,
    one entry per mode of the set.

    The operator applies a centered second difference to the first
    component; the first row of the relation (p2 = lam * p1) is zero by
    construction, so the residual is the second-row defect
    ``-D2 p1 - lam * p2``, which shrinks at second order in the node spacing.

    Its rounding floor: dividing the rows' rounding by ``h**2``, it measures
    rounding for low modes at fine quadrature.  Mode 1 at q = 4001 reads
    22-30% above the exact discrete defect ``|rho c1| |4/h**2 sin(lam h/2)**2
    - lam**2|`` (2% at q = 2001).
    """
    lam, p1, _ = _sample_rows(modes)
    h = ANALYSIS_LENGTH / (modes.quadrature - 1)
    # -(p1[2:] - 2 p1[1:-1] + p1[:-2]) / h^2 - lam * (lam * p1[1:-1]), built
    # with the rounding of the one-mode formula, so each residual is
    # bit-identical to sampling that mode alone
    row2 = p1[:, 1:-1] * -2.0
    row2 += p1[:, 2:]
    row2 += p1[:, :-2]
    row2 /= -h * h
    inner = p1[:, 1:-1] * lam[:, None]
    inner *= lam[:, None]
    row2 -= inner
    return np.abs(row2, out=row2).max(axis=1)
