"""Output-injection gain design by pole placement, and its certificates.

The gain K is placed by Ackermann's formula so that F - K C has a requested
spectrum inside the unit circle.  Single-output pole placement is
numerically delicate: the observability matrix conditioning and the gain
magnitude both grow quickly with the state dimension, so the polynomial
evaluation and the linear solve are carried out in extended precision
before rounding the gain to float64.  The placement post-check compares
the achieved closed-loop spectrum against the request and refuses silently
wrong gains.  A gain is certified stable by its settling certificate: a
step count W with ||(F - K C)^W||_2 below one rounding unit, so that W
steps into a march its starting line weighs at most that much in its
state (j steps later, at most ||(F - K C)^j||_2 times that).  No gain whose
spectral radius is one or more gets one, and the observer refuses a gain
without it.

At dimension 18 (nx = 65, ny = 9 on the standard domain) the post-check
refuses both pole layouts, for different reasons.  For the uniform layout,
rounding the exact gain to float64 moves the closed-loop poles at order one
(by 0.295, against 80-digit eigenvalues).  For the ring layout it does not:
the rounded gain's true mismatch is 7.8e-5, though float64 ``eigvals`` reads
1.65e-3, and both are above the tolerance of 1.55e-6.  A placement there
would not make the grid usable: what binds is forward Euler's bias, and a
march forced through with the ring gain (post-check and certificate
bypassed, a 360-step warm-up) reaches a bottom error of 4.0e4.  The
post-check turns a missed placement into an explicit PlacementFailed instead
of returning garbage.
"""

import math
from typing import Optional

import numpy as np

from .records import Frozen


class ObservabilityDeficient(Exception):
    """Observability matrix condition number exceeds the configured cap."""


class PlacementFailed(Exception):
    """Achieved closed-loop spectrum does not match the requested poles."""


class PoleSpec(Frozen):
    """Requested closed-loop spectrum: nonempty, conjugate-closed, inside
    the unit circle."""

    def __init__(self, poles: np.ndarray):
        p = np.asarray(poles, dtype=complex)
        if p.size == 0:
            raise ValueError("a pole set needs at least one pole, got 0")
        if not np.isfinite(p).all():
            raise ValueError("poles must be finite")
        if np.abs(p).max() >= 1.0:
            raise ValueError("all poles must have modulus < 1")
        upper = _spectrum_order(p[p.imag > 1e-14])
        lower = _spectrum_order(p[p.imag < -1e-14].conj())
        if len(upper) != len(lower) or (np.abs(upper - lower) > 1e-12).any():
            raise ValueError("complex poles must come in conjugate pairs")
        self.__dict__["poles"] = p

    def __len__(self):
        return len(self.poles)


def uniform_poles(n: int, lo: float = 0.3, hi: float = 0.8) -> PoleSpec:
    """n distinct real poles uniformly spaced in [lo, hi]."""
    return PoleSpec(np.linspace(lo, hi, n).astype(complex))


def ring_poles(n: int, radius: float = 0.55) -> PoleSpec:
    """n poles equally spaced on a circle of the given modulus.

    Conjugate-closed for even n; the layout keeps the placement polynomial
    well conditioned (it is z**n + radius**n) and the closed-loop spectrum
    far from the unit circle near +1, which is where slowly varying data
    content lives.
    """
    if n % 2 != 0:
        raise ValueError("ring layout needs an even pole count")
    angles = (2 * np.arange(n) + 1) * np.pi / n
    return PoleSpec(radius * np.exp(1j * angles))


class GainVector(Frozen):
    """The injection gain column k plus its certificate: the achieved
    closed-loop spectral radius, cond(O) of the observability matrix O, the
    closed-loop matrix F - K C, which the observer marches, and that
    matrix's settling step count (see settle_steps(); None: none
    certified)."""

    def __init__(self, k: np.ndarray, spectral_radius: float,
                 obs_condition: float, closed_loop: np.ndarray,
                 settle_steps: Optional[int] = None):
        self.__dict__.update(k=k, spectral_radius=spectral_radius,
                             obs_condition=obs_condition,
                             closed_loop=closed_loop,
                             settle_steps=settle_steps)


def observability_matrix(F: np.ndarray, C_row: np.ndarray,
                         dtype=float) -> np.ndarray:
    """Rows C, C F, C F^2, ..., C F^(n-1), computed in ``dtype``."""
    F = np.asarray(F, dtype=dtype)
    row = np.asarray(C_row, dtype=dtype).ravel()
    n = F.shape[0]
    O = np.empty((n, n), dtype=dtype)
    for i in range(n):
        O[i] = row
        row = row @ F
    return O


SETTLE_TOL = 2.0 ** -52
# the placement post-check's tolerance is this times 1 + max |pole|
PLACEMENT_TOL_SCALE = 1e-6
_SETTLE_CAP_LOG2 = 16


def settle_steps(M: np.ndarray) -> Optional[int]:
    """A step count W with ||M^W||_2 <= 2**-52, or None if no power up to
    2**16 settles, as for any M with spectral radius 1 or more.

    Squares M until a power M^(2^j) settles, then descends bit by bit over
    the squared powers to the first W below 2^j whose computed power
    settles: about 2j small matrix products.  Each test uses the Frobenius
    norm, an upper bound on the 2-norm, and the returned W is always one
    whose computed power passed.  The squared powers are not the true ones:
    rounding puts M^128 at 257x6 off by 1.3e5 relative in the 2-norm
    (against long-double sequential products), so W is evidenced by a test,
    not proved.  On the ring-gain grids of the working window, the
    sequential float64 powers M^(W+j), j < 32, that the lockstep march
    drops stay within 32 units of 2**-52 (at most 24, at 2049x3).  The first
    settled step of a plain power scan (66 to 72 there, against W of 90 to
    128) would not do: the 32 powers after it climb back to 1e4-1e9 units.
    That bound is evidence for those grids only.  At ny = 4 (n = 8) W is
    64 = 8n: ring poles make M^64 a multiple of I, so it settles, while
    the dropped powers reach 1.4e5 units at 129x4, 2.4e6 at 257x4 and 4.2e8
    at 513x4; the windowed march there is checked against a long-double
    march instead (tests/test_observer.py).
    """
    powers = [np.asarray(M, dtype=float)]    # powers[i] = M^(2^i)
    # an unstable M overflows while squaring; inf and nan never settle
    with np.errstate(over="ignore", invalid="ignore"):
        while not _frobenius(powers[-1]) <= SETTLE_TOL:
            if len(powers) > _SETTLE_CAP_LOG2:
                return None
            powers.append(powers[-1] @ powers[-1])
        # invariant: M^lo does not settle, M^(lo + 2^(i+1)) does
        lo, M_lo = 0, None
        for i in range(len(powers) - 2, -1, -1):
            trial = powers[i] if M_lo is None else M_lo @ powers[i]
            if not _frobenius(trial) <= SETTLE_TOL:
                lo, M_lo = lo + 2 ** i, trial
    return lo + 1


def _frobenius(P: np.ndarray) -> float:
    """``np.linalg.norm(P)`` of a real matrix, the same sum in the same
    order, without its dispatch."""
    v = P.ravel(order="K")
    return math.sqrt(v.dot(v))


def _real_poly_from_poles(poles: np.ndarray, dtype) -> np.ndarray:
    """Monic polynomial coefficients (highest first) from a conjugate-closed
    set: the product of the linear factors z - r of the real poles, in
    ascending order, then of the quadratic factors z**2 - 2 Re(p) z + |p|**2
    of the poles p above the real axis, in their order.  Each factor's
    coefficients after its lead are rounded to float64 before ``dtype``."""
    poles = poles.tolist()
    factors = [(dtype(-r),) for r in sorted(
        p.real for p in poles if abs(p.imag) <= 1e-14)]
    factors += [(dtype(-2.0 * p.real),
                 dtype(p.real * p.real + p.imag * p.imag))
                for p in poles if p.imag > 1e-14]
    coeffs = np.array([dtype(1.0)])
    for factor in factors:
        nxt = np.zeros(len(coeffs) + len(factor), dtype=dtype)
        nxt[:len(coeffs)] += coeffs
        for shift, c in enumerate(factor, 1):
            nxt[shift:shift + len(coeffs)] += c * coeffs
        coeffs = nxt
    return coeffs


def _solve_extended(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Gauss-Jordan elimination with partial pivoting in extended precision.

    Each column is cleared by one outer-product update of the other rows
    (a broadcast product, without ``np.outer``'s dispatch), the same
    products and differences as updating them one at a time."""
    n = A.shape[0]
    M = np.concatenate([A, rhs[:, None]], axis=1)
    for col in range(n):
        piv = col + int(np.abs(M[col:, col]).argmax())
        if M[piv, col] == 0.0:
            raise ObservabilityDeficient("observability matrix is singular")
        row = M[piv] / M[piv, col]
        M[piv] = M[col]
        M[col] = 0.0            # the pivot row's factor below is 0
        M -= M[:, col, None] * row
        M[col] = row
    return M[:, -1]


def _spectrum_order(z: np.ndarray) -> np.ndarray:
    """``z`` sorted by real part, then by imaginary part, each rounded by
    ``np.round(., 9)``; stable, so ties keep their order."""
    return z[np.lexsort((np.round(z.imag, 9), np.round(z.real, 9)))]


def _match_spectra(achieved: np.ndarray, requested: np.ndarray) -> float:
    """Max pairing distance between two spectra under sorted matching."""
    return float(np.abs(_spectrum_order(achieved)
                        - _spectrum_order(requested)).max())


def ackermann_gain(F: np.ndarray, C_row: np.ndarray, spec: PoleSpec,
                   cond_cap: float = 1e12) -> GainVector:
    """Place the closed-loop spectrum by the classical single-output formula

        K = q(F) @ inv(O) @ e_last

    with q the monic polynomial vanishing at the requested poles and O the
    observability matrix.  Internal arithmetic runs in extended precision;
    the result is rounded to float64 and verified against the request.

    Raises ObservabilityDeficient when O is not finite or cond(O) exceeds
    ``cond_cap``, and PlacementFailed when the achieved spectrum misses the
    request by more than ``PLACEMENT_TOL_SCALE * (1 + max |pole|)``.
    """
    F = np.asarray(F, dtype=float)
    C = np.asarray(C_row, dtype=float).ravel()
    n = F.shape[0]
    if len(spec) != n:
        raise ValueError(f"need exactly {n} poles, got {len(spec)}")
    # the powers of an extreme F overflow; O is then refused below
    with np.errstate(over="ignore", invalid="ignore"):
        O = observability_matrix(F, C)
    if not np.isfinite(O).all():
        raise ObservabilityDeficient("observability matrix is not finite")
    # np.linalg.cond(O) from one SVD, in Python floats, which overflow to
    # inf without a warning; a zero smallest singular value gives inf, as
    # it does there
    s_max, s_min = np.linalg.svd(O, compute_uv=False)[[0, -1]].tolist()
    cond = s_max / s_min if s_min else math.inf
    if not np.isfinite(cond) or cond > cond_cap:
        raise ObservabilityDeficient(
            f"observability matrix condition {cond:.3e} exceeds cap {cond_cap:.1e}")

    ld = np.longdouble
    Fw = F.astype(ld)
    Ow = observability_matrix(F, C, ld)
    coeffs = _real_poly_from_poles(spec.poles, ld)
    # Horner from the monic lead: (1 I) @ F is F (up to the sign of a -0.0
    # entry; I + dx A has none), so start at F + c1 I
    Q = Fw.copy()
    Q.flat[::n + 1] += coeffs[1]
    for c in coeffs[2:]:
        Q = Q @ Fw
        Q.flat[::n + 1] += c
    e_last = np.zeros(n, dtype=ld)
    e_last[-1] = 1.0
    z = _solve_extended(Ow, e_last)
    k = np.asarray(Q @ z, dtype=float)

    M = F - np.outer(k, C)
    achieved = np.linalg.eigvals(M)
    tol = PLACEMENT_TOL_SCALE * (1.0 + float(np.abs(spec.poles).max()))
    mismatch = _match_spectra(achieved, spec.poles)
    if mismatch > tol:
        raise PlacementFailed(
            f"closed-loop spectrum misses request by {mismatch:.3e} "
            f"(tolerance {tol:.3e}); the placement is not representable "
            f"at this dimension in double precision")
    return GainVector(k=k, spectral_radius=float(np.abs(achieved).max()),
                      obs_condition=cond, closed_loop=M,
                      settle_steps=settle_steps(M))
