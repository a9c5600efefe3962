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

Beyond dimension ~14 (ny ~ 7 on the standard domain) no float64 gain vector
can realize an accurate placement at all: rounding the exact gain perturbs
the closed-loop eigenvalues at order one.  The post-check turns that into an
explicit PlacementFailed instead of returning garbage.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np


class ObservabilityDeficient(Exception):
    """Observability matrix condition number exceeds the configured cap."""


class PlacementFailed(Exception):
    """Achieved closed-loop spectrum does not match the requested poles."""


@dataclass(frozen=True)
class PoleSpec:
    """Requested closed-loop spectrum: conjugate-closed, inside the unit circle."""

    poles: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.poles, dtype=complex)
        if np.abs(p).max() >= 1.0:
            raise ValueError("all poles must have modulus < 1")
        cplx = p[np.abs(p.imag) > 1e-14]
        key = lambda z: (round(z.real, 9), round(z.imag, 9))
        upper = sorted(cplx[cplx.imag > 0], key=key)
        lower = sorted(np.conj(cplx[cplx.imag < 0]), key=key)
        if len(upper) != len(lower) or any(
                abs(u - l) > 1e-12 for u, l in zip(upper, lower)):
            raise ValueError("complex poles must come in conjugate pairs")
        object.__setattr__(self, "poles", p)

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


@dataclass(frozen=True)
class GainVector:
    """Injection gain column plus its design certificate."""

    k: np.ndarray
    method: str
    spectral_radius: float
    obs_condition: float
    pole_min: float
    pole_max: float
    settle_steps: Optional[int] = None   # see settle_steps(); None: none certified


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
_SETTLE_CAP_LOG2 = 16


def settle_steps(M: np.ndarray) -> Optional[int]:
    """A step count W with ||M^W||_2 <= 2**-52, or None if no power up to
    2**16 settles, as for any M with spectral radius 1 or more.

    Squares M until a power M^(2^j) settles, then descends bit by bit over
    the squared powers to the first W below 2^j whose computed power
    settles: about 2j small matrix products.  Each test uses the Frobenius
    norm, an upper bound on the 2-norm, and the returned W is always one
    whose computed power passed; rounding in the squared powers only makes
    W larger than a plain power scan would (99 against 70 for the ring gain
    at 257x5).
    """
    powers = [np.asarray(M, dtype=float)]    # powers[i] = M^(2^i)
    # an unstable M overflows while squaring; inf and nan never settle
    with np.errstate(over="ignore", invalid="ignore"):
        while not np.linalg.norm(powers[-1]) <= SETTLE_TOL:
            if len(powers) > _SETTLE_CAP_LOG2:
                return None
            powers.append(powers[-1] @ powers[-1])
        # invariant: M^lo does not settle, M^(lo + 2^(i+1)) does
        lo, M_lo = 0, None
        for i in range(len(powers) - 2, -1, -1):
            trial = powers[i] if M_lo is None else M_lo @ powers[i]
            if not np.linalg.norm(trial) <= SETTLE_TOL:
                lo, M_lo = lo + 2 ** i, trial
    return lo + 1


def _real_poly_from_poles(poles: np.ndarray, dtype) -> np.ndarray:
    """Monic polynomial coefficients (highest first) from a conjugate-closed set."""
    coeffs = np.array([dtype(1.0)])
    reals = sorted(p.real for p in poles if abs(p.imag) <= 1e-14)
    pairs = [p for p in poles if p.imag > 1e-14]
    for r in reals:
        nxt = np.zeros(len(coeffs) + 1, dtype=dtype)
        nxt[:-1] += coeffs
        nxt[1:] -= dtype(r) * coeffs
        coeffs = nxt
    for p in pairs:
        b1 = dtype(-2.0 * p.real)
        b0 = dtype(p.real * p.real + p.imag * p.imag)
        nxt = np.zeros(len(coeffs) + 2, dtype=dtype)
        nxt[:-2] += coeffs
        nxt[1:-1] += b1 * coeffs
        nxt[2:] += b0 * coeffs
        coeffs = nxt
    return coeffs


def _solve_extended(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting in extended precision."""
    n = A.shape[0]
    M = np.concatenate([A, rhs[:, None]], axis=1)
    for col in range(n):
        piv = col + int(np.abs(M[col:, col]).argmax())
        if M[piv, col] == 0.0:
            raise ObservabilityDeficient("observability matrix is singular")
        M[[col, piv]] = M[[piv, col]]
        M[col] = M[col] / M[col, col]
        for r in range(n):
            if r != col:
                M[r] -= M[r, col] * M[col]
    return M[:, -1]


def _match_spectra(achieved: np.ndarray, requested: np.ndarray) -> float:
    """Max pairing distance between two spectra under sorted matching."""
    key = lambda z: (round(z.real, 9), round(z.imag, 9))
    a = np.array(sorted(achieved, key=key))
    r = np.array(sorted(requested, key=key))
    return float(np.abs(a - r).max())


def ackermann_gain(F: np.ndarray, C_row: np.ndarray, spec: PoleSpec,
                   cond_cap: float = 1e12,
                   check_tol_scale: float = 1e-6) -> GainVector:
    """Place the closed-loop spectrum by the classical single-output formula

        K = q(F) @ inv(O) @ e_last

    with q the monic polynomial vanishing at the requested poles and O the
    observability matrix.  Internal arithmetic runs in extended precision;
    the result is rounded to float64 and verified against the request.

    Raises ObservabilityDeficient when cond(O) exceeds ``cond_cap`` and
    PlacementFailed when the achieved spectrum misses the request by more
    than ``check_tol_scale * (1 + max |pole|)``.
    """
    F = np.asarray(F, dtype=float)
    C = np.asarray(C_row, dtype=float).ravel()
    n = F.shape[0]
    if len(spec) != n:
        raise ValueError(f"need exactly {n} poles, got {len(spec)}")
    O = observability_matrix(F, C)
    cond = float(np.linalg.cond(O))
    if not np.isfinite(cond) or cond > cond_cap:
        raise ObservabilityDeficient(
            f"observability matrix condition {cond:.3e} exceeds cap {cond_cap:.1e}")

    ld = np.longdouble
    Fw = F.astype(ld)
    Ow = observability_matrix(F, C, ld)
    coeffs = _real_poly_from_poles(spec.poles, ld)
    Q = np.zeros_like(Fw)
    eye = np.eye(n, dtype=ld)
    for c in coeffs:
        Q = Q @ Fw + c * eye
    e_last = np.zeros(n, dtype=ld)
    e_last[-1] = 1.0
    z = _solve_extended(Ow, e_last)
    k = np.asarray(Q @ z, dtype=float)

    M = F - np.outer(k, C)
    achieved = np.linalg.eigvals(M)
    tol = check_tol_scale * (1.0 + float(np.abs(spec.poles).max()))
    mismatch = _match_spectra(achieved, spec.poles)
    if mismatch > tol:
        raise PlacementFailed(
            f"closed-loop spectrum misses request by {mismatch:.3e} "
            f"(tolerance {tol:.3e}); the placement is not representable "
            f"at this dimension in double precision")
    radius = float(np.abs(achieved).max())
    reals = spec.poles.real
    return GainVector(k=k, method="ackermann", spectral_radius=radius,
                      obs_condition=cond, pole_min=float(reals.min()),
                      pole_max=float(reals.max()), settle_steps=settle_steps(M))
