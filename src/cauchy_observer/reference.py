"""Closed-form harmonic fields and the Cauchy data they induce on the top edge.

Every supported field is a combination of separable terms

    coeff * cosh(2*pi*k*2*(y-b)/a) / cosh(4*pi*k*b/a) * trig(4*pi*k*x/a)

with trig in {cos, sin}.  Each term is harmonic, has zero normal derivative
on the top boundary, and its trace on the bottom boundary is exactly
coeff * trig(4*pi*k*x/a).  Cosine terms satisfy zero-Neumann side conditions,
sine terms zero-Dirichlet ones.

The pointwise evaluators (``evaluate``, ``d_dx``, ``d_dy``) share one loop
that sums the terms one by one at any points.  ``sample_state_field``
samples the whole (u, du/dx) grid field as one trig table per distinct
frequency times one profile matrix, so its cost grows with the distinct
frequencies, not with the terms.
"""

import math
from typing import Sequence

import numpy as np

from .grid import RectGrid
from .records import Frozen, Value

_PARITIES = ("cos", "sin")


class TrigTerm(Value):
    """One separable term: coeff * trig(4*pi*k*x/a) * its cosh profile."""

    def __init__(self, k: int, coeff: float, parity: str):
        if k < 1:
            raise ValueError(f"mode index must be a positive integer, got {k}")
        if parity not in _PARITIES:
            raise ValueError(f"parity must be one of {_PARITIES}, got {parity!r}")
        if not np.isfinite(coeff):
            raise ValueError("coefficient must be finite")
        self.__dict__.update(k=k, coeff=coeff, parity=parity)


class ReferenceSolution(Value):
    """A sum of trig terms on the rectangle [0, a] x [0, b]."""

    def __init__(self, terms: tuple, a: float, b: float):
        if len(terms) == 0:
            raise ValueError("a reference solution needs at least one term")
        self.__dict__.update(terms=terms, a=a, b=b)


# the smallest normal double, 2**-1022
_TINY = float(np.finfo(float).tiny)


class CauchyData(Frozen):
    """Dirichlet trace f and Neumann trace g sampled along the top boundary.

    The data must be finite, and zero or with a peak over f and g of at
    least the smallest normal double: subnormal data carry fewer digits than
    the march needs, and their states would fall below the normal range."""

    def __init__(self, f: np.ndarray, g: np.ndarray):
        if len(f) != len(g):
            raise ValueError("f and g must have equal length")
        # a nan or inf anywhere is the peak of its trace
        peak_f = float(np.abs(f).max(initial=0.0))
        peak_g = float(np.abs(g).max(initial=0.0))
        if not (math.isfinite(peak_f) and math.isfinite(peak_g)):
            raise ValueError("Cauchy data must be finite")
        peak = max(peak_f, peak_g)
        if 0.0 < peak < _TINY:
            raise ValueError(f"Cauchy data peak {peak:.3g} is subnormal: below "
                             f"the smallest normal double 2**-1022 = {_TINY:.3g}")
        self.__dict__.update(f=f, g=g)


def neumann_example(a: float, b: float) -> ReferenceSolution:
    """Single cosine term, zero-Neumann side boundaries."""
    return ReferenceSolution((TrigTerm(1, 1.0, "cos"),), a, b)


def dirichlet_example(a: float, b: float) -> ReferenceSolution:
    """Single sine term, zero-Dirichlet side boundaries."""
    return ReferenceSolution((TrigTerm(1, 1.0, "sin"),), a, b)


def combo_example(terms: Sequence[TrigTerm], a: float, b: float) -> ReferenceSolution:
    return ReferenceSolution(tuple(terms), a, b)


def _freq(k, a: float):
    """The frequency 4*pi*k/a of mode index k (a scalar or an array)."""
    return 4.0 * np.pi * k / a


def _sum_terms(sol: ReferenceSolution, x, y, wrt=None):
    """Sum of the terms at (x, y), or of their derivatives with respect to
    ``wrt`` ("x" or "y"): the derivative falls on the trig factor or on the
    cosh profile of each term."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros(np.broadcast(x, y).shape)
    for t in sol.terms:
        w = _freq(t.k, sol.a)
        s, v = w * (y - sol.b), w * x
        prof = w * np.sinh(s) if wrt == "y" else np.cosh(s)
        prof = prof / np.cosh(w * sol.b)
        if wrt == "x":
            trig = -w * np.sin(v) if t.parity == "cos" else w * np.cos(v)
        else:
            trig = np.cos(v) if t.parity == "cos" else np.sin(v)
        out = out + t.coeff * prof * trig
    return out if out.shape else float(out)


def evaluate(sol: ReferenceSolution, x, y):
    """Field value at (x, y); accepts scalars or broadcastable arrays."""
    return _sum_terms(sol, x, y)


def d_dx(sol: ReferenceSolution, x, y):
    """Exact x derivative, summed term by term: the pointwise check of the
    u_x half of ``sample_state_field``; the solver does not call it."""
    return _sum_terms(sol, x, y, "x")


def d_dy(sol: ReferenceSolution, x, y):
    """Exact y derivative; identically zero on the top boundary."""
    return _sum_terms(sol, x, y, "y")


def make_cauchy_data(sol: ReferenceSolution, grid: RectGrid) -> CauchyData:
    """Sample (f, g) on the top boundary at the grid's x nodes.

    The solution and the grid must share their extents exactly: samples at
    an a even 1e-6 off the solution's are not periodic on the grid, and the
    sweep, which wraps the data around, recovers a bottom trace 6 times
    further off at 257x5.  g is the analytic normal derivative, which
    vanishes identically for the supported families (the cosh profile is
    flat at y = b), so it is a +0.0 array made without the term loop: there
    every term's sinh factor is sinh(0) = +0.0, so the loop sums +0.0 at
    every node whenever f is finite.  A sum of terms that overflows is
    refused by ``CauchyData``'s finiteness check.
    """
    if (sol.a, sol.b) != (grid.a, grid.b):
        raise ValueError("solution and grid must share the domain extents")
    with np.errstate(over="ignore", invalid="ignore"):
        f = evaluate(sol, grid.x, grid.b)
    return CauchyData(f=np.asarray(f, dtype=float), g=np.zeros(grid.nx))


def bottom_trace(sol: ReferenceSolution, grid: RectGrid) -> np.ndarray:
    """True field values along the bottom boundary, one per x node."""
    return np.asarray(evaluate(sol, grid.x, 0.0), dtype=float)


def sample_state_field(sol: ReferenceSolution, grid: RectGrid) -> np.ndarray:
    """Stacked (u, du/dx) samples for every x node, shape (nx, 2*ny).

    One product of a trig table, cos(w x) and sin(w x) once per distinct
    frequency w, and a profile matrix: each table row's line is the cosh
    profile of its w times the summed [u | u_x] weights of the terms on that
    row, the derivative's -w (cos terms) or +w (sin terms) folded into the
    u_x weight.  Its last line is a consistent start line; also used in
    accuracy studies.
    """
    ks = sorted({t.k for t in sol.terms})
    w = _freq(np.array(ks, dtype=float), sol.a)
    # weights[trig, f, block]: trig 0 is cos(w_f x), 1 is sin(w_f x);
    # block 0 is u, 1 is u_x
    weights = np.zeros((2, len(ks), 2))
    for t in sol.terms:
        f = ks.index(t.k)
        if t.parity == "cos":       # (c cos wx)' = -w c sin wx
            weights[0, f, 0] += t.coeff
            weights[1, f, 1] -= w[f] * t.coeff
        else:                       # (c sin wx)' = w c cos wx
            weights[1, f, 0] += t.coeff
            weights[0, f, 1] += w[f] * t.coeff
    wx = np.multiply.outer(w, grid.x)
    rows = np.concatenate([np.cos(wx), np.sin(wx)])
    prof = np.cosh(np.multiply.outer(w, grid.y - sol.b)) / np.cosh(w * sol.b)[:, None]
    return rows.T @ (weights[..., None] * prof[:, None, :]).reshape(len(rows), -1)
