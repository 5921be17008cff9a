"""The symmetric matrix-exponential potential and its scalar growth function.

The potential of a symmetric Y at parameter delta > 0 is
tr e^{delta Y} + tr e^{-delta Y}; it is carried as a log everywhere because
delta * ||Y|| can exceed 700 in coarse-schedule runs, overflowing direct
exponentials. The scalar function psi(m1, delta) = (e^{delta m1} - 1
- delta m1) / m1^2 is the normalized quadratic remainder of the exponential
and governs the per-step growth exponent of greedy runs.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DimensionMismatch, DomainError, Overflow
from .symmat import _eigvalsh, _square_symmetric

# Below this value of u = delta*m1 the closed form cancels catastrophically;
# a four-term series has relative error ~u^3/60 < 2e-14 there.
SERIES_CUTOFF = 1e-4
EXP_ARG_MAX = 700.0


def _check_delta(delta: float) -> None:
    """Raise DomainError unless delta is finite and positive (NaN is neither)."""
    if not 0 < delta < math.inf:
        raise DomainError(f"delta must be finite and positive, got {delta!r}")


def psi_value(m1: float, delta: float) -> float:
    """Normalized quadratic remainder psi(m1, delta) = (e^{delta m1} - 1 - delta m1) / m1^2."""
    if not (0 < m1 < math.inf and delta >= 0):
        raise DomainError(f"need a finite m1 > 0 and delta >= 0, got m1={m1!r}, delta={delta!r}")
    u = delta * m1
    if u > EXP_ARG_MAX:
        raise Overflow(f"delta*m1 = {u:.4g} exceeds {EXP_ARG_MAX:g}")
    if u < SERIES_CUTOFF:
        remainder = 0.5 * u * u * (1.0 + u / 3.0 + u * u / 12.0 + u * u * u / 60.0)
        value = remainder / (m1 * m1)
        if delta > 0 and min(remainder, value) < sys.float_info.min:
            # Below the normal range the quotient loses its relative precision
            # and can round under delta^2/2, or to 0. Return delta^2/2 (the
            # series' value at such u) rounded up: psi only loosens the cap.
            value = math.nextafter(0.5 * delta * delta, math.inf)
        return value
    return (math.expm1(u) - u) / (m1 * m1)


def logsumexp(a, b=None) -> np.ndarray | float:
    """log(sum_j b_j e^{a_j}) over the last axis of a; b = None weighs every entry 1.

    Weights must be nonnegative, with at least one positive per row. The
    exponents are shifted by the largest a_j whose weight is positive, so
    every exponential lies in [0, 1]: nothing overflows, and a zero-weight
    entry drops out however large its exponent. Each row of a stacked call
    equals the call on that row alone, bit for bit.
    """
    a = np.asarray(a, dtype=np.float64)
    if b is not None:
        a = np.where(np.asarray(b) > 0, a, -np.inf)
    shift = a.max(axis=-1, keepdims=True)   # np.max's reduction, without its wrapper
    terms = np.exp(a - shift)
    if b is not None:
        terms *= b
    out = np.log(terms.sum(axis=-1)) + shift[..., 0]
    return float(out) if out.ndim == 0 else out


def log_potential_from_eigenvalues(eigenvalues: np.ndarray, delta: float) -> np.ndarray | float:
    """Log potential from a spectrum, via log-sum-exp over the 2d exponents {+-delta*mu_j}.

    Accepts a stacked (..., d) array of spectra and returns one value per row.
    Exact to relative ~1e-15 even when delta * max|mu| exceeds 700.
    """
    _check_delta(delta)
    z = delta * np.asarray(eigenvalues, dtype=np.float64)
    if z.ndim == 0 or z.shape[-1] == 0:
        raise DimensionMismatch(f"need a spectrum of shape (..., d) with d >= 1, got shape {z.shape}")
    return logsumexp(np.concatenate([z, -z], axis=-1))


def log_potential(y: np.ndarray, delta: float) -> float:
    """log of the symmetric exponential potential of a symmetric matrix Y at parameter delta > 0."""
    return log_potential_from_eigenvalues(_eigvalsh(_square_symmetric(y, "Y")), delta)


def scalar_exp_bound_gap(x: float, delta: float, m1: float) -> float:
    """Slack of the quadratic upper bound on the exponential at one point.

    Returns (1 + delta*x + psi(m1, delta)*x^2) - e^{delta*x}, which is
    nonnegative (up to ~1e-12 * e^{delta*m1} rounding) for every x <= m1.
    """
    if not -math.inf < x <= m1:
        raise DomainError(f"x must be finite and at most m1 = {m1!r}, got {x!r}")
    _check_delta(delta)
    p = psi_value(m1, delta)
    return (1.0 + delta * x + p * x * x) - math.exp(delta * x)
