"""Dense real symmetric matrices as plain float arrays: input checks, spectra,
matrix functions and the Loewner order.

Every public entry that takes a matrix, here and in the modules above, takes
a square float array and checks it with _square_symmetric, which returns a
fresh symmetrized copy. Helpers named with a leading underscore take arrays
that are already checked. Matrix-function results are explicitly
re-symmetrized to stop drift in iterated updates.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import DimensionMismatch, DomainError, NoConvergence, NonFinite, NotSymmetric

ASYMMETRY_TOL = 1e-9
RECONSTRUCTION_RTOL = 1e-10
ORTHOGONALITY_TOL = 1e-10
LOEWNER_TOL = 1e-10


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A^T)/2, batch-aware on the last two axes."""
    s = a + a.swapaxes(-1, -2)
    s *= 0.5   # in place: one temporary fewer, same bits
    return s


def _square_symmetric(a, label: str, d: int | None = None) -> np.ndarray:
    """A fresh symmetrized float64 copy of a, which must be a finite, symmetric d x d matrix.

    Checks in order: a is 2-D, square and nonempty, and d x d when d is given
    (else DimensionMismatch); its entries, and so its symmetrized copy, are finite,
    as a + a^T may overflow (else NonFinite); and max |a - a^T| <= ASYMMETRY_TOL
    (else NotSymmetric). label names a in the errors.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0 or d not in (None, a.shape[0]):
        want = "a nonempty square matrix" if d is None else f"{d}x{d}"
        raise DimensionMismatch(f"need {want}, {label} is {'x'.join(map(str, a.shape)) or 'a scalar'}")
    with np.errstate(over="ignore", invalid="ignore"):   # NaN, Inf and overflow are reported below
        s = _symmetrize(a)
        asymmetry = float(np.max(np.abs(a - a.T)))
    # a NaN or Inf entry of a leaves one in s
    if not np.all(np.isfinite(s)):
        what = "overflows when symmetrized" if np.all(np.isfinite(a)) else "entries contain NaN or Inf"
        raise NonFinite(f"{label} {what}")
    if asymmetry > ASYMMETRY_TOL:
        raise NotSymmetric(label, asymmetry)
    return s


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """Eigenvalues (nondecreasing) of symmetric matrices; batch-aware."""
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (nondecreasing) and orthonormal eigenvectors (columns); batch-aware."""
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc


def eigh(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full spectral decomposition (mu, Q) of a symmetric matrix, with a numerical certificate.

    mu is nondecreasing and column j of Q pairs with mu[j]; both are
    read-only. With S the input they satisfy
    ||Q diag(mu) Q^T - S||_F <= 1e-10 * (1 + ||S||_F) and
    ||Q^T Q - Id||_F <= 1e-10 * d. Deterministic for identical input bits.
    """
    a = _square_symmetric(s, "S")
    vals, vecs = _eigh(a)
    recon = (vecs * vals) @ vecs.T
    fro = np.linalg.norm(a)
    if not np.linalg.norm(recon - a) <= RECONSTRUCTION_RTOL * (1.0 + fro):
        raise NoConvergence("spectral reconstruction certificate failed")
    d = a.shape[0]
    if not np.linalg.norm(vecs.T @ vecs - np.eye(d)) <= ORTHOGONALITY_TOL * d:
        raise NoConvergence("eigenvector orthogonality certificate failed")
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return vals, vecs


def loewner_leq(a: np.ndarray, b: np.ndarray, tol: float = LOEWNER_TOL) -> bool:
    """Whether A precedes B in the Loewner order, up to a relative tolerance.

    True iff lambda_min(B - A) >= -tol * (1 + ||B - A||); tol must be >= 0.
    """
    a = _square_symmetric(a, "A")
    b = _square_symmetric(b, "B", len(a))
    if not tol >= 0:  # also rejects NaN
        raise DomainError(f"tolerance must be nonnegative, got {tol!r}")
    vals = _eigvalsh(b - a)
    return float(vals[0]) >= -tol * (1.0 + float(np.max(np.abs(vals))))


def sym_apply(s: np.ndarray, f) -> np.ndarray:
    """Apply a scalar function to the spectrum: Q diag(f(mu)) Q^T, re-symmetrized.

    ``f`` must be defined on every eigenvalue of ``s``; a non-finite result
    raises NonFinite (e.g. exp of a matrix with huge norm). A scalar ``f``
    (math.log) is applied per eigenvalue; a ValueError or ArithmeticError
    there counts as NaN, so it raises NonFinite too.
    """
    mu, q = eigh(s)
    # finiteness is checked below, so numpy's own NaN/overflow warnings are noise
    with np.errstate(all="ignore"):
        try:
            mapped = np.asarray(f(mu), dtype=np.float64)
            if mapped.shape != mu.shape:
                raise TypeError
        except (TypeError, ValueError):
            mapped = np.full(mu.shape, np.nan)
            for j, x in enumerate(mu):
                with contextlib.suppress(ValueError, ArithmeticError):
                    mapped[j] = f(x)
    if not np.all(np.isfinite(mapped)):
        raise NonFinite("scalar function produced NaN or Inf on the spectrum")
    return _symmetrize((q * mapped) @ q.T)
