"""Dense real symmetric matrices: spectra, matrix functions, norms, Loewner order.

All values are immutable after construction and safe to share across threads;
every operation here is a pure function of its inputs. Matrix-function results
are explicitly re-symmetrized to stop drift in iterated updates.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, NoConvergence, NonFinite

RECONSTRUCTION_RTOL = 1e-10
ORTHOGONALITY_TOL = 1e-10
LOEWNER_TOL = 1e-10


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A^T)/2, batch-aware on the last two axes."""
    s = a + a.swapaxes(-1, -2)
    s *= 0.5   # in place: one temporary fewer, same bits
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


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """A dense d x d real symmetric matrix.

    Entries are symmetrized on construction, checked finite, and frozen
    (the underlying array is made read-only).
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise DimensionMismatch("dimension must be positive")
        if not np.all(np.isfinite(a)):
            raise NonFinite("matrix entries contain NaN or Inf")
        a = _symmetrize(a)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def identity(cls, d: int) -> "SymMatrix":
        return cls(np.eye(d))

    @classmethod
    def zeros(cls, d: int) -> "SymMatrix":
        return cls(np.zeros((d, d)))


def _check_same_dim(a: SymMatrix, b: SymMatrix) -> None:
    if a.d != b.d:
        raise DimensionMismatch(f"dimensions differ: {a.d} vs {b.d}")


def eigh(s: SymMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Full spectral decomposition (mu, Q) with a numerical certificate.

    mu is nondecreasing and column j of Q pairs with mu[j]; both are
    read-only. With S the input they satisfy
    ||Q diag(mu) Q^T - S||_F <= 1e-10 * (1 + ||S||_F) and
    ||Q^T Q - Id||_F <= 1e-10 * d. Deterministic for identical input bits.
    """
    a = s.entries
    if not np.all(np.isfinite(a)):
        raise NonFinite("matrix entries contain NaN or Inf")
    vals, vecs = _eigh(a)
    recon = (vecs * vals) @ vecs.T
    fro = np.linalg.norm(a)
    if np.linalg.norm(recon - a) > RECONSTRUCTION_RTOL * (1.0 + fro):
        raise NoConvergence("spectral reconstruction certificate failed")
    d = a.shape[0]
    if np.linalg.norm(vecs.T @ vecs - np.eye(d)) > ORTHOGONALITY_TOL * d:
        raise NoConvergence("eigenvector orthogonality certificate failed")
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return vals, vecs


def op_norm(s: SymMatrix) -> float:
    """Operator norm: the largest eigenvalue magnitude."""
    vals = _eigvalsh(s.entries)
    return float(np.max(np.abs(vals)))


def loewner_leq(a: SymMatrix, b: SymMatrix, tol: float = LOEWNER_TOL) -> bool:
    """Whether A precedes B in the Loewner order, up to a relative tolerance.

    True iff lambda_min(B - A) >= -tol * (1 + ||B - A||).
    """
    _check_same_dim(a, b)
    if tol < 0:
        raise DomainError("tolerance must be nonnegative")
    diff = b.entries - a.entries
    vals = _eigvalsh(diff)
    lo = float(vals[0])
    norm = float(np.max(np.abs(vals))) if vals.size else 0.0
    return lo >= -tol * (1.0 + norm)


def sym_apply(s: SymMatrix, f) -> SymMatrix:
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
    result = (q * mapped) @ q.T
    return SymMatrix(result)
