"""Dense real symmetric matrices as plain float arrays: input checks, spectra,
matrix functions and the Loewner order.

Every public entry that takes a matrix, here and in the modules above, takes
a square float array and checks it with _square_symmetric, which returns a
fresh symmetrized copy. Helpers named with a leading underscore take arrays
that are already checked. Matrix-function results are explicitly
re-symmetrized to stop drift in iterated updates.

_eigvalsh, which every module's batched spectra go through, splits an
(n, d, d) batch with d <= SPLIT_MAX_D = 64 and work n * d^3 >= 2 * PART_WORK
into contiguous parts, at most one per CPU (os.sched_getaffinity, else
os.cpu_count, counted once), and decomposes them at once on a thread pool made
at the first such call. Every row keeps the bits of a single call. Wider
batches, where OpenBLAS already runs each decomposition on every CPU (from
d = 65 on the build measured below), smaller batches, 2-D input and a single
CPU take the plain call, with no thread.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading

import numpy as np

from .errors import DimensionMismatch, DomainError, NoConvergence, NonFinite, NotSymmetric

ASYMMETRY_TOL = 1e-9
RECONSTRUCTION_RTOL = 1e-10
ORTHOGONALITY_TOL = 1e-10
LOEWNER_TOL = 1e-10
# The least work n * d^3 that each part of a split batched eigvalsh carries (see
# _split_eigvalsh); a batch splits once it holds two such parts. numpy's gufunc
# releases the GIL only for calls over more than 500 rows * d, which parts this
# large clear at every d <= SPLIT_MAX_D. Serial -> split wall time per call,
# median of 48, 2-CPU x86 VM, OpenBLAS 0.3.31: d = 64, n = 16 (two parts of 2^21)
# 2.79 -> 1.75 ms, but n = 14 (7-row parts, which keep the GIL) 2.42 -> 2.70 ms;
# d = 48, n = 24 2.64 -> 1.63 ms, but n = 20 2.09 -> 2.54 ms; d = 16, n = 256
# 3.06 -> 2.07 ms.
PART_WORK = 1 << 21
# The widest matrices a batch may have and still be split. Up to d = 64 LAPACK runs
# each decomposition on one thread, and the split puts the others to work; from
# d = 65 OpenBLAS runs each one on every CPU, and two at once only compete.
# Medians of 40 calls on blocks of 2^18 entries, 2-CPU x86 VM, OpenBLAS 0.3.31:
# serial CPU/wall time 1.02 at d = 64 but 2.03-2.05 at d = 65 to 72; split/serial
# wall time 0.59 at d = 64 (10.3 -> 6.1 ms), but 1.03 at d = 65, 1.02 at d = 68
# and 1.03 at d = 72, 96, 128 and 199.
SPLIT_MAX_D = 64


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
    """Eigenvalues (nondecreasing) of symmetric float64 matrices; batch-aware.

    An (n, d, d) batch of matrices no wider than SPLIT_MAX_D, where LAPACK runs
    each decomposition on one thread, and with at least two parts' work,
    n * d^3 >= 2 * PART_WORK, is split across the CPUs when there are two or
    more (see _split_eigvalsh). The bits are the same either way.
    """
    try:
        if (a.ndim == 3 and a.shape[2] <= SPLIT_MAX_D and len(a) * a.shape[2] ** 3 >= 2 * PART_WORK
                and _cores() > 1):
            return _split_eigvalsh(a)
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc


@functools.cache
def _cores() -> int:
    """The CPUs this process may run on, counted once."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _split_eigvalsh(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh of an (n, d, d) batch, in contiguous parts at once.

    There are as many parts as the CPUs, the matrices and the work in parts of
    PART_WORK allow. The gufunc decomposes each matrix alone, so every row has
    the bits the whole batch would give it. The calling thread takes the first
    part and the pool's threads the rest; every part is waited for, and a
    LinAlgError in any part is raised here. _eigvalsh calls it only for
    d <= SPLIT_MAX_D: from d = 65 OpenBLAS runs each decomposition on every
    CPU, and there the split read 1-3% slower on 2 CPUs.
    """
    n = len(a)
    parts = min(_cores(), n, n * a.shape[2] ** 3 // PART_WORK)
    cuts = [n * j // parts for j in range(parts + 1)]
    out = np.empty(a.shape[:2])

    def part(j):
        out[cuts[j]:cuts[j + 1]] = np.linalg.eigvalsh(a[cuts[j]:cuts[j + 1]])

    pool = _thread_pool()
    futures = [pool.submit(part, j) for j in range(1, parts)]
    try:
        part(0)
    finally:
        for future in futures:
            future.result()
    return out


def _thread_pool():
    """The threads of _split_eigvalsh, _cores() - 1 of them, made at the first call."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_cores() - 1, thread_name_prefix="psdsparse-eigvalsh")
        return _pool


def _forget_pool() -> None:
    """Drop the pool in a forked child, whose copy of it has no threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


_pool = None
_pool_lock = threading.Lock()
if hasattr(os, "register_at_fork"):   # not on Windows, which does not fork
    os.register_at_fork(after_in_child=_forget_pool)


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
    ||Q^T Q - Id||_F <= 1e-10 * d. Deterministic for identical input bits under
    a fixed BLAS build and thread count: from d = 65 OpenBLAS decomposes one
    matrix on several threads, and the last bits can move with their number.
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
