"""I.i.d. sampling baseline: draw indices from the weight distribution.

This is the probabilistic scheme the greedy selection derandomizes. Its
error guarantee holds in expectation only, so traces carry no bound column;
they exist for empirical comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .instance import Instance, _rng, _seed_sequence, center
from .symmat import _eigvalsh

# rows of (k, d, d) eigendecomposed per chunk; caps peak memory near 32 MB
_CHUNK_ENTRIES = 1 << 22


@dataclass(frozen=True, eq=False)
class BaselineTrace:
    seed: int
    indices: tuple[int, ...]            # 1-based into the instance family
    errors: np.ndarray                  # errors[k-1] = ||Y_k|| / k


def sample_run(inst: Instance, k_max: int, seed: int) -> BaselineTrace:
    """Sample k_max indices i.i.d. from the weights; record every prefix error.

    Uses the counter-based Philox generator with inverse-CDF lookup, so a
    given (instance, k_max, seed) reproduces bit-identically across
    platforms.
    """
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")
    rng = _rng(seed)
    cdf = np.cumsum(inst.weights)
    cdf[-1] = 1.0  # close the simplex gap so u < 1 always lands in range
    try:
        draws = np.searchsorted(cdf, rng.random(k_max), side="right")
        errors = np.empty(k_max)
    except (MemoryError, ValueError) as exc:  # refused at once; ValueError past numpy's size limit
        raise DomainError(f"k_max={k_max} is too large: {exc}") from exc

    xs = center(inst).xs
    chunk = max(1, _CHUNK_ENTRIES // (inst.d * inst.d))
    y = np.zeros((inst.d, inst.d))
    for start in range(0, k_max, chunk):
        block = xs[draws[start:start + chunk]]
        np.cumsum(block, axis=0, out=block)  # in place: one chunk-sized array per chunk
        block += y  # exactly symmetric: every X_i is, and sums keep it
        eigs = _eigvalsh(block)
        ks = np.arange(start + 1, start + 1 + block.shape[0])
        errors[start:start + block.shape[0]] = np.max(np.abs(eigs), axis=-1) / ks
        y = block[-1]

    errors.setflags(write=False)
    return BaselineTrace(seed=int(seed), indices=tuple(int(i) + 1 for i in draws), errors=errors)


def child_seed(root: int, trial: int) -> int:
    """Derived per-trial seed: deterministic, collision-resistant in (root, trial)."""
    return int(_seed_sequence(root, trial).generate_state(1, np.uint64)[0])
