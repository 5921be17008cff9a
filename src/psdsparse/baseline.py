"""I.i.d. sampling baseline: draw indices from the weight distribution.

This is the probabilistic scheme the greedy selection derandomizes. Its
error guarantee holds in expectation only, so traces carry no bound column;
they exist for empirical comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .instance import Instance, _centered_rows, _check_counts, _rng, _seed_sequence
from .instance import center  # noqa: F401 -- a module attribute that bench/run.py traces
from .instance import _CHUNK_ENTRIES  # noqa: F401 -- the block cap, which bench/run.py reports
from .symmat import _eigvalsh, _one_blas_thread


@dataclass(frozen=True, eq=False)
class BaselineTrace:
    seed: int
    indices: tuple[int, ...]            # 1-based into the instance family
    errors: np.ndarray                  # errors[k-1] = ||Y_k|| / k


@_one_blas_thread()
def sample_run(inst: Instance, k_max: int, seed: int) -> BaselineTrace:
    """Sample k_max indices i.i.d. from the weights; record every prefix error.

    Uses the counter-based Philox generator with inverse-CDF lookup, so a
    given (instance, k_max, seed) reproduces bit-identically across
    platforms.
    """
    _check_counts(k_max=k_max)
    rng = _rng(seed)
    cdf = np.cumsum(inst.weights)
    cdf[-1] = 1.0  # close the simplex gap so u < 1 always lands in range
    try:
        draws = np.searchsorted(cdf, rng.random(k_max), side="right")
        errors = np.empty(k_max)
    except (MemoryError, ValueError) as exc:  # refused at once; ValueError past numpy's size limit
        raise DomainError(f"k_max={k_max} is too large: {exc}") from exc

    y = np.zeros((inst.d, inst.d))
    start = 0
    for _, block in _centered_rows(inst, draws):
        # Y_k = Y_{k-1} + X_{i_k} in order, so the bits do not depend on the block size;
        # exactly symmetric: every X_i is, and sums keep it. Summed row by row in place,
        # in np.cumsum's order and so with its bits: 0.16 against cumsum's 1.43 ms per
        # (64, 64, 64) block, 0.86 against 1.42 ms per (1024, 16, 16) block
        block[0] += y
        for j in range(1, len(block)):
            block[j] += block[j - 1]
        eigs = _eigvalsh(block)
        stop = start + len(block)
        errors[start:stop] = np.max(np.abs(eigs), axis=-1) / np.arange(start + 1, stop + 1)
        y, start = block[-1].copy(), stop
        del block   # freed before the next block is formed

    errors.setflags(write=False)
    return BaselineTrace(seed=int(seed), indices=tuple(int(i) + 1 for i in draws), errors=errors)


def child_seed(root: int, trial: int) -> int:
    """Derived per-trial seed: deterministic, collision-resistant in (root, trial)."""
    return int(_seed_sequence(root, trial).generate_state(1, np.uint64)[0])
