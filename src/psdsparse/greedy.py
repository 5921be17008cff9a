"""Greedy equal-weight sparsification with per-prefix error guarantees.

Given a decomposition of the identity, repeatedly pick the family member
whose addition minimizes the symmetric exponential potential of the running
centered sum. Two step-size schedules are provided: a per-step decaying one
whose prefix errors obey a closed-form bound at every k, and a constant one
tuned to a known sparsity target N.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ._threads import thread_count
from .errors import (
    AuditFailed,
    BoundViolation,
    DomainError,
    EmptyFamily,
    PotentialGrowthViolation,
)
from .instance import CenteredFamily, Instance, center
from .potential import log_potential_from_eigenvalues, psi_value
from .symmat import SymMatrix, _eigvalsh, _symmetrize

TIE_TOL = 1e-12
STEP_TOL = 1e-9
BOUND_RTOL = 1e-9
AUDIT_INTERVAL = 64
AUDIT_TOL = 1e-9

REGIME_COARSE = "coarse"
REGIME_FINE = "fine"


@dataclass(frozen=True)
class Schedule:
    """Step sizes delta_k for a run; fixed_n = None selects the decaying schedule.

    With L = ln(2d) and M the family norm bound, the decaying schedule uses
    delta_k = 1/M below the crossover step fine_start = floor(M*L) + 1 and
    sqrt(L / (M*k)) from there on; the fixed-N schedule holds
    min(1/M, sqrt(L / (M*N))) throughout.
    """

    norm_bound: float
    dim: int
    fixed_n: int | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError(f"dimension must be positive, got {self.dim}")
        if not self.norm_bound >= 1.0 - 1e-10:
            raise DomainError(f"norm bound must be >= 1, got {self.norm_bound!r}")
        if self.fixed_n is not None and self.fixed_n < 1:
            raise DomainError(f"fixed N must be positive, got {self.fixed_n}")

    @property
    def log_2d(self) -> float:
        return math.log(2 * self.dim)

    @property
    def fine_start(self) -> int:
        """First step of the decaying schedule's square-root phase."""
        return int(math.floor(self.norm_bound * self.log_2d)) + 1

    def delta(self, k: int) -> float:
        if k < 1:
            raise DomainError(f"step index must be >= 1, got {k}")
        m, l = self.norm_bound, self.log_2d
        if self.fixed_n is not None:
            return min(1.0 / m, math.sqrt(l / (m * self.fixed_n)))
        if k < self.fine_start:
            return 1.0 / m
        return math.sqrt(l / (m * k))

    def bound(self, k: int) -> float:
        """Guaranteed cap on the prefix error after k steps of this schedule.

        Decaying schedule: the closed-form piecewise bound. Constant
        schedule: L/(k*delta) + M*delta, the potential-argument bound that
        holds for every prefix and collapses to the closed form at k = N.
        """
        if self.fixed_n is None:
            return bound_all_steps(k, self.norm_bound, self.dim)
        if k < 1:
            raise DomainError(f"step index must be >= 1, got {k}")
        delta = self.delta(k)
        return self.log_2d / (k * delta) + self.norm_bound * delta

    def regime(self, k: int) -> str:
        return REGIME_COARSE if k <= self.norm_bound * self.log_2d else REGIME_FINE


def bound_all_steps(k: int, norm_bound: float, d: int) -> float:
    """Prefix-error bound of the decaying schedule: 2ML/k up to k = ML, then 3*sqrt(ML/k)."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if norm_bound < 1 or d < 1:
        raise DomainError("need norm bound >= 1 and d >= 1")
    ml = norm_bound * math.log(2 * d)
    if k <= ml:
        return 2.0 * ml / k
    return 3.0 * math.sqrt(ml / k)


def bound_fixed_n(n: int, norm_bound: float, d: int) -> float:
    """Final-error bound of the constant schedule: 2*sqrt(ML/N) for N >= ML, else 2ML/N."""
    if n < 1:
        raise DomainError(f"N must be >= 1, got {n}")
    if norm_bound < 1 or d < 1:
        raise DomainError("need norm bound >= 1 and d >= 1")
    ml = norm_bound * math.log(2 * d)
    if n >= ml:
        return 2.0 * math.sqrt(ml / n)
    return 2.0 * ml / n


def required_n(epsilon: float, norm_bound: float, d: int) -> int:
    """Smallest guaranteed sparsity for target error epsilon: ceil(9*M*ln(2d)/eps^2)."""
    if not 0 < epsilon <= 1:
        raise DomainError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    if norm_bound < 1 or d < 1:
        raise DomainError("need norm bound >= 1 and d >= 1")
    return int(math.ceil(9.0 * norm_bound * math.log(2 * d) / (epsilon * epsilon)))


def default_k_max(norm_bound: float, d: int) -> int:
    """Long enough to exercise both bound regimes."""
    return max(4 * int(math.ceil(norm_bound * math.log(2 * d))), 64)


@dataclass(frozen=True)
class StepRecord:
    k: int
    delta: float
    prev_log_potential: float   # log Phi_{delta_k}(Y_{k-1})
    log_potential: float        # log Phi_{delta_k}(Y_k)
    error: float                # ||Y_k|| / k
    bound: float
    regime: str


@dataclass(frozen=True, eq=False)
class GreedyTrace:
    schedule: Schedule
    indices: tuple[int, ...]    # 1-based into the instance family
    records: tuple[StepRecord, ...]
    running_sum: SymMatrix


@contextmanager
def _scoring_pool(n_threads: int, m: int):
    """One worker pool for a caller's whole lifetime, or None when scoring runs serially."""
    if n_threads <= 1 or m < 2 * n_threads:
        yield None
    else:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            yield pool


def _candidate_scores(y, xs, delta, buf, pool=None, n_chunks=1):
    """Log-potential of y + x for every family member, plus the eigenvalues.

    The candidates are formed in buf, an (m, d, d) scratch array. With a
    pool, the eigendecompositions run on n_chunks row blocks of buf; per-row
    results are independent of the chunking, so the scores are identical for
    any thread count.
    """
    np.add(xs, y, out=buf)
    if pool is None:
        eigs = _eigvalsh(buf)
    else:
        eigs = np.concatenate(list(pool.map(_eigvalsh, np.array_split(buf, n_chunks))))
    return log_potential_from_eigenvalues(eigs, delta), eigs


def _pick(scores: np.ndarray) -> int:
    """Smallest index whose score is within TIE_TOL of the minimum."""
    return int(np.argmax(scores <= np.min(scores) + TIE_TOL))


def select_next(y: SymMatrix, delta: float, fam: CenteredFamily) -> tuple[int, float]:
    """Greedy choice: 1-based index minimizing log Phi_delta(Y + X_i), and its value.

    Ties (within 1e-12 in log scale) resolve to the smallest index.
    """
    if delta <= 0:
        raise DomainError(f"delta must be positive, got {delta!r}")
    if fam.m < 1:
        raise EmptyFamily("family has no members")
    xs = fam.stack()
    n_threads = thread_count()
    with _scoring_pool(n_threads, fam.m) as pool:
        scores, _ = _candidate_scores(y.entries, xs, delta, np.empty(xs.shape), pool, n_threads)
    best = _pick(scores)
    return best + 1, float(scores[best])


def run(
    inst: Instance,
    schedule: Schedule,
    k_max: int | None = None,
    threads: int | None = None,
) -> GreedyTrace:
    """Execute the greedy selection for k_max steps with live guarantee checks.

    Each step verifies the potential-growth inequality
    log Phi(Y_k) <= M * psi_M(delta_k) + log Phi(Y_{k-1}) and the prefix
    error bound; violations raise, since the guarantees are unconditional
    and a failure means a bug. The running sum is re-verified against a
    fresh summation every 64 steps.
    """
    if schedule.fixed_n is not None:
        if k_max is None:
            k_max = schedule.fixed_n
        elif k_max != schedule.fixed_n:
            raise DomainError(
                f"constant schedule is tuned to N={schedule.fixed_n}, cannot run k_max={k_max}"
            )
    elif k_max is None:
        k_max = default_k_max(schedule.norm_bound, schedule.dim)
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")
    if schedule.dim != inst.d:
        raise DomainError(f"schedule is for d={schedule.dim}, instance has d={inst.d}")
    if schedule.norm_bound < inst.norm_bound - 1e-12 * (1.0 + inst.norm_bound):
        raise DomainError(
            f"schedule norm bound {schedule.norm_bound!r} is below the "
            f"instance's {inst.norm_bound!r}: guarantees would not apply"
        )

    n_threads = thread_count(threads)
    fam = center(inst)
    xs = fam.stack()
    m_bound = schedule.norm_bound

    y = np.zeros((inst.d, inst.d))
    buf = np.empty(xs.shape)
    counts = np.zeros(fam.m)
    prev_eigs = np.zeros(inst.d)
    delta = log_phi = None
    indices: list[int] = []
    records: list[StepRecord] = []

    with _scoring_pool(n_threads, fam.m) as pool:
        for k in range(1, k_max + 1):
            prev_delta, delta = delta, schedule.delta(k)
            if delta == prev_delta:
                # the last step's chosen score is log Phi_delta(Y_{k-1}), from the same eigenvalues
                prev_log_phi = log_phi
            else:
                prev_log_phi = float(log_potential_from_eigenvalues(prev_eigs, delta))
            scores, cand_eigs = _candidate_scores(y, xs, delta, buf, pool, n_threads)
            best = _pick(scores)
            log_phi = float(scores[best])

            step_cap = m_bound * psi_value(m_bound, delta) + prev_log_phi
            if log_phi > step_cap + STEP_TOL:
                raise PotentialGrowthViolation(
                    k, f"log-potential {log_phi!r} exceeds one-step cap {step_cap!r}"
                )

            indices.append(best + 1)
            counts[best] += 1
            y = _symmetrize(buf[best])
            prev_eigs = cand_eigs[best]
            error = float(np.max(np.abs(prev_eigs))) / k
            cap = schedule.bound(k)
            if error > cap * (1.0 + BOUND_RTOL):
                raise BoundViolation(k, f"prefix error {error!r} exceeds bound {cap!r}")
            records.append(
                StepRecord(
                    k=k,
                    delta=delta,
                    prev_log_potential=prev_log_phi,
                    log_potential=log_phi,
                    error=error,
                    bound=cap,
                    regime=schedule.regime(k),
                )
            )

            if k % AUDIT_INTERVAL == 0:
                # O(m d^2) from the per-member counts, however long the run
                resummed = _symmetrize((counts @ xs.reshape(fam.m, -1)).reshape(y.shape))
                drift = float(np.linalg.norm(resummed - y))
                if drift > AUDIT_TOL * k:
                    raise AuditFailed(f"step {k}: running sum drifted {drift:.3e} from fresh sum")

    return GreedyTrace(
        schedule=schedule,
        indices=tuple(indices),
        records=tuple(records),
        running_sum=SymMatrix(y),
    )
