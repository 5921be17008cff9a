"""Greedy equal-weight sparsification with per-prefix error guarantees.

Given a decomposition of the identity, repeatedly pick the family member
whose addition minimizes the symmetric exponential potential of the running
centered sum. Two step-size schedules are provided: a per-step decaying one
whose prefix errors obey a closed-form bound at every k, and a constant one
tuned to a known sparsity target N.

Each step scores exactly only the members that could still be picked. One
eigendecomposition of the running sum Y gives, for every member, an upper
bound on log Phi_delta(Y + X_i) from e^{delta X} <= I + delta X + psi X^2 with
Golden-Thompson, and a lower bound: the larger of a first-order one, from the
convexity of log Phi, and a second-order one, from a floor on the curvature
of Phi along Y + tX_i that needs only ||X_i||_F and the spectral bounds
X_i <= m_hi, -X_i <= m_lo (see _bounds). A member whose lower bound exceeds
the smallest upper bound by more than the tie tolerance cannot win and is
skipped; the rest are formed as candidates block by block and scored with a
batched eigvalsh per block. The picks and recorded potentials are those of
scoring every member, bit for bit. Every step checks that its smallest exact
score meets the smallest upper bound and that no exact score falls below its
member's lower bound.

The bounds need, for every member, <F, X_i>, <F, X_i^2> and ||X_i||_F^2 for
two matrices F diagonal in Y's eigenbasis. A dense family, or a factor
family whose dense rows fit in one block, reads them off X_i and X_i^2 held
as (m, d, d) arrays. A larger factor family A_i = V_i V_i^T reads them off
its factors: with
G_i = V_i^T V_i, <F, X_i> = tr(V_i^T F V_i) - tr F,
<F, X_i^2> = tr(V_i^T F V_i (G_i - 2 Id)) + tr F and
||X_i||_F^2 = ||G_i||_F^2 - 2 tr G_i + d, so a step holds O(m d r) plus one
block of candidate rows, never the dense family.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    AuditFailed,
    BoundViolation,
    DimensionMismatch,
    DomainError,
    EmptyFamily,
    NonFinite,
    PotentialGrowthViolation,
    PruningCertificateFailed,
)
from .instance import (NORM_FLOOR_TOL, CenteredFamily, Instance, _centered_rows, _fits_one_block,
                       _row_parts, center)
from .potential import _check_delta, log_potential_from_eigenvalues, psi_value
from .symmat import SymMatrix, _eigh, _eigvalsh, _symmetrize

TIE_TOL = 1e-12
PRUNE_RTOL = 1e-9   # rounding margin on the candidate bounds, relative to 1 + |log Phi(Y)|
STEP_TOL = 1e-9
BOUND_RTOL = 1e-9
AUDIT_INTERVAL = 64
AUDIT_TOL = 1e-9

REGIME_COARSE = "coarse"
REGIME_FINE = "fine"


def _check_family_constants(norm_bound: float, d: int) -> float:
    """M*ln(2d); reject d < 1, M below 1 (as validation rounds it) or an M*ln(2d) not finite."""
    ml = norm_bound * math.log(2 * d) if d >= 1 else math.nan
    if not (norm_bound >= 1.0 - NORM_FLOOR_TOL and math.isfinite(ml)):
        raise DomainError(f"need M >= 1, d >= 1 and a finite M*ln(2d), got M={norm_bound!r}, d={d}")
    return ml


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
        _check_family_constants(self.norm_bound, self.dim)
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
    ml = _check_family_constants(norm_bound, d)
    if k <= ml:
        return 2.0 * ml / k
    return 3.0 * math.sqrt(ml / k)


def bound_fixed_n(n: int, norm_bound: float, d: int) -> float:
    """Final-error bound of the constant schedule: 2*sqrt(ML/N) for N >= ML, else 2ML/N."""
    if n < 1:
        raise DomainError(f"N must be >= 1, got {n}")
    ml = _check_family_constants(norm_bound, d)
    if n >= ml:
        return 2.0 * math.sqrt(ml / n)
    return 2.0 * ml / n


def required_n(epsilon: float, norm_bound: float, d: int) -> int:
    """Smallest guaranteed sparsity for target error epsilon: ceil(9*M*ln(2d)/eps^2)."""
    if not 0 < epsilon <= 1:
        raise DomainError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    ml = _check_family_constants(norm_bound, d)
    n = 9.0 * ml / (epsilon * epsilon) if epsilon * epsilon > 0 else math.inf
    if not math.isfinite(n):
        raise DomainError(f"epsilon={epsilon!r} needs an N = 9*M*ln(2d)/eps^2 beyond the float range")
    return int(math.ceil(n))


def default_k_max(norm_bound: float, d: int) -> int:
    """Long enough to exercise both bound regimes."""
    return max(4 * int(math.ceil(_check_family_constants(norm_bound, d))), 64)


@dataclass(frozen=True)
class StepRecord:
    """One greedy step; ``evaluated`` counts the members scored exactly (at most m).

    ``evaluated`` depends on the instance and the schedule, and at rounding
    level on whether the bounds came from dense rows or from factors (see
    _bounds); the members it leaves out were proven unable to win. The picks
    and potentials do not depend on either.
    """

    k: int
    delta: float
    prev_log_potential: float   # log Phi_{delta_k}(Y_{k-1})
    log_potential: float        # log Phi_{delta_k}(Y_k)
    error: float                # ||Y_k|| / k
    bound: float
    regime: str
    evaluated: int              # candidates whose eigenvalues were computed


@dataclass(frozen=True, eq=False)
class GreedyTrace:
    """A finished run: the 1-based picks, one StepRecord per step, and the final Y."""

    schedule: Schedule
    indices: tuple[int, ...]    # 1-based into the instance family
    records: tuple[StepRecord, ...]
    running_sum: SymMatrix


def _candidate_scores(y, xs, delta):
    """Log-potential of y + x for every row x of xs, plus the eigenvalues.

    The candidates are formed in place: xs must be writable, and is left
    holding y + x.
    """
    xs += y
    eigs = _eigvalsh(xs)
    return log_potential_from_eigenvalues(eigs, delta), eigs


def _pick(scores: np.ndarray) -> int:
    """Smallest index whose score is within TIE_TOL of the minimum."""
    return int(np.argmax(scores <= np.min(scores) + TIE_TOL))


class _Stack(NamedTuple):
    """A centered family as _step reads it, with the spectral bounds X_i <= m_hi and -X_i <= m_lo.

    terms(q, w) gives <F0, X_i> and <F1, X_i^2> for every member, where
    Fj = Q diag(w[j]) Q^T; rows(idx) yields (part, X_i for i in part) as fresh
    writable blocks over consecutive parts of idx.
    """

    terms: Callable
    rows: Callable
    norms: np.ndarray     # ||X_i||_F^2 = tr X_i^2
    m_hi: float
    m_lo: float


def _stack(xs, m_hi, m_lo) -> _Stack:
    """A dense (m, d, d) centered family, with its squares X_i^2 formed once."""
    m, d = len(xs), xs.shape[1]
    squares = xs @ xs
    flat, flat_squares = xs.reshape(m, -1), squares.reshape(m, -1)

    def terms(q, w):
        f = (q * w[:, np.newaxis, :]) @ q.T
        return flat @ f[0].reshape(-1), flat_squares @ f[1].reshape(-1)

    def rows(idx):
        return ((part, xs[part]) for part in _row_parts(idx, d))

    return _Stack(terms, rows, np.trace(squares, axis1=1, axis2=2), m_hi, m_lo)


def _factor_stack(inst: Instance, m_hi, m_lo) -> _Stack:
    """A factor family, A_i = V_i V_i^T, read through its (m, d, r) factors only.

    With G_i = V_i^T V_i and X_i = V_i V_i^T - Id:
    <F, X_i> = tr(V_i^T F V_i) - tr F, <F, X_i^2> = tr(V_i^T F V_i (G_i - 2 Id)) + tr F
    and ||X_i||_F^2 = ||G_i||_F^2 - 2 tr G_i + d. With F = Q diag(w) Q^T and
    Z = Q^T [V_1 ... V_m], tr(V_i^T F V_i H) = sum_j w_j (Z_i H)_j . (Z_i)_j, so a
    step costs one (d, d) x (d, 2mr) product and holds O(m d r).
    """
    v = inst.factors
    m, d, r = v.shape
    gram = v.swapaxes(1, 2) @ v
    vh = v @ (gram - 2.0 * np.eye(r))   # V_i H_i with H_i = G_i - 2 Id
    # columns [V_1 ... V_m | V_1 H_1 ... V_m H_m]
    cols = np.concatenate((v, vh)).transpose(1, 0, 2).reshape(d, 2 * m * r)
    norms = np.sum(gram * gram, axis=(1, 2)) - 2.0 * np.trace(gram, axis1=1, axis2=2) + d

    def terms(q, w):
        z = q.T @ cols
        plain, shifted = z[:, :m * r], z[:, m * r:]
        shifted *= plain   # entries of Z_i H_i times those of Z_i
        plain *= plain
        lin, quad = w[0] @ plain, w[1] @ shifted
        if r > 1:   # sum each member's r columns
            lin, quad = (np.add.reduce(a.reshape(m, r), axis=1) for a in (lin, quad))
        return lin - np.add.reduce(w[0]), quad + np.add.reduce(w[1])

    return _Stack(terms, functools.partial(_centered_rows, inst), norms, m_hi, m_lo)


def _psi_weights(psi_hi, psi_lo) -> np.ndarray:
    """Maps the spectra of F+ and F- to those of F+ - F- and psi_hi F+ + psi_lo F-."""
    return np.array(((1.0, -1.0), (psi_hi, psi_lo)))


def _bounds(y, stack, delta, psi):
    """Lower and upper bounds on log Phi_delta(y + X_i) for every member, and their margin.

    Needs psi = _psi_weights(psi(stack.m_hi, delta), psi(stack.m_lo, delta)). With
    y = Q diag(mu) Q^T, s = delta*max|mu|, F+- = Q diag(e^{+-delta mu - s}) Q^T
    and lin_i = delta<F+ - F-, X_i>, the lower bound is the larger of

    - log Phi(y) + lin_i / tr(F+ + F-), by convexity of log Phi;
    - s + log(tr(F+ + F-) + lin_i + c ||X_i||_F^2), by the curvature of Phi.

    The upper bound is s + log(tr(F+ + F-) + lin_i + <psi_hi F+ + psi_lo F-, X_i^2>),
    by Golden-Thompson. The shift by s keeps every exponential in (0, 1]. The
    stack supplies the two inner products: from X_i and X_i^2 for a dense
    family, from the factors for a factor family (see _factor_stack).

    The curvature bound: let g(t) = tr e^{delta(y + tX)} + tr e^{-delta(y + tX)}.
    The second derivative of tr e^{H + tK} is sum_jk (e^{a_j} - e^{a_k})/(a_j - a_k) |K_jk|^2
    in the eigenbasis of H + tK (Daleckii-Krein), and each divided difference is at
    least e^{min a}. So g''(t) >= delta^2 ||X||_F^2 (e^{delta lambda_min} + e^{-delta lambda_max})
    of y + tX, and for t in [0, 1] the spectrum of y + tX lies in
    [mu_min - m_lo, mu_max + m_hi]. Taylor's theorem then gives g(1) >= g(0) + g'(0)
    + c ||X||_F^2 with c = (delta^2/2)(e^{delta(mu_min - m_lo) - s} + e^{-delta(mu_max + m_hi) - s})
    in the e^{-s} frame. Its argument can be <= 0 when the step is large, and then
    gives no bound. Each term of the argument may carry a relative rounding error
    of up to the margin, so the argument is lowered by that much before the log;
    one that could have been pushed above 0 by rounding also gives no bound.

    The margin, PRUNE_RTOL * (1 + |log Phi(y)|), covers rounding. It also covers
    what validation leaves open in run's constants m_hi = M and m_lo = 1.
    validate accepts eigenvalues of A_i down to -PSD_TOL (1 + M), so -X_i <= 1
    may fail by that much; with delta <= 1/M this scales c by no less than
    e^{-2 PSD_TOL} = 1 - 2e-10. X_i <= M - 1 leaves a whole unit below m_hi, so
    center's CENTER_NORM_TOL (1e-9) never enters. Both stay far below
    PRUNE_RTOL = 1e-9 relative to each term.
    """
    mu, q = _eigh(y)
    s = delta * max(float(mu[-1]), -float(mu[0]))
    e = np.exp(np.multiply.outer((delta, -delta), mu) - s)   # spectra of F+ and F-
    total = float(e.sum())
    lin, quad = stack.terms(q, psi @ e)
    lin *= delta
    log_phi = s + math.log(total)
    margin = PRUNE_RTOL * (1.0 + abs(log_phi))
    c = 0.5 * delta * delta * (
        math.exp(delta * (float(mu[0]) - stack.m_lo) - s)
        + math.exp(-delta * (float(mu[-1]) + stack.m_hi) - s)
    )
    # each term of the argument may be off by margin times its size, and
    # |lin_i| <= delta max(m_hi, m_lo) tr(F+ + F-)
    slack = margin * (1.0 + delta * max(stack.m_hi, stack.m_lo))
    floor = lin + (1.0 - margin) * c * stack.norms + (1.0 - slack) * total
    lower = log_phi + lin / total
    # the curvature bound where its argument is positive; elsewhere it gives none
    usable = floor > 0
    np.log(floor, out=floor, where=usable)
    floor += s
    np.maximum(lower, floor, out=lower, where=usable)
    return lower, s + np.log(total + lin + quad), margin


def _step(y, stack, delta, psi):
    """One greedy choice: (0-based index, its score, its eigenvalues, indices scored).

    A member is skipped when its lower bound exceeds the smallest upper bound
    by more than TIE_TOL plus the rounding margins: its score then exceeds the
    minimum by more than TIE_TOL, so it is neither the minimum nor tied with
    it. The rest are formed block by block as candidates and scored exactly;
    each row's score does not depend on which rows share the batch, so the
    pick and its score equal those of scoring every member. Two checks run on
    the exact scores: the smallest must not exceed the smallest upper bound,
    which is what makes the skip sound, and none may fall below its member's
    lower bound.
    """
    lower, upper, margin = _bounds(y, stack, delta, psi)
    cap = float(upper.min()) + margin
    if not math.isfinite(cap):
        raise NonFinite(f"candidate upper bound is {cap!r}")
    keep = np.flatnonzero(lower <= cap + TIE_TOL + margin)
    if keep.size == 0:
        raise PruningCertificateFailed(f"every lower bound exceeds the smallest upper bound {cap!r}")
    scores, eigs = [], []
    for _, rows in stack.rows(keep):
        block_scores, block_eigs = _candidate_scores(y, rows, delta)
        scores.append(block_scores)
        eigs.append(block_eigs)
        del rows   # freed before the next block is formed
    scores, eigs = np.concatenate(scores), np.concatenate(eigs)
    # keep is ascending, so this is _pick over all members with the skipped ones at +inf
    j = _pick(scores)
    if scores.min() > cap:
        raise PruningCertificateFailed(
            f"smallest exact score {float(scores.min())!r} exceeds the smallest upper bound {cap!r}"
        )
    excess = lower[keep] - scores
    if excess.max() > margin:
        worst = int(np.argmax(excess))
        raise PruningCertificateFailed(
            f"member {int(keep[worst]) + 1}: lower bound {float(lower[keep[worst]])!r} "
            f"exceeds its exact score {float(scores[worst])!r}"
        )
    return int(keep[j]), float(scores[j]), eigs[j], keep


def select_next(y: SymMatrix, delta: float, fam: CenteredFamily) -> tuple[int, float]:
    """Greedy choice: 1-based index minimizing log Phi_delta(Y + X_i), and its value.

    fam must have ||X_i|| <= fam.m1, and delta * fam.m1 may not exceed 700.
    Ties (within 1e-12 in log scale) resolve to the smallest index.
    """
    _check_delta(delta)
    if fam.m < 1:
        raise EmptyFamily("family has no members")
    if y.d != fam.d:
        raise DimensionMismatch(f"Y is {y.d}x{y.d}, the family is {fam.d}x{fam.d}")
    stack = _stack(fam.xs, fam.m1, fam.m1)
    p = psi_value(fam.m1, delta)
    best, score, _, _ = _step(y.entries, stack, delta, _psi_weights(p, p))
    return best + 1, score


def run(inst: Instance, schedule: Schedule, k_max: int | None = None) -> GreedyTrace:
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

    m_bound = schedule.norm_bound
    # X_i <= M, and -X_i <= 1 because A_i is PSD. A factor family is read
    # through its factors unless it is small enough to hold densely
    if inst.factors is None or _fits_one_block(inst):
        stack = _stack(center(inst).xs, m_bound, 1.0)
    else:
        stack = _factor_stack(inst, m_bound, 1.0)

    y = np.zeros((inst.d, inst.d))
    counts = np.zeros(inst.m)
    prev_eigs = np.zeros(inst.d)
    delta = log_phi = None
    indices: list[int] = []
    records: list[StepRecord] = []

    for k in range(1, k_max + 1):
        prev_delta, delta = delta, schedule.delta(k)
        if delta == prev_delta:
            # the last step's chosen score is log Phi_delta(Y_{k-1}), from the same eigenvalues
            prev_log_phi = log_phi
        else:
            prev_log_phi = float(log_potential_from_eigenvalues(prev_eigs, delta))
            psi_hi = psi_value(stack.m_hi, delta)
            psi = _psi_weights(psi_hi, psi_value(stack.m_lo, delta))
        best, log_phi, prev_eigs, keep = _step(y, stack, delta, psi)

        step_cap = m_bound * psi_hi + prev_log_phi
        if log_phi > step_cap + STEP_TOL:
            raise PotentialGrowthViolation(
                k, f"log-potential {log_phi!r} exceeds one-step cap {step_cap!r}"
            )

        indices.append(best + 1)
        counts[best] += 1
        ((_, row),) = stack.rows(np.array([best]))
        y = y + row[0]   # exactly symmetric: Instance enforces it for every X_i
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
                evaluated=keep.size,
            )
        )

        if k % AUDIT_INTERVAL == 0:
            # O(d^2) per member picked so far, from the counts, however long the run
            picked = np.flatnonzero(counts)
            resummed = np.zeros(y.size)
            for part, rows in _centered_rows(inst, picked):
                resummed += counts[part] @ rows.reshape(len(part), -1)
            resummed = _symmetrize(resummed.reshape(y.shape))
            drift = float(np.linalg.norm(resummed - y))
            if drift > AUDIT_TOL * k:
                raise AuditFailed(f"step {k}: running sum drifted {drift:.3e} from fresh sum")

    return GreedyTrace(
        schedule=schedule,
        indices=tuple(indices),
        records=tuple(records),
        running_sum=SymMatrix(y),
    )
