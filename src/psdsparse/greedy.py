"""Greedy equal-weight sparsification with per-prefix error guarantees.

Given a decomposition of the identity, repeatedly pick the family member
whose addition minimizes the symmetric exponential potential of the running
centered sum. Two step-size schedules are provided: a per-step decaying one
whose prefix errors obey a closed-form bound at every k, and a constant one
tuned to a known sparsity target N.

Each step scores exactly only the members that could still be picked. One
eigendecomposition of the running sum Y gives, for every member, two
second-order bounds on log Phi_delta(Y + X_i) (see _bounds): an upper bound
from e^{delta X} <= I + delta X + psi X^2 with Golden-Thompson, and a lower
bound from a floor on the curvature of Phi along Y + tX_i: 2 delta^2 cosh(delta x)
at the point x of the path's spectral range nearest 0, which needs only
||X_i||_F and the spectral bounds X_i <= m_hi, -X_i <= m_lo. The member with
the smallest upper bound is scored exactly first. Any other member whose
lower bound exceeds the smaller of that upper bound and that exact score by
more than the tie tolerance cannot win and is skipped; the rest are formed
as candidates block by block and scored with a batched eigvalsh per block.
The picks and recorded potentials are those of scoring every member, bit for
bit. Every step checks that its smallest exact score meets the smallest
upper bound and that no exact score falls below its member's lower bound.

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
    DomainError,
    NonFinite,
    PotentialGrowthViolation,
    PruningCertificateFailed,
)
from .instance import (NORM_FLOOR_TOL, CenteredFamily, Instance, _centered_rows, _check_counts,
                       _fits_one_block, _is_int, _row_parts, center)
from .potential import _check_delta, log_potential_from_eigenvalues, psi_value
from .symmat import _eigh, _eigvalsh, _square_symmetric, _symmetrize

TIE_TOL = 1e-12
PRUNE_RTOL = 1e-9   # rounding margin on the candidate bounds, relative to 1 + |log Phi(Y)|
STEP_TOL = 1e-9
BOUND_RTOL = 1e-9
AUDIT_INTERVAL = 64
AUDIT_TOL = 1e-9

REGIME_COARSE = "coarse"
REGIME_FINE = "fine"


def _check_family_constants(norm_bound: float, d: int) -> float:
    """M*ln(2d); reject a d that is not an integer >= 1, an M below 1 (as validation
    rounds it) or an M*ln(2d) that is not finite."""
    ml = norm_bound * math.log(2 * d) if _is_int(d) and d >= 1 else math.nan
    if not (norm_bound >= 1.0 - NORM_FLOOR_TOL and math.isfinite(ml)):
        raise DomainError(f"need M >= 1, an integer d >= 1 and a finite M*ln(2d), "
                          f"got M={norm_bound!r}, d={d!r}")
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
        if self.fixed_n is not None:
            _check_counts(fixed_n=self.fixed_n)

    @property
    def log_2d(self) -> float:
        return math.log(2 * self.dim)

    @property
    def fine_start(self) -> int:
        """First step of the decaying schedule's square-root phase."""
        return int(math.floor(self.norm_bound * self.log_2d)) + 1

    def delta(self, k: int) -> float:
        _check_counts(k=k)
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
        delta = self.delta(k)
        return self.log_2d / (k * delta) + self.norm_bound * delta

    def regime(self, k: int) -> str:
        _check_counts(k=k)
        return REGIME_COARSE if k <= self.norm_bound * self.log_2d else REGIME_FINE


def bound_all_steps(k: int, norm_bound: float, d: int) -> float:
    """Prefix-error bound of the decaying schedule: 2ML/k up to k = ML, then 3*sqrt(ML/k)."""
    _check_counts(k=k)
    ml = _check_family_constants(norm_bound, d)
    if k <= ml:
        return 2.0 * ml / k
    return 3.0 * math.sqrt(ml / k)


def bound_fixed_n(n: int, norm_bound: float, d: int) -> float:
    """Final-error bound of the constant schedule: 2*sqrt(ML/N) for N >= ML, else 2ML/N."""
    _check_counts(N=n)
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
    """A finished run: the 1-based picks, one StepRecord per step, and the final Y (read-only)."""

    schedule: Schedule
    indices: tuple[int, ...]    # 1-based into the instance family
    records: tuple[StepRecord, ...]
    running_sum: np.ndarray


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
        lin, quad = (np.add.reduce(a.reshape(m, r), axis=1)   # sum each member's r columns
                     for a in (w[0] @ plain, w[1] @ shifted))
        return lin - np.add.reduce(w[0]), quad + np.add.reduce(w[1])

    return _Stack(terms, functools.partial(_centered_rows, inst), norms, m_hi, m_lo)


def _psi_weights(psi_hi, psi_lo) -> np.ndarray:
    """Maps the spectra of F+ and F- to those of F+ - F- and psi_hi F+ + psi_lo F-."""
    return np.array(((1.0, -1.0), (psi_hi, psi_lo)))


def _curvature(mu, delta, s, m_lo, m_hi) -> float:
    """The curvature floor c of _bounds, for ascending eigenvalues mu of y and shift s.

    c = (delta^2/2)(e^{delta x - s} + e^{-delta x - s}), with x the point of
    [mu_min - m_lo, mu_max + m_hi] nearest 0, where cosh(delta x) is smallest.
    """
    x = min(max(0.0, float(mu[0]) - m_lo), float(mu[-1]) + m_hi)
    return 0.5 * delta * delta * (math.exp(delta * x - s) + math.exp(-delta * x - s))


def _bounds(y, stack, delta, psi):
    """Lower and upper bounds on log Phi_delta(y + X_i) for every member, and their margin.

    Needs psi = _psi_weights(psi(stack.m_hi, delta), psi(stack.m_lo, delta)). With
    y = Q diag(mu) Q^T, s = delta*max|mu|, F+- = Q diag(e^{+-delta mu - s}) Q^T
    and lin_i = delta<F+ - F-, X_i>, both bounds are
    s + log(tr(F+ + F-) + lin_i + a second-order term), with the term

    - c ||X_i||_F^2 for the lower bound, by the curvature of Phi (below);
    - <psi_hi F+ + psi_lo F-, X_i^2> for the upper bound, by Golden-Thompson.

    The shift by s keeps every exponential in (0, 1]. The stack supplies the
    two inner products: from X_i and X_i^2 for a dense family, from the
    factors for a factor family (see _factor_stack).

    The curvature bound: let g(t) = tr f(y + tX) with f(x) = e^{delta x} + e^{-delta x}.
    In the eigenbasis of y + tX with eigenvalues a_j, g''(t) is
    sum_jk f'[a_j, a_k] |X_jk|^2 (Daleckii-Krein), and each divided difference
    f'[a_j, a_k] = (f'(a_j) - f'(a_k))/(a_j - a_k) equals f''(xi) = 2 delta^2 cosh(delta xi)
    for some xi between a_j and a_k. For t in [0, 1] the spectrum of y + tX lies in
    [mu_min - m_lo, mu_max + m_hi], where cosh(delta xi) is smallest at
    x* = clamp(0, mu_min - m_lo, mu_max + m_hi). So g''(t) >= 2 delta^2 cosh(delta x*) ||X||_F^2,
    and Taylor's theorem gives g(1) >= g(0) + g'(0) + c ||X||_F^2 with
    c = (delta^2/2)(e^{delta x* - s} + e^{-delta x* - s}) in the e^{-s} frame; both
    exponents are at most 0. Each term of the log's argument may carry a relative
    rounding error of up to the margin, so the argument is lowered by that much
    first. Where the lowered argument is not positive, as it can be when the
    step is large, the member has no lower bound: it is -inf.

    The margin, PRUNE_RTOL * (1 + |log Phi(y)|), covers rounding. It also covers
    what validation leaves open in run's constants m_hi = M and m_lo = 1.
    validate accepts eigenvalues of A_i down to -PSD_TOL (1 + M), so -X_i <= 1
    may fail by eps = PSD_TOL (1 + M), which widens the range by eps below. Every
    point of the wider range lies within eps of the range, and
    cosh(delta(x - eps)) >= e^{-delta eps} cosh(delta x) for eps >= 0; with
    delta <= 1/M, delta eps <= 2 PSD_TOL, so c shrinks by a factor no less than
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
    margin = PRUNE_RTOL * (1.0 + abs(s + math.log(total)))
    c = _curvature(mu, delta, s, stack.m_lo, stack.m_hi)
    # each term of the argument may be off by margin times its size, and
    # |lin_i| <= delta max(m_hi, m_lo) tr(F+ + F-)
    slack = margin * (1.0 + delta * max(stack.m_hi, stack.m_lo))
    floor = lin + (1.0 - margin) * c * stack.norms + (1.0 - slack) * total
    lower = np.log(floor, out=np.full_like(floor, -np.inf), where=floor > 0)
    lower += s
    return lower, s + np.log(total + lin + quad), margin


def _scores(y, stack, idx, delta):
    """Exact scores of the members idx, and their eigenvalues, formed and scored block by block."""
    scores, eigs = [], []
    for _, rows in stack.rows(idx):
        block_scores, block_eigs = _candidate_scores(y, rows, delta)
        scores.append(block_scores)
        eigs.append(block_eigs)
        del rows   # freed before the next block is formed
    if len(scores) == 1:
        return scores[0], eigs[0]
    return np.concatenate(scores), np.concatenate(eigs)


def _step(y, stack, delta, psi):
    """One greedy choice: (0-based index, its score, its eigenvalues, indices scored).

    The member with the least upper bound, first, is scored alone, before
    the others. Every other member is skipped when its lower bound exceeds
    tight = min(cap, s_first) + TIE_TOL + margin, where cap is the least
    upper bound plus the margin and s_first is first's exact score. A skipped
    member's score is at least its lower bound less the margin, so it exceeds
    min(cap, s_first) + TIE_TOL, which is at least the minimum score plus
    TIE_TOL: it is neither the minimum nor tied with it. The rest are formed
    block by block and scored exactly; each row's score does not depend on
    which rows share the batch, so the pick and its score equal those of
    scoring every member. The scored members lie among those whose lower
    bound is at most cap + TIE_TOL + margin, as first does whenever its
    bounds hold.

    Two checks run on every exact score, first's included: the smallest must
    not exceed cap, which is what makes the skip sound, and none may fall
    below its member's lower bound by more than the margin.
    """
    lower, upper, margin = _bounds(y, stack, delta, psi)
    first = int(np.argmin(upper))
    cap = float(upper[first]) + margin
    if not math.isfinite(cap):
        raise NonFinite(f"candidate upper bound is {cap!r}")
    keep = np.flatnonzero(lower <= cap + TIE_TOL + margin)
    if keep.size == 0:
        raise PruningCertificateFailed(f"every lower bound exceeds the smallest upper bound {cap!r}")
    scored = np.array([first])
    scores, eigs = _scores(y, stack, scored, delta)
    if keep.size > 1:   # a keep of one member is first, or a check below fails on first
        tight = min(cap, float(scores[0])) + TIE_TOL + margin
        rest = keep[(lower[keep] <= tight) & (keep != first)]
        if rest.size:
            # merged in ascending index order, so _pick below is _pick over all
            # members with the skipped ones at +inf
            rest_scores, rest_eigs = _scores(y, stack, rest, delta)
            at = int(np.searchsorted(rest, first))
            scored = np.insert(rest, at, first)
            scores = np.insert(rest_scores, at, scores[0])
            eigs = np.insert(rest_eigs, at, eigs[0], axis=0)
    j = _pick(scores)
    if scores.min() > cap:
        raise PruningCertificateFailed(
            f"smallest exact score {float(scores.min())!r} exceeds the smallest upper bound {cap!r}"
        )
    excess = lower[scored] - scores
    if excess.max() > margin:
        worst = int(np.argmax(excess))
        raise PruningCertificateFailed(
            f"member {int(scored[worst]) + 1}: lower bound {float(lower[scored[worst]])!r} "
            f"exceeds its exact score {float(scores[worst])!r}"
        )
    return int(scored[j]), float(scores[j]), eigs[j], scored


def select_next(y: np.ndarray, delta: float, fam: CenteredFamily) -> tuple[int, float]:
    """Greedy choice: 1-based index minimizing log Phi_delta(Y + X_i), and its value.

    Y is a symmetric fam.d x fam.d matrix. fam must have ||X_i|| <= fam.m1,
    and delta * fam.m1 may not exceed 700. Ties (within 1e-12 in log scale)
    resolve to the smallest index.
    """
    _check_delta(delta)
    y = _square_symmetric(y, "Y", fam.d)
    stack = _stack(fam.xs, fam.m1, fam.m1)
    p = psi_value(fam.m1, delta)
    best, score, _, _ = _step(y, stack, delta, _psi_weights(p, p))
    return best + 1, score


def run(inst: Instance, schedule: Schedule, k_max: int | None = None) -> GreedyTrace:
    """Execute the greedy selection for k_max steps with live guarantee checks.

    Each step verifies the potential-growth inequality
    log Phi(Y_k) <= M * psi_M(delta_k) + log Phi(Y_{k-1}) and the prefix
    error bound; violations raise, since the guarantees are unconditional
    and a failure means a bug. The running sum is re-verified against a
    fresh summation every 64 steps.
    """
    if k_max is None:
        k_max = schedule.fixed_n or default_k_max(schedule.norm_bound, schedule.dim)
    _check_counts(k_max=k_max)
    if schedule.fixed_n not in (None, k_max):
        raise DomainError(
            f"constant schedule is tuned to N={schedule.fixed_n}, cannot run k_max={k_max}"
        )
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
            for part, rows in stack.rows(picked):
                resummed += counts[part] @ rows.reshape(len(part), -1)
            resummed = _symmetrize(resummed.reshape(y.shape))
            drift = float(np.linalg.norm(resummed - y))
            if drift > AUDIT_TOL * k:
                raise AuditFailed(f"step {k}: running sum drifted {drift:.3e} from fresh sum")

    y.setflags(write=False)
    return GreedyTrace(
        schedule=schedule,
        indices=tuple(indices),
        records=tuple(records),
        running_sum=y,
    )
