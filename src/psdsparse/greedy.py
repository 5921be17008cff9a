"""Greedy equal-weight sparsification with per-prefix error guarantees.

Given a decomposition of the identity, repeatedly pick the family member
whose addition minimizes the symmetric exponential potential of the running
centered sum. Two step-size schedules are provided: a per-step decaying one
whose prefix errors obey a closed-form bound at every k, and a constant one
tuned to a known sparsity target N.

Each step scores exactly only the members that could still be picked. One
eigendecomposition of the running sum Y gives every member a lower bound on
log Phi_delta(Y + X_i) (see _bounds) from a floor on the curvature of Phi
along Y + tX_i: 2 delta^2 cosh(delta x) at the point x of the path's spectral
range nearest 0, which needs only ||X_i||_F and the spectral bounds
X_i <= m_hi, -X_i <= m_lo. On every step the member with the least lower
bound, first, is scored exactly before the others, from the eigh of its
candidate alone. Any other member whose lower bound exceeds that exact score
by more than the tie tolerance and the rounding margin cannot win and is
skipped: its own score is at least its lower bound less the margin. The rest,
if any, are scored as a batch: from their dense rows, formed block by block,
with a batched eigvalsh per block, or from their Grams (below). Every step
checks that no exact score falls below its member's lower bound.

Each step decomposes Y_k = Y + X_pick once, by eigh (see _candidate). When
first wins, that is the eigh that scored it; otherwise the winner's row is
gathered again and decomposed, and its batch score must agree with the score
read off that eigh within the step's margin. Its eigenvalues are
exponentiated once per delta (see _spectrum): at delta_k, which gives
log Phi_delta_k(Y_k) and the step's error, and the next step's bounds read
that eigh and, while delta holds, those exponentials; where delta changes,
run exponentiates them once more, for the next step's bounds and
prev_log_potential alike. So log-sum-exp over a d x d spectrum runs only for
members scored in a batch. The picks are those of scoring every member by
eigvalsh: first's eigh score differs from its eigvalsh score by rounding only,
so a pick could differ only where two scores lie TIE_TOL apart to within that
rounding, which over the acceptance sweep they never do. The records differ
from eigvalsh values by rounding only.

The bound needs, for every member, <F, X_i> and ||X_i||_F^2 for one matrix F
diagonal in Y's eigenbasis. A dense family, or a factor family whose dense
rows fit in one block, reads them off X_i held as an (m, d, d) array. A
larger factor family A_i = V_i V_i^T reads them off its factors: with
G_i = V_i^T V_i, <F, X_i> = tr(V_i^T F V_i) - tr F and
||X_i||_F^2 = ||G_i||_F^2 - 2 tr G_i + d, so a step holds O(m d r) plus one
block of candidate rows, never the dense family.

While few members are picked, run scores the batch of a factor family from a
(p + r)-sized Gram instead of its d x d rows (see _gram_scores): after k - 1
picks, Y + (k - 1) Id is a sum of picked A_j = V_j V_j^T, of rank at most
p = r times the number of distinct picks, so it is W W^T with W read off the
top p eigenpairs of the eigh of Y that the bounds take anyway, and
eig(Y + X_i) is eig([W | V_i]^T [W | V_i]) - k plus -k with multiplicity
d - p - r. It is used while p + r <= GRAM_SHARE * d, and as distinct picks
never fall, once off it stays off. The skip, the lower-bound check and the
winner's check run on those scores unchanged. A winner from the batch gives Y_k
from its dense row, as on every step, so Y keeps the bits of dense scoring and
the records come from the eigh of Y_k. Gram and dense scores differ by rounding
only, so the picks could differ from dense scoring's only where two scores lie
TIE_TOL apart to within that rounding; over the acceptance sweep they never do.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

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
from .potential import _check_delta, log_potential_from_eigenvalues, logsumexp, psi_value
from .symmat import _eigh, _eigvalsh, _square_symmetric, _symmetrize

TIE_TOL = 1e-12
PRUNE_RTOL = 1e-9   # rounding margin on the candidate bounds, relative to 1 + |log Phi(Y)|
STEP_TOL = 1e-9
BOUND_RTOL = 1e-9
AUDIT_INTERVAL = 64
AUDIT_TOL = 1e-9
GRAM_SHARE = 0.75   # a factor family is scored from its Gram while p + r <= GRAM_SHARE * d

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

    @functools.cached_property
    def log_2d(self) -> float:
        return math.log(2 * self.dim)

    @functools.cached_property
    def fine_start(self) -> int:
        """First step of the decaying schedule's square-root phase."""
        return int(math.floor(self.norm_bound * self.log_2d)) + 1

    def delta(self, k: int) -> float:
        _check_counts(k=k)
        return self._delta(k)

    def bound(self, k: int) -> float:
        """Guaranteed cap on the prefix error after k steps of this schedule.

        Decaying schedule: the closed-form piecewise bound. Constant
        schedule: L/(k*delta) + M*delta, the potential-argument bound that
        holds for every prefix and collapses to the closed form at k = N.
        """
        _check_counts(k=k)
        return self._bound(k, self._delta(k))

    def regime(self, k: int) -> str:
        _check_counts(k=k)
        return self._regime(k)

    def steps(self, k_max: int) -> Iterator[tuple[float, float, str]]:
        """(delta(k), bound(k), regime(k)) for k = 1..k_max, each worked out as the loop reaches k.

        k_max is checked at the call; nothing is computed ahead of the loop.
        """
        _check_counts(k_max=k_max)
        return map(self._step, range(1, k_max + 1))

    def _step(self, k: int) -> tuple[float, float, str]:
        delta = self._delta(k)
        return delta, self._bound(k, delta), self._regime(k)

    def _delta(self, k: int) -> float:
        m, l = self.norm_bound, self.log_2d
        if self.fixed_n is not None:
            return min(1.0 / m, math.sqrt(l / (m * self.fixed_n)))
        if k < self.fine_start:
            return 1.0 / m
        return math.sqrt(l / (m * k))

    def _bound(self, k: int, delta: float) -> float:
        if self.fixed_n is None:
            return _all_steps_bound(k, self.norm_bound * self.log_2d)
        return self.log_2d / (k * delta) + self.norm_bound * delta

    def _regime(self, k: int) -> str:
        return REGIME_COARSE if k <= self.norm_bound * self.log_2d else REGIME_FINE


def bound_all_steps(k: int, norm_bound: float, d: int) -> float:
    """Prefix-error bound of the decaying schedule: 2ML/k up to k = ML, then 3*sqrt(ML/k)."""
    _check_counts(k=k)
    return _all_steps_bound(k, _check_family_constants(norm_bound, d))


def _all_steps_bound(k: int, ml: float) -> float:
    return 2.0 * ml / k if k <= ml else 3.0 * math.sqrt(ml / k)


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

    They are the member with the least lower bound, scored from its candidate's
    eigh, and the batch of members that pruning leaves (see _step). The count
    depends on the instance and the schedule, and at rounding level on whether
    the bounds came from dense rows or from factors (see _bounds); the members
    it leaves out were proven unable to win. The picks and potentials do not
    depend on either. Both potentials and the error are read off the eigh of
    Y_{k-1} and of Y_k, the one decomposition of each that the run takes,
    through the one exponential of each spectrum at delta_k.
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
    """A finished run: the 1-based picks, one StepRecord per step, and the final Y (read-only).

    gram_steps counts the leading steps whose members were scored from the Gram
    (see _gram_scores); they are a prefix of the run, since distinct picks never fall.
    """

    schedule: Schedule
    indices: tuple[int, ...]    # 1-based into the instance family
    records: tuple[StepRecord, ...]
    running_sum: np.ndarray
    gram_steps: int = 0


def _candidate_scores(y, xs, delta):
    """Log-potential of y + x for every row x of xs.

    The candidates are formed in place: xs must be writable, and is left
    holding y + x.
    """
    xs += y
    return log_potential_from_eigenvalues(_eigvalsh(xs), delta)


def _pick(scores: np.ndarray) -> int:
    """Smallest index whose score is within TIE_TOL of the minimum."""
    return int(np.argmax(scores <= np.min(scores) + TIE_TOL))


class _Stack(NamedTuple):
    """A centered family as _step reads it, with the spectral bounds X_i <= m_hi and -X_i <= m_lo.

    terms(q, w) gives <F, X_i> for every member, where F = Q diag(w) Q^T;
    rows(idx) yields (part, X_i for i in part) as fresh writable blocks over
    consecutive parts of idx; row(i) gives X_i alone, not to be written to.
    """

    terms: Callable
    rows: Callable
    row: Callable
    norms: np.ndarray     # ||X_i||_F^2 = tr X_i^2, or 0 where that overflows (see _bounds)
    m_hi: float
    m_lo: float


def _stack(xs, m_hi, m_lo) -> _Stack:
    """A dense (m, d, d) centered family."""
    m, d = len(xs), xs.shape[1]
    flat = xs.reshape(m, -1)

    def terms(q, w):
        return flat @ ((q * w) @ q.T).reshape(-1)

    def rows(idx):
        return ((part, xs[part]) for part in _row_parts(idx, d))

    with np.errstate(over="ignore", invalid="ignore"):   # an overflow is set to 0 below
        norms = np.einsum("ij,ij->i", flat, flat)   # ||X_i||_F^2 = tr X_i^2, X_i symmetric
    norms[~np.isfinite(norms)] = 0.0   # drops the curvature term (see _bounds)
    return _Stack(terms, rows, xs.__getitem__, norms, m_hi, m_lo)


def _factor_stack(inst: Instance, vtv, m_hi, m_lo) -> _Stack:
    """A factor family, A_i = V_i V_i^T, read through its (m, d, r) factors only.

    With vtv holding G_i = V_i^T V_i and X_i = V_i V_i^T - Id:
    <F, X_i> = tr(V_i^T F V_i) - tr F and ||X_i||_F^2 = ||G_i||_F^2 - 2 tr G_i + d.
    With F = Q diag(w) Q^T and Z = Q^T [V_1 ... V_m], tr(V_i^T F V_i) is the sum
    over member i's r columns of w . Z_i^2 (entrywise), so a step costs one
    (d, d) x (d, mr) product and holds O(m d r).
    """
    v = inst.factors
    m, d, r = v.shape
    cols = v.transpose(1, 0, 2).reshape(d, m * r)   # columns [V_1 ... V_m]
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow is set to 0 below
        norms = np.sum(vtv * vtv, axis=(1, 2)) - 2.0 * np.trace(vtv, axis1=1, axis2=2) + d
    norms[~np.isfinite(norms)] = 0.0   # drops the curvature term (see _bounds)

    def terms(q, w):
        z = q.T @ cols
        z *= z
        # sum each member's r columns
        return np.add.reduce((w @ z).reshape(m, r), axis=1) - np.add.reduce(w)

    def row(i):
        return next(_centered_rows(inst, (i,)))[1][0]

    return _Stack(terms, functools.partial(_centered_rows, inst), row, norms, m_hi, m_lo)


def _gram_scores(eig, p, factors, vtv, idx, k, delta):
    """log Phi_delta(y + X_i) for the members idx at step k.

    After k - 1 picks, y + (k - 1) Id is a sum of members A_j = V_j V_j^T, PSD of
    rank at most p = r times the number of distinct picks. With eig = (mu, Q) = _eigh(y),
    lam = max(mu_top + k - 1, 0) over the top p eigenvalues and W = Q_top diag(sqrt(lam)),
    y + (k - 1) Id = W W^T up to rounding, so y + X_i = [W | V_i][W | V_i]^T - k Id.
    As B B^T and B^T B share their nonzero eigenvalues, its spectrum is eig(G_i) - k
    with G_i = [[diag(lam), W^T V_i], [V_i^T W, V_i^T V_i]], plus -k with multiplicity
    d - p - r. factors holds the V_i and vtv the V_i^T V_i.

    The G_i are formed and scored block by block, each block under the cap on dense rows.
    """
    mu, q = eig
    _, d, r = factors.shape
    cols = factors.transpose(1, 0, 2)   # (d, m, r): V_i is cols[:, i]
    lam = np.maximum(mu[d - p:] + (k - 1), 0.0)
    w = q[:, d - p:] * np.sqrt(lam)
    weights = np.ones(2 * (p + r + 1))
    weights[[p + r, -1]] = d - p - r   # of the eigenvalue -k, appended to each spectrum
    scores = []
    for part in _row_parts(idx, p + r):
        n = len(part)
        g = np.empty((n, p + r, p + r))
        g[:, :p, :p] = np.diag(lam)
        cross = (w.T @ cols[:, part].reshape(d, n * r)).reshape(p, n, r)
        g[:, :p, p:] = cross.transpose(1, 0, 2)   # W^T V_i
        g[:, p:, :p] = cross.transpose(1, 2, 0)
        g[:, p:, p:] = vtv[part]
        z = delta * (_eigvalsh(g) - k)
        flat = np.full((n, 1), -delta * k)
        scores.append(logsumexp(np.concatenate((z, flat, -z, -flat), axis=1), weights))
    return np.concatenate(scores)


def _curvature(mu, delta, s, m_lo, m_hi) -> float:
    """The curvature floor c of _bounds, for ascending eigenvalues mu of y and shift s.

    c = (delta^2/2)(e^{delta x - s} + e^{-delta x - s}), with x the point of
    [mu_min - m_lo, mu_max + m_hi] nearest 0, where cosh(delta x) is smallest.
    """
    x = min(max(0.0, float(mu[0]) - m_lo), float(mu[-1]) + m_hi)
    return 0.5 * delta * delta * (math.exp(delta * x - s) + math.exp(-delta * x - s))


class _Spectrum(NamedTuple):
    """The exponentials of a spectrum mu at delta, and the log potential they give.

    norm = max|mu|; s = delta*norm; e holds e^{delta mu - s} and e^{-delta mu - s}
    as its two rows; total is their sum, and log_phi = log(total) + s is
    log Phi_delta. These are the bits of log_potential_from_eigenvalues(mu, delta):
    the same shift, the same exponentials in the same order, the same sum and np.log.
    """

    norm: float
    s: float
    e: np.ndarray
    total: float
    log_phi: float


def _spectrum(mu, delta) -> _Spectrum:
    """_Spectrum of the ascending eigenvalues mu at delta."""
    norm = max(float(mu[-1]), -float(mu[0]))
    s = delta * norm
    e = np.exp(np.multiply.outer((delta, -delta), mu) - s)
    total = float(e.sum())
    return _Spectrum(norm, s, e, total, float(np.log(total) + s))


def _bounds(eig, spec, stack, delta):
    """A lower bound on log Phi_delta(y + X_i) for every member, and its margin.

    Needs eig = (mu, Q) = _eigh(y) and spec = _spectrum(mu, delta). With
    y = Q diag(mu) Q^T, s = delta*max|mu|, F+- = Q diag(e^{+-delta mu - s}) Q^T
    and lin_i = delta<F+ - F-, X_i>, the bound is
    s + log(tr(F+ + F-) + lin_i + c ||X_i||_F^2), with c from the curvature of
    Phi (below).

    The shift by s keeps every exponential in (0, 1]; s, the exponentials and
    tr(F+ + F-) come from spec, which also gave log Phi_delta(y). The stack supplies
    the inner product: from X_i for a dense family, from the factors for a
    factor family (see _factor_stack).

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
    step is large, the member has no lower bound: it is -inf. Where ||X_i||_F^2
    is too large for a float, the stack holds 0 for it, which drops the term:
    c ||X_i||_F^2 >= 0, so the bound stays valid, where inf would overstate the
    finite term and c = 0 (an underflow) times inf would be NaN.

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
    mu, q = eig
    _, s, e, total, _ = spec   # e: the spectra of F+ and F-
    lin = delta * stack.terms(q, e[0] - e[1])
    margin = PRUNE_RTOL * (1.0 + abs(s + math.log(total)))
    c = _curvature(mu, delta, s, stack.m_lo, stack.m_hi)
    # each term of the argument may be off by margin times its size, and
    # |lin_i| <= delta max(m_hi, m_lo) tr(F+ + F-)
    slack = margin * (1.0 + delta * max(stack.m_hi, stack.m_lo))
    floor = lin + (1.0 - margin) * c * stack.norms + (1.0 - slack) * total
    lower = np.log(floor, out=np.full_like(floor, -np.inf), where=floor > 0)
    lower += s
    return lower, margin


def _scores(y, stack, idx, delta):
    """Exact scores of the members idx, formed and scored block by block."""
    scores = []
    for _, rows in stack.rows(idx):
        scores.append(_candidate_scores(y, rows, delta))
        del rows   # freed before the next block is formed
    return np.concatenate(scores)


def _candidate(y, stack, i, delta):
    """Y_k = y + X_i, its _eigh and its _spectrum at delta."""
    y_k = stack.row(i) + y   # exactly symmetric, as Instance makes every X_i
    eig_k = _eigh(y_k)
    return y_k, eig_k, _spectrum(eig_k[0], delta)


def _step(y, eig, spec, stack, delta, score=None):
    """One greedy step: (0-based pick, indices scored, Y_k, _eigh(Y_k), _spectrum of Y_k at delta).

    eig = _eigh(y) and spec = _spectrum(eig[0], delta) feed _bounds.

    The member with the least lower bound, first, is scored alone, before the others,
    on every step: from the eigh of its candidate y + X_first, one fresh row. Every
    other member is skipped when its lower bound exceeds s_first + TIE_TOL + margin,
    where s_first is first's exact score. A skipped member's score is at least its
    lower bound less the margin, so it exceeds s_first + TIE_TOL, which is at least the
    minimum score plus TIE_TOL: it is neither the minimum nor tied with it. The rest,
    when there are any, are scored as one batch by score(idx): by default _scores,
    which forms their dense rows block by block and scores them by a batched eigvalsh;
    run passes _gram_scores instead, read off the same eig, while
    p + r <= GRAM_SHARE * d. Gram scores differ from dense ones by rounding only, far
    below the margin, and the skip and the check below use them as they are. Each
    row's score does not depend on which rows share the batch, so the pick equals that
    of scoring every member with first at its eigh score, which differs from first's
    eigvalsh score by rounding only: the pick could differ from eigvalsh scoring of
    every member only where two scores lie TIE_TOL apart to within that rounding.

    No exact score, first's included, may fall below its member's lower bound by more
    than the margin; when first is scored alone that is one scalar comparison. A NaN
    lower bound fails that check: argmin takes the first NaN as first.

    Y_k = y + X_pick is decomposed once, and its eigenvalues are exponentiated once, by
    _candidate: log Phi_delta(Y_k) is that spectrum's log_phi. first's candidate is Y_k
    if first wins, and its score is that log_phi; otherwise the winner's row is gathered
    once more and decomposed the same way, and its batch score, dense or Gram, must lie
    within the margin of that log_phi, else PruningCertificateFailed. run carries Y_k,
    its eigh and its spectrum into the next step, whose bounds read them while delta
    holds.
    """
    lower, margin = _bounds(eig, spec, stack, delta)
    first = int(lower.argmin())   # the first NaN, if any: it fails the check below
    scored = np.array([first])
    y_k, eig_k, spec_k = _candidate(y, stack, first, delta)
    least = spec_k.log_phi
    if not math.isfinite(least):
        raise NonFinite(f"candidate score is {least!r}")
    scores = np.array([least])
    j = worst = at = 0   # with first alone: the pick, the worst excess and first's place
    rest = lower <= least + TIE_TOL + margin
    rest[first] = False
    if rest.any():
        # merged in ascending index order, so _pick below is _pick over all
        # members with the skipped ones at +inf
        rest = np.flatnonzero(rest)
        rest_scores = _scores(y, stack, rest, delta) if score is None else score(rest)
        at = int(np.searchsorted(rest, first))
        scored = np.insert(rest, at, first)
        scores = np.insert(rest_scores, at, least)
        j = _pick(scores)
        worst = int(np.argmax(lower[scored] - scores))
    if not lower[scored[worst]] - scores[worst] <= margin:
        raise PruningCertificateFailed(
            f"member {int(scored[worst]) + 1}: lower bound {float(lower[scored[worst]])!r} "
            f"exceeds its exact score {float(scores[worst])!r}"
        )
    pick = int(scored[j])
    if j != at:
        y_k, eig_k, spec_k = _candidate(y, stack, pick, delta)
        if not abs(spec_k.log_phi - scores[j]) <= margin:
            raise PruningCertificateFailed(
                f"member {pick + 1}: batch score {float(scores[j])!r} and candidate score "
                f"{spec_k.log_phi!r} differ by more than the margin {margin!r}"
            )
    return pick, scored, y_k, eig_k, spec_k


def select_next(y: np.ndarray, delta: float, fam: CenteredFamily) -> tuple[int, float]:
    """Greedy choice: 1-based index minimizing log Phi_delta(Y + X_i), and its value.

    Y is a symmetric fam.d x fam.d matrix. fam must have ||X_i|| <= fam.m1.
    Ties (within 1e-12 in log scale) resolve to the smallest index. The value is
    read off the eigh of Y + X_i for the chosen i (see _step).
    """
    _check_delta(delta)
    y = _square_symmetric(y, "Y", fam.d)
    stack = _stack(fam.xs, fam.m1, fam.m1)
    eig = _eigh(y)
    best, *_, spec = _step(y, eig, _spectrum(eig[0], delta), stack, delta)
    return best + 1, spec.log_phi


def run(inst: Instance, schedule: Schedule, k_max: int | None = None) -> GreedyTrace:
    """Execute the greedy selection for k_max steps with live guarantee checks.

    Each step verifies the potential-growth inequality
    log Phi(Y_k) <= M * psi_M(delta_k) + log Phi(Y_{k-1}) and the prefix
    error bound; violations raise, since the guarantees are unconditional
    and a failure means a bug. The running sum is re-verified against a
    fresh summation every 64 steps. Each step decomposes Y_k once, by eigh,
    and exponentiates its spectrum once at delta_k (see _step): the step's
    log Phi(Y_k) and error are read off that _spectrum, and the next step's
    bounds and Gram read the eigh as their eigh of Y. The next step's bounds and
    its prev_log_potential share one spectrum of Y_{k-1}: the last step's while
    delta holds, else one more exponential at the new delta. delta_k, the bound
    and the regime come from schedule.steps, as the loop reaches each step.
    trace.gram_steps counts the steps whose batch is scored from the Gram (see
    _gram_scores). A PruningCertificateFailed or NonFinite from a step is raised
    again with the step's k in front of its message. A k_max, given or default,
    above sys.maxsize, more picks than a trace can hold, is a DomainError.
    """
    if k_max is None:
        k_max = schedule.fixed_n or default_k_max(schedule.norm_bound, schedule.dim)
    steps = schedule.steps(k_max)
    if k_max > sys.maxsize:
        raise DomainError(f"k_max={k_max} exceeds {sys.maxsize}, the most picks a trace can hold")
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
    factors = inst.factors
    if factors is not None:
        r = factors.shape[2]
        vtv = factors.swapaxes(1, 2) @ factors
    # X_i <= M, and -X_i <= 1 because A_i is PSD. A factor family is read
    # through its factors unless it is small enough to hold densely
    if factors is None or _fits_one_block(inst):
        stack = _stack(center(inst).xs, m_bound, 1.0)
    else:
        stack = _factor_stack(inst, vtv, m_bound, 1.0)

    d = inst.d
    y = np.zeros((d, d))
    eig = _eigh(y)
    counts = np.zeros(inst.m)
    distinct = gram_steps = 0   # members picked so far, and steps scored from the Gram
    delta = None
    indices: list[int] = []
    records: list[StepRecord] = []

    for k, (step_delta, cap, regime) in enumerate(steps, start=1):
        if step_delta != delta:
            # else the last step's spectrum of Y_{k-1} is at this delta already
            delta = step_delta
            spec = _spectrum(eig[0], delta)
            psi_hi = psi_value(stack.m_hi, delta)
        prev_log_phi = spec.log_phi
        score = None
        # p + r <= GRAM_SHARE * d with p = r * distinct, which never falls: once off, off for good
        if factors is not None and r * (distinct + 1) <= GRAM_SHARE * d:
            score = functools.partial(_gram_scores, eig, r * distinct, factors, vtv,
                                      k=k, delta=delta)
        try:
            best, scored, y, eig, spec = _step(y, eig, spec, stack, delta, score)
        except (PruningCertificateFailed, NonFinite) as exc:
            raise type(exc)(f"step {k}: {exc}") from exc
        gram_steps += score is not None
        log_phi = spec.log_phi

        step_cap = m_bound * psi_hi + prev_log_phi
        if not log_phi <= step_cap + STEP_TOL:
            raise PotentialGrowthViolation(
                k, f"log-potential {log_phi!r} exceeds one-step cap {step_cap!r}"
            )

        indices.append(best + 1)
        if not counts[best]:
            distinct += 1
        counts[best] += 1
        error = abs(spec.norm) / k   # ||Y_k|| / k
        if not error <= cap * (1.0 + BOUND_RTOL):
            raise BoundViolation(k, f"prefix error {error!r} exceeds bound {cap!r}")
        records.append(
            StepRecord(
                k=k,
                delta=delta,
                prev_log_potential=prev_log_phi,
                log_potential=log_phi,
                error=error,
                bound=cap,
                regime=regime,
                evaluated=scored.size,
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
        gram_steps=gram_steps,
    )
