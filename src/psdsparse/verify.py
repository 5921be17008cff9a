"""Numerical checks for every inequality behind the greedy guarantee.

Each suite draws random inputs and evaluates one proved inequality, reporting
the worst slack (right side minus left side, in the comparison's natural log
or spectral scale) over all trials. A negative slack beyond the suite's
tolerance falsifies the implementation; the reproducing seed is in the
report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .instance import CenteredFamily, _check_counts, _rng, center, gen_random_psd
from .potential import (_check_delta, log_potential_from_eigenvalues, logsumexp, psi_value,
                        scalar_exp_bound_gap)
from .symmat import _eigh, _eigvalsh, _one_blas_thread, _square_symmetric, _symmetrize
from .symmat import sym_apply  # noqa: F401 -- a module attribute that bench/run.py traces


@dataclass(frozen=True)
class CheckReport:
    """A suite's worst slack; ``tolerance`` and ``passed`` derive from it, so NaN fails."""

    suite: str
    trials: int
    worst_slack: float
    seed: int = 0
    worst_trial: int = 0

    @property
    def tolerance(self) -> float:
        return _SUITES[self.suite][1]

    @property
    def passed(self) -> bool:
        return self.worst_slack >= -self.tolerance

    @classmethod
    def merge(cls, suite: str, slacks, seed: int = 0) -> "CheckReport":
        worst = int(np.argmin(slacks))   # the first NaN, if any
        return cls(suite, len(slacks), float(slacks[worst]), seed, worst)


def random_symmetric(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((d, d))
    return scale * 0.5 * (g + g.T)


def random_centered_family(rng: np.random.Generator) -> CenteredFamily:
    """1 to 12 random symmetric d x d matrices, d <= 16, weighted mean removed, and their bounds."""
    d = int(rng.integers(1, 17))
    m = int(rng.integers(1, 13))
    w = rng.random(m) + 1e-3
    w = w / w.sum()
    xs = np.stack([random_symmetric(rng, d, 2.0) for _ in range(m)])
    xs -= np.einsum("i,ijk->jk", w, xs)
    norms = np.max(np.abs(_eigvalsh(xs)), axis=-1)
    m1 = max(float(np.max(norms)), 1e-9)
    sq = _symmetrize(np.einsum("i,ijk->jk", w, xs @ xs))
    m2 = max(float(np.max(_eigvalsh(sq))), 0.0)
    xs.setflags(write=False)
    return CenteredFamily(weights=w, xs=xs, m1=m1, m2=m2)


def _psd_derived_family(rng: np.random.Generator):
    d = int(rng.integers(1, 7))
    rank = int(rng.integers(1, d + 1))
    m = int(rng.integers(max(1, -(-d // rank)), 2 * d + 5))
    inst = gen_random_psd(d, m, rank, cond_cap=1e4, seed=int(rng.integers(0, 2**63)))
    return center(inst)


# --- single-input checks ---------------------------------------------------------


def _one_step_slack(fam, y: np.ndarray, delta: float) -> float:
    """Slack of: weighted avg of Phi(Y + X_i) <= exp(m2 * psi_{m1}(delta)) * Phi(Y)."""
    scores = log_potential_from_eigenvalues(_eigvalsh(y[np.newaxis] + fam.xs), delta)
    lhs = float(logsumexp(scores, b=fam.weights))
    rhs = fam.m2 * psi_value(fam.m1, delta) + float(
        log_potential_from_eigenvalues(_eigvalsh(y), delta)
    )
    return rhs - lhs


def check_one_step(fam, y: np.ndarray, delta: float) -> CheckReport:
    _check_delta(delta)
    y = _square_symmetric(y, "Y", fam.d)
    return CheckReport.merge("one-step", [_one_step_slack(fam, y, delta)])


def _mgf_slack(fam, delta: float) -> float:
    """Spectral slack of: sum_i w_i exp(±delta X_i) <= exp(m2 psi_{m1}(delta)) Id."""
    vals, vecs = _eigh(fam.xs)
    cap = math.exp(fam.m2 * psi_value(fam.m1, delta))
    slacks = []
    for sign in (1.0, -1.0):
        z = np.einsum("i,ijk,ik,ilk->jl", fam.weights, vecs, np.exp(sign * delta * vals), vecs)
        slacks.append(cap - float(np.max(_eigvalsh(_symmetrize(z)))))
    return float(np.min(slacks))   # NaN if any slack is NaN


def check_mgf(fam, delta: float) -> CheckReport:
    _check_delta(delta)
    return CheckReport.merge("mgf", [_mgf_slack(fam, delta)])


def _gt_slack(u: np.ndarray, v: np.ndarray) -> float:
    """Log-scale slack of the trace product bound: log tr(e^U e^V) - log tr e^{U+V}.

    With U = P diag(a) P^T and V = Q diag(b) Q^T,
    tr(e^U e^V) = sum_jk e^{a_j + b_k} <p_j, q_k>^2, so both sides are
    log-sum-exps and no exponential can overflow or underflow to a zero sum.
    """
    lhs = float(logsumexp(_eigvalsh(_symmetrize(u + v))))
    a, p = _eigh(u)
    b, q = _eigh(v)
    overlap = p.T @ q
    rhs = float(logsumexp(np.add.outer(a, b).ravel(), b=(overlap * overlap).ravel()))
    return rhs - lhs


def check_golden_thompson(u: np.ndarray, v: np.ndarray) -> CheckReport:
    u = _square_symmetric(u, "U")
    v = _square_symmetric(v, "V", len(u))
    return CheckReport.merge("gt", [_gt_slack(u, v)])


def _interp_slack(y: np.ndarray, eta: float, delta: float, d: int) -> float:
    """Slack of: log Phi_eta <= (1 - eta/delta) log(2d) + (eta/delta) log Phi_delta."""
    if eta == 0.0:
        return 0.0  # Phi_0 = 2d on both sides, analytically
    frac = eta / delta
    eigs = _eigvalsh(y)
    lhs = float(log_potential_from_eigenvalues(eigs, eta))
    rhs = (1.0 - frac) * math.log(2 * d) + frac * float(
        log_potential_from_eigenvalues(eigs, delta)
    )
    return rhs - lhs


def check_interpolation(y: np.ndarray, eta: float, delta: float) -> CheckReport:
    _check_delta(delta)
    if not 0 <= eta <= delta:
        raise DomainError(f"need 0 <= eta <= delta, got eta={eta!r} delta={delta!r}")
    y = _square_symmetric(y, "Y")
    return CheckReport.merge("interp", [_interp_slack(y, eta, delta, len(y))])


def _lower_slack(y: np.ndarray, delta: float) -> float:
    """Slack of the norm lower bound: delta * ||Y|| <= log Phi_delta(Y)."""
    eigs = _eigvalsh(y)
    return float(log_potential_from_eigenvalues(eigs, delta)) - delta * float(
        np.max(np.abs(eigs))
    )


def check_lower_bound(y: np.ndarray, delta: float) -> CheckReport:
    _check_delta(delta)
    return CheckReport.merge("lower", [_lower_slack(_square_symmetric(y, "Y"), delta)])


# --- randomized suite drivers ----------------------------------------------------


def _family_for_trial(rng: np.random.Generator, trial: int):
    # alternate PSD-derived and unconstrained centered families: the bounds
    # must hold for both
    if trial % 2 == 0:
        return _psd_derived_family(rng)
    return random_centered_family(rng)


def _one_step_trial(rng: np.random.Generator, trial: int) -> float:
    fam = _family_for_trial(rng, trial)
    y = random_symmetric(rng, fam.d, scale=rng.uniform(0.0, 3.0))
    if rng.random() < 0.1:
        delta = 1e-6
    else:
        delta = rng.uniform(1e-6, 2.0) / fam.m1
    return _one_step_slack(fam, y, delta)


def _mgf_trial(rng: np.random.Generator, trial: int) -> float:
    fam = _family_for_trial(rng, trial)
    delta = rng.uniform(1e-6, 1.0) / fam.m1
    return _mgf_slack(fam, delta)


def _gt_trial(rng: np.random.Generator, trial: int) -> float:
    d = int(rng.integers(1, 17))
    u = random_symmetric(rng, d)
    v = random_symmetric(rng, d)
    for s in (u, v):
        top = float(np.max(np.abs(_eigvalsh(s))))
        if top > 0:
            s *= rng.uniform(0.1, 2.0) / top
    if trial % 16 == 0:
        v[:] = 0.0  # equality case
    return _gt_slack(u, v)


def _interp_trial(rng: np.random.Generator, trial: int) -> float:
    d = int(rng.integers(1, 17))
    y = random_symmetric(rng, d, scale=rng.uniform(0.0, 3.0))
    delta = rng.uniform(0.05, 2.0)
    if trial % 8 == 0:
        eta = 0.0
    elif trial % 8 == 1:
        eta = delta
    else:
        eta = rng.uniform(0.0, delta)
    return _interp_slack(y, eta, delta, d)


def _lower_trial(rng: np.random.Generator, trial: int) -> float:
    d = int(rng.integers(1, 17))
    y = random_symmetric(rng, d, scale=rng.uniform(0.0, 4.0))
    delta = rng.uniform(1e-6, 2.0)
    return _lower_slack(y, delta)


def _scalar_trial(rng: np.random.Generator, trial: int) -> float:
    m1 = rng.uniform(0.1, 8.0)
    delta = rng.uniform(1e-6, 5.0) / m1
    xs = np.concatenate(
        [
            np.linspace(-50.0 * m1, m1, 48),
            rng.uniform(-50.0 * m1, m1, 16),
            [0.0, m1],
        ]
    )
    scale = math.exp(delta * m1)
    return float(np.min([scalar_exp_bound_gap(float(x), delta, m1) for x in xs])) / scale


def _psi_trial(rng: np.random.Generator, trial: int) -> float:
    m1 = rng.uniform(0.1, 8.0)
    slacks = []
    d1 = rng.uniform(1e-9, 1.0) / m1  # within the quadratic-cap range
    v1 = psi_value(m1, d1)
    slacks.append((d1 * d1 - v1) / (d1 * d1))
    slacks.append((v1 - 0.5 * d1 * d1) / (d1 * d1))
    d2 = rng.uniform(1e-6, 5.0) / m1  # half-quadratic lower bound needs no range cap
    v2 = psi_value(m1, d2)
    slacks.append((v2 - 0.5 * d2 * d2) / (d2 * d2))
    lo, hi = sorted((d2, rng.uniform(1e-6, 5.0) / m1))
    vhi = psi_value(m1, hi)
    slacks.append((vhi - psi_value(m1, lo)) / max(vhi, 1e-300))
    return float(np.min(slacks))


# name -> (trial, tolerance). A suite's position keys its trials' Philox
# streams, so the order is part of every recorded seed: new suites go at the end.
_SUITES = {
    "one-step": (_one_step_trial, 1e-9),
    "mgf": (_mgf_trial, 1e-9),
    "gt": (_gt_trial, 1e-9),
    "interp": (_interp_trial, 1e-9),
    "lower": (_lower_trial, 1e-9),
    "scalar": (_scalar_trial, 1e-12),
    "psi": (_psi_trial, 1e-12),
}
SUITES = tuple(_SUITES)


@_one_blas_thread()
def run_suite(suite: str, trials: int, seed: int) -> CheckReport:
    """Run one named suite for the given number of random trials."""
    if suite not in _SUITES:
        raise DomainError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    _check_counts(trials=trials)
    fn = _SUITES[suite][0]
    suite_index = SUITES.index(suite)
    slacks = [fn(_rng(seed, suite_index, t), t) for t in range(trials)]
    return CheckReport.merge(suite, slacks, seed)


def run_all(trials: int, seed: int) -> list[CheckReport]:
    return [run_suite(s, trials, seed) for s in SUITES]
