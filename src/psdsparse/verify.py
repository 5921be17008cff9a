"""Numerical checks for every inequality behind the greedy guarantee.

Each suite draws random inputs and evaluates one proved inequality, reporting
the worst slack (right side minus left side, in the comparison's natural log
or spectral scale) over all trials. A negative slack beyond the suite's
tolerance falsifies the implementation; the reproducing seed is in the
report.

run_suite runs the trials in blocks of BLOCK. Each trial draws its inputs from
its own Philox stream; a matrix suite's kernel then takes the whole block's
inputs, and puts the matrices of one size through one _eigvalsh or _eigh call
and their log potentials through one stacked logsumexp. Each matrix is still
decomposed alone and each row reduced alone, so every slack has the bits it
would have on its own. The single-input check_* functions call the same
kernels with a block of one.
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
        return _SUITES[self.suite][-1]

    @property
    def passed(self) -> bool:
        return self.worst_slack >= -self.tolerance

    @classmethod
    def merge(cls, suite: str, slacks, seed: int = 0) -> "CheckReport":
        worst = int(np.argmin(slacks))   # the first NaN, if any
        return cls(suite, len(slacks), float(slacks[worst]), seed, worst)


def random_symmetric(rng: np.random.Generator, d: int, scale: float = 1.0,
                     stack: tuple[int, ...] = ()) -> np.ndarray:
    """scale * (G + G^T) / 2 for a standard normal d x d G; with stack, an array of that
    leading shape of such matrices, drawn in one call with the bits of as many calls."""
    g = rng.standard_normal((*stack, d, d))
    return scale * 0.5 * (g + g.swapaxes(-1, -2))


def random_centered_family(rng: np.random.Generator) -> CenteredFamily:
    """1 to 12 random symmetric d x d matrices, d <= 16, weighted mean removed, and their bounds."""
    d = int(rng.integers(1, 17))
    m = int(rng.integers(1, 13))
    w = rng.random(m) + 1e-3
    w = w / w.sum()
    xs = random_symmetric(rng, d, 2.0, (m,))
    xs -= np.einsum("i,ijk->jk", w, xs)
    sq = _symmetrize(np.einsum("i,ijk->jk", w, xs @ xs))
    eigs = _eigvalsh(np.concatenate([xs, sq[np.newaxis]]))
    m1 = max(float(np.max(np.abs(eigs[:m]))), 1e-9)
    m2 = max(float(np.max(eigs[m])), 0.0)
    xs.setflags(write=False)
    return CenteredFamily(weights=w, xs=xs, m1=m1, m2=m2)


def _psd_derived_family(rng: np.random.Generator):
    d = int(rng.integers(1, 7))
    rank = int(rng.integers(1, d + 1))
    m = int(rng.integers(max(1, -(-d // rank)), 2 * d + 5))
    inst = gen_random_psd(d, m, rank, cond_cap=1e4, seed=int(rng.integers(0, 2**63)))
    return center(inst)


# --- slack kernels: a batch of inputs, one list per argument, to their slacks -------


def _by_size(sizes) -> list[list[int]]:
    """The positions of the equal entries of sizes, one list per distinct size."""
    groups = {}
    for i, d in enumerate(sizes):
        groups.setdefault(d, []).append(i)
    return list(groups.values())


def _log_potentials(eigs: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """log Phi_{delta_r} of each row r of an (n, d) stack of spectra: log Phi_1(delta_r mu_r)."""
    return log_potential_from_eigenvalues(deltas[:, np.newaxis] * eigs, 1.0)


def _one_step_slacks(fams, ys, deltas) -> np.ndarray:
    """Slack of: weighted avg of Phi(Y + X_i) <= exp(m2 * psi_{m1}(delta)) * Phi(Y)."""
    out = np.empty(len(fams))
    for idx in _by_size([fam.d for fam in fams]):
        counts = [fams[i].m for i in idx]
        spectra = _eigvalsh(np.concatenate([np.stack([ys[i] for i in idx]),
                                            *(ys[i] + fams[i].xs for i in idx)]))
        row_deltas = np.array([deltas[i] for i in idx])
        logs = _log_potentials(spectra, np.concatenate([row_deltas, np.repeat(row_deltas, counts)]))
        # one weighted log-sum-exp per input: padding its m scores would change their sum
        for i, log_y, scores in zip(idx, logs, np.split(logs[len(idx):], np.cumsum(counts)[:-1])):
            fam = fams[i]
            lhs = float(logsumexp(scores, b=fam.weights))
            out[i] = fam.m2 * psi_value(fam.m1, deltas[i]) + float(log_y) - lhs
    return out


def check_one_step(fam, y: np.ndarray, delta: float) -> CheckReport:
    _check_delta(delta)
    y = _square_symmetric(y, "Y", fam.d)
    return CheckReport.merge("one-step", _one_step_slacks([fam], [y], [delta]))


def _mgf_slacks(fams, deltas) -> np.ndarray:
    """Spectral slack of: sum_i w_i exp(±delta X_i) <= exp(m2 psi_{m1}(delta)) Id."""
    tops = np.empty((len(fams), 2))   # the top eigenvalue of each input's sum, for + and - delta
    for idx in _by_size([fam.d for fam in fams]):
        vals, vecs = _eigh(np.concatenate([fams[i].xs for i in idx]))
        sums, start = [], 0
        for i in idx:
            fam, stop = fams[i], start + fams[i].m
            for sign in (1.0, -1.0):
                sums.append(np.einsum("i,ijk,ik,ilk->jl", fam.weights, vecs[start:stop],
                                      np.exp(sign * deltas[i] * vals[start:stop]), vecs[start:stop]))
            start = stop
        tops[idx] = np.max(_eigvalsh(_symmetrize(np.stack(sums))), axis=-1).reshape(-1, 2)
    caps = [math.exp(fam.m2 * psi_value(fam.m1, delta)) for fam, delta in zip(fams, deltas)]
    return np.min(np.array(caps)[:, np.newaxis] - tops, axis=-1)   # NaN if either slack is NaN


def check_mgf(fam, delta: float) -> CheckReport:
    _check_delta(delta)
    return CheckReport.merge("mgf", _mgf_slacks([fam], [delta]))


def _gt_slacks(us, vs) -> np.ndarray:
    """Log-scale slack of the trace product bound: log tr(e^U e^V) - log tr e^{U+V}.

    With U = P diag(a) P^T and V = Q diag(b) Q^T,
    tr(e^U e^V) = sum_jk e^{a_j + b_k} <p_j, q_k>^2, so both sides are
    log-sum-exps and no exponential can overflow or underflow to a zero sum.
    """
    out = np.empty(len(us))
    for idx in _by_size([len(u) for u in us]):
        n = len(idx)
        u, v = np.stack([us[i] for i in idx]), np.stack([vs[i] for i in idx])
        lhs = logsumexp(_eigvalsh(_symmetrize(u + v)))
        vals, vecs = _eigh(np.concatenate([u, v]))
        a, b, p, q = vals[:n], vals[n:], vecs[:n], vecs[n:]
        overlap = p.swapaxes(1, 2) @ q
        exponents = a[:, :, np.newaxis] + b[:, np.newaxis, :]
        rhs = logsumexp(exponents.reshape(n, -1), b=(overlap * overlap).reshape(n, -1))
        out[idx] = rhs - lhs
    return out


def check_golden_thompson(u: np.ndarray, v: np.ndarray) -> CheckReport:
    u = _square_symmetric(u, "U")
    v = _square_symmetric(v, "V", len(u))
    return CheckReport.merge("gt", _gt_slacks([u], [v]))


def _interp_slacks(ys, etas, deltas) -> np.ndarray:
    """Slack of: log Phi_eta <= (1 - eta/delta) log(2d) + (eta/delta) log Phi_delta."""
    out = np.empty(len(ys))
    etas, deltas = np.array(etas, dtype=np.float64), np.array(deltas, dtype=np.float64)
    for idx in _by_size([len(y) for y in ys]):
        d, eta, delta = len(ys[idx[0]]), etas[idx], deltas[idx]
        eigs = _eigvalsh(np.stack([ys[i] for i in idx]))
        lhs, log_delta = _log_potentials(np.concatenate([eigs, eigs]),
                                         np.concatenate([eta, delta])).reshape(2, -1)
        frac = eta / delta
        out[idx] = (1.0 - frac) * math.log(2 * d) + frac * log_delta - lhs
    out[etas == 0.0] = 0.0  # Phi_0 = 2d on both sides, analytically
    return out


def check_interpolation(y: np.ndarray, eta: float, delta: float) -> CheckReport:
    _check_delta(delta)
    if not 0 <= eta <= delta:
        raise DomainError(f"need 0 <= eta <= delta, got eta={eta!r} delta={delta!r}")
    y = _square_symmetric(y, "Y")
    return CheckReport.merge("interp", _interp_slacks([y], [eta], [delta]))


def _lower_slacks(ys, deltas) -> np.ndarray:
    """Slack of the norm lower bound: delta * ||Y|| <= log Phi_delta(Y)."""
    out = np.empty(len(ys))
    deltas = np.array(deltas, dtype=np.float64)
    for idx in _by_size([len(y) for y in ys]):
        eigs = _eigvalsh(np.stack([ys[i] for i in idx]))
        delta = deltas[idx]
        out[idx] = _log_potentials(eigs, delta) - delta * np.max(np.abs(eigs), axis=-1)
    return out


def check_lower_bound(y: np.ndarray, delta: float) -> CheckReport:
    _check_delta(delta)
    return CheckReport.merge("lower", _lower_slacks([_square_symmetric(y, "Y")], [delta]))


# --- randomized suite drivers ----------------------------------------------------


def _family_for_trial(rng: np.random.Generator, trial: int):
    # alternate PSD-derived and unconstrained centered families: the bounds
    # must hold for both
    if trial % 2 == 0:
        return _psd_derived_family(rng)
    return random_centered_family(rng)


def _one_step_trial(rng: np.random.Generator, trial: int):
    fam = _family_for_trial(rng, trial)
    y = random_symmetric(rng, fam.d, scale=rng.uniform(0.0, 3.0))
    if rng.random() < 0.1:
        delta = 1e-6
    else:
        delta = rng.uniform(1e-6, 2.0) / fam.m1
    return fam, y, delta


def _mgf_trial(rng: np.random.Generator, trial: int):
    fam = _family_for_trial(rng, trial)
    return fam, rng.uniform(1e-6, 1.0) / fam.m1


def _gt_trial(rng: np.random.Generator, trial: int):
    d = int(rng.integers(1, 17))
    u = random_symmetric(rng, d)
    v = random_symmetric(rng, d)
    for s in (u, v):
        top = float(np.max(np.abs(_eigvalsh(s))))
        if top > 0:
            s *= rng.uniform(0.1, 2.0) / top
    if trial % 16 == 0:
        v[:] = 0.0  # equality case
    return u, v


def _interp_trial(rng: np.random.Generator, trial: int):
    d = int(rng.integers(1, 17))
    y = random_symmetric(rng, d, scale=rng.uniform(0.0, 3.0))
    delta = rng.uniform(0.05, 2.0)
    if trial % 8 == 0:
        eta = 0.0
    elif trial % 8 == 1:
        eta = delta
    else:
        eta = rng.uniform(0.0, delta)
    return y, eta, delta


def _lower_trial(rng: np.random.Generator, trial: int):
    d = int(rng.integers(1, 17))
    y = random_symmetric(rng, d, scale=rng.uniform(0.0, 4.0))
    delta = rng.uniform(1e-6, 2.0)
    return y, delta


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


# name -> (trial, kernel, tolerance). A trial draws its inputs, and the kernel takes
# those of a block of trials, one list per argument; a suite with no kernel draws its
# slacks. A suite's position keys its trials' Philox streams, so the order is part of
# every recorded seed: new suites go at the end.
_SUITES = {
    "one-step": (_one_step_trial, _one_step_slacks, 1e-9),
    "mgf": (_mgf_trial, _mgf_slacks, 1e-9),
    "gt": (_gt_trial, _gt_slacks, 1e-9),
    "interp": (_interp_trial, _interp_slacks, 1e-9),
    "lower": (_lower_trial, _lower_slacks, 1e-9),
    "scalar": (_scalar_trial, None, 1e-12),
    "psi": (_psi_trial, None, 1e-12),
}
SUITES = tuple(_SUITES)
# The most trials run_suite draws before it computes their slacks. A block of 128 gives
# each size d <= 16 batches of several matrices, and its inputs stay under 1 MB
# (one-step's peak under tracemalloc: 0.70 MB over 200 trials).
BLOCK = 128


def _block_slacks(suite: str, seed: int, trials: range) -> np.ndarray:
    """The slacks of a suite's trials in the given range, in trial order."""
    trial, kernel, _ = _SUITES[suite]
    suite_index = SUITES.index(suite)
    drawn = [trial(_rng(seed, suite_index, t), t) for t in trials]
    if kernel is None:
        return np.array(drawn, dtype=np.float64)
    return kernel(*zip(*drawn))


@_one_blas_thread()
def run_suite(suite: str, trials: int, seed: int) -> CheckReport:
    """Run one named suite for the given number of random trials.

    The trials run in blocks of BLOCK, and each block's worst slack is folded into
    the report as CheckReport.merge would fold it: the first NaN wins, and a tie
    keeps the earlier trial. Only one block's slacks are held at a time.
    """
    if suite not in _SUITES:
        raise DomainError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    _check_counts(trials=trials)
    worst, worst_trial = math.nan, 0
    for start in range(0, trials, BLOCK):
        slacks = _block_slacks(suite, seed, range(start, min(start + BLOCK, trials)))
        j = int(np.argmin(slacks))   # the first NaN, if any
        if start == 0 or np.argmin([worst, slacks[j]]) == 1:
            worst, worst_trial = float(slacks[j]), start + j
    return CheckReport(suite, int(trials), worst, seed, worst_trial)


def run_all(trials: int, seed: int) -> list[CheckReport]:
    return [run_suite(s, trials, seed) for s in SUITES]
