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

A one-step or mgf trial draws its family's numbers only; the block's families
are then built together, before the kernel runs. The PSD-derived ones are
whitened and certified by size in batched calls (_random_psd_factors,
_certify_factor_block), every certificate of Instance included, and the others
are centered and bounded with one _eigvalsh call per d. random_centered_family,
gen_random_psd and Instance run the same code on a block of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError
from .instance import (CenteredFamily, _by_size, _centered_factors, _certify_factor_block,
                       _check_counts, _eigvalsh_each, _random_psd_factors, _rngs)
from .instance import center, gen_random_psd  # noqa: F401 -- module attributes that bench/run.py traces
from .potential import _check_delta, _exp_bound_gap, log_potential_from_eigenvalues, logsumexp, psi_value
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
    return _centered_families([_centered_draw(rng)])[0]


def _centered_draw(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """random_centered_family's draws: its weights and its matrices before centering."""
    d = int(rng.integers(1, 17))
    m = int(rng.integers(1, 13))
    w = rng.random(m) + 1e-3
    return w / w.sum(), random_symmetric(rng, d, 2.0, (m,))


def _centered_families(draws) -> list[CenteredFamily]:
    """The families of random_centered_family's draws, whose matrices it centers in place.

    Each family's bounds come from the spectra of its members and of
    sum_i w_i X_i^2; those of the families of one d come from one _eigvalsh call.
    """
    stacks = []
    for w, xs in draws:
        xs -= np.einsum("i,ijk->jk", w, xs)
        sq = _symmetrize(np.einsum("i,ijk->jk", w, xs @ xs))
        stacks.append(np.concatenate([xs, sq[np.newaxis]]))
    fams = []
    for (w, xs), eigs in zip(draws, _eigvalsh_each(stacks)):
        m1 = max(float(np.max(np.abs(eigs[:-1]))), 1e-9)
        m2 = max(float(np.max(eigs[-1])), 0.0)
        xs.setflags(write=False)
        fams.append(CenteredFamily(weights=w, xs=xs, m1=m1, m2=m2))
    return fams


_PSD_COND_CAP = 1e4   # the condition cap of the PSD-derived families' whitening


def _psd_draw(rng: np.random.Generator) -> tuple[int, int, int, int]:
    """A PSD-derived family's draws: gen_random_psd's d, m, rank and seed."""
    d = int(rng.integers(1, 7))
    rank = int(rng.integers(1, d + 1))
    m = int(rng.integers(max(1, -(-d // rank)), 2 * d + 5))
    return d, m, rank, int(rng.integers(0, 2**63))


def _psd_derived_families(draws) -> list[CenteredFamily]:
    """center(gen_random_psd(d, m, rank, _PSD_COND_CAP, seed)) for each draw, with its bits.

    The block's families are whitened and certified together (see _random_psd_factors
    and _certify_factor_block): every certificate of Instance runs on each of them.
    """
    factors = _random_psd_factors([(d, m, rank, _PSD_COND_CAP, seed) for d, m, rank, seed in draws])
    weights = [np.full(len(v), 1.0 / len(v)) for v in factors]
    fams = []
    for w, v, norm_bound in zip(weights, factors, _certify_factor_block(weights, factors)):
        w.setflags(write=False)
        fams.append(CenteredFamily(weights=w, xs=_centered_factors(v), m1=norm_bound, m2=norm_bound))
    return fams


# --- slack kernels: a batch of inputs, one list per argument, to their slacks -------


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


class _FamilyDraw(NamedTuple):
    """A trial's family, drawn but not built: build makes the families of a block's draws
    of its kind from their args, together."""

    build: Callable
    d: int
    args: tuple


def _family_draw(rng: np.random.Generator, trial: int) -> _FamilyDraw:
    # alternate PSD-derived and unconstrained centered families: the bounds
    # must hold for both
    if trial % 2 == 0:
        args = _psd_draw(rng)
        return _FamilyDraw(_psd_derived_families, args[0], args)
    args = _centered_draw(rng)
    return _FamilyDraw(_centered_families, args[1].shape[1], args)


def _on_families(kernel):
    """kernel, for a block of trials whose first inputs are family draws and last are delta
    draws (value, per_m1): it builds the block's families, those of one kind together, then
    sets delta = value / m1 where per_m1, as each trial would have on its own."""
    def slacks(draws, *inputs):
        *inputs, delta_draws = inputs
        fams = [None] * len(draws)
        for build in {draw.build: None for draw in draws}:
            idx = [i for i, draw in enumerate(draws) if draw.build is build]
            for i, fam in zip(idx, build([draws[i].args for i in idx])):
                fams[i] = fam
        deltas = [value / fam.m1 if per_m1 else value for (value, per_m1), fam in zip(delta_draws, fams)]
        return kernel(fams, *inputs, deltas)
    return slacks


def _one_step_trial(rng: np.random.Generator, trial: int):
    draw = _family_draw(rng, trial)
    y = random_symmetric(rng, draw.d, scale=rng.uniform(0.0, 3.0))
    if rng.random() < 0.1:
        return draw, y, (1e-6, False)
    return draw, y, (rng.uniform(1e-6, 2.0), True)


def _mgf_trial(rng: np.random.Generator, trial: int):
    return _family_draw(rng, trial), (rng.uniform(1e-6, 1.0), True)


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
    p = psi_value(m1, delta)   # scalar_exp_bound_gap at each x, with psi computed once
    return float(np.min([_exp_bound_gap(x, delta, p) for x in xs.tolist()])) / scale


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
    "one-step": (_one_step_trial, _on_families(_one_step_slacks), 1e-9),
    "mgf": (_mgf_trial, _on_families(_mgf_slacks), 1e-9),
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
    rngs = _rngs(seed, (SUITES.index(suite),), trials)
    drawn = [trial(rng, t) for rng, t in zip(rngs, trials)]
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
