import hashlib
import json
import math
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psdsparse as ps
from psdsparse import greedy, instance, symmat
from psdsparse.greedy import REGIME_COARSE, REGIME_FINE
from psdsparse.potential import log_potential_from_eigenvalues

from conftest import canonical_raw, dense_mats, pinned_runs, pinned_trace, rng_for


# --- schedules --------------------------------------------------------------------


def test_schedule_canonical_crossover():
    sched = ps.Schedule(2.0, 2)
    assert sched.fine_start == 3  # floor(2 ln4) + 1
    assert sched.delta(1) == sched.delta(2) == 0.5
    assert sched.delta(3) == pytest.approx(math.sqrt(math.log(4) / 6), rel=1e-15)


def test_schedule_large_coarse_phase():
    sched = ps.Schedule(50.0, 1)
    assert sched.fine_start == 35  # floor(50 ln2) + 1
    assert all(sched.delta(k) == 0.02 for k in range(1, 35))
    assert sched.delta(35) < 0.02


def test_schedule_fixed_constant_delta():
    sched = ps.Schedule(2.0, 2, fixed_n=5)
    want = min(0.5, math.sqrt(math.log(4) / 10.0))
    assert all(sched.delta(k) == want for k in (1, 2, 5))
    # coarse target: delta capped at 1/M
    tight = ps.Schedule(50.0, 1, fixed_n=2)
    assert tight.delta(1) == 1.0 / 50.0


@given(st.integers(1, 10**6), st.floats(1.0, 64.0), st.integers(1, 64))
@settings(max_examples=120, deadline=None)
def test_schedule_delta_nonincreasing_and_capped(k, m, d):
    sched = ps.Schedule(m, d)
    assert sched.delta(k) <= 1.0 / m + 1e-18
    assert sched.delta(k + 1) <= sched.delta(k)


def test_schedule_rejects_bad_arguments():
    with pytest.raises(ps.DomainError):
        ps.Schedule(0.5, 2)
    with pytest.raises(ps.DomainError):
        ps.Schedule(2.0, 0)
    with pytest.raises(ps.DomainError):
        ps.Schedule(2.0, 2, fixed_n=0)
    with pytest.raises(ps.DomainError):
        ps.Schedule(2.0, 2).delta(0)


def test_schedule_steps_are_worked_out_as_the_run_reaches_them():
    # nothing is built ahead of the first step: a list of 10^5 steps took 12 MB
    sched = ps.Schedule(2.0, 2)
    tracemalloc.start()
    try:
        first = next(sched.steps(10**5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10
    assert first == (sched.delta(1), sched.bound(1), sched.regime(1))


def test_counts_beyond_the_float_range_raise():
    big = 10**400
    with pytest.raises(ps.DomainError, match="^k exceeds the largest float"):
        instance._check_counts(k=big)
    for call in (lambda: ps.Schedule(2.0, 2).delta(big), lambda: ps.Schedule(2.0, 2, fixed_n=big),
                 lambda: ps.bound_all_steps(big, 2.0, 2), lambda: ps.bound_fixed_n(big, 2.0, 2)):
        with pytest.raises(ps.DomainError, match="exceeds the largest float"):
            call()


def test_fixed_schedule_bound_matches_closed_form_at_n():
    for m, d, n in ((2.0, 2, 5), (4.0, 8, 100), (16.0, 16, 7986)):
        sched = ps.Schedule(m, d, fixed_n=n)
        assert sched.bound(n) == pytest.approx(ps.bound_fixed_n(n, m, d), rel=1e-12)


# --- closed-form bounds -----------------------------------------------------------


def test_bound_all_steps_values():
    assert ps.bound_all_steps(1, 2, 2) == pytest.approx(5.545177444479562, rel=1e-15)
    assert ps.bound_all_steps(100, 1, 1) == pytest.approx(0.24976638334730933, rel=1e-15)


def test_bound_all_steps_branch_selection():
    ml = 2.0 * math.log(4)  # ~2.773
    assert ps.bound_all_steps(2, 2.0, 2) == pytest.approx(2 * ml / 2)      # coarse
    assert ps.bound_all_steps(3, 2.0, 2) == pytest.approx(3 * math.sqrt(ml / 3))  # fine
    # at the crossover the coarse form is worth 2 and the fine form 3
    assert 2 * ml / ml == pytest.approx(2.0)
    assert 3 * math.sqrt(ml / ml) == pytest.approx(3.0)


def test_bound_fixed_n_values():
    assert ps.bound_fixed_n(100, 1, 1) == pytest.approx(0.16651092223153955, rel=1e-12)
    assert ps.bound_fixed_n(1, 4, 8) == pytest.approx(22.18070977791825, rel=1e-12)


def test_bounds_reject_bad_arguments():
    for fn in (ps.bound_all_steps, ps.bound_fixed_n):
        with pytest.raises(ps.DomainError):
            fn(0, 2, 2)
        with pytest.raises(ps.DomainError):
            fn(5, 0.5, 2)


@pytest.mark.parametrize("d", [2.5, 2.0, True], ids=["2.5", "2.0", "True"])
def test_family_constants_need_an_integer_dimension(d):
    for call in (lambda: ps.Schedule(2.0, d), lambda: ps.required_n(0.5, 2.0, d),
                 lambda: ps.default_k_max(2.0, d), lambda: ps.bound_all_steps(1, 2.0, d),
                 lambda: ps.bound_fixed_n(1, 2.0, d)):
        with pytest.raises(ps.DomainError, match="integer d"):
            call()
    assert ps.Schedule(2.0, np.int64(2)).bound(1) == ps.Schedule(2.0, 2).bound(1)


# 1.5e308 is finite, but M*ln(4) is not
@pytest.mark.parametrize("m", [math.inf, -math.inf, math.nan, 1.5e308])
def test_non_finite_norm_bound_raises(m):
    with pytest.raises(ps.DomainError):
        ps.Schedule(m, 2)
    for fn in (ps.bound_all_steps, ps.bound_fixed_n):
        with pytest.raises(ps.DomainError):
            fn(5, m, 2)
    with pytest.raises(ps.DomainError):
        ps.required_n(0.5, m, 2)
    with pytest.raises(ps.DomainError):
        ps.default_k_max(m, 2)


@pytest.mark.parametrize("eps", [1e-200, 1e-160])
def test_required_n_rejects_an_epsilon_whose_n_overflows(eps):
    with pytest.raises(ps.DomainError, match="epsilon"):
        ps.required_n(eps, 16.0, 16)


def test_bounds_accept_every_norm_bound_a_schedule_accepts():
    # validation keeps norm bounds down to 1 - 1e-10, and so does Schedule
    m = 1.0 - 5e-11
    assert ps.Schedule(m, 1).bound(1) == ps.bound_all_steps(1, m, 1)
    assert ps.bound_fixed_n(3, m, 1) > 0 and ps.required_n(0.5, m, 1) > 0


@given(st.integers(1, 10**5), st.floats(1.0, 64.0), st.integers(1, 128))
@settings(max_examples=150, deadline=None)
def test_fixed_bound_never_exceeds_all_steps_bound(n, m, d):
    assert ps.bound_fixed_n(n, m, d) <= ps.bound_all_steps(n, m, d) * (1 + 1e-12)


def test_required_n_values():
    assert ps.required_n(1, 1, 1) == 7
    assert ps.required_n(0.5, 2, 8) == 200
    assert ps.required_n(0.25, 16, 16) == 7986


def test_required_n_rejects_bad_epsilon():
    for eps in (0.0, -0.5, 1.5):
        with pytest.raises(ps.DomainError):
            ps.required_n(eps, 1, 1)


def test_required_n_puts_fine_bound_at_or_below_epsilon():
    for m in (1.0, 2.5, 16.0):
        for d in (1, 4, 64):
            n = ps.required_n(1.0, m, d)
            assert ps.bound_all_steps(n, m, d) <= 1.0 + 1e-12


def test_default_k_max():
    assert ps.default_k_max(2.0, 2) == 64
    assert ps.default_k_max(16.0, 16) == 224


# --- selection --------------------------------------------------------------------


def test_select_next_tie_breaks_to_smallest_index(canonical):
    fam = ps.center(canonical)
    for delta in (0.1, 0.5, 1.0):
        idx, value = ps.select_next(np.zeros((2, 2)), delta, fam)
        assert idx == 1
        want = math.log(2 * math.exp(delta) + 2 * math.exp(-delta))
        assert value == pytest.approx(want, rel=1e-14)


def test_select_next_strictly_prefers_cancellation(canonical):
    fam = ps.center(canonical)
    y = np.diag([1.0, -1.0])
    idx, value = ps.select_next(y, 0.5, fam)
    assert idx == 2
    assert value == pytest.approx(math.log(4.0), rel=1e-14)


def test_step_counts_accept_numpy_integers(canonical):
    decaying, fixed = ps.Schedule(2.0, 2), ps.Schedule(2.0, 2, fixed_n=4)
    for sched in (decaying, fixed):
        assert sched.delta(np.int64(5)) == sched.delta(5)
        assert sched.bound(np.int64(5)) == sched.bound(5)
        assert sched.regime(np.int64(5)) == sched.regime(5)
    assert ps.bound_all_steps(np.int64(5), 2.0, 2) == ps.bound_all_steps(5, 2.0, 2)
    assert ps.run(canonical, decaying, k_max=np.int64(5)).indices == (1, 2, 1, 2, 1)


def test_select_next_single_member_keeps_potential():
    inst = ps.validate({"d": 1, "items": [{"lambda": 1.0, "A": [[1.0]]}]})
    fam = ps.center(inst)
    y = np.array([[0.7]])
    idx, value = ps.select_next(y, 0.3, fam)
    assert idx == 1
    assert value == pytest.approx(ps.log_potential(y, 0.3), rel=1e-15)


@pytest.mark.parametrize("count", [2.5, 2.0, True, "2", math.nan, 0, -1, np.int64(0)],
                         ids=["2.5", "2.0", "True", "str", "nan", "0", "-1", "int64-0"])
def test_step_counts_must_be_integers(canonical, count):
    with pytest.raises(ps.DomainError, match="integer"):
        ps.Schedule(2.0, 2, fixed_n=count)
    with pytest.raises(ps.DomainError, match="integer"):
        ps.run(canonical, ps.Schedule(2.0, 2), k_max=count)
    with pytest.raises(ps.DomainError, match="integer"):
        ps.sample_run(canonical, count, 0)
    decaying, fixed = ps.Schedule(2.0, 2), ps.Schedule(2.0, 2, fixed_n=4)
    for call in (decaying.delta, decaying.bound, decaying.regime, fixed.delta, fixed.bound,
                 fixed.regime, lambda k: ps.bound_all_steps(k, 2.0, 2),
                 lambda k: ps.bound_fixed_n(k, 2.0, 2),
                 lambda trials: ps.run_suite("psi", trials, 0), lambda trials: ps.run_all(trials, 0)):
        with pytest.raises(ps.DomainError, match="integer"):
            call(count)
    assert ps.run(canonical, ps.Schedule(2.0, 2, fixed_n=np.int64(2))).indices == (1, 2)


def test_select_next_rejects_bad_inputs(canonical):
    fam = ps.center(canonical)
    for delta in (0.0, math.nan, math.inf):
        with pytest.raises(ps.DomainError, match="delta"):
            ps.select_next(np.zeros((2, 2)), delta, fam)
    with pytest.raises(ps.EmptyFamily):
        ps.CenteredFamily(weights=np.empty(0), xs=np.empty((0, 2, 2)), m1=1.0, m2=1.0)
    with pytest.raises(ps.DimensionMismatch):
        ps.select_next(np.zeros((3, 3)), 0.1, ps.center(ps.gen_bases(2, 1, 0)))


def test_selection_beats_weighted_average(canonical):
    # the chosen candidate can never exceed the weight-averaged potential
    from scipy.special import logsumexp

    fam = ps.center(ps.gen_random_psd(4, 9, 2, 1e4, 21))
    rngy = np.random.Generator(np.random.Philox(17))
    for _ in range(10):
        g = rngy.standard_normal((4, 4))
        y = (g + g.T) / 2
        delta = rngy.uniform(0.01, 1.0 / fam.m1)
        idx, value = ps.select_next(y, delta, fam)
        scores = [
            ps.log_potential(y + x, delta) for x in fam.xs
        ]
        avg = float(logsumexp(scores, b=fam.weights))
        assert value <= avg + 1e-12
        assert value == pytest.approx(min(scores), rel=1e-14)


# --- candidate pruning ------------------------------------------------------------

def _exact_run(source, fixed_n, k_max):
    """(instance, schedule, trace) of exact greedy at fixed_n and k_max on source.

    source is a family maker, run here, or the name of the conftest pinned run with
    that schedule and k_max, whose shared trace is returned.
    """
    if isinstance(source, str):
        inst, sched, pinned_k_max = pinned_runs()[source]
        assert (sched.fixed_n, pinned_k_max) == (fixed_n, k_max), source
        return inst, sched, pinned_trace(source)
    inst = source()
    sched = ps.Schedule(inst.norm_bound, inst.d, fixed_n=fixed_n)
    return inst, sched, ps.run(inst, sched, k_max=k_max)


# d=1, M=50: the coarse-regime instance of acceptance criterion 8
_COARSE_RAW = {
    "d": 1,
    "items": [{"lambda": 1 / 99, "A": [[50.0]]}, {"lambda": 98 / 99, "A": [[0.5]]}],
}

# d=1, X_i = -1 and +1: the curvature bound is nearly exact along a member at -m_lo
_PLUS_MINUS_ONE_RAW = {
    "d": 1,
    "items": [{"lambda": 0.5, "A": [[0.0]]}, {"lambda": 0.5, "A": [[2.0]]}],
}

_STATE_FAMILIES = {
    "bases": lambda seed: ps.gen_bases(4, 3, seed),  # members of one basis tie exactly
    "psd": lambda seed: ps.gen_random_psd(5, 12, 2, 1e4, seed),
    "graph": lambda seed: ps.gen_graph_edges(ps.random_connected_edges(7, 12, seed)),
    "coarse": lambda seed: ps.validate(_COARSE_RAW),
    "plus-minus-one": lambda seed: ps.validate(_PLUS_MINUS_ONE_RAW),
}


def _check_pruning_state(inst, y, delta, m_lo=1.0):
    """Lower bounds hold on every exact score, no tie is skipped, and the pruned pick is exact.

    The member with the least lower bound, first, is always scored, and every member
    scored has a lower bound within TIE_TOL plus the margin of first's eigh score.
    Y_k = Y + X_pick is returned with its eigh, the returned log Phi_delta(Y_k) is read
    off that eigh, and it lies within the margin of the pick's eigvalsh score.

    Checked for the dense stack and, for a factor family, for the factor stack run uses,
    with the spectral bounds X_i <= M and -X_i <= m_lo (1 in run, M in select_next).
    """
    xs = ps.center(inst).xs
    stacks = [greedy._stack(xs, inst.norm_bound, m_lo)]
    if inst.factors is not None:
        vtv = inst.factors.swapaxes(1, 2) @ inst.factors
        stacks.append(greedy._factor_stack(inst, vtv, inst.norm_bound, m_lo))
    full = greedy._candidate_scores(y, xs.copy(), delta)
    eig = greedy._eigh(y)
    spec = greedy._spectrum(eig[0], delta)
    for stack in stacks:
        lower, margin = greedy._bounds(eig, spec, stack, delta)
        assert np.all(lower - margin <= full)

        best, keep, y_k, eig_k, spec_k = greedy._step(y, eig, spec, stack, delta)
        log_phi = spec_k.log_phi
        ties = np.flatnonzero(full <= np.min(full) + greedy.TIE_TOL)
        assert set(ties.tolist()) <= set(keep.tolist())
        first = int(np.argmin(lower))
        assert first in keep
        first_score = log_potential_from_eigenvalues(greedy._eigh(y + xs[first])[0], delta)
        within = np.flatnonzero(lower <= first_score + greedy.TIE_TOL + margin)
        assert set(keep.tolist()) <= set(within.tolist())
        assert best == greedy._pick(full)
        want = y + xs[best]
        mu = greedy._eigh(want)[0]
        assert y_k.tobytes() == want.tobytes()
        assert eig_k[0].tobytes() == mu.tobytes()
        assert log_phi == log_potential_from_eigenvalues(mu, delta)
        assert abs(log_phi - full[best]) <= margin


@given(
    st.sampled_from(sorted(_STATE_FAMILIES)),
    st.integers(0, 2**16),
    st.booleans(),
    st.integers(1, 60),
)
@settings(max_examples=60, deadline=None)
def test_pruning_is_sound_on_reachable_states(kind, seed, fixed, k):
    # run k steps and stop, then check the choice of step k+1 against full scoring
    inst = _STATE_FAMILIES[kind](seed)
    sched = ps.Schedule(inst.norm_bound, inst.d, fixed_n=k if fixed else None)
    trace = ps.run(inst, sched, k_max=k)
    assert all(1 <= r.evaluated <= inst.m for r in trace.records)
    _check_pruning_state(inst, trace.running_sum, sched.delta(k + 1))


@pytest.mark.parametrize("t", [-40000.0, 40000.0])
def test_pruning_is_sound_beyond_exp_overflow(t):
    # delta*||Y|| = 800: the bounds are formed after shifting by delta*max|mu|
    inst = ps.validate(_COARSE_RAW)
    _check_pruning_state(inst, np.array([[t]]), 1.0 / inst.norm_bound)


@pytest.mark.parametrize("t", [-20.0, 20.0])
def test_curvature_bound_is_sound_where_it_is_nearly_exact(t):
    # d=1 and X_i = -+1 at delta = 1/2: one exponential dominates and the
    # curvature of Phi along Y + tX is known exactly, so a bound that dropped
    # m_lo (t > 0) or m_hi (t < 0) from the spectrum's range would exceed the
    # exact score of the member that moves Y back toward 0
    inst = ps.validate(_PLUS_MINUS_ONE_RAW)
    _check_pruning_state(inst, np.array([[t]]), 0.5)


@pytest.mark.parametrize("d", [2, 16, 64])
def test_eigvalsh_rows_do_not_depend_on_batch(d):
    # the precondition for pruned picks to equal full ones bit for bit
    rng = np.random.Generator(np.random.Philox(d))
    g = rng.standard_normal((24, d, d))
    stack = g + g.swapaxes(1, 2)
    keep = np.flatnonzero(rng.random(24) < 0.5)
    gathered = stack[keep]
    assert np.array_equal(greedy._eigvalsh(gathered), greedy._eigvalsh(stack)[keep])


# members scored per step, as a share of m (the next test gives the shares scored now):
# 0.54, 0.54, 0.57 and 0.54 with the curvature term c dropped from _bounds
@pytest.mark.parametrize(
    "make, share",
    [
        pytest.param(lambda: ps.gen_random_psd(16, 32, 4, 1e6, 0), 0.35, id="0"),
        pytest.param(lambda: ps.gen_random_psd(16, 32, 4, 1e6, 1), 0.35, id="1"),
        pytest.param(lambda: ps.gen_graph_edges(ps.random_connected_edges(13, 30, 617)), 0.4,
                     id="graph-n13-e30"),
        pytest.param(lambda: ps.gen_bases(8, 4, 408), 0.45, id="bases-d8-b4"),
    ],
)
def test_pruning_skips_a_large_share_of_candidates(make, share):
    # guards against a bound loosened until nothing is skipped
    inst = make()
    trace = ps.run(inst, ps.Schedule(inst.norm_bound, inst.d, fixed_n=200))
    evaluated = [r.evaluated for r in trace.records]
    assert max(evaluated) <= inst.m
    assert np.mean(evaluated) <= share * inst.m


# members scored per step, as a share of m: about 0.057, 0.064, 0.070 and 0.266 with
# the curvature floored by the minimum of cosh over the path's spectral range, against
# 0.270, 0.282, 0.227 and 0.367 with the sum of the minima of e^{delta x} and e^{-delta x}
@pytest.mark.parametrize(
    "make, share",
    [
        pytest.param(lambda: ps.gen_random_psd(16, 32, 4, 1e6, 0), 0.15, id="0"),
        pytest.param(lambda: ps.gen_random_psd(16, 32, 4, 1e6, 1), 0.15, id="1"),
        pytest.param(lambda: ps.gen_graph_edges(ps.random_connected_edges(13, 30, 617)), 0.15,
                     id="graph-n13-e30"),
        pytest.param(lambda: ps.gen_bases(8, 4, 408), 0.32, id="bases-d8-b4"),
    ],
)
def test_curvature_floor_is_the_minimum_of_cosh(make, share):
    inst = make()
    trace = ps.run(inst, ps.Schedule(inst.norm_bound, inst.d, fixed_n=200))
    assert np.mean([r.evaluated for r in trace.records]) <= share * inst.m


# members scored per step, as a share of m: about 0.038, 0.009, 0.032 and 0.041 with every
# member pruned against the exact score of the member with the least lower bound, against
# 0.114, 0.028, 0.057 and 0.070 when an earlier rule pruned against the least upper bound
# of a Golden-Thompson estimate alone
@pytest.mark.parametrize(
    "source, fixed_n, k_max, share",
    [
        pytest.param("graph-n31-e120 k=300", None, 300, 0.07, id="graph-n31-e120-decaying"),
        pytest.param(lambda: ps.gen_random_psd(16, 200, 1, 1e6, 0), None, 300, 0.02,
                     id="psd-m200-decaying"),
        pytest.param(lambda: ps.gen_random_psd(16, 32, 4, 1e6, 0), 200, 200, 0.045,
                     id="psd-m32-fixed"),
        pytest.param(lambda: ps.gen_graph_edges(ps.random_connected_edges(13, 30, 617)),
                     200, 200, 0.055, id="graph-n13-e30-fixed"),
    ],
)
def test_cap_is_tightened_by_the_first_exact_score(source, fixed_n, k_max, share):
    inst, _, trace = _exact_run(source, fixed_n, k_max)
    assert np.mean([r.evaluated for r in trace.records]) <= share * inst.m


@given(
    st.sampled_from(sorted(_STATE_FAMILIES)),
    st.integers(0, 2**16),
    st.integers(0, 40),
    st.floats(0.01, 27.0),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_pruning_is_sound_on_random_sums(kind, seed, k, step, lo_is_m):
    # Y is a sum of k members drawn at random, so reachable by some sequence of
    # picks, and often far from 0 where the clamp in _curvature matters
    inst = _STATE_FAMILIES[kind](seed)
    rng = np.random.Generator(np.random.Philox(seed))
    y = greedy._symmetrize(np.sum(ps.center(inst).xs[rng.integers(0, inst.m, k)], axis=0))
    m_hi = inst.norm_bound
    m_lo = m_hi if lo_is_m else 1.0
    delta = step / m_hi
    _check_pruning_state(inst, y, delta, m_lo)

    # the minimum of cosh is at least the sum of the separate minima of its two exponentials
    mu = np.linalg.eigvalsh(y)
    s = delta * max(mu[-1], -mu[0])
    separate = 0.5 * delta * delta * (math.exp(delta * (mu[0] - m_lo) - s)
                                      + math.exp(-delta * (mu[-1] + m_hi) - s))
    assert greedy._curvature(mu, delta, s, m_lo, m_hi) >= separate


def test_non_finite_candidate_bound_raises(monkeypatch, canonical):
    # a non-finite score of the member with the least lower bound would skip every
    # other member, as nothing compares below NaN; it raises before the skip
    stack = greedy._stack(ps.center(canonical).xs, 2.0, 1.0)
    y = np.zeros((2, 2))
    eig = greedy._eigh(y)
    spec = greedy._spectrum(eig[0], 0.5)
    spectrum = greedy._spectrum
    monkeypatch.setattr(greedy, "_spectrum",
                        lambda mu, delta: spectrum(mu, delta)._replace(log_phi=math.nan))
    with pytest.raises(ps.NonFinite, match="candidate score"):
        greedy._step(y, eig, spec, stack, 0.5)


def _record_fields(trace):
    """Every field of every record but `evaluated`."""
    return [(r.k, r.delta, r.prev_log_potential, r.log_potential, r.error, r.bound, r.regime)
            for r in trace.records]


@pytest.mark.parametrize(
    "source, fixed_n, k_max",
    [
        pytest.param(lambda: ps.validate(canonical_raw()), None, 64, id="canonical"),
        pytest.param(lambda: ps.gen_random_psd(16, 32, 4, 1e6, 0), 200, 200, id="psd-d16"),
        pytest.param(lambda: ps.gen_graph_edges(ps.random_connected_edges(31, 120, 0)), None,
                     120, id="graph-n31-e120"),
        pytest.param("bases64-0 k=48", None, 48, id="bases-d64-b4"),
    ],
)
def test_looser_lower_bounds_keep_picks_and_records(monkeypatch, source, fixed_n, k_max):
    # the skip needs only valid lower bounds and first's exact score: bounds 1 lower are
    # still valid, so the run is the same bit for bit and scores no fewer members
    inst, sched, want = _exact_run(source, fixed_n, k_max)
    exact = greedy._bounds

    def looser(*args):
        lower, margin = exact(*args)
        return lower - 1.0, margin

    monkeypatch.setattr(greedy, "_bounds", looser)
    got = ps.run(inst, sched, k_max=k_max)
    assert got.indices == want.indices
    assert _record_fields(got) == _record_fields(want)
    assert got.running_sum.tobytes() == want.running_sum.tobytes()
    assert got.gram_steps == want.gram_steps
    assert all(a.evaluated >= b.evaluated for a, b in zip(got.records, want.records))
    assert sum(r.evaluated for r in got.records) > sum(r.evaluated for r in want.records)


@pytest.mark.parametrize(
    "raise_lower, message",
    [
        (lambda lower: lower + 10.0, "member 1: lower bound"),   # above every exact score
        # at k = 2 the two members' bounds swapped: member 1, the loser, now has the least
        # lower bound and is scored first; member 2's bound, member 1's own, lies below
        # member 1's score, so member 2 is scored in the batch, and its score is below it
        (lambda lower: lower[::-1].copy(), "member 2: lower bound"),
        # a NaN bound is scored, not skipped, and fails the check
        (lambda lower: np.full_like(lower, np.nan), "member 1: lower bound nan"),
    ],
    ids=["above-scores", "batch-member", "nan"],
)
def test_failed_lower_bound_certificate_raises(monkeypatch, canonical, raise_lower, message):
    exact = greedy._bounds

    def too_high(*args):
        lower, margin = exact(*args)
        return raise_lower(lower), margin

    monkeypatch.setattr(greedy, "_bounds", too_high)
    with pytest.raises(ps.PruningCertificateFailed, match=message):
        ps.run(canonical, ps.Schedule(2.0, 2), k_max=4)


# a valid family: the tiny weight keeps w_1 A_1 at diag(1, 0), but ||X_1||_F^2 overflows
_TINY_WEIGHT_RAW = {"d": 2, "items": [{"lambda": 1e-300, "A": [[1e300, 0], [0, 0]]},
                                      {"lambda": 1, "A": [[0, 0], [0, 1]]}]}


def test_an_overflowing_member_norm_leaves_a_valid_bound():
    # delta = 1/M = 1e-300, so the curvature floor c underflows to 0; 0 * inf must not
    # turn member 1's lower bound into NaN, nor raise a numpy warning
    inst = ps.validate(_TINY_WEIGHT_RAW)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = ps.run(inst, ps.Schedule(inst.norm_bound, 2), k_max=5)
    assert trace.indices == (2, 2, 2, 2, 2)


@pytest.mark.parametrize("fixed_n, k_max", [(None, None), (None, sys.maxsize + 1), (sys.maxsize + 1, None)],
                         ids=["default", "given", "fixed-n"])
def test_a_k_max_past_the_largest_trace_is_refused_before_the_first_step(monkeypatch, fixed_n, k_max):
    # the default k_max here is about 5.5e300 steps, which no run can finish
    monkeypatch.setattr(greedy, "_step", None)   # a step would raise TypeError
    inst = ps.validate(_TINY_WEIGHT_RAW)
    with pytest.raises(ps.DomainError, match=f"exceeds {sys.maxsize}, the most picks a trace can hold"):
        ps.run(inst, ps.Schedule(inst.norm_bound, 2, fixed_n=fixed_n), k_max=k_max)


def test_split_batches_keep_picks_and_records(split, monkeypatch):
    inst = ps.gen_bases(8, 2, 1)
    dense = ps.Instance(inst.weights, dense_mats(inst))
    sched = ps.Schedule(dense.norm_bound, 8)
    parts = ps.run(dense, sched, k_max=64)
    assert max(r.evaluated for r in parts.records) >= 3   # some step scored a batch of two or more
    monkeypatch.setattr(symmat, "PART_WORK", math.inf)
    whole = ps.run(dense, sched, k_max=64)
    assert parts.indices == whole.indices and parts.records == whole.records
    assert parts.running_sum.tobytes() == whole.running_sum.tobytes()


@pytest.mark.parametrize("psi", [-1.0, math.nan])
def test_potential_growth_violation_raises(monkeypatch, canonical, psi):
    # a one-step cap below log Phi(Y_0), or a NaN one, must fail the step
    monkeypatch.setattr(greedy, "psi_value", lambda *args: psi)
    with pytest.raises(ps.PotentialGrowthViolation, match="^step 1: log-potential") as info:
        ps.run(canonical, ps.Schedule(2.0, 2), k_max=4)
    assert info.value.k == 1


@pytest.mark.parametrize("bound", [0.0, math.nan])
def test_bound_violation_raises(monkeypatch, canonical, bound):
    monkeypatch.setattr(greedy.Schedule, "_bound", lambda self, k, delta: bound)
    with pytest.raises(ps.BoundViolation, match="^step 1: prefix error") as info:
        ps.run(canonical, ps.Schedule(2.0, 2), k_max=4)
    assert type(info.value) is ps.BoundViolation and info.value.k == 1


def test_survivors_include_ties_within_tie_tol(monkeypatch):
    # member 1 scores 4.6e-13 above member 2, so _pick over all members takes it;
    # its lower bound lies above member 2's score plus the margin but within TIE_TOL
    # of it, and member 2 has the least lower bound
    xs = np.array([[[0.5 + 1e-12]], [[0.5]]])
    y = np.zeros((1, 1))
    scores = greedy._candidate_scores(y, xs.copy(), 1.0)
    lower = np.array([scores[0] + 1e-13, scores[1]])
    margin = lower[0] - scores[0]   # exactly, so the lower-bound check passes
    assert scores[1] + margin < lower[0] <= scores[1] + margin + greedy.TIE_TOL

    monkeypatch.setattr(greedy, "_bounds", lambda *args: (lower, margin))
    stack = greedy._stack(xs, 1.0, 1.0)
    eig = greedy._eigh(y)
    best, keep, *_, spec_k = greedy._step(y, eig, greedy._spectrum(eig[0], 1.0), stack, 1.0)
    assert keep.tolist() == [0, 1]
    assert best == greedy._pick(scores) == 0
    assert spec_k.log_phi == scores[0]


def test_ties_with_the_least_lower_bound_member_are_scored(monkeypatch):
    # member 2 has the least lower bound and is scored first; member 1 scores
    # 4.6e-13 above it, so _pick over all members takes member 1, whose lower bound
    # lies above member 2's score plus the margin but within TIE_TOL of it.
    # Member 3's lower bound lies below its score but above member 2's score plus
    # TIE_TOL and the margin, so it is skipped.
    xs = np.array([[[0.5 + 1e-12]], [[0.5]], [[0.9]]])
    y = np.zeros((1, 1))
    scores = greedy._candidate_scores(y, xs.copy(), 1.0)
    lower = np.array([scores[0] + 1e-13, scores[1] - 0.5, scores[1] + 0.1])
    margin = lower[0] - scores[0]   # exactly, so the lower-bound check passes
    assert scores[1] + margin < lower[0] <= scores[1] + margin + greedy.TIE_TOL
    assert scores[1] + greedy.TIE_TOL + margin < lower[2] <= scores[2]

    monkeypatch.setattr(greedy, "_bounds", lambda *args: (lower, margin))
    stack = greedy._stack(xs, 1.0, 1.0)
    eig = greedy._eigh(y)
    best, keep, *_, spec_k = greedy._step(y, eig, greedy._spectrum(eig[0], 1.0), stack, 1.0)
    assert keep.tolist() == [0, 1]
    assert best == greedy._pick(scores) == 0
    assert spec_k.log_phi == scores[0]


@pytest.mark.parametrize("step", [5.0, 27.0])
def test_select_next_is_exact_where_the_curvature_bound_is_void(step):
    # at delta*m1 > 1 the curvature bound's log argument is often <= 0 at the
    # winner; it must give no bound there, not a NaN that skips the winner
    fam = ps.center(ps.gen_random_psd(4, 9, 2, 1e4, 21))
    xs = fam.xs
    delta = step / fam.m1
    rngy = np.random.Generator(np.random.Philox(17))
    for _ in range(6):
        g = rngy.standard_normal((4, 4))
        y = (g + g.T) / 2
        idx, value = ps.select_next(y, delta, fam)
        full = greedy._candidate_scores(y, xs.copy(), delta)
        assert idx == greedy._pick(full) + 1
        # the value is read off the eigh of Y + X_idx
        assert value == log_potential_from_eigenvalues(greedy._eigh(y + xs[idx - 1])[0], delta)


@pytest.mark.parametrize("step", [1000.0, 5000.0])
def test_select_next_takes_a_step_beyond_exp_overflow(step):
    # delta*m1 > 700: the pruning bound shifts every exponential by delta*max|mu|, so
    # select_next needs no psi(m1, delta), which would overflow here
    fam = ps.center(ps.gen_random_psd(6, 18, 3, 1e4, 2))
    delta = step / fam.m1
    rngy = np.random.Generator(np.random.Philox(3))
    for y in [np.zeros((6, 6))] + [(g + g.T) / 2 for g in rngy.standard_normal((4, 6, 6))]:
        idx, value = ps.select_next(y, delta, fam)
        full = greedy._candidate_scores(y, fam.xs.copy(), delta)
        assert idx == greedy._pick(full) + 1
        assert value == log_potential_from_eigenvalues(greedy._eigh(y + fam.xs[idx - 1])[0], delta)
        assert value == pytest.approx(full[idx - 1], rel=1e-14)


def _full_run(inst, sched, k_max):
    """Exact greedy without pruning: every member scored by eigvalsh at every step.

    Returns the 1-based picks and the recorded log-potentials before and after
    each step, computed as run records them: off the eigh of Y_{k-1} and of Y_k.
    """
    xs = ps.center(inst).xs
    y = np.zeros((inst.d, inst.d))
    mu = greedy._eigh(y)[0]
    indices, prev, current = [], [], []
    for k in range(1, k_max + 1):
        delta = sched.delta(k)
        prev.append(float(log_potential_from_eigenvalues(mu, delta)))
        all_eigs = greedy._eigvalsh(xs + y)   # the bits of _candidate_scores, with one copy fewer
        best = greedy._pick(log_potential_from_eigenvalues(all_eigs, delta))
        indices.append(best + 1)
        y = greedy._symmetrize(y + xs[best])
        mu = greedy._eigh(y)[0]
        current.append(float(log_potential_from_eigenvalues(mu, delta)))
    return tuple(indices), prev, current


# 12 instances of the acceptance sweep, decaying and at fixed N = ceil(ML)
@pytest.mark.parametrize("label", [
    "bases-d16-b2", "bases-d2-b1", "bases-d4-b2", "bases-d8-b4", "graph-n13-e30", "graph-n14-e22",
    "graph-n3-e3", "graph-n8-e12", "psd-d10-m30-r2", "psd-d16-m48-r16", "psd-d2-m8-r2",
    "psd-d4-m16-r4",
])
def test_run_matches_exact_greedy_bit_for_bit(label):
    inst = pinned_runs()[f"{label} decaying"][0]
    ml = math.ceil(inst.norm_bound * math.log(2 * inst.d))
    for name, sched, k_max in (
        (f"{label} decaying", ps.Schedule(inst.norm_bound, inst.d), max(4 * ml, 256)),
        (f"{label} N={ml}", ps.Schedule(inst.norm_bound, inst.d, fixed_n=ml), ml),
    ):
        trace = pinned_trace(name)
        indices, prev, current = _full_run(inst, sched, k_max)
        assert trace.indices == indices
        assert [r.prev_log_potential for r in trace.records] == prev
        assert [r.log_potential for r in trace.records] == current


def _repeat_family():
    """d = 8, rank one: sqrt(2) q_1 of weight 1/2 and sqrt(14) q_j of weight 1/14 for j = 2..8.

    q is a seeded random orthogonal matrix. Greedy picks member 1 six times in its
    first 11 steps, so the Gram scores members while one of them is picked repeatedly.
    """
    q, _ = np.linalg.qr(rng_for(0).standard_normal((8, 8)))
    factors = (q * np.sqrt(np.concatenate(([2.0], np.full(7, 14.0))))).T[:, :, np.newaxis]
    return ps.Instance(np.concatenate(([0.5], np.full(7, 1 / 14))), factors=factors)


# factor families all of whose rows fit one block (dense operands in run) and one above
# that cap (factor operands), each scored from the Gram for its first gram_steps steps,
# whose picks hold gram_distinct distinct members. The decaying schedule does not depend
# on k_max, so the first `steps` steps of the k_max-step run are checked against an
# unpruned run of that many steps: 64 of bases64's 128, still past its 48 Gram steps.
@pytest.mark.parametrize(
    "source, k_max, steps, gram_steps, gram_distinct",
    [
        pytest.param("bases64-0 k=128", 128, 64, 48, 48, id="bases-d64-b4-factor-operands"),
        pytest.param("graph-n31-e120 k=300", 300, 300, 22, 22, id="graph-n31-e120-dense-operands"),
        pytest.param(_repeat_family, 64, 64, 11, 6, id="repeat-d8-dense-operands"),
    ],
)
def test_run_matches_exact_greedy_across_the_gram_switch(source, k_max, steps, gram_steps, gram_distinct):
    inst, sched, trace = _exact_run(source, None, k_max)
    assert 0 < trace.gram_steps == gram_steps < steps <= k_max
    assert len(set(trace.indices[:gram_steps])) == gram_distinct
    indices, prev, current = _full_run(inst, sched, steps)
    assert trace.indices[:steps] == indices
    assert [r.prev_log_potential for r in trace.records[:steps]] == prev
    assert [r.log_potential for r in trace.records[:steps]] == current


def _decompositions(monkeypatch):
    """Per greedy step, the shapes handed to greedy's _eigh and _eigvalsh, run's own included.

    Entry 0 lists the calls before the first step; entry k those from step k's _step
    up to step k + 1's. Each entry is (eigh shapes, eigvalsh shapes).
    """
    steps = [([], [])]
    eigh, eigvalsh, step = greedy._eigh, greedy._eigvalsh, greedy._step

    def counted(decompose, at):
        def call(a):
            steps[-1][at].append(a.shape)
            return decompose(a)
        return call

    def marked_step(*args):
        steps.append(([], []))
        return step(*args)

    monkeypatch.setattr(greedy, "_eigh", counted(eigh, 0))
    monkeypatch.setattr(greedy, "_eigvalsh", counted(eigvalsh, 1))
    monkeypatch.setattr(greedy, "_step", marked_step)
    return steps


@pytest.mark.parametrize("operands", ["dense-operands", "dense-A-family", "factor-operands"])
def test_lone_survivor_steps_keep_records_and_running_sum_exact(monkeypatch, operands):
    # on this family every step scores only the member with the least lower bound,
    # from the eigh of its candidate: the candidate becomes Y_k and that eigh gives
    # the step's error
    inst = ps.gen_random_psd(16, 32, 4, 1e6, 0)
    if operands == "dense-A-family":
        inst = ps.Instance(inst.weights, dense_mats(inst))
    elif operands == "factor-operands":
        monkeypatch.setattr(instance, "_CHUNK_ENTRIES", inst.m * inst.d * inst.d - 1)
    xs = ps.center(inst).xs
    eigh = greedy._eigh
    steps = _decompositions(monkeypatch)
    trace = ps.run(inst, ps.Schedule(inst.norm_bound, inst.d, fixed_n=300))
    assert len(steps) == 301
    lone = [eighs == [(16, 16)] and not eigvalshs for eighs, eigvalshs in steps[1:]]
    assert sum(lone) == 300   # lone-survivor steps, the 3 Gram steps included
    y = np.zeros((inst.d, inst.d))
    for k, (i, rec, (_, eigvalshs)) in enumerate(zip(trace.indices, trace.records, steps[1:]),
                                                  start=1):
        y = y + xs[i - 1]
        assert rec.error == float(np.max(np.abs(eigh(y)[0]))) / k
        # the members scored exactly: the candidate whose eigh scores the member with
        # the least lower bound, plus the rows (dense or Gram) handed to _eigvalsh
        assert rec.evaluated == 1 + sum(shape[0] for shape in eigvalshs)
    assert trace.running_sum.tobytes() == y.tobytes()


# psd16 at the fixedn-psd16 benchmark's N, where every step scores one member, and
# bases64 at the decay-bases64 benchmark's k, where every step is a Gram step and the
# member with the least lower bound wins every one
@pytest.mark.parametrize(
    "make, fixed_n, k_max, gram_steps, lone_steps, regathered",
    [
        pytest.param(lambda: ps.gen_random_psd(16, 32, 4, 1e6, 0), 2547, 2547, 3, 2547, 0,
                     id="psd-d16"),
        pytest.param(lambda: ps.gen_bases(64, 4, 0), None, 48, 48, 0, 0, id="bases-d64-b4"),
    ],
)
def test_each_step_decomposes_y_k_once(monkeypatch, make, fixed_n, k_max, gram_steps,
                                       lone_steps, regathered):
    inst = make()
    d, r = inst.d, inst.factors.shape[2]
    steps = _decompositions(monkeypatch)
    firsts = []   # per step, the member with the least lower bound
    bounds = greedy._bounds

    def recorded(*args):
        out = bounds(*args)
        firsts.append(int(out[0].argmin()))
        return out

    monkeypatch.setattr(greedy, "_bounds", recorded)
    trace = ps.run(inst, ps.Schedule(inst.norm_bound, d, fixed_n=fixed_n), k_max=k_max)
    assert steps[0] == ([(d, d)], [])   # Y_0 = 0, before the first step
    assert len(steps) == len(firsts) + 1 == k_max + 1
    lone = again = 0
    for k, (i, first, rec, (eighs, eigvalshs)) in enumerate(
            zip(trace.indices, firsts, trace.records, steps[1:]), start=1):
        # one d x d eigh, of first's candidate, on every step; one more, of Y_k, exactly
        # when another member wins
        other = i - 1 != first
        assert eighs == [(d, d)] * (1 + other)
        again += other
        # every other member scored exactly is a row handed to _eigvalsh: a (p + r)-sized
        # Gram on a Gram step, else a dense row; first never is
        size = r * (len(set(trace.indices[:k - 1])) + 1) if k <= trace.gram_steps else d
        assert all(s[1:] == (size, size) for s in eigvalshs)
        assert sum(s[0] for s in eigvalshs) == rec.evaluated - 1
        lone += not eigvalshs
    assert lone == lone_steps
    assert again == regathered
    assert trace.gram_steps == gram_steps


def _exponentials(monkeypatch):
    """Per greedy step, run's calls that decompose or exponentiate a spectrum, in order.

    Entry 0 lists the calls before the first step; entry k those from step k's _step
    up to step k + 1's. Each call is ("eigh", mu) for a d x d eigh giving mu,
    ("exp", mu, delta, spectrum) for _spectrum, ("np.exp",) for an exponential of
    an array in greedy, ("bounds", spectrum) for the spectrum _bounds is handed, and
    ("lpfe",) for log_potential_from_eigenvalues.
    """
    steps = [[]]
    eigh, spectrum, bounds, lpfe, step = (greedy._eigh, greedy._spectrum, greedy._bounds,
                                          greedy.log_potential_from_eigenvalues, greedy._step)

    def counted_eigh(a):
        out = eigh(a)
        if a.ndim == 2:
            steps[-1].append(("eigh", out[0]))
        return out

    def counted_spectrum(mu, delta):
        out = spectrum(mu, delta)
        steps[-1].append(("exp", mu, delta, out))
        return out

    def counted_bounds(eig, spec, *args):
        steps[-1].append(("bounds", spec))
        return bounds(eig, spec, *args)

    def counted_lpfe(*args):
        steps[-1].append(("lpfe",))
        return lpfe(*args)

    def marked_step(*args):
        steps.append([])
        return step(*args)

    class CountedNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, *args, **kwargs):
            steps[-1].append(("np.exp",))
            return np.exp(*args, **kwargs)

    monkeypatch.setattr(greedy, "np", CountedNumpy())
    monkeypatch.setattr(greedy, "_eigh", counted_eigh)
    monkeypatch.setattr(greedy, "_spectrum", counted_spectrum)
    monkeypatch.setattr(greedy, "_bounds", counted_bounds)
    monkeypatch.setattr(greedy, "log_potential_from_eigenvalues", counted_lpfe)
    monkeypatch.setattr(greedy, "_step", marked_step)
    return steps


# psd16 at the fixedn-psd16 benchmark's N, at one delta throughout, and a decaying run
# well into the fine regime, where delta changes on every step
@pytest.mark.parametrize("fixed_n, k_max", [(2547, 2547), (None, 120)])
def test_each_spectrum_is_exponentiated_once_per_delta(monkeypatch, fixed_n, k_max):
    inst = ps.gen_random_psd(16, 32, 4, 1e6, 0)
    sched = ps.Schedule(inst.norm_bound, inst.d, fixed_n=fixed_n)
    steps = _exponentials(monkeypatch)
    trace = ps.run(inst, sched, k_max=k_max)
    assert len(steps) == k_max + 1
    deltas = [None] + [rec.delta for rec in trace.records]
    changes = sum(deltas[k + 1] != deltas[k] for k in range(1, k_max))
    assert changes == (0 if fixed_n else k_max - sched.fine_start + 1)
    eighs, spectra, y_mu = {}, {}, []   # spectra: id(mu) -> [(delta, _spectrum(mu, delta))]
    for k, calls in enumerate(steps):
        for call in calls:
            if call[0] == "eigh":
                eighs[id(call[1])], mu = k, call[1]
            elif call[0] == "exp":
                spectra.setdefault(id(call[1]), []).append(call[2:])
        y_mu.append(mu)   # the last eigh up to step k + 1 is Y_k's
    # every spectrum exponentiated is a fresh eigh's, and every eigh's is exponentiated;
    # greedy exponentiates arrays only there
    assert spectra.keys() == eighs.keys()
    assert (sum(call == ("np.exp",) for calls in steps for call in calls)
            == sum(len(taken) for taken in spectra.values()))
    for key, k in eighs.items():
        if key != id(y_mu[k]):
            # a candidate that did not win: scored once, by its one spectrum
            assert [delta for delta, _ in spectra[key]] == [deltas[k]]
    lone = 0
    for k, calls in enumerate(steps):
        # Y_k's spectrum: at delta_k for its record, and at delta_{k+1} when that differs
        taken = spectra[id(y_mu[k])]
        want = [deltas[k]] if k else []
        if k < k_max and deltas[k + 1] != deltas[k]:
            want.append(deltas[k + 1])
        assert [delta for delta, _ in taken] == want
        if k:
            rec = trace.records[k - 1]
            assert rec.log_potential == taken[0][1].log_phi
            # the bounds and prev_log_potential read the one spectrum of Y_{k-1} at delta_k
            delta, prev = spectra[id(y_mu[k - 1])][-1]
            assert delta == deltas[k]
            assert calls[0][0] == "bounds" and calls[0][1] is prev
            assert rec.prev_log_potential == prev.log_phi
            if rec.evaluated == 1:
                assert ("lpfe",) not in calls
                lone += 1
    # every step at N = 2547, its 3 Gram steps included
    assert lone == (2547 if fixed_n else 98)


_REFERENCE = json.loads((Path(__file__).resolve().parents[1] / "bench" / "reference.json")
                        .read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "workload, source, fixed_n, k_max, gram_steps",
    [
        ("fixedn-psd16", "psd16 N=2547", ps.required_n(0.35, 10.0, 16), None, 3),
        ("decay-bases64", "bases64-0 k=48", None, 48, 48),
    ],
    ids=["fixedn-psd16", "decay-bases64"],
)
def test_run_keeps_the_benchmark_reference_picks(workload, source, fixed_n, k_max, gram_steps):
    # the picks and final error bench/run.py checks for seed 0, from its reference file
    ref = _REFERENCE["full"][workload]
    assert _REFERENCE["seed"] == 0
    _, _, trace = _exact_run(source, fixed_n, k_max)
    digest = hashlib.sha256(",".join(str(i) for i in trace.indices).encode()).hexdigest()
    assert digest == ref["indices_sha256"]
    assert trace.gram_steps == gram_steps
    assert math.isclose(trace.records[-1].error, ref["final_error"], rel_tol=1e-9)


_GRAM_FAMILIES = {
    "bases": lambda seed: ps.gen_bases(8, 2, seed),
    "psd-r1": lambda seed: ps.gen_random_psd(8, 16, 1, 1e4, seed),
    "psd-r2": lambda seed: ps.gen_random_psd(9, 12, 2, 1e4, seed),
    "psd-r3": lambda seed: ps.gen_random_psd(12, 10, 3, 1e4, seed),
    # 20 edges on 9 vertices: picks and a scored edge often close a cycle, so [W | V_i]
    # is rank-deficient; so it is for every member already picked
    "graph": lambda seed: ps.gen_graph_edges(ps.random_connected_edges(9, 20, seed)),
}


def _check_gram_scores(kind, seed, picks, fixed_n):
    """Gram scores within 1e-12 of the dense ones after picks; returns the top p of mu + k - 1."""
    inst = _GRAM_FAMILIES[kind](seed)
    xs = ps.center(inst).xs
    r = inst.factors.shape[2]
    y = np.zeros((inst.d, inst.d))
    counts = np.zeros(inst.m)
    for j in picks:
        # stop where run would: a new distinct pick adds r to p, and p + r may not pass the share
        if not counts[j] and r * (np.count_nonzero(counts) + 2) > greedy.GRAM_SHARE * inst.d:
            break
        counts[j] += 1
        y = y + xs[j]
    p = r * np.count_nonzero(counts)
    assert p + r <= greedy.GRAM_SHARE * inst.d
    k = int(counts.sum()) + 1
    delta = ps.Schedule(inst.norm_bound, inst.d, fixed_n=fixed_n).delta(k)
    vtv = inst.factors.swapaxes(1, 2) @ inst.factors
    eig = greedy._eigh(y)
    scores = greedy._gram_scores(eig, p, inst.factors, vtv, np.arange(inst.m), k, delta)
    dense = greedy._candidate_scores(y, xs.copy(), delta)
    assert np.max(np.abs(scores - dense)) <= 1e-12
    return eig[0][inst.d - p:] + (k - 1)


@given(
    st.sampled_from(sorted(_GRAM_FAMILIES)),
    st.integers(0, 2**16),
    st.lists(st.integers(0, 9), max_size=16),
    st.one_of(st.none(), st.integers(1, 10**4)),
)
@settings(max_examples=80, deadline=None)
def test_gram_scores_match_dense_scores(kind, seed, picks, fixed_n):
    # picks among the first 10 members, so that members are often picked again
    _check_gram_scores(kind, seed, picks, fixed_n)


def test_gram_scores_clip_a_top_eigenvalue_that_rounds_below_zero():
    # the five distinct edges picked close a cycle, so Y + (k - 1) Id has rank 4 < p = 5 and
    # one of its top five eigenvalues rounds to -8.9e-16: the Gram must clip it at 0
    assert _check_gram_scores("graph", 15, [1, 2, 7, 7, 0, 8], None).min() < 0


@pytest.mark.parametrize(
    "source, fixed_n, k_max, gram_steps",
    [
        pytest.param("bases64-0 k=48", None, 48, 48, id="bases-d64-b4"),
        pytest.param("psd16 N=2547", 2547, None, 3, id="psd-d16"),
        pytest.param("graph-n31-e120 k=300", None, 300, 22, id="graph-n31-e120"),
        pytest.param(lambda: ps.Instance(np.full(16, 1 / 16), dense_mats(ps.gen_bases(8, 2, 0))),
                     None, 64, 0, id="dense-bases-d8-b2"),
    ],
)
def test_gram_steps_counts_the_leading_gram_steps(source, fixed_n, k_max, gram_steps):
    # at GRAM_SHARE = 0.75: the first 48 picks of bases-d64 are distinct members (p = 47
    # at step 48), psd-d16 (r = 4) can add two more members to the first, and a dense
    # "A" family has no factors
    _, _, trace = _exact_run(source, fixed_n, k_max)
    assert trace.gram_steps == gram_steps


# --- runs -------------------------------------------------------------------------


def test_run_canonical_alternates(canonical):
    trace = ps.run(canonical, ps.Schedule(2.0, 2), k_max=6)
    assert trace.indices == (1, 2, 1, 2, 1, 2)
    want = [1.0, 0.0, 1 / 3, 0.0, 0.2, 0.0]
    for rec, w in zip(trace.records, want):
        assert rec.error == pytest.approx(w, abs=1e-12)
    assert trace.records[0].prev_log_potential == pytest.approx(math.log(4), rel=1e-15)
    assert [r.regime for r in trace.records] == [
        REGIME_COARSE, REGIME_COARSE, REGIME_FINE, REGIME_FINE, REGIME_FINE, REGIME_FINE,
    ]
    assert np.array_equal(trace.running_sum, np.zeros((2, 2)))


def test_run_single_member_is_flat():
    inst = ps.validate({"d": 1, "items": [{"lambda": 1.0, "A": [[1.0]]}]})
    trace = ps.run(inst, ps.Schedule(1.0, 1), k_max=10)
    assert trace.indices == (1,) * 10
    assert all(r.error == 0.0 for r in trace.records)


def test_run_respects_bounds_on_random_bases():
    inst = ps.gen_bases(4, 2, seed=31)
    trace = ps.run(inst, ps.Schedule(inst.norm_bound, inst.d), k_max=200)
    for rec in trace.records:
        assert rec.error <= rec.bound * (1 + 1e-9)
        assert rec.bound == pytest.approx(ps.bound_all_steps(rec.k, 4.0, 4), rel=1e-15)


def test_run_records_are_schedule_consistent(canonical):
    sched = ps.Schedule(2.0, 2)
    trace = ps.run(canonical, sched, k_max=8)
    for rec in trace.records:
        assert rec.delta == sched.delta(rec.k)
        assert rec.regime == sched.regime(rec.k)


@pytest.mark.parametrize("fixed_n", [None, 300])
def test_run_records_take_the_schedule_bit_for_bit(fixed_n):
    inst = ps.gen_bases(4, 2, seed=31)
    sched = ps.Schedule(inst.norm_bound, inst.d, fixed_n=fixed_n)
    trace = ps.run(inst, sched, k_max=300)
    assert sched.fine_start < 300
    assert {rec.regime for rec in trace.records} == {REGIME_COARSE, REGIME_FINE}
    for rec in trace.records:
        assert rec.delta == sched.delta(rec.k)
        assert rec.bound == sched.bound(rec.k)
        assert rec.regime == sched.regime(rec.k)
        if fixed_n is None:
            assert rec.bound == ps.bound_all_steps(rec.k, inst.norm_bound, inst.d)


def test_run_running_sum_matches_indices():
    inst = ps.gen_random_psd(4, 8, 2, 1e4, 3)
    trace = ps.run(inst, ps.Schedule(inst.norm_bound, inst.d), k_max=70)
    xs = ps.center(inst).xs
    resummed = xs[np.array(trace.indices) - 1].sum(axis=0)
    assert np.linalg.norm(resummed - trace.running_sum) <= 1e-9 * len(trace.indices)
    with pytest.raises(ValueError):
        trace.running_sum[0, 0] = 1.0


def test_run_live_potential_inequality_and_tail_cap():
    inst = ps.gen_random_psd(6, 12, 3, 1e4, 8)
    sched = ps.Schedule(inst.norm_bound, inst.d)
    trace = ps.run(inst, sched)
    m, l = sched.norm_bound, sched.log_2d
    for rec in trace.records:
        cap = m * ps.psi_value(m, rec.delta) + rec.prev_log_potential
        assert rec.log_potential <= cap + 1e-9
        if rec.k >= sched.fine_start:
            assert rec.log_potential - l <= 2 * l + 1e-9


def test_run_excess_recursion_across_delta_changes():
    # c_k <= M psi_M(delta_k) + (delta_k/delta_{k-1}) c_{k-1} once the decay starts
    inst = ps.gen_bases(4, 2, seed=5)
    sched = ps.Schedule(inst.norm_bound, inst.d)
    trace = ps.run(inst, sched, k_max=120)
    l = sched.log_2d
    for prev, rec in zip(trace.records, trace.records[1:]):
        if rec.k < sched.fine_start:
            continue
        a_k = sched.norm_bound * ps.psi_value(sched.norm_bound, rec.delta)
        alpha = rec.delta / prev.delta
        assert rec.log_potential - l <= a_k + alpha * (prev.log_potential - l) + 1e-9


def test_run_is_deterministic(canonical):
    a = ps.run(canonical, ps.Schedule(2.0, 2), k_max=30)
    b = ps.run(canonical, ps.Schedule(2.0, 2), k_max=30)
    assert a.indices == b.indices
    assert a.records == b.records


def test_run_chunk_cap_does_not_change_results(monkeypatch):
    inst = ps.gen_bases(4, 2, seed=0)
    sched = ps.Schedule(inst.norm_bound, inst.d)
    whole = ps.run(inst, sched, k_max=100)
    # one row per block, and too small a cap to hold the family densely: read from its factors
    monkeypatch.setattr(instance, "_CHUNK_ENTRIES", inst.d * inst.d)
    by_row = ps.run(inst, sched, k_max=100)
    # every field but `evaluated`, which rests on the bounds' rounding
    assert by_row.indices == whole.indices
    assert _record_fields(by_row) == _record_fields(whole)
    assert by_row.running_sum.tobytes() == whole.running_sum.tobytes()


def test_run_starts_no_threads(monkeypatch):
    def refuse(self):
        raise AssertionError("scoring started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    inst = ps.gen_bases(4, 2, seed=0)
    sched = ps.Schedule(inst.norm_bound, inst.d)
    ps.run(inst, sched, k_max=20)
    ps.select_next(np.zeros((inst.d, inst.d)), 0.1, ps.center(inst))


def test_constant_delta_reuses_last_score_as_prev_potential():
    inst = ps.gen_random_psd(6, 12, 2, 1e4, seed=3)
    trace = ps.run(inst, ps.Schedule(inst.norm_bound, inst.d, fixed_n=80))
    assert trace.records[0].prev_log_potential == pytest.approx(math.log(12), rel=1e-15)
    for before, rec in zip(trace.records, trace.records[1:]):
        assert rec.prev_log_potential == before.log_potential


def test_audit_catches_running_sum_drift(monkeypatch, canonical):
    exact = greedy._symmetrize
    monkeypatch.setattr(greedy, "_symmetrize", lambda a: exact(a) + 1e-7)
    with pytest.raises(ps.AuditFailed, match="step 64"):
        ps.run(canonical, ps.Schedule(2.0, 2), k_max=64)


def test_run_permutation_covariance():
    inst = ps.gen_random_psd(4, 8, 2, 1e4, seed=5)
    k_max = 40
    trace = ps.run(inst, ps.Schedule(inst.norm_bound, inst.d), k_max=k_max)

    perm = [5, 2, 7, 0, 4, 6, 1, 3]  # new position p holds old item perm[p]
    raw = ps.to_payload(inst)
    raw["items"] = [raw["items"][i] for i in perm]
    shuffled = ps.validate(raw)
    trace_p = ps.run(shuffled, ps.Schedule(shuffled.norm_bound, shuffled.d), k_max=k_max)

    inverse = {old: new for new, old in enumerate(perm)}
    assert trace_p.indices == tuple(inverse[i - 1] + 1 for i in trace.indices)
    for a, b in zip(trace.records, trace_p.records):
        assert b.error == pytest.approx(a.error, abs=1e-12)


def test_run_argument_validation(canonical):
    with pytest.raises(ps.DomainError):
        ps.run(canonical, ps.Schedule(2.0, 2), k_max=0)
    with pytest.raises(ps.DomainError):
        ps.run(canonical, ps.Schedule(2.0, 3), k_max=4)  # dimension mismatch
    with pytest.raises(ps.DomainError):
        ps.run(canonical, ps.Schedule(1.0, 2), k_max=4)  # norm bound below instance
    with pytest.raises(ps.DomainError):
        ps.run(canonical, ps.Schedule(2.0, 2, fixed_n=5), k_max=6)  # k_max != N


def test_run_fixed_n_defaults_to_n(canonical):
    trace = ps.run(canonical, ps.Schedule(2.0, 2, fixed_n=5))
    assert len(trace.records) == 5
    last = trace.records[-1]
    assert last.error <= ps.bound_fixed_n(5, 2.0, 2) * (1 + 1e-9)


def test_run_schedule_norm_bound_may_exceed_instance(canonical):
    # a looser M keeps every guarantee, just with weaker bounds
    trace = ps.run(canonical, ps.Schedule(3.0, 2), k_max=6)
    assert len(trace.records) == 6
