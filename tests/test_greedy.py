import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psdsparse as ps
from psdsparse import greedy, instance
from psdsparse.greedy import REGIME_COARSE, REGIME_FINE
from psdsparse.potential import log_potential_from_eigenvalues

from conftest import raw_payload


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


def test_select_next_single_member_keeps_potential():
    inst = ps.validate({"d": 1, "items": [{"lambda": 1.0, "A": [[1.0]]}]})
    fam = ps.center(inst)
    y = np.array([[0.7]])
    idx, value = ps.select_next(y, 0.3, fam)
    assert idx == 1
    assert value == pytest.approx(ps.log_potential(y, 0.3), rel=1e-15)


@pytest.mark.parametrize("count", [2.5, 2.0, True, "2", math.nan], ids=["2.5", "2.0", "True", "str", "nan"])
def test_step_counts_must_be_integers(canonical, count):
    with pytest.raises(ps.DomainError, match="integer"):
        ps.Schedule(2.0, 2, fixed_n=count)
    with pytest.raises(ps.DomainError, match="integer"):
        ps.run(canonical, ps.Schedule(2.0, 2), k_max=count)
    with pytest.raises(ps.DomainError, match="integer"):
        ps.sample_run(canonical, count, 0)
    decaying, fixed = ps.Schedule(2.0, 2), ps.Schedule(2.0, 2, fixed_n=4)
    for call in (decaying.delta, decaying.bound, decaying.regime, fixed.delta, fixed.bound,
                 lambda k: ps.bound_all_steps(k, 2.0, 2), lambda k: ps.bound_fixed_n(k, 2.0, 2),
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
    """Bounds bracket every exact score, no tie is skipped, and the pruned pick is exact.

    The member with the least upper bound is always scored, and every member scored
    has a lower bound within TIE_TOL plus twice the margin of the least upper bound.

    Checked for the dense stack and, for a factor family, for the factor stack run uses,
    with the spectral bounds X_i <= M and -X_i <= m_lo (1 in run, M in select_next).
    """
    xs = ps.center(inst).xs
    stacks = [greedy._stack(xs, inst.norm_bound, m_lo)]
    if inst.factors is not None:
        stacks.append(greedy._factor_stack(inst, inst.norm_bound, m_lo))
    psi = greedy._psi_weights(ps.psi_value(inst.norm_bound, delta), ps.psi_value(m_lo, delta))
    full, _ = greedy._candidate_scores(y, xs.copy(), delta)
    for stack in stacks:
        lower, upper, margin = greedy._bounds(y, stack, delta, psi)
        assert np.all(lower - margin <= full)
        assert np.all(full <= upper + margin)

        best, score, _, keep = greedy._step(y, stack, delta, psi)
        ties = np.flatnonzero(full <= np.min(full) + greedy.TIE_TOL)
        assert set(ties.tolist()) <= set(keep.tolist())
        assert int(np.argmin(upper)) in keep
        within = np.flatnonzero(lower <= np.min(upper) + greedy.TIE_TOL + 2.0 * margin)
        assert set(keep.tolist()) <= set(within.tolist())
        assert best == greedy._pick(full)
        assert score == full[best]


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


# members scored per step, as a share of m: about 0.038, 0.013, 0.034 and 0.041 with the
# cap tightened by the exact score of the member with the least upper bound, against
# 0.114, 0.028, 0.057 and 0.070 with the least upper bound alone
@pytest.mark.parametrize(
    "make, fixed_n, k_max, share",
    [
        pytest.param(lambda: ps.gen_graph_edges(ps.random_connected_edges(31, 120, 0)),
                     None, 300, 0.07, id="graph-n31-e120-decaying"),
        pytest.param(lambda: ps.gen_random_psd(16, 200, 1, 1e6, 0), None, 300, 0.02,
                     id="psd-m200-decaying"),
        pytest.param(lambda: ps.gen_random_psd(16, 32, 4, 1e6, 0), 200, 200, 0.045,
                     id="psd-m32-fixed"),
        pytest.param(lambda: ps.gen_graph_edges(ps.random_connected_edges(13, 30, 617)),
                     200, 200, 0.055, id="graph-n13-e30-fixed"),
    ],
)
def test_cap_is_tightened_by_the_first_exact_score(make, fixed_n, k_max, share):
    inst = make()
    trace = ps.run(inst, ps.Schedule(inst.norm_bound, inst.d, fixed_n=fixed_n), k_max=k_max)
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


def test_non_finite_candidate_bound_raises(canonical):
    stack = greedy._stack(ps.center(canonical).xs, 2.0, 1.0)
    with pytest.raises(ps.NonFinite), np.errstate(invalid="ignore"):
        greedy._step(np.zeros((2, 2)), stack, 0.5, greedy._psi_weights(math.inf, 0.1))


def test_failed_pruning_certificate_raises(monkeypatch, canonical):
    exact = greedy._bounds

    def too_low(*args):
        lower, upper, margin = exact(*args)
        return lower - 1.0, upper - 1.0, margin

    monkeypatch.setattr(greedy, "_bounds", too_low)
    with pytest.raises(ps.PruningCertificateFailed):
        ps.run(canonical, ps.Schedule(2.0, 2), k_max=4)


@pytest.mark.parametrize(
    "raise_lower, message",
    [
        (lambda lower, upper: upper, "member 1: lower bound"),   # above every exact score at k = 1
        (lambda lower, upper: upper + 1.0, "every lower bound"),  # nothing left to score
        # only the least-upper-bound member's lower bound is above the cap, so it is
        # not kept; it is scored anyway, and its lower bound is above its score
        (lambda lower, upper: np.where(np.arange(upper.size) == np.argmin(upper),
                                       upper.min() + 1.0, lower), "member 1: lower bound"),
    ],
    ids=["above-scores", "above-every-cap", "first-outside-keep"],
)
def test_failed_lower_bound_certificate_raises(monkeypatch, canonical, raise_lower, message):
    exact = greedy._bounds

    def too_high(*args):
        lower, upper, margin = exact(*args)
        return raise_lower(lower, upper), upper, margin

    monkeypatch.setattr(greedy, "_bounds", too_high)
    with pytest.raises(ps.PruningCertificateFailed, match=message):
        ps.run(canonical, ps.Schedule(2.0, 2), k_max=4)


def test_survivors_include_ties_within_tie_tol(monkeypatch):
    # member 1 scores 4.6e-13 above member 2, so _pick over all members takes it;
    # its lower bound lies above cap + margin but within TIE_TOL of it
    xs = np.array([[[0.5 + 1e-12]], [[0.5]]])
    y = np.zeros((1, 1))
    scores, _ = greedy._candidate_scores(y, xs.copy(), 1.0)
    lower = np.array([scores[0] + 1e-13, scores[1]])
    margin = lower[0] - scores[0]   # exactly, so the lower-bound check passes
    cap = float(scores.min()) + margin
    assert cap + margin < lower[0] <= cap + margin + greedy.TIE_TOL

    monkeypatch.setattr(greedy, "_bounds", lambda *args: (lower, scores.copy(), margin))
    stack = greedy._stack(xs, 1.0, 1.0)
    best, score, _, keep = greedy._step(y, stack, 1.0, greedy._psi_weights(0.1, 0.1))
    assert keep.tolist() == [0, 1]
    assert best == greedy._pick(scores) == 0
    assert score == scores[0]


def test_ties_with_the_least_upper_bound_member_are_scored(monkeypatch):
    # member 2 has the least upper bound and is scored first; member 1 scores
    # 4.6e-13 above it, so _pick over all members takes member 1, whose lower bound
    # lies above member 2's score plus the margin but within TIE_TOL of it.
    # Member 3's lower bound lies under the cap but above member 2's score.
    xs = np.array([[[0.5 + 1e-12]], [[0.5]], [[0.9]]])
    y = np.zeros((1, 1))
    scores, _ = greedy._candidate_scores(y, xs.copy(), 1.0)
    upper = scores + np.array([1.0, 0.5, 1.0])
    lower = np.array([scores[0] + 1e-13, scores[1], scores[1] + 0.1])
    margin = lower[0] - scores[0]   # exactly, so the lower-bound check passes
    assert scores[1] + margin < lower[0] <= scores[1] + margin + greedy.TIE_TOL
    assert lower[2] <= scores[2] and lower[2] < upper[1]

    monkeypatch.setattr(greedy, "_bounds", lambda *args: (lower, upper, margin))
    stack = greedy._stack(xs, 1.0, 1.0)
    best, score, _, keep = greedy._step(y, stack, 1.0, greedy._psi_weights(0.1, 0.1))
    assert keep.tolist() == [0, 1]
    assert best == greedy._pick(scores) == 0
    assert score == scores[0]


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
        full, _ = greedy._candidate_scores(y, xs.copy(), delta)
        assert idx == greedy._pick(full) + 1
        assert value == full[idx - 1]


# 12 instances of the acceptance sweep, with its generator arguments
_REFERENCE_FAMILIES = {
    "bases-d2-b1": lambda: ps.gen_bases(2, 1, 400),
    "bases-d4-b2": lambda: ps.gen_bases(4, 2, 404),
    "bases-d8-b4": lambda: ps.gen_bases(8, 4, 408),
    "bases-d16-b2": lambda: ps.gen_bases(16, 2, 410),
    "psd-d2-m8-r2": lambda: ps.gen_random_psd(2, 8, 2, 1e4, 501),
    "psd-d4-m16-r4": lambda: ps.gen_random_psd(4, 16, 4, 1e4, 505),
    "psd-d10-m30-r2": lambda: ps.gen_random_psd(10, 30, 2, 1e4, 512),
    "psd-d16-m48-r16": lambda: ps.gen_random_psd(16, 48, 16, 1e4, 519),
    "graph-n3-e3": lambda: ps.gen_graph_edges(ps.random_connected_edges(3, 3, 600)),
    "graph-n8-e12": lambda: ps.gen_graph_edges(ps.random_connected_edges(8, 12, 605)),
    "graph-n14-e22": lambda: ps.gen_graph_edges(ps.random_connected_edges(14, 22, 611)),
    "graph-n13-e30": lambda: ps.gen_graph_edges(ps.random_connected_edges(13, 30, 617)),
}


def _full_run(inst, sched, k_max):
    """Exact greedy without pruning: every member scored at every step.

    Returns the 1-based picks and the recorded log-potentials before and after
    each step, computed as run records them.
    """
    xs = ps.center(inst).xs
    y = np.zeros((inst.d, inst.d))
    eigs = np.zeros(inst.d)
    indices, prev, current = [], [], []
    for k in range(1, k_max + 1):
        delta = sched.delta(k)
        prev.append(float(log_potential_from_eigenvalues(eigs, delta)))
        scores, all_eigs = greedy._candidate_scores(y, xs.copy(), delta)
        best = greedy._pick(scores)
        indices.append(best + 1)
        current.append(float(scores[best]))
        eigs = all_eigs[best]
        y = greedy._symmetrize(y + xs[best])
    return tuple(indices), prev, current


@pytest.mark.parametrize("label", sorted(_REFERENCE_FAMILIES))
def test_run_matches_exact_greedy_bit_for_bit(label):
    inst = _REFERENCE_FAMILIES[label]()
    ml = math.ceil(inst.norm_bound * math.log(2 * inst.d))
    for sched, k_max in (
        (ps.Schedule(inst.norm_bound, inst.d), max(4 * ml, 256)),
        (ps.Schedule(inst.norm_bound, inst.d, fixed_n=ml), ml),
    ):
        trace = ps.run(inst, sched, k_max=k_max)
        indices, prev, current = _full_run(inst, sched, k_max)
        assert trace.indices == indices
        assert [r.prev_log_potential for r in trace.records] == prev
        assert [r.log_potential for r in trace.records] == current


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

    def rows(trace):   # every field but `evaluated`, which rests on the bounds' rounding
        return [(r.k, r.delta, r.prev_log_potential, r.log_potential, r.error, r.bound, r.regime)
                for r in trace.records]

    assert by_row.indices == whole.indices
    assert rows(by_row) == rows(whole)
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
