import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import psdsparse as ps
from psdsparse import instance, verify
from psdsparse.symmat import _symmetrize

from conftest import rng_for

SLACKS = Path(__file__).parent / "data" / "verify_slacks.json"
PINNED_SEEDS, PINNED_TRIALS = (0, 1, 2), 200
PINNED_RUN_ALL = (1000, 20260814)   # trials, seed


def trial_slacks(suite: str, seed: int) -> np.ndarray:
    """The slacks of a suite's first PINNED_TRIALS trials, in trial order, in run_suite's blocks."""
    return np.concatenate([
        verify._block_slacks(suite, seed, range(start, min(start + verify.BLOCK, PINNED_TRIALS)))
        for start in range(0, PINNED_TRIALS, verify.BLOCK)
    ])


def pinned_slacks() -> dict:
    """The sha256 of every suite's per-trial slacks, as float64 bytes, at each pinned seed, and
    the reports of run_all at PINNED_RUN_ALL."""
    return {
        "slack_sha256": {
            suite: [hashlib.sha256(trial_slacks(suite, seed).astype(np.float64).tobytes()).hexdigest()
                    for seed in PINNED_SEEDS]
            for suite in ps.SUITES
        },
        "run_all": [dataclasses.asdict(rep) for rep in ps.run_all(*PINNED_RUN_ALL)],
    }


def test_every_slack_keeps_its_pinned_bits():
    assert pinned_slacks() == json.loads(SLACKS.read_text())


def test_one_step_canonical_oracle(canonical):
    fam = ps.center(canonical)
    rep = ps.check_one_step(fam, np.zeros((2, 2)), 0.5)
    # log(e^{2 psi_2(1/2)} * 4) - log(4 cosh(1/2))
    want = 1.7454352753494132 - 1.5064088680781681
    assert rep.worst_slack == pytest.approx(want, rel=1e-12)
    assert rep.passed and rep.suite == "one-step"


def test_one_step_tiny_delta_nonnegative(canonical):
    fam = ps.center(canonical)
    rng = rng_for(9)
    y = _symmetrize(rng.standard_normal((2, 2)))
    assert ps.check_one_step(fam, y, 1e-6).worst_slack >= 0.0


def test_one_step_single_member_slack_is_growth_cap():
    inst = ps.validate({"d": 1, "items": [{"lambda": 1.0, "A": [[1.0]]}]})
    fam = ps.center(inst)
    rep = ps.check_one_step(fam, [[0.4]], 0.7)
    assert rep.worst_slack == pytest.approx(ps.psi_value(1.0, 0.7), rel=1e-9)


def test_mgf_canonical_oracle(canonical):
    fam = ps.center(canonical)
    rep = ps.check_mgf(fam, 0.5)
    # exp(2 psi_2(1/2)) - cosh(1/2)
    want = 1.4320985904233344 - 1.1276259652063808
    assert rep.worst_slack == pytest.approx(want, rel=1e-12)
    assert rep.passed


def test_mgf_single_member():
    inst = ps.validate({"d": 1, "items": [{"lambda": 1.0, "A": [[1.0]]}]})
    rep = ps.check_mgf(ps.center(inst), 0.9)
    assert rep.worst_slack == pytest.approx(math.exp(ps.psi_value(1.0, 0.9)) - 1.0, rel=1e-12)


def test_mgf_random_families_within_unit_delta_range():
    rng = rng_for(15)
    for _ in range(25):
        fam = ps.random_centered_family(rng)
        delta = rng.uniform(1e-6, 1.0) / fam.m1
        assert ps.check_mgf(fam, delta).passed


def test_golden_thompson_commuting_is_equality():
    u = np.diag([0.3, -1.2, 2.0])
    v = np.diag([1.0, 0.5, -0.7])
    rep = ps.check_golden_thompson(u, v)
    assert abs(rep.worst_slack) <= 1e-12


def test_golden_thompson_strict_for_noncommuting():
    u = [[0.0, 1.0], [1.0, 0.0]]
    v = np.diag([1.0, -1.0])
    rep = ps.check_golden_thompson(u, v)
    assert rep.worst_slack > 1e-3  # strictly off equality


def test_golden_thompson_zero_summand_is_equality():
    rng = rng_for(21)
    u = _symmetrize(rng.standard_normal((4, 4)))
    rep = ps.check_golden_thompson(u, np.zeros((4, 4)))
    assert abs(rep.worst_slack) <= 1e-12


def test_golden_thompson_rejects_mismatched_sizes():
    with pytest.raises(ps.DimensionMismatch, match="2x2, V is 3x3"):
        ps.check_golden_thompson(np.zeros((2, 2)), np.zeros((3, 3)))


@pytest.mark.parametrize("top", [400.0, 2000.0])
def test_golden_thompson_slack_stays_finite_past_exp_overflow(top):
    # e^{2 top} overflows a float; in log scale both sides equal 2 top
    u = np.diag([top, 0.0])
    rep = ps.check_golden_thompson(u, u)
    assert rep.passed and abs(rep.worst_slack) <= 1e-12
    v = [[top, 1.0], [1.0, 0.0]]
    rep = ps.check_golden_thompson(u, v)
    assert rep.passed and math.isfinite(rep.worst_slack)


@pytest.mark.parametrize("top", [1.0, 1000.0])
def test_golden_thompson_orthogonal_tops_are_equality(top):
    # U, V commute: both sides are log(e^top + e^top) = top + log 2, even
    # where e^{-top} underflows beside either top eigenvalue
    u = np.diag([top, 0.0])
    v = np.diag([0.0, top])
    rep = ps.check_golden_thompson(u, v)
    assert rep.passed and abs(rep.worst_slack) <= 1e-12


def test_interpolation_endpoints_are_exact():
    y = np.diag([2.0, -0.5])
    assert ps.check_interpolation(y, 0.7, 0.7).worst_slack == 0.0
    assert ps.check_interpolation(y, 0.0, 0.7).worst_slack == 0.0


def test_interpolation_midpoint_nonnegative():
    rng = rng_for(23)
    for _ in range(20):
        d = int(rng.integers(1, 9))
        y = _symmetrize(rng.standard_normal((d, d)))
        rep = ps.check_interpolation(y, 0.35, 0.7)
        assert rep.worst_slack >= -1e-9


def test_lower_bound_values():
    rep0 = ps.check_lower_bound(np.zeros((3, 3)), 1.0)
    assert rep0.worst_slack == pytest.approx(math.log(6.0), rel=1e-15)
    rep1 = ps.check_lower_bound(np.diag([1.0, -1.0]), 1.0)
    assert rep1.worst_slack == pytest.approx(1.8200751916029178 - 1.0, rel=1e-12)


def test_check_domain_validation(canonical):
    fam = ps.center(canonical)
    y = np.zeros((2, 2))
    with pytest.raises(ps.DomainError):
        ps.check_one_step(fam, y, 0.0)
    with pytest.raises(ps.DomainError):
        ps.check_mgf(fam, -1.0)
    with pytest.raises(ps.DomainError):
        ps.check_interpolation(y, 0.8, 0.5)
    with pytest.raises(ps.DomainError):
        ps.check_interpolation(y, math.nan, 0.5)
    with pytest.raises(ps.DomainError):
        ps.check_lower_bound(y, 0.0)


def test_report_pass_flag_tracks_tolerance():
    assert ps.CheckReport.merge("lower", [-1e-13]).passed
    assert not ps.CheckReport.merge("lower", [-1e-8]).passed
    rep = ps.CheckReport.merge("lower", [0.5, -2.0, 1.0], 7)
    assert rep.worst_slack == -2.0 and rep.worst_trial == 1 and rep.seed == 7


def test_random_centered_family_certificates():
    rng = rng_for(29)
    for _ in range(15):
        fam = ps.random_centered_family(rng)
        mean = np.einsum("i,ijk->jk", fam.weights, fam.xs)
        assert np.max(np.abs(mean)) <= 1e-12 * max(1.0, fam.m1)
        norms = np.max(np.abs(np.linalg.eigvalsh(fam.xs)), axis=-1)
        assert np.max(norms) <= fam.m1 + 1e-12
        sq = np.einsum("i,ijk->jk", fam.weights, fam.xs @ fam.xs)
        top = float(np.max(np.linalg.eigvalsh((sq + sq.T) / 2)))
        assert top <= fam.m2 + 1e-12


def test_run_suite_reproducible():
    a = ps.run_suite("interp", 25, seed=5)
    b = ps.run_suite("interp", 25, seed=5)
    assert a == b
    assert a.trials == 25


@pytest.mark.parametrize("slacks", [
    [0.5, 0.2, 0.2, 0.7, 0.2, -1.0, 3.0, -1.0],
    [1.0, 2.0, 3.0, math.nan, 0.5, -4.0, math.nan, -9.0],
    [math.nan, -1.0, math.nan],
    [-1.0, 5.0, 6.0, math.nan],
    [2.0] * 7,
    [3.0, 2.0, 1.0, 0.0, -1.0, -2.0, -3.0],
    [-math.inf, 0.0, 0.0, -math.inf],
    [0.25],
], ids=["ties", "nan-then-less", "nan-first", "nan-last", "all-equal", "falling", "inf", "one"])
def test_blocks_fold_into_the_report_that_merge_gives(monkeypatch, slacks):
    # blocks of 3: ties and NaNs fall within blocks and across them
    monkeypatch.setattr(verify, "BLOCK", 3)
    tolerance = verify._SUITES["lower"][-1]
    monkeypatch.setitem(verify._SUITES, "lower", (lambda rng, t: slacks[t], None, tolerance))
    got = ps.run_suite("lower", len(slacks), 4)
    assert repr(got) == repr(ps.CheckReport.merge("lower", slacks, 4))   # repr: NaN equals NaN


def test_a_check_gives_its_input_the_slack_it_gets_in_a_block(canonical):
    # a block batches its inputs of one size together, the check's input last here
    rng = rng_for(31)
    fams = [ps.center(ps.gen_bases(2, 1, s)) for s in range(3)]
    fams += [ps.random_centered_family(rng) for _ in range(3)] + [ps.center(canonical)]
    ys = [_symmetrize(rng.standard_normal((f.d, f.d))) for f in fams]
    deltas = [0.1 * j + 0.05 for j in range(len(fams))]
    vs = [_symmetrize(rng.standard_normal(y.shape)) for y in ys]
    y, v, fam, delta = ys[-1], vs[-1], fams[-1], deltas[-1]
    assert ps.check_one_step(fam, y, delta).worst_slack == verify._one_step_slacks(fams, ys, deltas)[-1]
    assert ps.check_mgf(fam, delta).worst_slack == verify._mgf_slacks(fams, deltas)[-1]
    assert ps.check_golden_thompson(y, v).worst_slack == verify._gt_slacks(ys, vs)[-1]
    etas = [0.5 * x for x in deltas]
    assert ps.check_interpolation(y, etas[-1], delta).worst_slack == verify._interp_slacks(
        ys, etas, deltas)[-1]
    assert ps.check_lower_bound(y, delta).worst_slack == verify._lower_slacks(ys, deltas)[-1]


def test_run_suite_validation():
    with pytest.raises(ps.DomainError):
        ps.run_suite("nope", 10, 0)
    with pytest.raises(ps.DomainError):
        ps.run_suite("psi", 0, 0)
    with pytest.raises(ps.DomainError):
        ps.run_suite("psi", 10, -1)


def test_one_step_rejects_a_running_sum_of_the_wrong_size():
    fam = ps.center(ps.gen_bases(2, 1, 0))
    with pytest.raises(ps.DimensionMismatch):
        ps.check_one_step(fam, np.zeros((3, 3)), 0.1)


def test_run_all_passes_at_smoke_scale():
    reports = ps.run_all(trials=40, seed=1)
    assert [r.suite for r in reports] == list(ps.SUITES)
    for rep in reports:
        assert rep.passed, f"{rep.suite}: worst {rep.worst_slack:.3e} (seed {rep.seed})"
        assert rep.tolerance == (1e-12 if rep.suite in ("scalar", "psi") else 1e-9)


def test_suite_order_is_pinned():
    # a suite's position keys its trials' random streams
    assert ps.SUITES == ("one-step", "mgf", "gt", "interp", "lower", "scalar", "psi")


@pytest.mark.parametrize("suite", ["lower", "psi"])
def test_report_verdict_is_derived_from_the_slack(suite):
    tol = ps.CheckReport(suite, 1, 0.0).tolerance
    assert not ps.CheckReport(suite, 1, math.nan).passed
    assert not ps.CheckReport(suite, 1, -2 * tol).passed
    assert ps.CheckReport(suite, 1, -tol / 2).passed
    assert not ps.CheckReport.merge(suite, [1.0, math.nan, -5.0]).passed


@pytest.mark.parametrize("field", ["passed", "tolerance"])
def test_report_does_not_take_derived_fields(field):
    with pytest.raises(TypeError):
        ps.CheckReport(suite="gt", trials=1, worst_slack=0.0, **{field: 1.0})


def test_single_input_checks_report_seed_0(canonical):
    y = np.zeros((2, 2))
    assert ps.check_mgf(ps.center(canonical), 0.5).seed == 0
    assert ps.check_golden_thompson(y, y).seed == 0


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_checks_reject_a_delta_that_is_not_finite_and_positive(canonical, delta):
    fam = ps.center(canonical)
    y = np.zeros((2, 2))
    for call in (
        lambda: ps.check_one_step(fam, y, delta),
        lambda: ps.check_mgf(fam, delta),
        lambda: ps.check_interpolation(y, 0.0, delta),
        lambda: ps.check_lower_bound(y, delta),
    ):
        with pytest.raises(ps.DomainError, match="delta"):
            call()


def _nan_on_call(fn, n):
    """fn, except that its n-th call (0-based) returns NaN."""
    calls = []

    def wrapped(*args):
        calls.append(None)
        return math.nan if len(calls) == n + 1 else fn(*args)
    return wrapped


def test_a_nan_in_the_mgf_reduction_fails_the_suite(monkeypatch, canonical):
    # the minus sign's top eigenvalue is NaN; min(finite, nan) would drop it
    exact = verify._eigvalsh

    def nan_minus_row(a):
        eigs = exact(a)
        eigs[1] = math.nan   # the batched call's rows: the input's sums at +delta, -delta
        return eigs
    monkeypatch.setattr(verify, "_eigvalsh", nan_minus_row)
    rep = ps.check_mgf(ps.center(canonical), 0.5)
    assert math.isnan(rep.worst_slack) and not rep.passed


def test_a_nan_in_the_scalar_reduction_fails_the_suite(monkeypatch):
    # trial 0's 66th and last point is x = m1, after the finite gaps
    monkeypatch.setattr(verify, "_exp_bound_gap", _nan_on_call(verify._exp_bound_gap, 65))
    rep = ps.run_suite("scalar", 3, 0)
    assert math.isnan(rep.worst_slack) and not rep.passed


def test_a_nan_in_the_psi_reduction_fails_the_suite(monkeypatch):
    # the third psi_value call feeds the last slack, the monotonicity one
    monkeypatch.setattr(verify, "psi_value", _nan_on_call(verify.psi_value, 2))
    rep = ps.run_suite("psi", 1, 0)
    assert math.isnan(rep.worst_slack) and not rep.passed


# --- building a block's families ---------------------------------------------------


def _psd_draws() -> list[tuple[int, int, int, int]]:
    """A PSD-derived family's draws (d, m, rank, seed) for every d in 1..16."""
    rng = rng_for(41)
    draws = []
    for d in range(1, 17):
        rank = int(rng.integers(1, d + 1))
        m = int(rng.integers(-(-d // rank), 2 * d + 5))
        draws.append((d, m, rank, int(rng.integers(0, 2**63))))
    return draws


def _bits(fam) -> tuple:
    return fam.xs.shape, fam.xs.tobytes(), fam.weights.tobytes(), fam.m1, fam.m2


# at the cap of 53, the d = 4 and d = 9 families whiten on their third and on a later attempt
@pytest.mark.parametrize("cap, retried", [(verify._PSD_COND_CAP, 0), (53.0, 2)], ids=["default-cap", "cap-53"])
def test_a_block_builds_psd_derived_families_with_their_own_bits(monkeypatch, cap, retried):
    attempts = {}
    exact = instance._rng
    monkeypatch.setattr(instance, "_rng", lambda seed, *key: attempts.setdefault(seed, []).append(key)
                        or exact(seed, *key))
    monkeypatch.setattr(verify, "_PSD_COND_CAP", cap)
    draws = _psd_draws()
    got = verify._psd_derived_families(draws)
    assert sum(len(keys) > 1 for keys in attempts.values()) == retried
    for (d, m, rank, seed), fam in zip(draws, got):
        assert _bits(fam) == _bits(ps.center(ps.gen_random_psd(d, m, rank, cap, seed)))


def test_whitening_retries_keep_their_pinned_bits():
    # the factors at the cap of 53, as gen_random_psd drew them one family at a time
    digest = hashlib.sha256()
    for d, m, rank, seed in _psd_draws():
        digest.update(ps.gen_random_psd(d, m, rank, 53.0, seed).factors.tobytes())
    assert digest.hexdigest() == "6e9ff59ff2a9a78b6f6811b9aa20033986847157073c29f592c7fbf47d6fe16d"


def test_a_block_builds_centered_families_with_their_own_bits():
    rng = rng_for(43)
    draws = [verify._centered_draw(rng) for _ in range(128)]
    assert sorted({xs.shape[1] for _, xs in draws}) == list(range(1, 17))
    rng = rng_for(43)
    for fam in verify._centered_families(draws):
        assert _bits(fam) == _bits(ps.random_centered_family(rng))


@pytest.mark.parametrize(
    "name, value, error",
    [
        ("PSD_TOL", -1.0, ps.NotPSD),
        ("ISOTROPY_TOL", -1.0, ps.NotIsotropic),
        ("NORM_FLOOR_TOL", -1e6, ps.InstanceError),
        ("CENTER_MEAN_TOL", -1.0, "mean-zero"),
        ("CENTER_NORM_TOL", -1e6, "norm"),
        ("CENTER_SQUARE_TOL", -1.0, "square-bound"),
    ],
    ids=["psd", "isotropy", "norm-floor", "mean-zero", "norm", "square-bound"],
)
def test_a_block_of_psd_derived_families_runs_every_certificate(monkeypatch, name, value, error):
    # every family fails, so the block raises the first family's error, as Instance does
    monkeypatch.setattr(instance, name, value)
    (d, m, rank, seed), *_ = draws = _psd_draws()
    with pytest.raises(ps.InstanceError) as alone:
        ps.gen_random_psd(d, m, rank, verify._PSD_COND_CAP, seed)
    with pytest.raises(ps.InstanceError) as block:
        verify._psd_derived_families(draws)
    assert type(block.value) is type(alone.value) and str(block.value) == str(alone.value)
    if isinstance(error, str):
        assert block.value.which == error
    else:
        assert type(block.value) is error


@pytest.mark.parametrize("start", [0, 128, 256])
def test_a_block_draws_from_each_trials_own_stream(start):
    for seed in (0, 7, 2**63 + 5):
        got = instance._rngs(seed, (3,), range(start, start + 5))
        assert len(got) == 5
        for t, rng in zip(range(start, start + 5), got):
            assert rng.random(4).tobytes() == instance._rng(seed, 3, t).random(4).tobytes()


@pytest.mark.parametrize("seed, message", [(-1, "nonnegative, got -1"), (1.5, "an integer, got 1.5"),
                                           (True, "an integer, got True")], ids=["negative", "float", "bool"])
def test_a_bad_seed_fails_naming_that_seed_alone(seed, message):
    for suite in ("one-step", "psi"):
        with pytest.raises(ps.DomainError, match=f"^seed must be {message}$"):
            ps.run_suite(suite, 3, seed)
