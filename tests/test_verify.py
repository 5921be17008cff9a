import math

import numpy as np
import pytest

import psdsparse as ps
from psdsparse import verify
from psdsparse.symmat import _symmetrize

from conftest import rng_for


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
    # the second sign's top eigenvalue is NaN; min(finite, nan) would drop it
    monkeypatch.setattr(verify, "_eigvalsh", _nan_on_call(verify._eigvalsh, 1))
    rep = ps.check_mgf(ps.center(canonical), 0.5)
    assert math.isnan(rep.worst_slack) and not rep.passed


def test_a_nan_in_the_scalar_reduction_fails_the_suite(monkeypatch):
    exact = verify.scalar_exp_bound_gap
    # x = m1 comes last, after the finite gaps
    monkeypatch.setattr(verify, "scalar_exp_bound_gap",
                        lambda x, delta, m1: math.nan if x == m1 else exact(x, delta, m1))
    rep = ps.run_suite("scalar", 3, 0)
    assert math.isnan(rep.worst_slack) and not rep.passed


def test_a_nan_in_the_psi_reduction_fails_the_suite(monkeypatch):
    # the third psi_value call feeds the last slack, the monotonicity one
    monkeypatch.setattr(verify, "psi_value", _nan_on_call(verify.psi_value, 2))
    rep = ps.run_suite("psi", 1, 0)
    assert math.isnan(rep.worst_slack) and not rep.passed
