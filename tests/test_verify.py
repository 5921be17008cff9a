import math

import numpy as np
import pytest

import psdsparse as ps
from psdsparse.verify import SUITE_TOLS, SUITES

from conftest import rng_for


def test_one_step_canonical_oracle(canonical):
    fam = ps.center(canonical)
    rep = ps.check_one_step(fam, ps.SymMatrix.zeros(2), 0.5)
    # log(e^{2 psi_2(1/2)} * 4) - log(4 cosh(1/2))
    want = 1.7454352753494132 - 1.5064088680781681
    assert rep.worst_slack == pytest.approx(want, rel=1e-12)
    assert rep.passed and rep.suite == "one-step"


def test_one_step_tiny_delta_nonnegative(canonical):
    fam = ps.center(canonical)
    rng = rng_for(9)
    y = ps.SymMatrix(rng.standard_normal((2, 2)))
    assert ps.check_one_step(fam, y, 1e-6).worst_slack >= 0.0


def test_one_step_single_member_slack_is_growth_cap():
    inst = ps.validate({"d": 1, "items": [{"lambda": 1.0, "A": [[1.0]]}]})
    fam = ps.center(inst)
    rep = ps.check_one_step(fam, ps.SymMatrix([[0.4]]), 0.7)
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
        fam = ps.random_centered_family(rng, max_d=8, max_m=8)
        delta = rng.uniform(1e-6, 1.0) / fam.m1
        assert ps.check_mgf(fam, delta).passed


def test_golden_thompson_commuting_is_equality():
    u = ps.SymMatrix(np.diag([0.3, -1.2, 2.0]))
    v = ps.SymMatrix(np.diag([1.0, 0.5, -0.7]))
    rep = ps.check_golden_thompson(u, v)
    assert abs(rep.worst_slack) <= 1e-12


def test_golden_thompson_strict_for_noncommuting():
    u = ps.SymMatrix([[0.0, 1.0], [1.0, 0.0]])
    v = ps.SymMatrix(np.diag([1.0, -1.0]))
    rep = ps.check_golden_thompson(u, v)
    assert rep.worst_slack > 1e-3  # strictly off equality


def test_golden_thompson_zero_summand_is_equality():
    rng = rng_for(21)
    u = ps.SymMatrix(rng.standard_normal((4, 4)))
    rep = ps.check_golden_thompson(u, ps.SymMatrix.zeros(4))
    assert abs(rep.worst_slack) <= 1e-12


def test_interpolation_endpoints_are_exact():
    y = ps.SymMatrix(np.diag([2.0, -0.5]))
    assert ps.check_interpolation(y, 0.7, 0.7).worst_slack == 0.0
    assert ps.check_interpolation(y, 0.0, 0.7).worst_slack == 0.0


def test_interpolation_midpoint_nonnegative():
    rng = rng_for(23)
    for _ in range(20):
        d = int(rng.integers(1, 9))
        y = ps.SymMatrix(rng.standard_normal((d, d)))
        rep = ps.check_interpolation(y, 0.35, 0.7)
        assert rep.worst_slack >= -1e-9


def test_lower_bound_values():
    rep0 = ps.check_lower_bound(ps.SymMatrix.zeros(3), 1.0)
    assert rep0.worst_slack == pytest.approx(math.log(6.0), rel=1e-15)
    rep1 = ps.check_lower_bound(ps.SymMatrix(np.diag([1.0, -1.0])), 1.0)
    assert rep1.worst_slack == pytest.approx(1.8200751916029178 - 1.0, rel=1e-12)


def test_check_domain_validation(canonical):
    fam = ps.center(canonical)
    y = ps.SymMatrix.zeros(2)
    with pytest.raises(ps.DomainError):
        ps.check_one_step(fam, y, 0.0)
    with pytest.raises(ps.DomainError):
        ps.check_mgf(fam, -1.0)
    with pytest.raises(ps.DomainError):
        ps.check_interpolation(y, 0.8, 0.5)
    with pytest.raises(ps.DomainError):
        ps.check_lower_bound(y, 0.0)


def test_report_pass_flag_tracks_tolerance():
    assert ps.CheckReport.merge("lower", [-1e-13], 0).passed
    assert not ps.CheckReport.merge("lower", [-1e-8], 0).passed
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


def test_run_all_passes_at_smoke_scale():
    reports = ps.run_all(trials=40, seed=1)
    assert [r.suite for r in reports] == list(SUITES)
    for rep in reports:
        assert rep.passed, f"{rep.suite}: worst {rep.worst_slack:.3e} (seed {rep.seed})"
        assert rep.tolerance == SUITE_TOLS[rep.suite]
