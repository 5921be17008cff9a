import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import psdsparse as ps
from psdsparse.potential import logsumexp
from psdsparse.symmat import _symmetrize

from conftest import rng_for


def test_psi_zero_delta_is_exactly_zero():
    assert ps.psi_value(1.0, 0.0) == 0.0
    assert ps.psi_value(37.5, 0.0) == 0.0


def test_psi_unit_values():
    # (e - 2) at m1 = delta = 1
    assert ps.psi_value(1.0, 1.0) == pytest.approx(0.7182818284590452, rel=1e-15)


def test_psi_small_delta_series_matches_quadratic_leading_term():
    # series oracle delta^2/2 + delta^3 * m1 / 6 at delta = 1e-8, m1 = 2
    assert ps.psi_value(2.0, 1e-8) == pytest.approx(5.0000000333333e-17, rel=1e-6)


def test_psi_series_and_expm1_branches_agree_near_cutoff():
    for m1 in (0.5, 1.0, 8.0):
        below = ps.psi_value(m1, 0.99e-4 / m1)
        above = ps.psi_value(m1, 1.01e-4 / m1)
        # continuity across the evaluation switch
        assert abs(above - below) <= 0.1 * (above + below)
        mid = 1e-4 / m1
        direct = (math.exp(mid * m1) - 1 - mid * m1) / (m1 * m1)
        assert ps.psi_value(m1, mid) == pytest.approx(direct, rel=1e-8)


def test_psi_rejects_bad_domain():
    with pytest.raises(ps.DomainError):
        ps.psi_value(0.0, 0.5)
    with pytest.raises(ps.DomainError):
        ps.psi_value(-1.0, 0.5)
    with pytest.raises(ps.DomainError):
        ps.psi_value(1.0, -0.5)
    for m1, delta in ((1.0, math.nan), (math.nan, 1.0), (math.inf, 0.0)):
        with pytest.raises(ps.DomainError):
            ps.psi_value(m1, delta)
    with pytest.raises(ps.Overflow):
        ps.psi_value(2.0, 400.0)


@given(st.floats(0.05, 20.0), st.floats(0.0, 5.0))
@settings(max_examples=200, deadline=None)
# subnormal delta^2, where the series once rounded under delta^2/2 (to 0 in the first)
@example(m1=0.0625, u=1.3850690591430747e-163)
@example(m1=1.0, u=6.333138100199483e-158)
def test_psi_two_sided_quadratic_bounds(m1, u):
    delta = u / m1
    v = ps.psi_value(m1, delta)
    assert 2.0 * v >= delta * delta * (1.0 - 1e-12)
    if u <= 1.0:
        assert v <= delta * delta * (1.0 + 1e-12) + 1e-15


@given(st.floats(0.05, 20.0), st.floats(1e-9, 5.0), st.floats(1e-9, 5.0))
@settings(max_examples=100, deadline=None)
def test_psi_monotone_in_delta(m1, u1, u2):
    lo, hi = sorted((u1 / m1, u2 / m1))
    assert ps.psi_value(m1, lo) <= ps.psi_value(m1, hi) * (1.0 + 1e-12)


def test_log_potential_of_zero_matrix():
    for delta in (1e-6, 0.5, 1.0, 10.0):
        lp = ps.log_potential(np.zeros((3, 3)), delta)
        assert type(lp) is float
        assert lp == pytest.approx(1.791759469228055, rel=1e-15)  # log 6


def test_log_potential_two_point_spectrum():
    lp = ps.log_potential(np.diag([1.0, -1.0]), 1.0)
    # log(2e + 2/e)
    assert lp == pytest.approx(1.8200751916029178, rel=1e-15)


def test_log_potential_survives_huge_exponents():
    lp = ps.log_potential([[1000.0]], 1.0)
    assert lp == 1000.0  # log(e^1000 + e^-1000) rounds to 1000 exactly
    lp2 = ps.log_potential(np.diag([3000.0, -3000.0, 0.0]), 1.0)
    assert lp2 == pytest.approx(3000.0 + math.log(2), rel=1e-15)


def test_log_potential_rejects_nonpositive_delta():
    with pytest.raises(ps.DomainError):
        ps.log_potential(np.zeros((2, 2)), 0.0)
    with pytest.raises(ps.DomainError):
        ps.log_potential(np.zeros((2, 2)), -1.0)


@pytest.mark.parametrize("delta", [math.nan, math.inf])
def test_log_potential_rejects_a_non_finite_delta(delta):
    with pytest.raises(ps.DomainError, match="finite and positive"):
        ps.log_potential(np.zeros((2, 2)), delta)
    with pytest.raises(ps.DomainError, match="finite and positive"):
        ps.log_potential_from_eigenvalues(np.zeros(2), delta)


@pytest.mark.parametrize("eigenvalues", [3.0, [], np.zeros((2, 0))], ids=["no-axis", "empty", "empty-rows"])
def test_log_potential_rejects_a_spectrum_without_eigenvalues(eigenvalues):
    with pytest.raises(ps.DimensionMismatch, match=r"need a spectrum of shape \(\.\.\., d\) with d >= 1"):
        ps.log_potential_from_eigenvalues(eigenvalues, 1.0)


def test_log_potential_negation_symmetry():
    rng = rng_for(2)
    for _ in range(20):
        d = int(rng.integers(1, 9))
        y = _symmetrize(rng.standard_normal((d, d)))
        a = ps.log_potential(y, 0.7)
        b = ps.log_potential(-y, 0.7)
        # equal as multisets of exponents; allow summation-order ulps
        assert b == pytest.approx(a, rel=1e-14)


def test_log_potential_floor_at_log_2d():
    rng = rng_for(4)
    for _ in range(30):
        d = int(rng.integers(1, 17))
        y = _symmetrize(rng.standard_normal((d, d)))
        assert ps.log_potential(y, 1.3) >= math.log(2 * d) - 1e-12


def test_log_potential_norm_lower_bound_sweep():
    rng = rng_for(6)
    for _ in range(200):
        d = int(rng.integers(1, 17))
        y = _symmetrize(rng.standard_normal((d, d)) * rng.uniform(0.1, 3.0))
        delta = rng.uniform(1e-6, 2.0)
        assert delta * np.max(np.abs(np.linalg.eigvalsh(y))) <= ps.log_potential(y, delta) + 1e-9


def test_log_potential_interpolation_in_delta():
    rng = rng_for(8)
    for _ in range(50):
        d = int(rng.integers(1, 17))
        y = _symmetrize(rng.standard_normal((d, d)))
        delta = rng.uniform(0.1, 2.0)
        eta = rng.uniform(0.0, delta)
        lhs = ps.log_potential(y, eta) if eta > 0 else math.log(2 * d)
        rhs = (1 - eta / delta) * math.log(2 * d) + (eta / delta) * ps.log_potential(y, delta)
        assert lhs <= rhs + 1e-9


def test_log_potential_from_eigenvalues_batches():
    eigs = np.array([[0.0, 0.0], [1.0, -1.0]])
    out = ps.log_potential_from_eigenvalues(eigs, 1.0)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(math.log(4.0), rel=1e-15)
    assert out[1] == pytest.approx(1.8200751916029178, rel=1e-15)


def _log_potential_reference(eigs, delta):
    """Shifted log-sum-exp over {+-delta*mu_j} with an exactly rounded sum."""
    z = [delta * float(mu) for mu in eigs]
    z += [-x for x in z]
    shift = max(z)
    return shift + math.log(math.fsum(math.exp(x - shift) for x in z))


def test_log_potential_from_eigenvalues_matches_fsum_reference():
    rng = rng_for(10)
    # scale * delta reaches ~5e4, far past the exp overflow threshold of ~709
    for scale, delta in [(1.0, 1e-6), (1.0, 0.7), (3.0, 2.0), (100.0, 10.0), (800.0, 60.0)]:
        for _ in range(40):
            d = int(rng.integers(1, 33))
            eigs = rng.standard_normal(d) * scale
            got = ps.log_potential_from_eigenvalues(eigs, delta)
            assert got == pytest.approx(_log_potential_reference(eigs, delta), rel=1e-14)


def test_log_potential_batch_rows_equal_single_calls_bitwise():
    # greedy reuses a batch row as the next step's single-row potential
    rng = rng_for(12)
    for m, d in [(1, 1), (2, 3), (7, 16), (32, 16), (33, 5), (128, 64)]:
        for delta in (1e-3, 0.1, 3.0):
            eigs = rng.standard_normal((m, d)) * rng.uniform(0.1, 50.0)
            batch = ps.log_potential_from_eigenvalues(eigs, delta)
            for i in range(m):
                assert batch[i] == ps.log_potential_from_eigenvalues(eigs[i], delta)


@given(st.integers(1, 6), st.integers(1, 40), st.floats(1e-3, 900.0), st.integers(0, 2**32 - 1),
       st.booleans())
@settings(max_examples=80, deadline=None)
def test_logsumexp_rows_equal_single_row_calls_bitwise(rows, n, scale, seed, weighted):
    rng = rng_for(seed)
    a = rng.standard_normal((rows, n)) * scale
    b = None
    if weighted:
        b = rng.random((rows, n))
        b[rng.random((rows, n)) < 0.3] = 0.0
        b[np.arange(rows), rng.integers(0, n, rows)] = rng.uniform(0.1, 1.0, rows)
    stacked = logsumexp(a, b)
    assert stacked.shape == (rows,)
    for i in range(rows):
        assert float(stacked[i]).hex() == logsumexp(a[i], None if b is None else b[i]).hex()
    # the spectra of greedy: one spectrum scored alone against it inside a stacked call
    delta = float(rng.uniform(1e-3, 3.0))
    potentials = ps.log_potential_from_eigenvalues(a, delta)
    for i in range(rows):
        assert float(potentials[i]).hex() == ps.log_potential_from_eigenvalues(a[i], delta).hex()


def test_weighted_logsumexp_matches_scipy():
    # the weighted form behind verify's one-step suite
    from scipy.special import logsumexp as scipy_logsumexp

    rng = rng_for(14)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        values = rng.standard_normal(n) * rng.uniform(0.1, 300.0)
        weights = rng.random(n)
        weights[rng.random(n) < 0.3] = 0.0
        weights[int(rng.integers(0, n))] = rng.uniform(0.1, 1.0)
        want = float(scipy_logsumexp(values, b=weights))
        assert logsumexp(values, b=weights) == pytest.approx(want, rel=1e-14, abs=1e-14)
    # a zero-weight entry far above the rest must not overflow the sum
    values, weights = np.array([1.0, 800.0, 2.0]), np.array([0.5, 0.0, 0.5])
    want = float(scipy_logsumexp(values, b=weights))
    assert logsumexp(values, b=weights) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("module", ["scipy", "concurrent.futures"])
def test_import_does_not_load(module):
    src = str(Path(ps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = f"import sys, psdsparse; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_scalar_gap_at_zero_is_exact_zero():
    assert ps.scalar_exp_bound_gap(0.0, 0.7, 2.0) == 0.0


def test_scalar_gap_vanishes_at_upper_endpoint():
    for m1, delta in ((1.0, 0.3), (4.0, 0.9), (0.25, 3.0)):
        gap = ps.scalar_exp_bound_gap(m1, delta, m1)
        assert abs(gap) <= 1e-12 * math.exp(delta * m1)


def test_scalar_gap_is_positive_far_left():
    assert ps.scalar_exp_bound_gap(-5.0, 0.3, 1.0) > 0.0


def test_scalar_gap_rejects_x_above_m1():
    with pytest.raises(ps.DomainError):
        ps.scalar_exp_bound_gap(1.5, 0.3, 1.0)
    with pytest.raises(ps.DomainError):
        ps.scalar_exp_bound_gap(0.0, 0.0, 1.0)


@pytest.mark.parametrize("x, delta", [(math.nan, 0.5), (-math.inf, 0.5), (0.5, math.nan),
                                      (0.5, math.inf)])
def test_scalar_gap_rejects_non_finite_arguments(x, delta):
    with pytest.raises(ps.DomainError):
        ps.scalar_exp_bound_gap(x, delta, 1.0)


@given(st.floats(0.1, 8.0), st.floats(1e-6, 5.0), st.floats(0.0, 50.0))
@settings(max_examples=200, deadline=None)
def test_scalar_gap_grid_never_meaningfully_negative(m1, u, t):
    delta = u / m1
    x = m1 - t * m1  # spans [-49 m1, m1]
    gap = ps.scalar_exp_bound_gap(x, delta, m1)
    assert gap >= -1e-12 * math.exp(delta * m1)
