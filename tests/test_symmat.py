import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psdsparse as ps
from psdsparse.symmat import _symmetrize

from conftest import rng_for


def test_construction_symmetrizes_and_freezes():
    s = ps.SymMatrix([[1.0, 2.0], [0.0, 3.0]])
    assert np.array_equal(s.entries, s.entries.T)
    assert s.entries[0, 1] == 1.0
    with pytest.raises(ValueError):
        s.entries[0, 0] = 9.0


def test_construction_rejects_bad_input():
    with pytest.raises(ps.DimensionMismatch):
        ps.SymMatrix(np.zeros((2, 3)))
    with pytest.raises(ps.DimensionMismatch):
        ps.SymMatrix(np.zeros(4))
    with pytest.raises(ps.NonFinite):
        ps.SymMatrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ps.NonFinite):
        ps.SymMatrix([[1.0, np.inf], [np.inf, 1.0]])


def test_identity_and_zeros():
    assert np.array_equal(ps.SymMatrix.identity(3).entries, np.eye(3))
    assert np.array_equal(ps.SymMatrix.zeros(2).entries, np.zeros((2, 2)))


def test_eigh_identity():
    mu, _ = ps.eigh(ps.SymMatrix.identity(3))
    assert np.allclose(mu, [1.0, 1.0, 1.0])


def test_eigh_diagonal():
    mu, _ = ps.eigh(ps.SymMatrix(np.diag([2.0, 0.0])))
    assert np.allclose(mu, [0.0, 2.0], atol=1e-14)


def test_eigh_offdiagonal_pair():
    # characteristic polynomial x^2 - 1
    mu, _ = ps.eigh(ps.SymMatrix([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(mu, [-1.0, 1.0], atol=1e-14)


def test_eigh_certificates_hold_on_random_input():
    rng = rng_for(7)
    for d in (1, 2, 5, 16, 48):
        s = ps.SymMatrix(rng.standard_normal((d, d)))
        mu, q = ps.eigh(s)
        assert np.all(np.diff(mu) >= 0)
        recon = q @ np.diag(mu) @ q.T
        assert np.linalg.norm(recon - s.entries) <= 1e-10 * (1 + np.linalg.norm(s.entries))
        assert np.linalg.norm(q.T @ q - np.eye(d)) <= 1e-10 * d


def test_eigh_deterministic_bitwise():
    rng = rng_for(11)
    s = ps.SymMatrix(rng.standard_normal((8, 8)))
    (mu_a, q_a), (mu_b, q_b) = ps.eigh(s), ps.eigh(s)
    assert np.array_equal(mu_a, mu_b)
    assert np.array_equal(q_a, q_b)


def test_op_norm_examples():
    assert ps.op_norm(ps.SymMatrix.zeros(3)) == 0.0
    assert ps.op_norm(ps.SymMatrix(np.diag([1.0, -3.0]))) == pytest.approx(3.0)
    # rank-one d*uu^T - Id has eigenvalues d-1 and -1
    u = np.array([0.5, 0.5, 0.5, 0.5])
    s = ps.SymMatrix(4 * np.outer(u, u) - np.eye(4))
    assert ps.op_norm(s) == pytest.approx(3.0, rel=1e-12)


def test_loewner_leq_examples():
    zero, ident = ps.SymMatrix.zeros(2), ps.SymMatrix.identity(2)
    assert ps.loewner_leq(zero, ident, 0.0)
    assert not ps.loewner_leq(ps.SymMatrix(np.diag([2.0, 0.0])), ident, 1e-12)
    x = ps.SymMatrix(np.diag([1.0, -1.0]))  # A_1 - Id of the canonical instance
    xsq = ps.SymMatrix(x.entries @ x.entries)
    assert ps.loewner_leq(xsq, ps.SymMatrix(2 * np.eye(2)))


def test_loewner_leq_rejects():
    with pytest.raises(ps.DimensionMismatch):
        ps.loewner_leq(ps.SymMatrix.zeros(2), ps.SymMatrix.zeros(3))
    with pytest.raises(ps.DomainError):
        ps.loewner_leq(ps.SymMatrix.zeros(2), ps.SymMatrix.zeros(2), tol=-1e-3)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_loewner_transitivity_on_random_triples(seed):
    rng = rng_for(seed)
    d = int(rng.integers(1, 6))
    a = _symmetrize(rng.standard_normal((d, d)))
    b = a + _psd(rng, d)
    c = b + _psd(rng, d)
    sa, sb, sc = ps.SymMatrix(a), ps.SymMatrix(b), ps.SymMatrix(c)
    assert ps.loewner_leq(sa, sb, 1e-10)
    assert ps.loewner_leq(sb, sc, 1e-10)
    assert ps.loewner_leq(sa, sc, 2e-10)


def _psd(rng, d):
    g = rng.standard_normal((d, d))
    return g @ g.T


def test_sym_apply_exp_of_zero_is_identity():
    out = ps.sym_apply(ps.SymMatrix.zeros(3), np.exp)
    assert np.allclose(out.entries, np.eye(3), atol=1e-15)


def test_sym_apply_exp_of_diagonal():
    out = ps.sym_apply(ps.SymMatrix(np.diag([1.0, -1.0])), np.exp)
    assert np.allclose(out.entries, np.diag([math.e, 1 / math.e]), rtol=1e-14)


def test_sym_apply_exp_log_roundtrip():
    rng = rng_for(3)
    s = ps.SymMatrix(rng.standard_normal((6, 6)))
    back = ps.sym_apply(ps.sym_apply(s, np.exp), np.log)
    assert np.linalg.norm(back.entries - s.entries) <= 1e-9


def test_sym_apply_norm_matches_exp_of_top_eigenvalue():
    rng = rng_for(5)
    for _ in range(10):
        s = ps.SymMatrix(rng.standard_normal((5, 5)))
        top = ps.eigh(s)[0][-1]
        assert ps.op_norm(ps.sym_apply(s, np.exp)) == pytest.approx(math.exp(top), rel=1e-9)


def test_sym_apply_rejects_nonfinite_result():
    s = ps.SymMatrix(np.diag([1.0, -1.0]))
    with pytest.raises(ps.NonFinite):
        ps.sym_apply(s, np.log)  # log of a negative eigenvalue


@pytest.mark.parametrize("f", [np.log, math.log, np.sqrt, math.sqrt, math.exp],
                         ids=["np.log", "math.log", "np.sqrt", "math.sqrt", "math.exp"])
def test_sym_apply_scalar_and_array_functions_fail_alike(f):
    # math.log and math.sqrt raise ValueError on -1, math.exp OverflowError on 1000
    s = ps.SymMatrix(np.diag([1.0, -1.0] if f is not math.exp else [1000.0, 0.0]))
    with pytest.raises(ps.NonFinite):
        ps.sym_apply(s, f)


def test_sym_apply_scalar_function_matches_array_function():
    s = ps.SymMatrix([[2.0, 0.5], [0.5, 1.0]])
    assert np.array_equal(ps.sym_apply(s, math.log).entries, ps.sym_apply(s, np.log).entries)


def test_golden_thompson_trace_inequality_random():
    rng = rng_for(13)
    for _ in range(25):
        d = int(rng.integers(1, 7))
        u = _bounded_sym(rng, d, 2.0)
        v = _bounded_sym(rng, d, 2.0)
        lhs = np.sum(np.exp(np.linalg.eigvalsh(u + v)))
        rhs = float(np.sum(
            ps.sym_apply(ps.SymMatrix(u), np.exp).entries
            * ps.sym_apply(ps.SymMatrix(v), np.exp).entries
        ))
        assert lhs <= rhs + 1e-9 * rhs


def _bounded_sym(rng, d, cap):
    s = _symmetrize(rng.standard_normal((d, d)))
    top = np.max(np.abs(np.linalg.eigvalsh(s)))
    return s * (rng.uniform(0.1, cap) / top) if top > 0 else s
