import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psdsparse as ps
from psdsparse import symmat
from psdsparse.symmat import _symmetrize

from conftest import rng_for


_FAM = ps.center(ps.gen_bases(2, 1, 0))   # d = 2
_Y = np.array([[0.3, 0.1], [0.1, -0.2]])

# every public entry that takes a matrix, called with y; sized ones tie y to a 2 x 2 partner
MATRIX_ENTRIES = {
    "select_next": (lambda y: ps.select_next(y, 0.1, _FAM), True),
    "log_potential": (lambda y: ps.log_potential(y, 0.5), False),
    "check_one_step": (lambda y: ps.check_one_step(_FAM, y, 0.1), True),
    "check_golden_thompson": (lambda y: ps.check_golden_thompson(np.eye(2), y), True),
    "check_interpolation": (lambda y: ps.check_interpolation(y, 0.2, 0.5), False),
    "check_lower_bound": (lambda y: ps.check_lower_bound(y, 0.5), False),
    "loewner_leq": (lambda y: ps.loewner_leq(np.zeros((2, 2)), y), True),
    "eigh": (ps.eigh, False),
    "sym_apply": (lambda y: ps.sym_apply(y, np.exp), False),
}


@pytest.mark.parametrize("name", MATRIX_ENTRIES)
def test_matrix_entries_check_their_input(name):
    call, sized = MATRIX_ENTRIES[name]
    for shape in ((2, 3), (4,), (0, 0)):
        with pytest.raises(ps.DimensionMismatch):
            call(np.zeros(shape))
    if sized:
        with pytest.raises(ps.DimensionMismatch, match="need 2x2"):
            call(np.zeros((3, 3)))
    for bad in (np.nan, np.inf):
        y = _Y.copy()
        y[0, 0] = bad
        with pytest.raises(ps.NonFinite):
            call(y)
    # finite, but a + a^T overflows: NonFinite, with no numpy warning first (warnings are errors)
    y = _Y.copy()
    y[0, 0] = 1.7e308
    with pytest.raises(ps.NonFinite, match="overflows when symmetrized"):
        call(y)
    y = _Y.copy()
    y[0, 1] += 1e-6
    with pytest.raises(ps.NotSymmetric, match="tolerance 1e-09"):
        call(y)
    # an asymmetry within ASYMMETRY_TOL is accepted, and the entry reads sym(y)
    y = _Y.copy()
    y[0, 1] += 1e-12
    np.testing.assert_equal(call(y), call(_symmetrize(y)))
    assert not np.array_equal(y, y.T)   # the input itself is left as it was


def test_eigh_certificates_reject_nan(monkeypatch):
    # NaN compares false to every limit, so each certificate is written to fail on it
    monkeypatch.setattr(symmat, "_eigh", lambda a: (np.full(2, np.nan), np.full((2, 2), np.nan)))
    with pytest.raises(ps.NoConvergence, match="reconstruction"):
        ps.eigh(np.eye(2))


def test_eigh_identity():
    mu, _ = ps.eigh(np.eye(3))
    assert np.allclose(mu, [1.0, 1.0, 1.0])


def test_eigh_diagonal():
    mu, _ = ps.eigh(np.diag([2.0, 0.0]))
    assert np.allclose(mu, [0.0, 2.0], atol=1e-14)


def test_eigh_offdiagonal_pair():
    # characteristic polynomial x^2 - 1
    mu, _ = ps.eigh([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(mu, [-1.0, 1.0], atol=1e-14)


def test_eigh_certificates_hold_on_random_input():
    rng = rng_for(7)
    for d in (1, 2, 5, 16, 48):
        s = _symmetrize(rng.standard_normal((d, d)))
        mu, q = ps.eigh(s)
        assert np.all(np.diff(mu) >= 0)
        recon = q @ np.diag(mu) @ q.T
        assert np.linalg.norm(recon - s) <= 1e-10 * (1 + np.linalg.norm(s))
        assert np.linalg.norm(q.T @ q - np.eye(d)) <= 1e-10 * d


def test_eigh_deterministic_bitwise():
    rng = rng_for(11)
    s = _symmetrize(rng.standard_normal((8, 8)))
    (mu_a, q_a), (mu_b, q_b) = ps.eigh(s), ps.eigh(s)
    assert np.array_equal(mu_a, mu_b)
    assert np.array_equal(q_a, q_b)


def test_loewner_leq_examples():
    zero, ident = np.zeros((2, 2)), np.eye(2)
    assert ps.loewner_leq(zero, ident, 0.0)
    assert not ps.loewner_leq(np.diag([2.0, 0.0]), ident, 1e-12)
    x = np.diag([1.0, -1.0])  # A_1 - Id of the canonical instance
    xsq = x @ x
    assert ps.loewner_leq(xsq, 2 * np.eye(2))


def test_loewner_leq_rejects():
    with pytest.raises(ps.DimensionMismatch):
        ps.loewner_leq(np.zeros((2, 2)), np.zeros((3, 3)))
    for tol in (-1e-3, np.nan):
        with pytest.raises(ps.DomainError):
            ps.loewner_leq(np.zeros((2, 2)), np.zeros((2, 2)), tol=tol)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_loewner_transitivity_on_random_triples(seed):
    rng = rng_for(seed)
    d = int(rng.integers(1, 6))
    a = _symmetrize(rng.standard_normal((d, d)))
    b = a + _psd(rng, d)
    c = b + _psd(rng, d)
    assert ps.loewner_leq(a, b, 1e-10)
    assert ps.loewner_leq(b, c, 1e-10)
    assert ps.loewner_leq(a, c, 2e-10)


def _psd(rng, d):
    g = rng.standard_normal((d, d))
    return g @ g.T


def test_sym_apply_exp_of_zero_is_identity():
    out = ps.sym_apply(np.zeros((3, 3)), np.exp)
    assert np.allclose(out, np.eye(3), atol=1e-15)


def test_sym_apply_exp_of_diagonal():
    out = ps.sym_apply(np.diag([1.0, -1.0]), np.exp)
    assert np.allclose(out, np.diag([math.e, 1 / math.e]), rtol=1e-14)


def test_sym_apply_exp_log_roundtrip():
    rng = rng_for(3)
    s = _symmetrize(rng.standard_normal((6, 6)))
    back = ps.sym_apply(ps.sym_apply(s, np.exp), np.log)
    assert np.linalg.norm(back - s) <= 1e-9


def test_sym_apply_norm_matches_exp_of_top_eigenvalue():
    rng = rng_for(5)
    for _ in range(10):
        s = _symmetrize(rng.standard_normal((5, 5)))
        top = ps.eigh(s)[0][-1]
        assert np.max(np.abs(np.linalg.eigvalsh(ps.sym_apply(s, np.exp)))) == pytest.approx(math.exp(top), rel=1e-9)


def test_sym_apply_rejects_nonfinite_result():
    s = np.diag([1.0, -1.0])
    with pytest.raises(ps.NonFinite):
        ps.sym_apply(s, np.log)  # log of a negative eigenvalue


@pytest.mark.parametrize("f", [np.log, math.log, np.sqrt, math.sqrt, math.exp],
                         ids=["np.log", "math.log", "np.sqrt", "math.sqrt", "math.exp"])
def test_sym_apply_scalar_and_array_functions_fail_alike(f):
    # math.log and math.sqrt raise ValueError on -1, math.exp OverflowError on 1000
    s = np.diag([1.0, -1.0] if f is not math.exp else [1000.0, 0.0])
    with pytest.raises(ps.NonFinite):
        ps.sym_apply(s, f)


def test_sym_apply_falls_back_per_eigenvalue_on_a_wrong_shape():
    # on the whole spectrum this f returns one number, not one per eigenvalue
    s = [[2.0, 0.5], [0.5, 1.0]]
    np.testing.assert_allclose(ps.sym_apply(s, lambda x: np.sum(np.exp(x))),
                               ps.sym_apply(s, np.exp), rtol=1e-15)


def test_sym_apply_scalar_function_matches_array_function():
    s = [[2.0, 0.5], [0.5, 1.0]]
    assert np.array_equal(ps.sym_apply(s, math.log), ps.sym_apply(s, np.log))


def test_golden_thompson_trace_inequality_random():
    rng = rng_for(13)
    for _ in range(25):
        d = int(rng.integers(1, 7))
        u = _bounded_sym(rng, d, 2.0)
        v = _bounded_sym(rng, d, 2.0)
        lhs = np.sum(np.exp(np.linalg.eigvalsh(u + v)))
        rhs = float(np.sum(ps.sym_apply(u, np.exp) * ps.sym_apply(v, np.exp)))
        assert lhs <= rhs + 1e-9 * rhs


def _bounded_sym(rng, d, cap):
    s = _symmetrize(rng.standard_normal((d, d)))
    top = np.max(np.abs(np.linalg.eigvalsh(s)))
    return s * (rng.uniform(0.1, cap) / top) if top > 0 else s


# --- batched eigvalsh split across threads ------------------------------------------


def _batch(n, d=5):
    g = rng_for(n).standard_normal((n, d, d))
    return g + g.swapaxes(1, 2)


@pytest.mark.parametrize("n", [2, 3, 17])
def test_split_eigvalsh_has_the_bits_of_one_call(n, split, monkeypatch):
    a = _batch(n)
    parts = symmat._eigvalsh(a)
    assert symmat._pool is not None   # the batch was split
    monkeypatch.setattr(symmat, "PART_WORK", math.inf)
    assert parts.tobytes() == symmat._eigvalsh(a).tobytes() == np.linalg.eigvalsh(a).tobytes()


def test_one_cpu_starts_no_thread(monkeypatch):
    monkeypatch.setattr(symmat, "PART_WORK", 1)
    monkeypatch.setattr(symmat, "_cores", lambda: 1)
    monkeypatch.setattr(symmat, "_pool", None)
    threads = threading.active_count()
    a = _batch(17)
    assert symmat._eigvalsh(a).tobytes() == np.linalg.eigvalsh(a).tobytes()
    assert symmat._pool is None and threading.active_count() == threads


def test_only_large_batches_are_split(monkeypatch):
    calls = []
    monkeypatch.setattr(symmat, "_cores", lambda: 2)
    monkeypatch.setattr(symmat, "_split_eigvalsh", lambda a: calls.append(a.shape))
    symmat._eigvalsh(np.zeros((2 * symmat.PART_WORK // 8**3, 8, 8)))
    for small in (np.zeros((2 * symmat.PART_WORK // 8**3 - 1, 8, 8)), np.zeros((64, 64))):
        symmat._eigvalsh(small)
    assert calls == [(2 * symmat.PART_WORK // 8**3, 8, 8)]


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_a_lapack_failure_in_any_part_is_no_convergence(where, split, monkeypatch):
    eigvalsh = np.linalg.eigvalsh

    def fails_in_one_thread(a):
        if (threading.current_thread() is threading.main_thread()) == (where == "caller"):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", fails_in_one_thread)
    with pytest.raises(ps.NoConvergence, match="did not converge"):
        symmat._eigvalsh(_batch(17))


def _python(code, **kwargs):
    src = str(Path(ps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-W", "ignore::DeprecationWarning", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, **kwargs)


def test_loading_and_verifying_start_no_thread(tmp_path):
    # every batch they decompose is below the split's size: no thread, no concurrent.futures
    ps.save_instance(ps.gen_bases(64, 4, 0), tmp_path / "bases64.json")
    out = _python("import sys, threading, psdsparse as ps; ps.load_instance('bases64.json'); "
                  "ps.run_all(2, 0); print(threading.active_count(), 'concurrent.futures' in sys.modules)",
                  cwd=tmp_path, check=True)
    assert out.stdout.split() == ["1", "False"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_splits_on_a_pool_of_its_own():
    # the parent's pool threads do not exist in the child; a call there on the parent's
    # pool would wait for them forever, so the child dies by its alarm and exits nonzero
    code = """
import os, signal, sys
import numpy as np
from psdsparse import symmat
symmat.PART_WORK = 1
symmat._cores = lambda: 2
a = np.stack([np.eye(3) * j for j in range(8)])
symmat._eigvalsh(a)
pid = os.fork()
if pid == 0:
    signal.alarm(20)
    os._exit(0 if symmat._eigvalsh(a).tobytes() == np.linalg.eigvalsh(a).tobytes() else 1)
sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""
    out = _python(code)
    assert out.returncode == 0, out.stderr
