import numpy as np
import pytest

import psdsparse as ps
from psdsparse import baseline

from conftest import canonical_raw


def test_single_member_trace_is_flat():
    inst = ps.validate({"d": 1, "items": [{"lambda": 1.0, "A": [[1.0]]}]})
    trace = ps.sample_run(inst, 25, seed=0)
    assert trace.indices == (1,) * 25
    assert np.all(trace.errors == 0.0)


def test_degenerate_weights_always_pick_first():
    inst = ps.validate({
        "d": 1,
        "items": [
            {"lambda": 1.0, "A": [[1.0]]},
            {"lambda": 0.0, "A": [[3.0]]},
        ],
    })
    trace = ps.sample_run(inst, 200, seed=42)
    assert trace.indices == (1,) * 200
    assert np.all(trace.errors == 0.0)


def test_deterministic_in_seed(canonical):
    a = ps.sample_run(canonical, 300, seed=7)
    b = ps.sample_run(canonical, 300, seed=7)
    c = ps.sample_run(canonical, 300, seed=8)
    assert a.indices == b.indices
    assert np.array_equal(a.errors, b.errors)
    assert a.indices != c.indices


def test_prefix_errors_match_direct_recomputation(canonical):
    trace = ps.sample_run(canonical, 7, seed=3)
    xs = ps.center(canonical).xs
    y = np.zeros((2, 2))
    for k, idx in enumerate(trace.indices, start=1):
        y = y + xs[idx - 1]
        want = np.max(np.abs(np.linalg.eigvalsh(y))) / k
        assert trace.errors[k - 1] == pytest.approx(want, rel=1e-13)


def test_chunked_prefixes_agree_with_single_pass(canonical, monkeypatch):
    full = ps.sample_run(canonical, 150, seed=5)
    monkeypatch.setattr(baseline, "_CHUNK_ENTRIES", 16)  # forces many tiny chunks
    chunked = ps.sample_run(canonical, 150, seed=5)
    assert chunked.indices == full.indices
    assert np.allclose(chunked.errors, full.errors, rtol=1e-12, atol=1e-14)


def test_rejects_bad_k_max(canonical):
    with pytest.raises(ps.DomainError):
        ps.sample_run(canonical, 0, seed=1)


def test_index_frequencies_converge():
    inst = ps.gen_bases(4, 2, seed=11)  # m = 8, uniform weights
    trace = ps.sample_run(inst, 100_000, seed=97)
    counts = np.bincount(np.array(trace.indices) - 1, minlength=inst.m)
    freqs = counts / len(trace.indices)
    assert np.max(np.abs(freqs - inst.weights)) <= 0.01


def test_mean_error_shrinks_at_scale(canonical):
    finals = [ps.sample_run(canonical, 10_000, seed=s).errors[-1] for s in range(20)]
    assert float(np.mean(finals)) < 0.1


def test_errors_are_read_only(canonical):
    trace = ps.sample_run(canonical, 10, seed=0)
    with pytest.raises(ValueError):
        trace.errors[0] = 5.0


def test_child_seed_is_deterministic_and_spread():
    a = baseline.child_seed(123, 0)
    b = baseline.child_seed(123, 0)
    c = baseline.child_seed(123, 1)
    d = baseline.child_seed(124, 0)
    assert a == b
    assert len({a, c, d}) == 3
