import math

import numpy as np
import pytest

import psdsparse as ps
from psdsparse import baseline, instance, symmat


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
    monkeypatch.setattr(instance, "_CHUNK_ENTRIES", 16)  # forces many tiny chunks
    chunked = ps.sample_run(canonical, 150, seed=5)
    assert chunked.indices == full.indices
    assert chunked.errors.tobytes() == full.errors.tobytes()


def test_a_factor_family_samples_the_same_bits_in_blocks_of_one_row(monkeypatch):
    inst = ps.gen_random_psd(6, 12, 2, 1e4, 3)
    full = ps.sample_run(inst, 150, seed=5)
    monkeypatch.setattr(instance, "_CHUNK_ENTRIES", inst.d * inst.d)
    by_row = ps.sample_run(inst, 150, seed=5)
    assert by_row.indices == full.indices
    assert by_row.errors.tobytes() == full.errors.tobytes()


def _errors_with_symmetrized_blocks(inst, k_max, seed):
    # the earlier formula: a fresh cumulative block, symmetrized before eigvalsh
    draws = np.array(ps.sample_run(inst, k_max, seed).indices) - 1
    xs = ps.center(inst).xs
    chunk = max(1, instance._CHUNK_ENTRIES // (inst.d * inst.d))
    errors, y = [], np.zeros((inst.d, inst.d))
    for start in range(0, k_max, chunk):
        block = xs[draws[start:start + chunk]]
        block[0] += y   # Y_k = Y_{k-1} + X_{i_k}, in order across blocks
        block = np.cumsum(block, axis=0)
        eigs = np.linalg.eigvalsh(symmat._symmetrize(block))
        errors.append(np.max(np.abs(eigs), axis=-1) / np.arange(start + 1, start + 1 + len(block)))
        y = block[-1]
    return np.concatenate(errors)


@pytest.mark.parametrize(
    "make", [lambda: ps.gen_bases(8, 2, 1), lambda: ps.gen_random_psd(6, 12, 2, 1e4, 3)],
    ids=["bases", "random-psd"],
)
def test_errors_match_the_symmetrized_formula_bit_for_bit(make, monkeypatch):
    inst = make()
    monkeypatch.setattr(instance, "_CHUNK_ENTRIES", 64 * inst.d * inst.d)  # several chunks
    trace = ps.sample_run(inst, 300, seed=4)
    assert trace.errors.tobytes() == _errors_with_symmetrized_blocks(inst, 300, 4).tobytes()


@pytest.mark.parametrize(
    "make, k_max", [(lambda: ps.gen_bases(8, 2, 1), 300), (lambda: ps.gen_random_psd(16, 32, 4, 1e6, 0), 2547)],
    ids=["bases", "psd16"],
)
def test_split_blocks_sample_the_same_bits(make, k_max, split, monkeypatch):
    inst = make()
    parts = ps.sample_run(inst, k_max, seed=4)
    assert symmat._pool is not None   # the blocks were split
    monkeypatch.setattr(symmat, "PART_WORK", math.inf)
    whole = ps.sample_run(inst, k_max, seed=4)
    assert parts.indices == whole.indices
    assert parts.errors.tobytes() == whole.errors.tobytes()


@pytest.mark.parametrize("k_max", [2**63, 2**64])
def test_a_k_max_past_numpy_sizes_is_a_domain_error(canonical, k_max):
    with pytest.raises(ps.DomainError, match=f"k_max={k_max}"):
        ps.sample_run(canonical, k_max, seed=0)


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


@pytest.mark.parametrize("seed", [1.5, True, "1"], ids=["1.5", "True", "str"])
def test_seeds_must_be_integers(canonical, seed):
    with pytest.raises(ps.DomainError, match="seed must be an integer"):
        ps.sample_run(canonical, 5, seed)
    for key in ((seed, 0), (0, seed)):
        with pytest.raises(ps.DomainError, match="seed must be an integer"):
            baseline.child_seed(*key)
    with pytest.raises(ps.DomainError, match="seed must be an integer"):
        ps.run_suite("psi", 2, seed)
    assert baseline.child_seed(np.uint64(3), np.int64(1)) == baseline.child_seed(3, 1)


def test_negative_seeds_are_domain_errors(canonical):
    with pytest.raises(ps.DomainError):
        ps.sample_run(canonical, 5, seed=-1)
    with pytest.raises(ps.DomainError):
        baseline.child_seed(-1, 0)
