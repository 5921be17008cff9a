import copy
import functools
import math

import numpy as np
import pytest

import psdsparse as ps
from psdsparse import symmat
from psdsparse.symmat import _symmetrize

# the alternating d=2 instance used as a golden reference throughout
CANONICAL_RAW = {
    "d": 2,
    "items": [
        {"lambda": 0.5, "A": [[2.0, 0.0], [0.0, 0.0]]},
        {"lambda": 0.5, "A": [[0.0, 0.0], [0.0, 2.0]]},
    ],
}


def canonical_raw() -> dict:
    return copy.deepcopy(CANONICAL_RAW)


@pytest.fixture
def canonical() -> ps.Instance:
    return ps.validate(canonical_raw())


def raw_payload(weights, mats) -> dict:
    mats = np.asarray(mats, dtype=float)
    return {
        "d": int(mats.shape[1]),
        "items": [
            {"lambda": float(w), "A": a.tolist()} for w, a in zip(weights, mats)
        ],
    }


def dense_mats(inst: ps.Instance) -> np.ndarray:
    """The members A_i as an (m, d, d) array: mats, or sym(V V^T) for a factor family."""
    if inst.factors is None:
        return inst.mats
    return _symmetrize(inst.factors @ inst.factors.swapaxes(1, 2))


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(seed)))


_PSD_PARAMS = [
    (2, 6, 1), (2, 8, 2), (3, 9, 1), (3, 12, 3), (4, 8, 2), (4, 16, 4),
    (5, 15, 2), (6, 12, 3), (6, 24, 2), (8, 16, 4), (8, 32, 2), (8, 24, 8),
    (10, 30, 2), (10, 20, 5), (12, 24, 6), (12, 48, 2), (14, 28, 7),
    (16, 32, 8), (16, 64, 4), (16, 48, 16),
]
_GRAPH_PARAMS = [
    (3, 3), (4, 5), (5, 6), (6, 8), (7, 9), (8, 12), (9, 12), (10, 15),
    (11, 16), (12, 18), (13, 20), (14, 22), (15, 24), (16, 28), (17, 32),
    (5, 10), (9, 20), (13, 30),
]


@functools.cache
def sweep_instances() -> tuple:
    """The 50 acceptance-sweep instances as (label, instance) pairs, built once."""
    instances = []
    for i, (d, nb) in enumerate((d, nb) for d in (2, 4, 8, 16) for nb in (1, 2, 4)):
        instances.append((f"bases-d{d}-b{nb}", ps.gen_bases(d, nb, 400 + i)))
    for j, (d, m, rank) in enumerate(_PSD_PARAMS):
        instances.append((f"psd-d{d}-m{m}-r{rank}", ps.gen_random_psd(d, m, rank, 1e4, 500 + j)))
    for j, (n, ne) in enumerate(_GRAPH_PARAMS):
        edges = ps.random_connected_edges(n, ne, 600 + j)
        instances.append((f"graph-n{n}-e{ne}", ps.gen_graph_edges(edges)))
    assert len(instances) == 50
    return tuple(instances)


def sweep_k_max(inst):
    """The sweep's decaying-schedule run length for inst."""
    return max(4 * math.ceil(inst.norm_bound * math.log(2 * inst.d)), 256)


def sweep_fixed_ns(inst):
    """The sweep's fixed N for inst: 1, ceil(ML) and 4 ceil(ML), in increasing order."""
    ml = inst.norm_bound * math.log(2 * inst.d)
    return sorted({1, math.ceil(ml), 4 * math.ceil(ml)})


@functools.cache
def pinned_runs() -> dict:
    """The 210 pinned exact-greedy runs, in order: name -> (instance, schedule, k_max).

    The sweep, decaying at sweep_k_max and at each of sweep_fixed_ns, then ten larger
    or dense runs. Each instance is built once; tests/data/golden_runs.json holds a
    summary of every run under the same name.
    """
    runs = {}
    for label, inst in sweep_instances():
        runs[f"{label} decaying"] = inst, ps.Schedule(inst.norm_bound, inst.d), sweep_k_max(inst)
        for n in sweep_fixed_ns(inst):
            runs[f"{label} N={n}"] = inst, ps.Schedule(inst.norm_bound, inst.d, fixed_n=n), None
    psd16 = ps.gen_random_psd(16, 32, 4, 1e6, 0)
    psd8 = ps.gen_random_psd(8, 24, 8, 1e4, 3)
    bases8 = ps.gen_bases(8, 2, 1)
    bases64 = ps.gen_bases(64, 4, 0)
    larger = [
        ("psd16 N=2547", psd16, 2547, None),
        ("bases64-0 k=48", bases64, None, 48),
        ("bases64-0 k=128", bases64, None, 128),
        ("bases64-1 k=48", ps.gen_bases(64, 4, 1), None, 48),
        ("graph-n31-e120 k=300", ps.gen_graph_edges(ps.random_connected_edges(31, 120, 0)), None, 300),
        ("graph-n101-e1000 k=40", ps.gen_graph_edges(ps.random_connected_edges(101, 1000, 0)), None, 40),
        ("bases8-1 k=300", bases8, None, 300),
        ("psd16 dense N=2547", ps.Instance(psd16.weights, dense_mats(psd16)), 2547, None),
        ("psd8 dense k=300", ps.Instance(psd8.weights, dense_mats(psd8)), None, 300),
        ("bases8-1 dense k=300", ps.Instance(bases8.weights, dense_mats(bases8)), None, 300),
    ]
    for name, inst, fixed_n, k_max in larger:
        runs[name] = inst, ps.Schedule(inst.norm_bound, inst.d, fixed_n=fixed_n), k_max
    return runs


@functools.cache
def pinned_trace(name: str) -> ps.GreedyTrace:
    """The trace of pinned run name, run on the first request and shared after that.

    It is run with the library as it stands at that request, so a test that patches
    the library takes its pinned traces before it patches, never after.
    """
    inst, sched, k_max = pinned_runs()[name]
    return ps.run(inst, sched, k_max=k_max)


@pytest.fixture
def split(monkeypatch):
    """_eigvalsh splits every batch of two or more matrices, of any width, into up to
    three parts, on a pool of this test's own, however many CPUs the machine has."""
    monkeypatch.setattr(symmat, "PART_WORK", 1)
    monkeypatch.setattr(symmat, "GIL_FREE_SIZE", 0)
    monkeypatch.setattr(symmat, "SPLIT_MAX_D", math.inf)
    monkeypatch.setattr(symmat, "_cores", lambda: 3)
    monkeypatch.setattr(symmat, "_pool", None)
    yield
    if symmat._pool is not None:
        symmat._pool.shutdown()
