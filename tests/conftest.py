import copy
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


def sweep_instances():
    """The 50 acceptance-sweep instances as (label, instance) pairs."""
    instances = []
    for i, (d, nb) in enumerate((d, nb) for d in (2, 4, 8, 16) for nb in (1, 2, 4)):
        instances.append((f"bases-d{d}-b{nb}", ps.gen_bases(d, nb, 400 + i)))
    for j, (d, m, rank) in enumerate(_PSD_PARAMS):
        instances.append((f"psd-d{d}-m{m}-r{rank}", ps.gen_random_psd(d, m, rank, 1e4, 500 + j)))
    for j, (n, ne) in enumerate(_GRAPH_PARAMS):
        edges = ps.random_connected_edges(n, ne, 600 + j)
        instances.append((f"graph-n{n}-e{ne}", ps.gen_graph_edges(edges)))
    assert len(instances) == 50
    return instances


def sweep_k_max(inst):
    """The sweep's decaying-schedule run length for inst."""
    return max(4 * math.ceil(inst.norm_bound * math.log(2 * inst.d)), 256)


@pytest.fixture
def split(monkeypatch):
    """_eigvalsh splits every batch of two or more matrices, of any width, into up to
    three parts, on a pool of this test's own, however many CPUs the machine has."""
    monkeypatch.setattr(symmat, "PART_WORK", 1)
    monkeypatch.setattr(symmat, "SPLIT_MAX_D", math.inf)
    monkeypatch.setattr(symmat, "_cores", lambda: 3)
    monkeypatch.setattr(symmat, "_pool", None)
    yield
    if symmat._pool is not None:
        symmat._pool.shutdown()
