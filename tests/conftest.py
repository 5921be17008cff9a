import copy

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


@pytest.fixture
def split(monkeypatch):
    """_eigvalsh splits every batch of two or more matrices, into up to three parts,
    on a pool of this test's own, however many CPUs the machine has."""
    monkeypatch.setattr(symmat, "PART_WORK", 1)
    monkeypatch.setattr(symmat, "_cores", lambda: 3)
    monkeypatch.setattr(symmat, "_pool", None)
    yield
    if symmat._pool is not None:
        symmat._pool.shutdown()
