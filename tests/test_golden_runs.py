"""Exact greedy on 210 fixed runs against the summaries in data/golden_runs.json.

The runs: the 50-instance acceptance sweep, decaying at its k_max and at fixed
N in {1, ceil(ML), 4 ceil(ML)}; psd16 at N = 2547; gen_bases(64, 4, 0) at
k = 48 and 128 and gen_bases(64, 4, 1) at k = 48; graphs n = 31, e = 120 at
k = 300 and n = 101, e = 1000 at k = 40; gen_bases(8, 2, 1) at k = 300; and
dense "A" copies of psd16 (N = 2547), gen_random_psd(8, 24, 8, 1e4, 3) and
gen_bases(8, 2, 1) (k = 300).

The picks (as a sha256) and gram_steps must match exactly. The records move
at rounding level with the BLAS build and its thread count, so the final
error, the largest error/bound and the sum of log Phi match to a relative
1e-12. The two errors, which are of order 1 at most, may also differ by 1e-12
absolute: an exact basis union ends with an error of rounding size, about
1e-16. The number of members scored moves with the rounding of the pruning
bounds, so only its total over all runs is checked, to within 1%; a broken
pruning rule moves it far more.

A change that alters picks regenerates the file with data/write_golden_runs.py.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import psdsparse as ps

from conftest import dense_mats, sweep_instances, sweep_k_max

GOLDEN = Path(__file__).parent / "data" / "golden_runs.json"
RECORD_RTOL = 1e-12
EVALUATED_RTOL = 0.01


def golden_runs():
    """(name, instance, schedule, k_max) for each of the 210 runs."""
    for label, inst in sweep_instances():
        yield f"{label} decaying", inst, ps.Schedule(inst.norm_bound, inst.d), sweep_k_max(inst)
        ml = inst.norm_bound * math.log(2 * inst.d)
        for n in sorted({1, math.ceil(ml), 4 * math.ceil(ml)}):
            yield f"{label} N={n}", inst, ps.Schedule(inst.norm_bound, inst.d, fixed_n=n), None
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
        yield name, inst, ps.Schedule(inst.norm_bound, inst.d, fixed_n=fixed_n), k_max


def summary(trace: ps.GreedyTrace) -> dict:
    records = trace.records
    return {
        "picks_sha256": hashlib.sha256(np.asarray(trace.indices, dtype="<i8").tobytes()).hexdigest(),
        "gram_steps": trace.gram_steps,
        "final_error": records[-1].error,
        "max_error_over_bound": max(rec.error / rec.bound for rec in records),
        "sum_log_potential": math.fsum(rec.log_potential for rec in records),
        "evaluated": sum(rec.evaluated for rec in records),
    }


def summaries() -> dict:
    """Every golden run's summary, by name, in run order."""
    return {name: summary(ps.run(inst, sched, k_max=k_max)) for name, inst, sched, k_max in golden_runs()}


@pytest.fixture(scope="module")
def runs():
    return json.loads(GOLDEN.read_text()), summaries()


def test_golden_runs_keep_their_picks_and_records(runs):
    golden, now = runs
    assert len(now) == 210 and list(now) == list(golden)
    for name, want in golden.items():
        got = now[name]
        assert (got["picks_sha256"], got["gram_steps"]) == (want["picks_sha256"], want["gram_steps"]), name
        for key in ("final_error", "max_error_over_bound"):
            assert got[key] == pytest.approx(want[key], rel=RECORD_RTOL, abs=RECORD_RTOL), (name, key)
        assert got["sum_log_potential"] == pytest.approx(want["sum_log_potential"], rel=RECORD_RTOL, abs=0), name


def test_golden_runs_score_as_many_members(runs):
    golden, now = runs
    total = sum(run["evaluated"] for run in golden.values())
    assert sum(run["evaluated"] for run in now.values()) == pytest.approx(total, rel=EVALUATED_RTOL)
