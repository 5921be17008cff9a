"""Exact greedy on 210 fixed runs against the summaries in data/golden_runs.json.

The runs are conftest's pinned_runs, and pinned_trace runs each once per test
session, for this test and the others that read it: the 50-instance
acceptance sweep, decaying at its k_max and at fixed N in {1, ceil(ML),
4 ceil(ML)}; psd16 at N = 2547; gen_bases(64, 4, 0) at k = 48 and 128 and
gen_bases(64, 4, 1) at k = 48; graphs n = 31, e = 120 at k = 300 and
n = 101, e = 1000 at k = 40; gen_bases(8, 2, 1) at k = 300; and dense "A"
copies of psd16 (N = 2547), gen_random_psd(8, 24, 8, 1e4, 3) and
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
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import psdsparse as ps

from conftest import pinned_runs, pinned_trace

GOLDEN = Path(__file__).parent / "data" / "golden_runs.json"
RECORD_RTOL = 1e-12
EVALUATED_RTOL = 0.01


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
    return {name: summary(pinned_trace(name)) for name in pinned_runs()}


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


def test_the_pinned_table_builds_outside_pytest():
    # data/write_golden_runs.py reads the table in a plain process, through this module;
    # it builds there without a greedy step, with the golden file's names in order
    src = str(Path(ps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from psdsparse import greedy\n"
        "def refuse(*args):\n"
        "    raise AssertionError('a greedy step ran')\n"
        "greedy._step = refuse\n"
        "import test_golden_runs\n"
        "from conftest import pinned_runs\n"
        "print(json.dumps(list(pinned_runs())))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == list(json.loads(GOLDEN.read_text()))
