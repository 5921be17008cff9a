"""Acceptance suite: the guarantees the package exists to certify.

Each test prints one pass/fail line. Several criteria read the sweep, conftest's
50 instances (12 basis-union, 20 random-PSD, 18 graph), through conftest's
pinned_trace, which runs each of its runs once per test session.
"""

import math

import psdsparse as ps
from psdsparse import instance
from psdsparse.cli import _fmt

from conftest import (canonical_raw, dense_mats, pinned_trace, sweep_fixed_ns, sweep_instances,
                      sweep_k_max)

BOUND_RTOL = 1e-9


def _all_steps_traces(instances):
    traces = {}
    for label, inst in instances:
        sched = ps.Schedule(inst.norm_bound, inst.d)
        traces[label] = ps.run(inst, sched, k_max=sweep_k_max(inst))
    return traces


def _decaying(label):
    """The sweep's decaying-schedule trace of label, as pinned."""
    return pinned_trace(f"{label} decaying")


def _report(num, text, ok):
    print(f"criterion {num} ({text}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_prefix_bounds_across_sweep():
    worst = 0.0
    for label, inst in sweep_instances():
        trace = _decaying(label)
        assert len(trace.records) == sweep_k_max(inst)
        for rec in trace.records:
            worst = max(worst, rec.error / rec.bound)
    _report(1, f"50-instance decaying-schedule sweep, worst error/bound {worst:.4f}",
            worst <= 1.0 + BOUND_RTOL)


def test_criterion_2_fixed_n_bounds():
    worst = 0.0
    for label, inst in sweep_instances():
        for n in sweep_fixed_ns(inst):
            trace = pinned_trace(f"{label} N={n}")
            cap = ps.bound_fixed_n(n, inst.norm_bound, inst.d)
            worst = max(worst, trace.records[-1].error / cap)
    _report(2, f"fixed-N final errors within closed-form bound, worst ratio {worst:.4f}",
            worst <= 1.0 + BOUND_RTOL)


def test_criterion_3_required_n_hits_target_error():
    assert [ps.required_n(e, 16, 16) for e in (1.0, 0.5, 0.25)] == [500, 1997, 7986]
    inst = ps.gen_bases(16, 2, seed=700)
    ok = True
    details = []
    for eps in (1.0, 0.5, 0.25):
        n = ps.required_n(eps, 16.0, 16)
        trace = ps.run(inst, ps.Schedule(inst.norm_bound, inst.d, fixed_n=n))
        err = trace.records[-1].error
        details.append(f"eps={eps}: N={n} err={err:.4f}")
        ok = ok and err <= eps
    _report(3, "; ".join(details), ok)


def test_criterion_4_inequality_suites_at_scale():
    reports = ps.run_all(trials=1000, seed=20260814)
    ok = all(r.passed and r.worst_slack >= -1e-9 for r in reports)
    summary = ", ".join(f"{r.suite}={r.worst_slack:.2e}" for r in reports)
    _report(4, f"7 falsification suites x1000 trials, worst slacks: {summary}", ok)


def test_criterion_5_per_step_growth_and_tail_cap():
    violations = 0
    tail_ok = True
    for label, inst in sweep_instances():
        sched = ps.Schedule(inst.norm_bound, inst.d)
        l = sched.log_2d
        for rec in _decaying(label).records:
            cap = sched.norm_bound * ps.psi_value(sched.norm_bound, rec.delta)
            if rec.log_potential > rec.prev_log_potential + cap + 1e-9:
                violations += 1
            if rec.k >= sched.fine_start:
                tail_ok = tail_ok and (rec.log_potential - l <= 2 * l + 1e-9)
    _report(5, f"per-step potential growth (violations={violations}) "
               f"and post-crossover excess cap", violations == 0 and tail_ok)


def test_criterion_6_canonical_golden_trace():
    inst = ps.validate(canonical_raw())
    trace = ps.run(inst, ps.Schedule(inst.norm_bound, inst.d), k_max=12)
    want_idx = tuple(1 if k % 2 else 2 for k in range(1, 13))
    idx_ok = trace.indices == want_idx
    err_ok = all(
        abs(rec.error - (1.0 / rec.k if rec.k % 2 else 0.0)) <= 1e-12
        for rec in trace.records
    )
    _report(6, "canonical d=2 instance alternates with errors 1, 0, 1/3, 0, 1/5, 0",
            idx_ok and err_ok)


def _csv_rows(trace):
    rows = []
    for r in trace.records:
        rows.append((r.k, _fmt(r.delta), _fmt(r.error), _fmt(r.bound), r.regime,
                     _fmt(r.log_potential), _fmt(r.error / r.bound)))
    return rows


def test_criterion_7_chunk_cap_invariance(monkeypatch):
    # every block of dense rows one row long, and every factor family read
    # through its factors, against the default cap, whose traces are taken first
    instances = sweep_instances()
    whole = {label: _decaying(label) for label, _ in instances}
    monkeypatch.setattr(instance, "_CHUNK_ENTRIES", 1)
    by_row = _all_steps_traces(instances)
    same = True
    for label, _ in instances:
        a, b = whole[label], by_row[label]
        same = same and a.indices == b.indices and _csv_rows(a) == _csv_rows(b)
    _report(7, "sweep identical with one-row blocks and the default cap", same)


def test_criterion_8_coarse_regime_large_norm_no_overflow():
    raw = {
        "d": 1,
        "items": [
            {"lambda": 1 / 99, "A": [[50.0]]},
            {"lambda": 98 / 99, "A": [[0.5]]},
        ],
    }
    inst = ps.validate(raw)
    assert inst.norm_bound == 50.0
    trace = ps.run(inst, ps.Schedule(inst.norm_bound, inst.d), k_max=34)
    finite = all(
        math.isfinite(rec.log_potential) and math.isfinite(rec.prev_log_potential)
        for rec in trace.records
    )
    coarse = all(rec.regime == "coarse" for rec in trace.records)
    first = trace.records[0]
    chosen = float(inst.mats[trace.indices[0] - 1][0, 0])
    first_ok = (
        abs(first.error - abs(chosen - 1.0)) <= 1e-12
        and first.error <= 2 * 50 * math.log(2) * (1 + BOUND_RTOL)
    )
    _report(8, f"M=50 coarse run finite (first error {first.error:.3f})",
            finite and coarse and first_ok)


def test_factor_certificates_match_dense_ones_across_sweep():
    # the same members given densely: both certify, with the same M
    instances = sweep_instances()
    worst = 0.0
    for label, inst in instances:
        assert inst.factors is not None, label
        dense = ps.Instance(inst.weights, dense_mats(inst))
        worst = max(worst, abs(inst.norm_bound - dense.norm_bound) / dense.norm_bound)
    assert worst <= 1e-12
