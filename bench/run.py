#!/usr/bin/env python3
"""Seeded benchmark for psdsparse: greedy selection, i.i.d. sampling and verification.

    python3 bench/run.py --workload fixedn-psd16 --seed 1 --seconds 30 --trace 0

Run from the root of a psdsparse checkout. The workload's instance is drawn
from --seed and written as JSON; the program receives only that file. The
benchmark then drives the public entry points from outside
(``cli.main(["run", ...])``, ``sample_run``, ``run_all``) in a closed loop,
one operation at a time in this one process, for --seconds. Every
operation's outputs are checked, and a failed check counts as a failed
operation instead of stopping the run.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. The lines before it record the environment and a
summary of every timing. --smoke shrinks every workload to a few seconds.
bench/README.md explains the workloads, the metrics and how to read a trace.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

DEFAULT_SEED = 0
SETUP_REPEATS = 5
MIN_ROUNDS = 2
# checked independently of the program's own tolerance, so loosening that
# constant cannot loosen this check
BOUND_RTOL = 1e-9
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12
# the reference kernel's typical wall time on a shared 2-vCPU Xeon VM at its faster speed
REFERENCE_KERNEL_S = 0.15
SUBPROCESS_TIMEOUT_S = 120

SUITES = ("one-step", "mgf", "gt", "interp", "lower", "scalar", "psi")

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "final_error_ratio": "ratio",
    "baseline_prefixes_per_s": "1/s",
    "verify_trials_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_op_share": "share",
}

PER_LAYER = {
    "cli.self_s": "s",
    "cli.csv_rows": "count",
    "cli.csv_bytes": "bytes",
    "instance.load_s": "s",
    "instance.load_bytes": "bytes",
    "instance.center_s": "s",
    "instance.center_calls": "count",
    "instance.gen_s": "s",
    "instance.gen_calls": "count",
    "greedy.run_s": "s",
    "greedy.self_s": "s",
    "greedy.steps": "count",
    "greedy.steps_per_s": "1/s",
    "greedy.candidates_scored": "count",
    "greedy.steps_per_candidate": "ratio",
    "symmat.eigvalsh_s": "s",
    "symmat.eigvalsh_calls": "count",
    "symmat.eigvalsh_matrices": "count",
    "symmat.eigvalsh_flops_computed": "flop",
    "symmat.eigvalsh_bytes_computed": "bytes",
    "symmat.eigh_s": "s",
    "symmat.eigh_calls": "count",
    "potential.lse_s": "s",
    "potential.lse_calls": "count",
    "potential.lse_rows": "count",
    "potential.psi_calls": "count",
    "baseline.sample_run_s": "s",
    "baseline.self_s": "s",
    "baseline.prefixes": "count",
    **{f"verify.{s}_s": "s" for s in SUITES},
    "verify.self_s": "s",
    "verify.trials": "count",
    "setup.import_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload; ``cli_args`` is None when greedy does not run."""

    make: Callable          # seed -> Instance
    cli_args: tuple | None  # arguments of ``psdsparse run`` after the instance file
    steps: int              # greedy steps, and the prefixes of each sampling trial
    sample_trials: int
    verify_trials: int


def workloads(ps, smoke: bool) -> dict[str, Workload]:
    """The three workloads, at full or smoke size (see README.md for why each)."""
    # N is required_n at M = 10, the family's typical norm bound, not at the
    # drawn instance's M: M varies by about 10% across seeds, and N with it
    n_fixed = ps.required_n(1.0 if smoke else 0.35, 10.0, 16)
    k_decay = 16 if smoke else 48
    d_bases = 16 if smoke else 64
    return {
        "fixedn-psd16": Workload(
            make=lambda seed: ps.gen_random_psd(16, 32, 4, 1e6, seed),
            cli_args=("--mode", "fixed-n", "--n", str(n_fixed)),
            steps=n_fixed,
            sample_trials=1 if smoke else 8,
            verify_trials=2 if smoke else 200,
        ),
        "decay-bases64": Workload(
            make=lambda seed: ps.gen_bases(d_bases, 4, seed),
            cli_args=("--mode", "all-steps", "--k-max", str(k_decay)),
            steps=k_decay,
            sample_trials=1 if smoke else 8,
            verify_trials=2 if smoke else 200,
        ),
        "sample-verify": Workload(
            make=lambda seed: ps.gen_bases(d_bases, 2 if smoke else 4, seed),
            cli_args=None,
            steps=64 if smoke else 512,
            sample_trials=2 if smoke else 8,
            verify_trials=5 if smoke else 200,
        ),
    }


# --- the program under test -------------------------------------------------------


class Program:
    """The psdsparse modules, imported from this checkout's ``src/`` and nowhere else."""

    def __init__(self):
        if not (SRC / "psdsparse" / "__init__.py").is_file():
            raise SystemExit(f"error: no psdsparse sources under {SRC}")
        sys.path.insert(0, str(SRC))
        import psdsparse
        from psdsparse import baseline, cli, errors, greedy, instance, potential, symmat, verify

        try:  # the thread setting may go away; only the environment record reads it
            from psdsparse import _threads
        except ImportError:
            _threads = None

        if Path(psdsparse.__file__).resolve().parent != SRC / "psdsparse":
            raise SystemExit(f"error: imported psdsparse from {psdsparse.__file__}, not {SRC}")
        self.ps = psdsparse
        self.threads = _threads
        self.baseline = baseline
        self.cli = cli
        self.errors = errors
        self.greedy = greedy
        self.instance = instance
        self.potential = potential
        self.symmat = symmat
        self.verify = verify

    def trace_targets(self):
        """(module, name, span, describe) for each name a module imports from the layer below."""
        import numpy as np

        def eig(via):
            def describe(args, kwargs, out):
                shape = np.shape(args[0])
                return {"n": int(np.prod(shape[:-2], dtype=np.int64)), "d": int(shape[-1]), "via": via}
            return describe

        def lse_rows(args, kwargs, out):
            return {"rows": int(np.size(out))}

        def load(args, kwargs, out):
            return {"bytes": os.path.getsize(args[0])}

        def greedy_run(args, kwargs, out):
            return {"steps": len(out.indices), "indices_sha256": indices_digest(out.indices),
                    "final_error": float(out.records[-1].error)}

        mods = [("greedy", self.greedy), ("baseline", self.baseline), ("verify", self.verify),
                ("instance", self.instance), ("potential", self.potential), ("symmat", self.symmat)]
        return [
            (self.cli, "load_instance", "instance.load", load),
            (self.instance, "load_instance", "instance.load", load),
            (self.cli, "run", "greedy.run", greedy_run),
            (self.baseline, "sample_run", "baseline.sample_run",
             lambda a, k, o: {"prefixes": int(a[1])}),
            (self.verify, "run_all", "verify.run_all", None),
            (self.verify, "run_suite", "verify.suite",
             lambda a, k, o: {"suite": str(a[0]), "trials": int(a[1])}),
            (self.greedy, "center", "instance.center", None),
            (self.baseline, "center", "instance.center", None),
            (self.verify, "center", "instance.center", None),
            (self.verify, "gen_random_psd", "instance.gen", None),
            *[(mod, "_eigvalsh", "symmat.eigvalsh", eig(name)) for name, mod in mods],
            (self.symmat, "eigh", "symmat.eigh", None),
            (self.verify, "sym_apply", "symmat.sym_apply", None),
            (self.greedy, "log_potential_from_eigenvalues", "potential.lse", lse_rows),
            (self.verify, "log_potential_from_eigenvalues", "potential.lse", lse_rows),
            (self.verify, "logsumexp", "potential.lse", lse_rows),
            (self.greedy, "psi_value", "potential.psi", None),
            (self.verify, "psi_value", "potential.psi", None),
        ]


def indices_digest(indices) -> str:
    return hashlib.sha256(",".join(str(int(i)) for i in indices).encode()).hexdigest()


# --- one operation ----------------------------------------------------------------


@dataclass
class Round:
    wall: dict = field(default_factory=dict)   # wall seconds by phase
    times: dict = field(default_factory=dict)  # reference seconds by phase
    scale: float = 1.0                         # reference seconds per wall second, whole round
    error_ratio: float = math.nan
    csv_rows: int = 0
    csv_bytes: int = 0
    pick_digest: str | None = None
    final_error: float | None = None
    failure: str | None = None


class Check(Exception):
    """An output check failed."""


def _check_csv(path: Path, expected_rows: int) -> tuple[int, float]:
    """Row count and every row's error against its bound; returns rows and the tail error ratio."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != expected_rows:
        raise Check(f"CSV has {len(rows)} rows, expected {expected_rows}")
    ratios = []
    for row in rows:
        error, bound = float(row["error"]), float(row["bound"])
        if not error <= bound * (1.0 + BOUND_RTOL):
            raise Check(f"step {row['k']}: error {error!r} exceeds bound {bound!r}")
        ratios.append(error / bound)
    return len(rows), _tail_mean(ratios)


def _tail_mean(xs) -> float:
    """Mean over the last half of a run's prefixes."""
    tail = xs[len(xs) // 2:]
    return math.fsum(tail) / len(tail)


def run_round(prog: Program, w: Workload, inst, paths: dict, seed: int, clock, tracer) -> Round:
    """One closed-loop operation of a workload, with every output check.

    Each timed phase is followed by a reference-kernel run, which converts
    the phase's wall time to reference seconds.
    """
    r = Round()

    def timed(phase, fn):
        t0 = time.perf_counter()
        out = fn()
        r.wall[phase] = time.perf_counter() - t0
        r.times[phase] = r.wall[phase] * clock.scale()
        return out

    if w.cli_args is not None:
        argv = ["run", str(paths["instance"]), *w.cli_args, "--out", str(paths["csv"])]
        log = io.StringIO()

        def command():
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log), _span(tracer, "cli.main"):
                return prog.cli.main(argv)

        code = timed("solve", command)
        if code != 0:
            raise Check(f"run exited {code}: {log.getvalue().strip()}")
        r.csv_rows, r.error_ratio = _check_csv(paths["csv"], w.steps)
        r.csv_bytes = paths["csv"].stat().st_size
        if tracer is not None:
            run_span = _last_span(tracer, "greedy.run")
            if run_span is not None:
                r.pick_digest = run_span.get("indices_sha256")
                r.final_error = run_span.get("final_error")
    else:
        inst = timed("load", lambda: prog.instance.load_instance(paths["instance"]))

    seeds = [prog.baseline.child_seed(seed, i) for i in range(w.sample_trials)]
    trials = timed("sample", lambda: [prog.baseline.sample_run(inst, w.steps, s) for s in seeds])
    again = prog.baseline.sample_run(inst, w.steps, seeds[0])
    if again.errors.tobytes() != trials[0].errors.tobytes():
        raise Check("repeated sample_run with the same seed changed its errors")

    reports = timed("verify", lambda: prog.verify.run_all(w.verify_trials, seed))
    failed = [rep.suite for rep in reports if not rep.passed]
    if failed:
        raise Check(f"verify suites failed: {', '.join(failed)}")

    r.scale = math.fsum(r.times.values()) / math.fsum(r.wall.values())
    if w.cli_args is None:
        r.wall["solve"] = math.fsum(r.wall.values())
        r.times["solve"] = math.fsum(r.times.values())
        bounds = [prog.ps.bound_all_steps(k, inst.norm_bound, inst.d) for k in range(1, w.steps + 1)]
        tails = [_tail_mean([e / b for e, b in zip(tr.errors.tolist(), bounds)]) for tr in trials]
        r.error_ratio = math.fsum(tails) / len(tails)
        r.pick_digest = indices_digest(trials[0].indices)
        r.final_error = float(trials[0].errors[-1])
    return r


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _last_span(tracer, name) -> dict | None:
    for i in range(len(tracer) - 1, -1, -1):
        if tracer.names[i] == name:
            return tracer.attrs[i] or {}
    return None


# --- per-layer metrics from one traced round ---------------------------------------


def layer_metrics(tracer, lo: int, hi: int, rnd: Round) -> dict:
    """Per-layer metrics of spans lo..hi-1, the spans of one traced round, in reference seconds."""
    total, own = tracer.durations(lo, hi)
    total = [t * rnd.scale for t in total]
    own = [t * rnd.scale for t in own]
    m = {name: 0.0 for name, unit in PER_LAYER.items()}
    for j, i in enumerate(range(lo, hi)):
        name, a, dur = tracer.names[i], tracer.attrs[i] or {}, total[j]
        if name == "cli.main":
            m["cli.self_s"] += own[j]
        elif name == "instance.load":
            m["instance.load_s"] += dur
            m["instance.load_bytes"] += a.get("bytes", 0)
        elif name == "instance.center":
            m["instance.center_s"] += dur
            m["instance.center_calls"] += 1
        elif name == "instance.gen":
            m["instance.gen_s"] += dur
            m["instance.gen_calls"] += 1
        elif name == "greedy.run":
            m["greedy.run_s"] += dur
            m["greedy.self_s"] += own[j]
            m["greedy.steps"] += a.get("steps", 0)
        elif name == "symmat.eigvalsh":
            n, d = a.get("n", 0), a.get("d", 0)
            m["symmat.eigvalsh_s"] += dur
            m["symmat.eigvalsh_calls"] += 1
            m["symmat.eigvalsh_matrices"] += n
            # Householder tridiagonalisation dominates an eigenvalues-only solve
            m["symmat.eigvalsh_flops_computed"] += n * (4.0 / 3.0) * d ** 3
            m["symmat.eigvalsh_bytes_computed"] += n * (d * d + d) * 8
            if a.get("via") == "greedy":
                m["greedy.candidates_scored"] += n
        elif name == "symmat.eigh":
            m["symmat.eigh_s"] += dur
            m["symmat.eigh_calls"] += 1
        elif name == "potential.lse":
            m["potential.lse_s"] += dur
            m["potential.lse_calls"] += 1
            m["potential.lse_rows"] += a.get("rows", 0)
        elif name == "potential.psi":
            m["potential.psi_calls"] += 1
        elif name == "baseline.sample_run":
            m["baseline.sample_run_s"] += dur
            m["baseline.self_s"] += own[j]
            m["baseline.prefixes"] += a.get("prefixes", 0)
        elif name == "verify.run_all":
            m["verify.self_s"] += own[j]
        elif name == "verify.suite":
            key = f"verify.{a.get('suite')}_s"
            if key in m:
                m[key] += dur
            m["verify.self_s"] += own[j]
            m["verify.trials"] += a.get("trials", 0)
    m["cli.csv_rows"] = rnd.csv_rows
    m["cli.csv_bytes"] = rnd.csv_bytes
    if m["greedy.run_s"] > 0:
        m["greedy.steps_per_s"] = m["greedy.steps"] / m["greedy.run_s"]
    if m["greedy.candidates_scored"] > 0:
        m["greedy.steps_per_candidate"] = m["greedy.steps"] / m["greedy.candidates_scored"]
    m["trace.spans"] = hi - lo
    return m


# --- machine speed -----------------------------------------------------------------


class ReferenceClock:
    """Converts wall time to reference seconds, using a fixed kernel timed next to each measurement.

    A shared virtual machine changes speed by up to 1.6x over seconds to minutes,
    with no steal time to show it. The kernel is numpy and Python work of the
    same kind as the workloads (batched small ``eigvalsh``, a max-shifted
    log-sum-exp, an argmin loop, a 64x64 batch, a JSON decode); it lives
    here and never calls psdsparse, so a change to the program cannot move it.
    A measurement taken between two kernel runs is scaled by
    REFERENCE_KERNEL_S over their mean: its wall time at the speed where the
    kernel takes REFERENCE_KERNEL_S.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(20260417)
        small = rng.standard_normal((32, 16, 16))
        big = rng.standard_normal((8, 64, 64))
        self.small = small + small.transpose(0, 2, 1)
        self.big = big + big.transpose(0, 2, 1)
        self.text = json.dumps(rng.standard_normal((48, 48)).tolist())
        self.last = self.kernel()

    def kernel(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        y = np.zeros((16, 16))
        for _ in range(200):
            z = 0.1 * np.linalg.eigvalsh(y + self.small)
            z = np.concatenate([z, -z], axis=-1)
            top = z.max(axis=-1, keepdims=True)
            scores = np.log(np.exp(z - top).sum(axis=-1)) + top[:, 0]
            y = 0.5 * (y + self.small[int(np.argmin(scores))])
        for _ in range(2):
            np.linalg.eigvalsh(self.big)
            json.loads(self.text)
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Reference seconds per wall second since the previous call."""
        before, self.last = self.last, self.kernel()
        return REFERENCE_KERNEL_S / (0.5 * (before + self.last))


# --- set-up and environment --------------------------------------------------------


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PSDSPARSE_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def fresh_process_times(clock: ReferenceClock, argv: list[str], repeats: int, parse=None):
    """Reference seconds of ``repeats`` fresh interpreters running argv, and the failure count.

    The time is the child's wall time, or what ``parse`` reads from its stdout.
    """
    times, failures = [], 0
    clock.scale()
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        wall = time.perf_counter() - t0
        scale = clock.scale()
        if proc.returncode != 0 or not proc.stdout.strip():
            failures += 1
            print(f"setup run failed ({proc.returncode}): {proc.stderr.strip()}", file=sys.stderr)
            continue
        times.append((parse(proc.stdout) if parse else wall) * scale)
    return times, failures


def _blas(np) -> dict:
    info = {}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": dep.get("name"), "version": dep.get("version")}
    except (KeyError, TypeError):
        pass
    info["threads"] = None
    try:
        import ctypes

        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    info["threads"] = int(fn())
                    return info
    except OSError:
        pass
    return info


def _llc_bytes() -> int | None:
    best = None
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
            value = int(size.rstrip("KMG")) * {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        except (OSError, ValueError):
            continue
        if best is None or level > best[0]:
            best = (level, value)
    return best[1] if best else None


def environment(prog: Program, inst, w: Workload) -> dict:
    import numpy as np

    try:  # psdsparse may stop depending on scipy
        import scipy
    except ImportError:
        scipy = None

    chunk = getattr(prog.baseline, "_CHUNK_ENTRIES", None)
    d2 = inst.d * inst.d
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__ if scipy else None,
        "blas": _blas(np),
        "psdsparse_threads": prog.threads.thread_count() if prog.threads else None,
        "llc_bytes": _llc_bytes(),
        # largest per-step arrays: greedy's (m, d, d) candidate stack, sampling's prefix block
        "candidate_stack_bytes": inst.m * d2 * 8 if w.cli_args is not None else 0,
        "sample_block_bytes": min(w.steps, max(1, chunk // d2)) * d2 * 8 if chunk else None,
        "instance": {"d": inst.d, "m": inst.m, "M": inst.norm_bound},
    }


# --- the run ------------------------------------------------------------------------


def _median(xs):
    return statistics.median(xs) if xs else math.nan


def _reference(smoke: bool, workload: str, seed: int) -> dict | None:
    """The recorded picks for this workload and seed, if any (see README.md)."""
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        data = json.load(fh)
    return data["smoke" if smoke else "full"].get(workload) if seed == data["seed"] else None


def _check_reference(rnd: Round, ref: dict | None) -> dict | None:
    """A traced round's picks, compared with the recorded ones when there are any.

    A mismatch fails the round; ``ok`` is None when nothing is recorded for this seed.
    """
    if rnd.pick_digest is None:
        return None
    seen = {"indices_sha256": rnd.pick_digest, "final_error": rnd.final_error, "ok": None}
    if ref is not None:
        seen["ok"] = rnd.pick_digest == ref["indices_sha256"] and math.isclose(
            rnd.final_error, ref["final_error"], rel_tol=REFERENCE_RTOL, abs_tol=REFERENCE_ATOL)
        if not seen["ok"]:
            rnd.failure = (f"reference mismatch: picks {rnd.pick_digest} final_error "
                           f"{rnd.final_error!r}, expected {ref}")
    return seen


def measure(prog, w, inst, paths, args, clock, tracer):
    """Closed loop for --seconds; with a tracer, every second round is traced.

    Returns (traced, round, layer metrics or None) per round and the reference check.
    """
    rounds, durations, checked = [], [], None
    ref = _reference(args.smoke, args.workload, args.seed)
    clock.scale()
    start = time.perf_counter()
    # a round starts while it is expected to end within half a round of --seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start + 0.5 * _median(durations) <= args.seconds:
        traced = tracer is not None and len(rounds) % 2 == 1
        lo = len(tracer) if traced else 0
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.patched(prog.trace_targets()), tracer.span("round"):
                    rnd = run_round(prog, w, inst, paths, args.seed, clock, tracer)
            else:
                rnd = run_round(prog, w, inst, paths, args.seed, clock, None)
        except (Check, prog.errors.PsdSparseError) as exc:
            rnd = Round(failure=f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # an operation that crashes is a failed operation
            traceback.print_exc()
            rnd = Round(failure=f"{type(exc).__name__}: {exc}")
        durations.append(time.perf_counter() - t0)
        layers = None
        if traced and not rnd.failure:
            checked = _check_reference(rnd, ref) or checked
            layers = layer_metrics(tracer, lo, len(tracer), rnd)
        if rnd.failure:
            print(f"failed operation: {rnd.failure}", file=sys.stderr)
        rounds.append((traced, rnd, layers))
    return rounds, checked, time.perf_counter() - start


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("fixedn-psd16", "decay-bases64", "sample-verify"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the harness's own test")
    args = p.parse_args(argv)

    prog = Program()
    os.environ.pop("PSDSPARSE_THREADS", None)
    from tracing import Tracer

    w = workloads(prog.ps, args.smoke)[args.workload]
    repeats = 1 if args.smoke else SETUP_REPEATS
    clock = ReferenceClock()

    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        paths = {"instance": Path(tmp) / "instance.json", "csv": Path(tmp) / "run.csv"}
        inst = w.make(args.seed)
        prog.ps.save_instance(inst, paths["instance"])
        env = environment(prog, inst, w)
        print(json.dumps({"env": env}), flush=True)

        if args.trace:
            probe = "import time; t = time.perf_counter(); import psdsparse; print(time.perf_counter() - t)"
            setup_times, setup_failed = fresh_process_times(clock, ["-c", probe], repeats, parse=float)
        else:
            setup_times, setup_failed = fresh_process_times(
                clock, ["-m", "psdsparse.cli", "validate", str(paths["instance"])], repeats)

        # first calls pay lazy imports and allocator growth, once per process;
        # warm up with the same operation at 4 steps
        warm = Workload(w.make, w.cli_args and (*w.cli_args[:-1], "4"), 4, 1, 1)
        with contextlib.suppress(Check, prog.errors.PsdSparseError):
            run_round(prog, warm, inst, paths, args.seed, clock, None)

        tracer = Tracer() if args.trace else None
        rounds, checked, measured_s = measure(prog, w, inst, paths, args, clock, tracer)

    attempted = repeats + len(rounds)
    failed = setup_failed + sum(1 for _, r, _ in rounds if r.failure)
    ok = [(traced, r, layers) for traced, r, layers in rounds if not r.failure]
    plain = [r for traced, r, _ in ok if not traced]
    prefixes = w.steps * w.sample_trials
    trials = w.verify_trials * len(SUITES)
    samples = {
        "setup_s": setup_times,
        "solve_s": [r.times["solve"] for r in plain],
        "baseline_prefixes_per_s": [prefixes / r.times["sample"] for r in plain],
        "verify_trials_per_s": [trials / r.times["verify"] for r in plain],
        "wall_solve_s": [r.wall["solve"] for _, r, _ in ok],
        "scale": [r.scale for _, r, _ in ok],
    }
    if tracer is not None:
        layers = [lm for traced, _, lm in ok if traced]
        samples["traced_solve_s"] = [r.times["solve"] for traced, r, _ in ok if traced]
        metrics = {name: _median([lm[name] for lm in layers]) for name in PER_LAYER}
        metrics["setup.import_s"] = _median(setup_times)
        metrics["trace.overhead_s"] = _median(samples["traced_solve_s"]) - _median(samples["solve_s"])
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed, "env": env})
        print(json.dumps({"trace": {"file": str(trace_path.relative_to(ROOT)), "spans": len(tracer),
                                    "absent": tracer.absent, "reference_check": checked}}), flush=True)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": _median(setup_times),
            "solve_s": _median(samples["solve_s"]),
            "final_error_ratio": _median([r.error_ratio for r in plain]),
            "baseline_prefixes_per_s": _median(samples["baseline_prefixes_per_s"]),
            "verify_trials_per_s": _median(samples["verify_trials_per_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_op_share": (attempted - failed) / attempted,
        }
        units = END_TO_END

    summary = {name: {"n": len(xs), "min": min(xs), "median": statistics.median(xs), "max": max(xs)}
               for name, xs in samples.items() if xs}
    print(json.dumps({"summary": summary, "rounds": len(rounds), "measured_s": measured_s}), flush=True)
    values = {name: float(metrics[name]) for name in units}
    print(json.dumps({
        "correct": failed == 0 and all(math.isfinite(v) for v in values.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v if math.isfinite(v) else 0.0, "unit": units[name]}
                    for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
