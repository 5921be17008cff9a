"""Command-line harness: generate, validate, run, baseline, verify, required-n.

Exit codes: 0 on success, 1 on any input or validation failure (one
machine-parseable line on stderr: "error: <Kind>: <detail>"), 2 when a run
violates a proved bound, which indicates a bug rather than bad input.
"""

from __future__ import annotations

import argparse
import csv
import sys

from . import baseline as baseline_mod
from . import verify as verify_mod
from .errors import BoundViolation, DomainError, PsdSparseError
from .greedy import Schedule, required_n, run
from .instance import (
    gen_bases,
    gen_graph_edges,
    gen_random_psd,
    load_edge_list,
    load_instance,
    random_connected_edges,
    save_instance,
)

RUN_HEADER = ("k", "delta", "error", "bound", "regime", "log_potential", "ratio")
BASELINE_HEADER = ("trial", "seed", "k", "error")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit code 2 on usage errors; 2 is reserved for
    # bound violations here, so remap
    def error(self, message):
        self.exit(1, f"error: Usage: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(
        prog="psdsparse",
        description="Deterministic equal-weight sparsification of PSD decompositions "
        "of the identity, with certified per-prefix error bounds.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a random instance and write it as JSON")
    g.add_argument("--kind", required=True, choices=("bases", "random-psd", "graph"))
    g.add_argument("--d", type=int, help="dimension (graph kind: uses d+1 vertices)")
    g.add_argument("--m", type=int, help="family size (graph kind: edge count)")
    g.add_argument("--rank", type=int, help="rank of each Gram factor (random-psd)")
    g.add_argument("--bases", type=int, default=1, help="number of orthonormal bases (bases)")
    g.add_argument("--cond-cap", type=float, default=1e6, help="condition cap (random-psd)")
    g.add_argument("--edges", help="edge-list file 'u v w' per line (graph); "
                   "omit to generate a random connected graph")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    v = sub.add_parser("validate", help="check a JSON instance against all contract conditions")
    v.add_argument("file")

    r = sub.add_parser("run", help="greedy sparsification run, trace written as CSV")
    r.add_argument("file")
    r.add_argument("--mode", required=True, choices=("all-steps", "fixed-n"))
    r.add_argument("--k-max", type=int, help="steps for all-steps mode (default: covers both regimes)")
    r.add_argument("--n", type=int, help="target sparsity for fixed-n mode")
    r.add_argument("--out", required=True)

    b = sub.add_parser("baseline", help="i.i.d. sampling baseline, trace written as CSV")
    b.add_argument("file")
    b.add_argument("--k-max", type=int, required=True)
    b.add_argument("--seed", type=int, required=True)
    b.add_argument("--trials", type=int, default=1)
    b.add_argument("--out", required=True)

    w = sub.add_parser("verify", help="randomized falsification suites for the proved inequalities")
    w.add_argument("--suite", required=True, choices=verify_mod.SUITES + ("all",))
    w.add_argument("--trials", type=int, default=200)
    w.add_argument("--seed", type=int, default=0)

    n = sub.add_parser("required-n", help="sparsity guaranteeing a target error")
    n.add_argument("--epsilon", type=float, required=True)
    n.add_argument("--m-bound", type=float, required=True)
    n.add_argument("--d", type=int, required=True)
    return p


def _open_out(path):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", newline="", encoding="utf-8"), True


def _require(cond: bool, detail: str) -> None:
    if not cond:
        raise DomainError(detail)


def _cmd_generate(args) -> int:
    if args.kind == "bases":
        _require(args.d is not None, "generate --kind bases needs --d")
        inst = gen_bases(args.d, args.bases, args.seed)
    elif args.kind == "random-psd":
        _require(args.d is not None and args.m is not None, "generate --kind random-psd needs --d and --m")
        rank = args.rank if args.rank is not None else args.d
        inst = gen_random_psd(args.d, args.m, rank, args.cond_cap, args.seed)
    else:
        if args.edges is not None:
            edges = load_edge_list(args.edges)
        else:
            _require(args.d is not None and args.m is not None,
                     "generate --kind graph needs --edges FILE, or --d and --m for a random graph")
            edges = random_connected_edges(args.d + 1, args.m, args.seed)
        inst = gen_graph_edges(edges)
    save_instance(inst, args.out)
    print(f"ok d={inst.d} m={inst.m} M={_fmt(inst.norm_bound)} out={args.out}")
    return 0


def _cmd_validate(args) -> int:
    inst = load_instance(args.file)
    print(f"ok d={inst.d} m={inst.m} M={_fmt(inst.norm_bound)}")
    return 0


def _cmd_run(args) -> int:
    inst = load_instance(args.file)
    if args.mode == "fixed-n":
        _require(args.n is not None, "run --mode fixed-n needs --n")
        _require(args.k_max is None, "run --mode fixed-n takes --n, not --k-max")
        schedule = Schedule(inst.norm_bound, inst.d, fixed_n=args.n)
        trace = run(inst, schedule)
    else:
        _require(args.n is None, "run --mode all-steps takes --k-max, not --n")
        schedule = Schedule(inst.norm_bound, inst.d)
        trace = run(inst, schedule, k_max=args.k_max)

    fh, owned = _open_out(args.out)
    try:
        writer = csv.writer(fh)
        writer.writerow(RUN_HEADER)
        for r in trace.records:
            writer.writerow(
                (r.k, _fmt(r.delta), _fmt(r.error), _fmt(r.bound), r.regime,
                 _fmt(r.log_potential), _fmt(r.error / r.bound))
            )
    finally:
        if owned:
            fh.close()
    last = trace.records[-1]
    print(f"ok steps={last.k} final_error={_fmt(last.error)} final_bound={_fmt(last.bound)}")
    return 0


def _cmd_baseline(args) -> int:
    inst = load_instance(args.file)
    _require(args.trials >= 1, "baseline needs --trials >= 1")
    fh, owned = _open_out(args.out)
    final = 0.0
    try:
        writer = csv.writer(fh)
        writer.writerow(BASELINE_HEADER)
        for trial in range(args.trials):
            seed = args.seed if args.trials == 1 else baseline_mod.child_seed(args.seed, trial)
            trace = baseline_mod.sample_run(inst, args.k_max, seed)
            for k, err in enumerate(trace.errors, start=1):
                writer.writerow((trial, seed, k, _fmt(err)))
            final += trace.errors[-1]
    finally:
        if owned:
            fh.close()
    print(f"ok trials={args.trials} k_max={args.k_max} mean_final_error={_fmt(final / args.trials)}")
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "all":
        reports = verify_mod.run_all(args.trials, args.seed)
    else:
        reports = [verify_mod.run_suite(args.suite, args.trials, args.seed)]
    failed = [r for r in reports if not r.passed]
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.suite}: {status} trials={r.trials} worst_slack={r.worst_slack:.6e} "
              f"tol={r.tolerance:.0e} seed={r.seed}")
    if failed:
        worst = min(failed, key=lambda r: r.worst_slack)
        print(f"error: VerificationFailed: suite={worst.suite} worst_slack={worst.worst_slack:.6e} "
              f"seed={worst.seed} trial={worst.worst_trial}", file=sys.stderr)
        return 1
    return 0


def _cmd_required_n(args) -> int:
    print(required_n(args.epsilon, args.m_bound, args.d))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "validate": _cmd_validate,
    "run": _cmd_run,
    "baseline": _cmd_baseline,
    "verify": _cmd_verify,
    "required-n": _cmd_required_n,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BoundViolation as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except PsdSparseError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: IO: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
