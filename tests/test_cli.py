import csv
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import psdsparse as ps
from psdsparse import cli, greedy

from conftest import canonical_raw, dense_mats, raw_payload


def _write_canonical(tmp_path, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(canonical_raw()))
    return path


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_required_n_prints_answer(capsys):
    assert cli.main(["required-n", "--epsilon", "1", "--m-bound", "1", "--d", "1"]) == 0
    assert capsys.readouterr().out.strip() == "7"


def test_required_n_rejects_bad_epsilon(capsys):
    assert cli.main(["required-n", "--epsilon", "2", "--m-bound", "1", "--d", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: DomainError:") and "\n" not in err.strip()


@pytest.mark.parametrize("m_bound", ["inf", "nan"])
def test_required_n_rejects_non_finite_norm_bound(m_bound, capsys):
    assert cli.main(["required-n", "--epsilon", "0.5", "--m-bound", m_bound, "--d", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: DomainError:") and "\n" not in err.strip()


@pytest.mark.parametrize("eps, m_bound", [("1e-200", "16"), ("1e-160", "16"), ("0.5", "1e308")])
def test_required_n_overflow_prints_one_error_line(eps, m_bound, capsys):
    assert cli.main(["required-n", "--epsilon", eps, "--m-bound", m_bound, "--d", "16"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: DomainError:") and "\n" not in err.strip()


def test_validate_ok(tmp_path, capsys):
    path = _write_canonical(tmp_path)
    assert cli.main(["validate", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "ok d=2 m=2 M=2"


def test_validate_names_the_violation(tmp_path, capsys):
    raw = canonical_raw()
    raw["items"][1]["A"] = [[0.0, 0.0], [0.0, 1.0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["validate", str(path)]) == 1
    assert "NotIsotropic" in capsys.readouterr().err


def test_validate_rejects_a_string_norm_bound(tmp_path, capsys):
    raw = canonical_raw()
    raw["M"] = "abc"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: FormatError:") and "\n" not in err.strip()


@pytest.mark.parametrize(
    "a", [[[2.0, False], [False, 0.0]], [[2, False], [False, 0]]], ids=["float-bool", "int-bool"]
)
def test_validate_rejects_booleans_mixed_with_numbers(tmp_path, capsys, a):
    raw = canonical_raw()
    raw["items"][0]["A"] = a
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: FormatError: item 0:") and "\n" not in err.strip()


def test_validate_rejects_a_huge_dimension_without_allocating(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"d": 2**32, "items": [{"lambda": 1.0, "A": [[1.0]]}]}))
    assert cli.main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: DimensionMismatch: item 0:") and "\n" not in err.strip()


def test_validate_missing_file(tmp_path, capsys):
    assert cli.main(["validate", str(tmp_path / "absent.json")]) == 1
    assert capsys.readouterr().err.startswith("error: IO:")


def test_run_all_steps_golden_csv(tmp_path, capsys):
    path = _write_canonical(tmp_path)
    out = tmp_path / "trace.csv"
    assert cli.main(["run", str(path), "--mode", "all-steps", "--k-max", "6",
                     "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0] == list(cli.RUN_HEADER)
    assert len(rows) == 7
    errors = [float(r[2]) for r in rows[1:]]
    assert errors == pytest.approx([1.0, 0.0, 1 / 3, 0.0, 0.2, 0.0], abs=1e-12)
    regimes = [r[4] for r in rows[1:]]
    assert regimes == ["coarse", "coarse", "fine", "fine", "fine", "fine"]
    for r in rows[1:]:
        assert float(r[6]) == pytest.approx(float(r[2]) / float(r[3]), rel=1e-15)
        assert r[1] == format(float(r[1]), ".17g")  # floats carry 17 significant digits
    assert "final_error=0" in capsys.readouterr().out


def test_run_fixed_n(tmp_path):
    path = _write_canonical(tmp_path)
    out = tmp_path / "fix.csv"
    assert cli.main(["run", str(path), "--mode", "fixed-n", "--n", "5",
                     "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) == 6
    deltas = {r[1] for r in rows[1:]}
    assert len(deltas) == 1  # constant schedule
    assert float(rows[-1][3]) == pytest.approx(ps.bound_fixed_n(5, 2.0, 2), rel=1e-12)


def test_run_flag_conflicts(tmp_path, capsys, monkeypatch):
    # flags are checked before the instance is loaded: the file is missing, and never read
    def refuse(*args, **kwargs):
        raise AssertionError("the instance was loaded before the flags were checked")

    monkeypatch.setattr(cli, "load_instance", refuse)
    missing, out = str(tmp_path / "absent.json"), tmp_path / "x.csv"
    for args, line in [
        (["run", missing, "--mode", "fixed-n"], "run --mode fixed-n needs --n"),
        (["run", missing, "--mode", "fixed-n", "--n", "4", "--k-max", "9"],
         "run --mode fixed-n takes --n, not --k-max"),
        (["run", missing, "--mode", "all-steps", "--n", "4"],
         "run --mode all-steps takes --k-max, not --n"),
        (["baseline", missing, "--k-max", "5", "--seed", "0", "--trials", "0"],
         "trials must be a positive integer, got 0"),
        # values are checked there too, with the library's messages
        (["run", missing, "--mode", "all-steps", "--k-max", "0"],
         "k_max must be a positive integer, got 0"),
        (["run", missing, "--mode", "fixed-n", "--n", "0"],
         "fixed_n must be a positive integer, got 0"),
        (["baseline", missing, "--k-max", "0", "--seed", "0"],
         "k_max must be a positive integer, got 0"),
        (["baseline", missing, "--k-max", "5", "--seed", "-1"], "seed must be nonnegative, got -1"),
        (["baseline", missing, "--k-max", "5", "--seed", "-1", "--trials", "3"],
         "seed must be nonnegative, got -1"),
        # a count past the largest float: one line before the load, not a traceback after it
        (["run", missing, "--mode", "fixed-n", "--n", "1" + "0" * 400],
         "fixed_n exceeds the largest float, 1.7976931348623157e+308"),
        (["baseline", missing, "--k-max", "1" + "0" * 400, "--seed", "0"],
         "k_max exceeds the largest float, 1.7976931348623157e+308"),
        (["baseline", missing, "--k-max", "4", "--seed", "0", "--trials", "1" + "0" * 400],
         "trials exceeds the largest float, 1.7976931348623157e+308"),
    ]:
        assert cli.main([*args, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: DomainError: {line}"]
    assert not out.exists()


def test_run_refuses_a_default_k_max_that_cannot_finish(tmp_path, capsys):
    # a tiny weight on a huge member: M = 1e300, so the default k_max is about 5.5e300 steps
    path = tmp_path / "tw.json"
    path.write_text(json.dumps({"d": 2, "items": [{"lambda": 1e-300, "A": [[1e300, 0], [0, 0]]},
                                                  {"lambda": 1, "A": [[0, 0], [0, 1]]}]}))
    assert cli.main(["run", str(path), "--mode", "all-steps", "--out", str(tmp_path / "tw.csv")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: DomainError: k_max="), lines


def test_run_opens_its_output_before_running(tmp_path, capsys, monkeypatch):
    # an unwritable --out fails before any step is taken, not after the whole run
    def refuse(*args, **kwargs):
        raise AssertionError("run was called before --out was opened")

    monkeypatch.setattr(cli, "run", refuse)
    path = _write_canonical(tmp_path)
    out = tmp_path / "absent" / "trace.csv"
    assert cli.main(["run", str(path), "--mode", "all-steps", "--k-max", "20000",
                     "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: IO:"), lines


def test_run_writes_to_stdout_with_dash(tmp_path, capsys):
    path = _write_canonical(tmp_path)
    assert cli.main(["run", str(path), "--mode", "all-steps", "--k-max", "2",
                     "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("k,delta,error,bound,regime,log_potential,ratio")


@pytest.mark.parametrize(
    "args, summary",
    [
        (["run", "{path}", "--mode", "all-steps", "--k-max", "2"], "ok steps=2 "),
        (["baseline", "{path}", "--k-max", "3", "--seed", "0", "--trials", "2"], "ok trials=2 "),
    ],
    ids=["run", "baseline"],
)
def test_dash_out_writes_only_csv_to_stdout(tmp_path, capsys, args, summary):
    path = _write_canonical(tmp_path)
    assert cli.main([a.format(path=path) for a in args] + ["--out", "-"]) == 0
    captured = capsys.readouterr()
    rows = list(csv.reader(captured.out.splitlines()))
    assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows), rows
    assert captured.err.startswith(summary)


def test_run_maps_bound_violation_to_exit_2(tmp_path, capsys, monkeypatch):
    # run's own certificate fires: every prefix error exceeds a bound of 0
    monkeypatch.setattr(greedy.Schedule, "_bound", lambda self, k, delta: 0.0)
    path = _write_canonical(tmp_path)
    out = tmp_path / "trace.csv"
    assert cli.main(["run", str(path), "--mode", "all-steps", "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: BoundViolation: step 1: prefix error"), lines
    assert _read_csv(out) == [list(cli.RUN_HEADER)]   # the header the run opened with


def test_generate_bases_round_trip(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert cli.main(["generate", "--kind", "bases", "--d", "4", "--bases", "2",
                     "--seed", "7", "--out", str(out)]) == 0
    assert "ok d=4 m=8" in capsys.readouterr().out
    inst = ps.load_instance(out)
    assert (inst.d, inst.m) == (4, 8)
    payload = json.loads(out.read_text())
    assert payload["M"] >= inst.norm_bound - 1e-12


def test_generate_random_psd(tmp_path):
    out = tmp_path / "r.json"
    assert cli.main(["generate", "--kind", "random-psd", "--d", "3", "--m", "9",
                     "--rank", "2", "--seed", "1", "--out", str(out)]) == 0
    inst = ps.load_instance(out)
    assert (inst.d, inst.m) == (3, 9)


def test_generate_graph_from_edge_file(tmp_path):
    edges = tmp_path / "g.txt"
    edges.write_text("# triangle\n0 1 1.0\n1 2 1.0\n0 2 1.0\n")
    out = tmp_path / "g.json"
    assert cli.main(["generate", "--kind", "graph", "--edges", str(edges),
                     "--out", str(out)]) == 0
    inst = ps.load_instance(out)
    assert (inst.d, inst.m) == (2, 3)


def _one_error_line(args, prefix, **run_kwargs):
    # a separate process, so that a warning or a traceback reaches stderr as it would for a user
    env = dict(os.environ, PYTHONPATH=str(Path(ps.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "psdsparse.cli", *args],
                          capture_output=True, text=True, env=env, **run_kwargs)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), lines


def _batch_winner_far_from_its_eigh_raises_one_error_line(tmp_path, capsys, monkeypatch, scorer,
                                                          inst):
    exact = getattr(greedy, scorer)

    def shifted(*args, **kwargs):
        return exact(*args, **kwargs) - 1e-6

    # at Y = 0 every member ties, so a member scored in the batch wins step 1 by the shift
    monkeypatch.setattr(greedy, scorer, shifted)
    with pytest.raises(ps.PruningCertificateFailed,
                       match=r"step 1: member 2: batch score .* and candidate score .* differ"):
        ps.run(inst, ps.Schedule(inst.norm_bound, inst.d), k_max=4)
    path = tmp_path / "b8.json"
    ps.save_instance(inst, path)
    args = ["run", str(path), "--mode", "all-steps", "--k-max", "4", "--out", str(tmp_path / "b8.csv")]
    assert cli.main(args) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: PruningCertificateFailed: step 1: member 2: batch score "), lines


def test_gram_score_far_from_the_dense_score_raises_one_error_line(tmp_path, capsys, monkeypatch):
    _batch_winner_far_from_its_eigh_raises_one_error_line(tmp_path, capsys, monkeypatch,
                                                          "_gram_scores", ps.gen_bases(8, 2, 0))


def test_dense_batch_score_far_from_the_eigh_score_raises_one_error_line(tmp_path, capsys,
                                                                         monkeypatch):
    # the same family held as dense "A" matrices, whose batch is scored from its rows
    inst = ps.gen_bases(8, 2, 0)
    _batch_winner_far_from_its_eigh_raises_one_error_line(
        tmp_path, capsys, monkeypatch, "_scores", ps.Instance(inst.weights, dense_mats(inst)))


def test_validate_overflow_on_symmetrizing_prints_one_error_line(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"d": 1, "items": [{"lambda": 1.0, "A": [[1.7e308]]}]}))
    _one_error_line(["validate", str(path)],
                    "error: NonFinite: item 0: matrix entries overflow when symmetrized")


def test_generate_graph_overflow_prints_one_error_line(tmp_path):
    edges = tmp_path / "g.txt"
    edges.write_text("0 1 1e308\n1 2 1e308\n0 2 1e308\n")
    _one_error_line(["generate", "--kind", "graph", "--edges", str(edges),
                     "--out", str(tmp_path / "g.json")], "error: NonFinite: graph Laplacian")


def test_validate_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    _one_error_line(["validate", str(path)], "error: FormatError:")


@pytest.mark.parametrize(
    "line, prefix",
    [(b"\xff 1 1\n", "error: FormatError:"), (b"0 1000000 1.0\n", "error: Disconnected:")],
    ids=["not-utf8", "huge-vertex-id"],
)
def test_generate_graph_rejects_a_bad_edge_file(tmp_path, line, prefix):
    edges = tmp_path / "g.txt"
    edges.write_bytes(line)
    _one_error_line(["generate", "--kind", "graph", "--edges", str(edges),
                     "--out", str(tmp_path / "g.json")], prefix)


@pytest.mark.parametrize(
    "args",
    [
        ["generate", "--kind", "bases", "--d", "2", "--seed", "-1", "--out", "{tmp}/x.json"],
        ["generate", "--kind", "random-psd", "--d", "2", "--m", "4", "--cond-cap", "nan",
         "--out", "{tmp}/x.json"],
        ["baseline", "{inst}", "--k-max", "5", "--seed", "-1", "--out", "{tmp}/b.csv"],
        ["baseline", "{inst}", "--k-max", "5", "--seed", "-1", "--trials", "2",
         "--out", "{tmp}/b.csv"],
        ["verify", "--suite", "psi", "--seed", "-1"],
    ],
    ids=["generate", "cond-cap-nan", "baseline", "baseline-trials", "verify"],
)
def test_bad_seeds_and_caps_print_one_error_line(tmp_path, args):
    inst = _write_canonical(tmp_path)
    args = [a.format(tmp=tmp_path, inst=inst) for a in args]
    _one_error_line(args, "error: DomainError:")


def _cap_address_space():
    # whatever the host's overcommit policy, a huge allocation is then refused at once
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


def test_baseline_huge_k_max_prints_one_error_line(tmp_path):
    inst = _write_canonical(tmp_path)
    _one_error_line(["baseline", str(inst), "--k-max", "10000000000000", "--seed", "0",
                     "--out", str(tmp_path / "b.csv")], "error: DomainError: k_max=10000000000000",
                    preexec_fn=_cap_address_space)


@pytest.mark.parametrize(
    "args, prefix",
    [(["--kind", "bases", "--d", "100000"], "error: MemoryError: Unable to allocate"),
     (["--kind", "random-psd", "--d", "3", "--m", "100000000", "--rank", "1000"],
      "error: MemoryError: Unable to allocate"),
     # past numpy's size limit, which it reports as a ValueError
     (["--kind", "bases", "--d", "1" + "0" * 20],
      "error: DomainError: d=100000000000000000000 and n_bases=1 are too large: "),
     (["--kind", "random-psd", "--d", "3", "--m", "1" + "0" * 20],
      "error: DomainError: d=3, m=100000000000000000000 and rank=3 are too large: ")],
    ids=["bases", "random-psd", "bases-past-size-limit", "random-psd-past-size-limit"],
)
def test_generate_too_large_to_allocate_prints_one_error_line(tmp_path, args, prefix):
    _one_error_line(["generate", *args, "--out", str(tmp_path / "x.json")], prefix,
                    preexec_fn=_cap_address_space)
    assert not (tmp_path / "x.json").exists()


def test_generate_writes_factors_that_validate_and_run_read(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert cli.main(["generate", "--kind", "bases", "--d", "4", "--bases", "2", "--seed", "1",
                     "--out", str(out)]) == 0
    raw = json.loads(out.read_text())
    assert all(set(item) == {"lambda", "V"} for item in raw["items"])
    assert cli.main(["validate", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("ok d=4 m=8 M=4")

    # the same members written densely give the same trace
    inst = ps.load_instance(out)
    dense = tmp_path / "dense.json"
    dense.write_text(json.dumps(raw_payload(inst.weights, dense_mats(inst))))
    for path, csv_out in ((out, tmp_path / "v.csv"), (dense, tmp_path / "a.csv")):
        assert cli.main(["run", str(path), "--mode", "all-steps", "--k-max", "12",
                         "--out", str(csv_out)]) == 0
    assert (tmp_path / "v.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()
    assert len(_read_csv(tmp_path / "v.csv")) == 13


def test_generate_graph_random(tmp_path):
    out = tmp_path / "g.json"
    assert cli.main(["generate", "--kind", "graph", "--d", "5", "--m", "9",
                     "--seed", "3", "--out", str(out)]) == 0
    inst = ps.load_instance(out)
    assert (inst.d, inst.m) == (5, 9)


def test_generate_missing_flags(capsys):
    assert cli.main(["generate", "--kind", "bases", "--out", "x.json"]) == 1
    assert cli.main(["generate", "--kind", "random-psd", "--d", "3", "--out", "x.json"]) == 1
    assert cli.main(["generate", "--kind", "graph", "--out", "x.json"]) == 1
    assert capsys.readouterr().err.count("error: DomainError:") == 3


def test_baseline_csv_schema(tmp_path):
    path = _write_canonical(tmp_path)
    out = tmp_path / "base.csv"
    assert cli.main(["baseline", str(path), "--k-max", "20", "--seed", "3",
                     "--trials", "2", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0] == list(cli.BASELINE_HEADER)
    assert len(rows) == 1 + 2 * 20
    from psdsparse.baseline import child_seed
    assert rows[1][:2] == ["0", str(child_seed(3, 0))]
    assert rows[21][:2] == ["1", str(child_seed(3, 1))]
    ks = [int(r[2]) for r in rows[1:21]]
    assert ks == list(range(1, 21))


def test_baseline_single_trial_uses_root_seed(tmp_path):
    path = _write_canonical(tmp_path)
    out = tmp_path / "base.csv"
    assert cli.main(["baseline", str(path), "--k-max", "5", "--seed", "11",
                     "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[1][:2] == ["0", "11"]


def test_verify_suite_reports(capsys):
    assert cli.main(["verify", "--suite", "psi", "--trials", "30", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("psi: pass")
    assert "worst_slack=" in out
    assert cli.main(["verify", "--suite", "all", "--trials", "3", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == list(ps.SUITES)
    assert all(": pass trials=3 " in line for line in lines), lines


def test_verify_failure_exits_1(capsys, monkeypatch):
    failing = ps.CheckReport(suite="gt", trials=5, worst_slack=-1.0, seed=9, worst_trial=2)
    monkeypatch.setattr(cli.verify_mod, "run_suite", lambda *a, **k: failing)
    assert cli.main(["verify", "--suite", "gt", "--trials", "5", "--seed", "9"]) == 1
    captured = capsys.readouterr()
    assert "gt: FAIL" in captured.out
    assert "VerificationFailed" in captured.err and "seed=9" in captured.err


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["run"])  # missing required file argument
    assert exc.value.code == 1


def test_determinism_across_invocations(tmp_path):
    args = ["generate", "--kind", "random-psd", "--d", "4", "--m", "8", "--rank", "2",
            "--seed", "5"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
