"""Tests of the benchmark itself: inputs from seeds, output checks, spans.

    python3 -m pytest -q perfbench/tests

Each checker must accept the program's real output and reject a tampered
copy of it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def cli(*argv: str) -> tuple[int, bytes, bytes]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "charsum.cli", *argv], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


def checked(argv: list[str]) -> tuple[bytes, str | None]:
    code, out, err = cli(*argv)
    return out, checks.check(argv, code, out, err)


def flip_digit(text: str, line: int, field: int, sep: str) -> str:
    lines = text.splitlines()
    fields = lines[line].split(sep)
    fields[field] = fields[field][:-1] + str((int(fields[field][-1]) + 1) % 10)
    lines[line] = sep.join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_argv_lists(workload):
    assert workloads.build(workload, 7) == workloads.build(workload, 7)
    assert workloads.build(workload, 1) != workloads.build(workload, 2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_round_ops_do_not_depend_on_the_seed_beyond_the_n_window(workload):
    def shape(argv):
        return tuple(argv[:argv.index("--n")] if "--n" in argv else argv)

    rounds = {tuple(sorted(map(shape, workloads.build(workload, s)))) for s in range(5)}
    assert len(rounds) == 1


def test_probe_asks_past_the_digit_limit():
    argv = workloads.probe(3)
    assert argv == workloads.probe(3) and argv[0] == "verify"
    lo, _ = checks._range(argv[argv.index("--n") + 1])
    assert lo > 7150


def test_verify_check_accepts_real_output_and_rejects_tampering():
    argv = ["verify", "--mu0", "5,3,2", "--n", "100..110", "--format", "csv"]
    out, problem = checked(argv)
    assert problem is None
    text = out.decode()
    assert "2*A != B" in checks.check(argv, 0, flip_digit(text, 3, 1, ",").encode(), b"")
    truncated = "\n".join(text.splitlines()[:-1]) + "\n"
    assert "rows" in checks.check(argv, 0, truncated.encode(), b"")
    assert "exit code" in checks.check(argv, 1, out, b"")


def test_search_check_accepts_real_output_and_rejects_a_missing_pair():
    argv = ["search", "--K", "7", "--window", "13"]
    out, problem = checked(argv)
    assert problem is None
    lines = out.decode().splitlines()
    dropped = [line for line in lines if json.loads(line)["mu0"] != "5,2"]
    assert len(dropped) == len(lines) - 1
    assert "missing" in checks.check(argv, 0, ("\n".join(dropped) + "\n").encode(), b"")


def test_fit_check_accepts_real_output_and_rejects_a_changed_coefficient():
    argv = ["fit", "--family", "B", "--mu0", "5,3"]
    out, problem = checked(argv)
    assert problem is None
    rec = json.loads(out)
    num, den = rec["numerator"][1].split("/")
    rec["numerator"][1] = f"{int(num) + 1}/{den}"
    assert "R(n)*C(2n,n)" in checks.check(argv, 0, json.dumps(rec).encode(), b"")


def test_sum_check_accepts_real_output_and_rejects_a_flipped_digit():
    argv = ["sum", "B", "--mu0", "3,2", "--n", "10..20", "--mode", "both"]
    out, problem = checked(argv)
    assert problem is None
    assert "wrong" in checks.check(argv, 0, flip_digit(out.decode(), 4, 1, " ").encode(), b"")
    out, problem = checked(list(workloads.SETUP_ARGV))
    assert problem is None and out == b"1\n"


def test_a_traceback_fails_the_op():
    err = b'Traceback (most recent call last):\n  File "x"\nValueError: boom\n'
    assert checks.check(["verify"], 1, b"n,A,B,holds\n", err) == "traceback: ValueError: boom"


def test_work_counts_candidate_pairs():
    # weights 0..4 with parts >= 2: 1, 0, 1, 1, 2; and 2 for weight 5, 4 for 6
    assert checks.work(["search", "--K", "4"]) == {"candidate_pairs": 1 * 1 + 0 * 1 + 1 * 2 + 1 * 2 + 2 * 4}


def test_spans_give_self_time_and_survive_a_round_trip(tmp_path):
    rec = spans.Recorder()

    def leaf():
        time.sleep(0.01)

    def gen():
        yield 1
        yield 2

    leaf_t = rec.wrap(leaf, "polyring.leaf")

    def outer():
        leaf_t()
        leaf_t()
        return sum(gen_t())

    gen_t = rec.wrap_generator(gen, "partition.gen")
    outer_t = rec.wrap(outer, "charsums.outer")
    assert outer_t() == 3

    def fails():
        raise ValueError

    with pytest.raises(ValueError):
        rec.wrap(fails, "cli.fails")()
    rec.write(tmp_path / "op.spans", "0", {"mn_cache_size": 5})
    totals = spans.op_totals(*spans.read(tmp_path / "op.spans"))
    assert totals["polyring.leaf.calls"] == 2
    assert totals["partition.gen.calls"] == 3  # two items and the exhausting call
    assert totals["polyring.leaf.self_s"] >= 0.02
    assert 0 <= totals["charsums.outer.self_s"] < totals["polyring.leaf.self_s"]
    assert totals["cli.fails.raised"] == 1 and totals["mn_cache_size"] == 5
    m = spans.aggregate([totals], rounds=1)
    assert m["cli.raised"] == 1 and m["characters.mn_cache.size"] == 5


def test_trace_shim_keeps_stdout_and_records_every_layer_call(tmp_path):
    argv = ["verify", "--mu0", "3", "--n", "10..12", "--format", "csv"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    span_file = tmp_path / "op.spans"
    traced = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_shim.py"), str(span_file), "0", "--", *argv],
        cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    assert traced.returncode == 0
    assert traced.stdout == cli(*argv)[1]
    totals = spans.op_totals(*spans.read(span_file))
    assert totals["cli.main.calls"] == 1 and totals["partition.parse_partition.calls"] == 1
    assert totals["charsums.sum_A.calls"] == 3 and totals["charsums.sum_B.calls"] == 3
    assert totals["polyring.binomial_coeff.calls"] > 0 and totals["polyring.IntPoly.__mul__.calls"] > 0
    assert totals["lemma_distinct"] == 6


def test_benchmark_json_lists_the_metrics_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {**spans.PER_LAYER, **run.OPS}
    assert spec["paths"] == ["perfbench"]
