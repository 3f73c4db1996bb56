"""The charsum benchmark: one workload of real CLI invocations, checked and timed.

    python3 perfbench/run.py --workload sweep_oracle --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout; the ops import ``charsum`` from the
checkout's ``src``.  The load is a closed loop with one client: each op is a
fresh ``python -m charsum.cli ...`` process, started when the previous one
has exited.  The workload's round of ops (see workloads.py) repeats for
about ``--seconds``.  Every op's output is checked (checks.py).

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` untraced and traced rounds alternate and the last line holds
the per-layer metrics from the traced rounds (spans.py, trace_shim.py) and
the op latencies and each subcommand's share of the untraced rounds.
The lines before it log each op of the first round with the SHA-256 of its
stdout, the work done, failures and the known-defect probe.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import shlex
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent

# Layer-independent metrics: name -> (unit, better).  BENCHMARK.json lists the same.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Traced runs only, from their untraced rounds: the latency of one op, and
# per round the summed median wall time of each subcommand's ops.  On a
# closed loop with one client a round's wall time is the sum of its ops'
# latencies, so wall_s already bounds them; the median op drifts with the
# machine as much as wall_s but rests on fewer samples, so it is reported,
# not bounded.
OPS = {
    "ops.p50_s": ("s", "lower"),
    "ops.ttfr_p50_s": ("s", "lower"),
    **{f"ops.{command}.wall_s": ("s", "lower") for command in workloads.COMMANDS},
}

SETUP_FIRST = 3  # timed trivial ops before the first round
SETUP_PER_ROUND = 2  # and after each round
OP_TIMEOUT_S = 120


@dataclass
class OpResult:
    code: int
    wall_s: float
    ttfr_s: float
    rss_mb: float
    out: bytes
    err: bytes


def run_op(cmd: list[str], env: dict, cwd: Path) -> OpResult:
    """Run one process to completion, timing it to exit and to its first stdout byte."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    first = None
    chunks = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    with selectors.DefaultSelector() as sel:
        for pipe in (proc.stdout, proc.stderr):
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            ready = sel.select(timeout=max(0.0, t0 + OP_TIMEOUT_S - time.perf_counter()))
            if not ready:
                proc.kill()
                break
            for key, _ in ready:
                data = os.read(key.fd, 1 << 16)
                if not data:
                    sel.unregister(key.fileobj)
                    continue
                if first is None and key.fd == proc.stdout.fileno():
                    first = time.perf_counter()
                chunks[key.fd].append(data)
    _, status, usage = os.wait4(proc.pid, 0)
    t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = b"".join(chunks[proc.stdout.fileno()])
    err = b"".join(chunks[proc.stderr.fileno()])
    proc.stdout.close()
    proc.stderr.close()
    return OpResult(
        code=proc.returncode,
        wall_s=t1 - t0,
        ttfr_s=(first if first is not None else t1) - t0,
        rss_mb=usage.ru_maxrss / 1024,
        out=out,
        err=err,
    )


class Run:
    """One benchmark run: the ops it made, their checks and their timings."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        # Users get CPython's default int->str digit limit; so do the ops.
        self.env.pop("PYTHONINTMAXSTRDIGITS", None)
        self.ops = workloads.build(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}
        self.op_totals: list[Counter] = []
        self.setup_walls: list[float] = []
        self.trace_dir = root / ".bench_build" / "perfbench"

    def invoke(self, argv: list[str], index: int | None = None, trace_file: Path | None = None) -> OpResult:
        """Run and check one op; ``index`` is its place in the round."""
        if trace_file is None:
            cmd = [sys.executable, "-m", "charsum.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "trace_shim.py"), str(trace_file), str(index), "--", *argv]
        res = run_op(cmd, self.env, self.root)
        self.attempted += 1
        problem = checks.check(argv, res.code, res.out, res.err)
        digest = hashlib.sha256(res.out).hexdigest()
        if index is not None:
            if index not in self.digests:
                self.digests[index] = digest
                print(f"op {index}: charsum {shlex.join(argv)} -> exit {res.code}, "
                      f"{res.wall_s:.3f} s, stdout {len(res.out)} B sha256 {digest}")
            elif problem is None and digest != self.digests[index]:
                problem = "stdout differs from the first round"
        if problem is not None:
            self.failed += 1
            print(f"FAIL charsum {shlex.join(argv)}: {problem}")
        return res

    def round(self, traced: bool) -> list[OpResult]:
        if not traced:
            return [self.invoke(argv, i) for i, argv in enumerate(self.ops)]
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        results = []
        for i, argv in enumerate(self.ops):
            path = self.trace_dir / f"op{i}.spans"
            results.append(self.invoke(argv, i, path))
            if path.exists():  # absent only if the shim failed, which the op's check counts
                self.op_totals.append(spans.op_totals(*spans.read(path)))
                path.unlink()
        return results

    def setup(self) -> None:
        """Time one trivial op: interpreter start, imports, argparse."""
        self.setup_walls.append(self.invoke(list(workloads.SETUP_ARGV)).wall_s)

    def probe(self, argv: list[str]) -> int:
        """Run the known-defect probe; 1 if it fails its check, else 0.

        The probe is reported on its own and not counted in attempted or
        failed: its failure at the seed commit is a known defect, not a
        fault of the run.
        """
        res = run_op([sys.executable, "-m", "charsum.cli", *argv], self.env, self.root)
        problem = checks.check(argv, res.code, res.out, res.err)
        print(f"known-defect probe: charsum {shlex.join(argv)} -> exit {res.code}: "
              f"{'FAILS: ' + problem if problem else 'passes'}")
        return int(problem is not None)

    def measure(self, seconds: float, trace: bool) -> tuple[list[list[OpResult]], list[list[OpResult]]]:
        """Rounds for about ``seconds``: all untraced, or alternating with traced ones.

        No round starts when less than half of the last one's length is
        left, so a run ends within half a round of ``seconds``.  Trivial ops
        are timed before the first round and after each round, so
        ``setup_walls`` samples the whole run.
        """
        plain: list[list[OpResult]] = []
        traced: list[list[OpResult]] = []
        self.invoke(list(workloads.SETUP_ARGV))  # byte-compiles the package; not timed
        for _ in range(SETUP_FIRST):
            self.setup()
        deadline = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            if trace and len(plain) > len(traced):
                traced.append(self.round(traced=True))
            else:
                plain.append(self.round(traced=False))
            for _ in range(SETUP_PER_ROUND):
                self.setup()
            now = time.perf_counter()
            if now + (now - start) / 2 >= deadline and (traced or not trace):
                return plain, traced


def _per_op(rounds: list[list[OpResult]], field: str) -> list[float]:
    """Each op's median of ``field`` over the rounds, in round order.

    A round's wall time is taken as the sum of these, so every round adds
    to it and one slow round moves it little.  The ops of a round differ in
    cost, so ``ops.p50_s`` is the median of these too: pooling all samples
    would put the median on the edge between two ops' costs, where noise
    moves it most.
    """
    return [statistics.median(times) for times in zip(*([getattr(r, field) for r in rnd] for rnd in rounds))]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "charsum" / "cli.py").is_file():
        print(f"error: no charsum sources in {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import charsum

    if not Path(charsum.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: charsum imports from {charsum.__file__}, not {src}", file=sys.stderr)
        return 2

    run = Run(root, args.workload, args.seed)
    print(f"workload {args.workload} (seed {args.seed}): {workloads.WHY[args.workload]}")
    verifies = any(argv[0] == "verify" for argv in run.ops)
    probe_failed = run.probe(workloads.probe(args.seed)) if verifies else 0
    plain, traced = run.measure(args.seconds, bool(args.trace))

    work = Counter()
    for argv in run.ops:
        work.update(checks.work(argv))
    print(f"rounds: {len(plain)} untraced, {len(traced)} traced; "
          f"per round: {len(run.ops)} ops, " + ", ".join(f"{k} {v}" for k, v in sorted(work.items())))
    print(f"fail_ratio = {run.failed}/{run.attempted}")

    if args.trace:
        values = spans.aggregate(run.op_totals, len(traced))
        values["cli.stdout_bytes"] = sum(len(r.out) for rnd in traced for r in rnd) / len(traced)
        per_op = _per_op(plain, "wall_s")
        values["trace.overhead_ratio"] = sum(_per_op(traced, "wall_s")) / sum(per_op)
        values["probe.failed"] = probe_failed
        values["ops.p50_s"] = statistics.median(per_op)
        values["ops.ttfr_p50_s"] = statistics.median(_per_op(plain, "ttfr_s"))
        for command in workloads.COMMANDS:
            values[f"ops.{command}.wall_s"] = sum(t for argv, t in zip(run.ops, per_op) if argv[0] == command)
        units = {**spans.PER_LAYER, **OPS}
    else:
        values = {
            "wall_s": sum(_per_op(plain, "wall_s")),
            "setup_s": statistics.median(run.setup_walls),
            "peak_rss_mb": max(r.rss_mb for rnd in plain for r in rnd),
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in units.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
