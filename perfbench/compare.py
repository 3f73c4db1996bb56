"""Summarise or compare benchmark result files.

    python3 perfbench/compare.py BASE [NEW]

A result file holds the last stdout line of each run of one workload, one
JSON object a line, e.g. ``python3 perfbench/run.py ... | tail -n 1 >> f``.
For each metric this prints the median, the quartiles and the spread (the
distance between the quartiles over the median).  Given NEW as well, it
prints NEW's median and its change, and the verdict under the bounds in
BENCHMARK.json: ``regression`` when NEW is worse by more than the bound,
``unresolved`` when either side's spread exceeds the bound, else ``ok``.
Metrics without a bound (the per-layer ones) get no verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, list[float]]:
    """Metric name -> its values over the runs in one result file."""
    values: dict[str, list[float]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            result = json.loads(line)
            if not result["correct"]:
                raise SystemExit(f"{path}: a run reported correct=false")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
    return values


def summary(xs: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and the quartile spread over the median."""
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], xs[0], xs[0])
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        raise SystemExit(__doc__)
    spec = json.loads(SPEC.read_text())
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = load(argv[0])
    new = load(argv[1]) if len(argv) == 2 else None
    regressed = False
    for name, xs in base.items():
        rule = rules[name]
        med, q1, q3, spread = summary(xs)
        line = f"{name:32} n={len(xs):2}  median {med:.6g} {rule['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}"
        bound = rule.get("bound")
        if bound is not None:
            line += f"  bound {bound}"
        if new is not None and name in new:
            new_med, _, _, new_spread = summary(new[name])
            sign = 1 if rule["better"] == "lower" else -1
            worse = sign * (new_med - med) / med if med else 0.0
            line += f"  -> new median {new_med:.6g} ({worse:+.3f} worse)"
            if bound is not None:
                if worse > bound:
                    verdict = "regression"
                    regressed = True
                elif max(spread, new_spread) > bound:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
                line += f"  {verdict}"
        print(line)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
