"""Spans around calls into charsum's layers: record, store and aggregate.

A span is (name, start, end, parent span).  ``Recorder`` keeps the spans of
one op in flat arrays while the op runs and writes them to one file when it
exits: a JSON header line (op id, span-name table, counters) followed by the
four arrays.  ``aggregate`` reads the files of a run and derives the
per-layer metrics.  A span's self time is its duration minus the durations
of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter
from pathlib import Path

_TYPECODES = "Hldd"  # name index, parent index (-1 for none), start, end
_DONE = object()

# Layer metrics: name -> (unit, better).  BENCHMARK.json lists the same.
PER_LAYER = {
    "polyring.binomial.calls": ("count", "lower"),
    "polyring.binomial.self_s": ("s", "lower"),
    "polyring.binomial.out_bits": ("bit", "lower"),
    "polyring.mul.calls": ("count", "lower"),
    "polyring.mul.self_s": ("s", "lower"),
    "polyring.mul.out_terms": ("count", "lower"),
    "polyring.raised": ("count", "lower"),
    "charsums.lemma.calls": ("count", "lower"),
    "charsums.lemma.distinct_ratio": ("ratio", "higher"),
    "charsums.lemma.self_s": ("s", "lower"),
    "charsums.brute.calls": ("count", "lower"),
    "charsums.brute.self_s": ("s", "lower"),
    "charsums.raised": ("count", "lower"),
    "discovery.ratio_test.calls": ("count", "lower"),
    "discovery.search.hit_ratio": ("ratio", "higher"),
    "discovery.fit.sum_calls": ("count", "lower"),
    "discovery.self_s": ("s", "lower"),
    "discovery.raised": ("count", "lower"),
    "characters.char_mn.calls": ("count", "lower"),
    "characters.char_mn.self_s": ("s", "lower"),
    "characters.mn_cache.hit_ratio": ("ratio", "higher"),
    "characters.mn_cache.size": ("count", "lower"),
    "characters.raised": ("count", "lower"),
    "partition.calls": ("count", "lower"),
    "partition.self_s": ("s", "lower"),
    "partition.raised": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    "cli.raised": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "probe.failed": ("count", "lower"),
}

LAYERS = ("cli", "partition", "discovery", "charsums", "characters", "polyring")

BINOMIAL = "polyring.binomial_coeff"
MUL = "polyring.IntPoly.__mul__"
LEMMA = ("charsums.sum_A", "charsums.sum_B")
BRUTE = ("charsums.sum_A_bruteforce", "charsums.sum_B_bruteforce")
RATIO_TEST = "discovery.ratio_test"
FIT = "discovery.fit_closed_form"
CHAR_MN = "characters.char_mn"
CLI_MAIN = "cli.main"


class Recorder:
    """The spans and counters of one op, kept in memory until ``write``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.arrays = tuple(array(t) for t in _TYPECODES)
        self.stack = [-1]
        self.counts: Counter[str] = Counter()

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str, after=None):
        """``fn`` recording one span per call; ``after(args, result)`` adds counters."""
        ix = self._name_index(name)
        name_ix, parent, start, end = self.arrays
        stack, counts, clock = self.stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_ix.append(ix)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[i] = clock()
                stack.pop()
                counts[name + ".raised"] += 1
                raise
            end[i] = clock()
            stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_generator(self, fn, name: str):
        """A generator function whose every ``next`` records one span."""
        step = self.wrap(next, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while (item := step(it, _DONE)) is not _DONE:
                yield item

        return traced

    def write(self, path: Path, op_id: str, extra: dict) -> None:
        header = {
            "op": op_id,
            "names": self.names,
            "spans": len(self.arrays[2]),
            "counts": dict(self.counts, **extra),
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in self.arrays:
                arr.tofile(f)


def read(path: Path) -> tuple[dict, tuple[array, ...]]:
    """The header and the four span arrays of one op's file."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        arrays = tuple(array(t) for t in _TYPECODES)
        for arr in arrays:
            arr.fromfile(f, header["spans"])
    return header, arrays


def op_totals(header: dict, arrays: tuple[array, ...]) -> Counter:
    """Per span name: ``<name>.calls`` and ``<name>.self_s``; plus the op's counters."""
    names = header["names"]
    name_ix, parent, start, end = arrays
    dur = [e - s for s, e in zip(start, end)]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    totals: Counter = Counter()
    for ix, d, c in zip(name_ix, dur, child):
        totals[names[ix] + ".self_s"] += d - c
        totals[names[ix] + ".calls"] += 1
    if FIT in names:
        fit_ix = names.index(FIT)
        lemma_ix = {names.index(n) for n in LEMMA if n in names}
        totals["fit_sum_calls"] = sum(
            1 for ix, p in zip(name_ix, parent) if ix in lemma_ix and p >= 0 and name_ix[p] == fit_ix
        )
    totals.update(header["counts"])
    return totals


def aggregate(ops: list[Counter], rounds: int) -> dict[str, float]:
    """Per-layer metrics per round, from the per-op totals of ``rounds`` rounds.

    ``trace.overhead_ratio``, ``cli.stdout_bytes`` and ``probe.failed`` are
    measured outside the spans and set by the caller.
    """
    t: Counter = Counter()
    for op in ops:
        t.update(op)
    mn_size = max((op["mn_cache_size"] for op in ops), default=0)

    def per_round(x: float) -> float:
        return x / rounds

    def layer_sum(layer: str, suffix: str) -> float:
        return sum(v for k, v in t.items() if k.startswith(layer + ".") and k.endswith(suffix))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    lemma_calls = sum(t[n + ".calls"] for n in LEMMA)
    mn_lookups = t["mn_cache_hits"] + t["mn_cache_misses"]
    m = {
        "polyring.binomial.calls": per_round(t[BINOMIAL + ".calls"]),
        "polyring.binomial.self_s": per_round(t[BINOMIAL + ".self_s"]),
        "polyring.binomial.out_bits": per_round(t["binomial_out_bits"]),
        "polyring.mul.calls": per_round(t[MUL + ".calls"]),
        "polyring.mul.self_s": per_round(t[MUL + ".self_s"]),
        "polyring.mul.out_terms": per_round(t["mul_out_terms"]),
        "charsums.lemma.calls": per_round(lemma_calls),
        "charsums.lemma.distinct_ratio": ratio(t["lemma_distinct"], lemma_calls),
        "charsums.lemma.self_s": per_round(sum(t[n + ".self_s"] for n in LEMMA)),
        "charsums.brute.calls": per_round(sum(t[n + ".calls"] for n in BRUTE)),
        "charsums.brute.self_s": per_round(sum(t[n + ".self_s"] for n in BRUTE)),
        "discovery.ratio_test.calls": per_round(t[RATIO_TEST + ".calls"]),
        "discovery.search.hit_ratio": ratio(t["search_reported"], t[RATIO_TEST + ".calls"]),
        "discovery.fit.sum_calls": per_round(t["fit_sum_calls"]),
        "discovery.self_s": per_round(layer_sum("discovery", ".self_s")),
        "characters.char_mn.calls": per_round(t[CHAR_MN + ".calls"]),
        "characters.char_mn.self_s": per_round(t[CHAR_MN + ".self_s"]),
        "characters.mn_cache.hit_ratio": ratio(t["mn_cache_hits"], mn_lookups),
        "characters.mn_cache.size": mn_size,
        "partition.calls": per_round(layer_sum("partition", ".calls")),
        "partition.self_s": per_round(layer_sum("partition", ".self_s")),
        "cli.self_s": per_round(t[CLI_MAIN + ".self_s"]),
    }
    for layer in LAYERS:
        m[layer + ".raised"] = per_round(layer_sum(layer, ".raised"))
    return m
