"""Command-line front end: char, sum, verify, search, fit, oeis.

This module alone renders stdout; the library returns plain values.  Each
command builds one JSON record and its plain lines, and ``_emit`` is the one
place that knows how plain, JSON and CSV look (``search`` and ``fit`` print
JSON only).  Outputs are deterministic given flags and fixtures.  Big integers
are always printed as decimal strings in JSON so consumers never overflow.
Exit codes:

  0    success (for verify: every n in the range holds)
  1    verify ran and the identity failed for some n
  2    usage errors: unknown flags, malformed partitions/ranges/value lists
  3    domain preconditions: weight mismatch, n below |mu0|, a part equal to 1,
       not theorem form, j out of range, row cap exceeded, too few OEIS terms,
       a class with too many parts >= 2 for the border-strip oracle
  4    internal cross-check mismatch (sum --mode both, char --check-all,
       or a value breaking an identity the maths guarantees, in any command)
  5    search parameters out of range (K < 2, window < 4)
  7    OEIS lookup failures (network disabled/unreachable, malformed response,
       a cache directory that cannot hold the reply)
  141  stdout was closed before the output was written (128 + SIGPIPE)

Each command raises and ``main`` maps the exception to its code through
``EXIT_CODES``, printing one ``error:`` line to stderr.  Code 6 is unused.
A warning the library raises on the way (a cache file that does not parse,
say) is printed as one ``warning:`` line, without Python's source location.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import asdict
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Iterable, Optional

from .characters import ROUTES, RowCapExceeded
from .charsums import (
    InternalConsistencyError,
    sum_A,
    sum_A_bruteforce,
    sum_B,
    sum_B_bruteforce,
    verify_theorem,
)
from .discovery import DEFAULT_SEARCH_WINDOW, SearchError, fit_closed_form, search_pairs
from .oeis import OeisClient, OeisError, live_transport, offline_transport
from .partition import PartitionFormatError, format_partition, parse_partition

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_MISMATCH = 4
EXIT_SEARCH = 5
EXIT_NETWORK = 7
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process killed by it


class UsageError(Exception):
    """A malformed range or value list on the command line."""


# The exit code of each exception a command may raise, and the error line it
# prints (None: the exception's own message).  The first class that matches
# wins, so every subclass of ValueError comes before ValueError.
EXIT_CODES: tuple[tuple[type[Exception], int, Optional[str]], ...] = (
    (PartitionFormatError, EXIT_USAGE, None),
    (UsageError, EXIT_USAGE, None),
    (InternalConsistencyError, EXIT_MISMATCH, None),
    (SearchError, EXIT_SEARCH, None),
    (OeisError, EXIT_NETWORK, None),
    (ValueError, EXIT_PRECONDITION, None),
    # the border-strip oracle recurses once per part >= 2 of the class
    (RecursionError, EXIT_PRECONDITION, "the class has too many parts >= 2 for the border-strip oracle"),
)


def _parse_range(text: str) -> tuple[int, int]:
    """"lo..hi" inclusive, or a single "n"."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise UsageError(f"bad n range: {exc}") from None
    if lo > hi:
        raise UsageError(f"bad n range: empty range {text!r}")
    return lo, hi


def _parse_values(text: str) -> list[int]:
    """"v1,v2,..." as integers; empty items are skipped."""
    try:
        return [int(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"values must be comma-separated integers: {text!r}") from None


def _positive_int(text: str) -> int:
    """An argparse type: a positive integer, else a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _emit(fmt: str, record: dict, plain: Iterable[str]) -> None:
    """Print a command's result in format ``fmt``.

    ``record`` is the JSON object, big integers already decimal strings.  A
    sweep's ``record["rows"]`` is an iterator of row dicts: CSV prints them
    under a header of their keys, one row at a time, and JSON lists them all.
    Plain prints the command's ``plain`` lines, also one at a time.  Only one
    of ``record["rows"]`` and ``plain`` is read, so both may draw on one iterator.
    """
    if fmt == "json":
        if "rows" in record:
            record = {**record, "rows": list(record["rows"])}
        print(json.dumps(record))
    elif fmt == "csv":
        for i, row in enumerate(record["rows"]):
            if i == 0:
                print(",".join(row))
            print(",".join(str(v).lower() if isinstance(v, bool) else str(v) for v in row.values()))
    else:
        for line in plain:
            print(line)


def cmd_char(args) -> int:
    lam = parse_partition(args.lambda_)
    mu = parse_partition(args.mu)
    record = {"lambda": format_partition(lam), "mu": format_partition(mu)}
    if args.check_all:
        values = {}
        for method, route in ROUTES.items():
            try:
                values[method] = route(lam, mu)
            except RowCapExceeded:
                pass
        agree = len(set(values.values())) == 1
        record.update(values={k: str(v) for k, v in values.items()}, agree=agree)
        _emit(args.format, record, (f"{method} {v}" for method, v in values.items()))
        return EXIT_OK if agree else EXIT_MISMATCH
    value = ROUTES[args.method](lam, mu)
    record.update(method=args.method, value=str(value))
    _emit(args.format, record, [record["value"]])
    return EXIT_OK


def cmd_sum(args) -> int:
    mu0 = parse_partition(args.mu0)
    n_lo, n_hi = _parse_range(args.n)

    lemma = sum_A if args.family == "A" else sum_B
    brute = sum_A_bruteforce if args.family == "A" else sum_B_bruteforce
    routes = {"lemma": (lemma,), "brute": (brute,), "both": (lemma, brute)}[args.mode]
    rows = []
    for n in range(n_lo, n_hi + 1):
        value, *checks = [route(mu0, n) for route in routes]
        for check in checks:
            if check != value:
                raise InternalConsistencyError(
                    f"lemma/brute mismatch at n={n}: {value} vs {check}"
                )
        rows.append((n, value))

    record = {
        "family": args.family,
        "mu0": format_partition(mu0),
        "mode": args.mode,
        "rows": ({"n": n, "value": str(v)} for n, v in rows),
    }
    plain = (str(v) if n_lo == n_hi else f"{n} {v}" for n, v in rows)
    _emit(args.format, record, plain)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = verify_theorem(parse_partition(args.mu0), *_parse_range(args.n))
    mu0, mu0p = format_partition(report.mu0), format_partition(report.mu0_prime)
    rows = ({"n": n, "A": str(a), "B": str(b), "holds": 2 * a == b} for n, a, b in report.rows)
    all_hold = report.all_hold
    plain = chain(
        [f"mu0={mu0} mu0_prime={mu0p}"],
        (f"n={r['n']} A={r['A']} B={r['B']} holds={'yes' if r['holds'] else 'no'}" for r in rows),
        [f"all_hold={'yes' if all_hold else 'no'}"],
    )
    _emit(args.format, {"mu0": mu0, "mu0_prime": mu0p, "rows": rows, "all_hold": all_hold}, plain)
    return EXIT_OK if all_hold else EXIT_VERIFY_FAILED


def _fraction(q: Fraction) -> str:
    """An exact rational as JSON prints it: "p/q", also when q is 1."""
    return f"{q.numerator}/{q.denominator}"


def cmd_search(args) -> int:
    for pair in search_pairs(args.K, args.window):
        record = {
            "mu0": format_partition(pair.mu0),
            "mu0_prime": format_partition(pair.mu0_prime),
            "ratio": _fraction(pair.ratio),
            "evidence_n": [pair.n_lo, pair.n_hi],
            "theorem_predicted": pair.theorem_predicted,
        }
        print(json.dumps(record))
    return EXIT_OK


def cmd_fit(args) -> int:
    mu0 = parse_partition(args.mu0)
    fn = fit_closed_form(mu0, args.family)
    record = {
        "family": args.family,
        "mu0": format_partition(mu0),
        "n_lo": mu0.weight(),
        "numerator": [_fraction(c) for c in fn.numerator],
        "denominator": [_fraction(c) for c in fn.denominator],
    }
    print(json.dumps(record))
    return EXIT_OK


def cmd_oeis(args) -> int:
    values = _parse_values(args.values)
    transport = live_transport if args.live else offline_transport
    cache_dir = Path(args.cache_dir) if args.cache_dir else None
    client = OeisClient(transport=transport, cache_dir=cache_dir)
    matches = client.lookup(values, max_results=args.max_results)
    record = {"query": ",".join(str(v) for v in values), "matches": [asdict(m) for m in matches]}
    _emit(args.format, record, (f"{m.sequence_id} {m.name}" for m in matches))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charsum",
        description="Exact character sums over two-rowed and hook shapes: "
        "evaluate, verify the halving identity, search pairs, fit closed forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("char", help="one character value")
    p.add_argument("--lambda", dest="lambda_", required=True, metavar="PARTS")
    p.add_argument("--mu", required=True, metavar="PARTS")
    p.add_argument("--method", choices=list(ROUTES), default="mn")
    p.add_argument("--check-all", action="store_true", help="compare all applicable methods")
    p.add_argument("--format", choices=["plain", "json"], default="plain")
    p.set_defaults(func=cmd_char)

    p = sub.add_parser("sum", help="two-rowed (A) or hook (B) sum of squares")
    p.add_argument("family", choices=["A", "B"])
    p.add_argument("--mu0", required=True, metavar="PARTS")
    p.add_argument("--n", required=True, metavar="N|LO..HI")
    p.add_argument("--mode", choices=["lemma", "brute", "both"], default="lemma")
    p.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("verify", help="check 2*A(mu0)(n) = B(mu0')(n+2) over a range")
    p.add_argument("--mu0", required=True, metavar="PARTS")
    p.add_argument("--n", required=True, metavar="N|LO..HI")
    p.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="find constant-ratio pairs (JSON lines)")
    p.add_argument("--K", type=int, required=True, help="max weight of mu0")
    p.add_argument("--window", type=int, default=DEFAULT_SEARCH_WINDOW)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("fit", help="fit family(n) = C(2n,n) * R(n), R rational")
    p.add_argument("--family", choices=["A", "B"], required=True)
    p.add_argument("--mu0", required=True, metavar="PARTS")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("oeis", help="look an integer sequence up")
    p.add_argument("values", metavar="V1,V2,...")
    p.add_argument("--max-results", type=_positive_int, default=10)
    p.add_argument("--live", action="store_true", help="allow live network lookups")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--format", choices=["plain", "json"], default="plain")
    p.set_defaults(func=cmd_oeis)
    return parser


def _warning_line(message, category, filename, lineno, line=None) -> str:
    """``warnings.formatwarning`` for the CLI: one ``warning:`` line."""
    return f"warning: {message}\n"


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # Exact values outgrow CPython's default 4300-digit int<->str limit (A(3)(n)
    # near n = 7150); lift it for this call only, so importing changes nothing.
    # CPython < 3.10.7 has no limit.
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    saved_format, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        return args.func(args)
    except tuple(cls for cls, _, _ in EXIT_CODES) as exc:
        code, message = next((code, msg) for cls, code, msg in EXIT_CODES if isinstance(exc, cls))
        print(f"error: {message or exc}", file=sys.stderr)
        return code
    finally:
        warnings.formatwarning = saved_format
        if limited:
            sys.set_int_max_str_digits(saved)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`charsum ... | head -1`).  Python flushes
        # stdout again at exit; aim it at devnull so that flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
