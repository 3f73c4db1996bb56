"""Command-line front end: char, sum, verify, search, fit, oeis.

Outputs are deterministic given flags and fixtures.  Big integers are always
printed as decimal strings in JSON so consumers never overflow.  Exit codes:

  0    success (for verify: every n in the range holds)
  1    verify ran and the identity failed for some n
  2    usage errors: unknown flags, malformed partitions/ranges/value lists
  3    domain preconditions: weight mismatch, n below |mu0|, a part equal to 1,
       not theorem form, j out of range, row cap exceeded, too few OEIS terms
  4    internal cross-check mismatch (sum --mode both, char --check-all,
       or a value breaking an identity the maths guarantees, in any command)
  5    search parameters out of range (K < 2, window < 4)
  6    no fit within the degree cap
  7    OEIS lookup failures (network disabled/unreachable, malformed response)
  141  stdout was closed before the output was written (128 + SIGPIPE)

Each command raises and ``main`` maps the exception to its code through
``EXIT_CODES``, printing one ``error:`` line to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .characters import DEFAULT_ROW_CAP, char_ct, char_mn, char_two_row
from .charsums import (
    InternalConsistencyError,
    sum_A,
    sum_A_bruteforce,
    sum_B,
    sum_B_bruteforce,
    verify_theorem,
)
from .discovery import FitError, SearchError, fit_closed_form, search_pairs
from .oeis import OeisClient, OeisError, live_transport, offline_transport
from .partition import Partition, PartitionFormatError, format_partition, parse_partition

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_MISMATCH = 4
EXIT_SEARCH = 5
EXIT_FIT = 6
EXIT_NETWORK = 7
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process killed by it


class UsageError(Exception):
    """A malformed range or value list on the command line."""


# The exit code of each exception a command may raise.  The first class that
# matches wins, so every subclass of ValueError comes before ValueError.
EXIT_CODES: tuple[tuple[type[Exception], int], ...] = (
    (PartitionFormatError, EXIT_USAGE),
    (UsageError, EXIT_USAGE),
    (InternalConsistencyError, EXIT_MISMATCH),
    (SearchError, EXIT_SEARCH),
    (FitError, EXIT_FIT),
    (OeisError, EXIT_NETWORK),
    (ValueError, EXIT_PRECONDITION),
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


def _jobs(text: str) -> int:
    """A --jobs value: a positive integer, capped at the machine's CPU count."""
    return min(_positive_int(text), os.cpu_count() or 1)


def cmd_char(args) -> int:
    lam = parse_partition(args.lambda_)
    mu = parse_partition(args.mu)

    def tworow_value() -> int:
        if len(lam) > 2:
            raise ValueError("tworow method needs a shape with at most 2 rows")
        if lam.weight() != mu.weight():
            raise ValueError(
                f"weight mismatch: |lambda|={lam.weight()} but |mu|={mu.weight()}"
            )
        n = lam.weight()
        j = lam[1] if len(lam) == 2 else 0
        mu0 = Partition([p for p in mu if p > 1])
        return char_two_row(n, j, mu0)

    evaluators = {
        "mn": lambda: char_mn(lam, mu),
        "ct": lambda: char_ct(lam, mu, max_rows=args.row_cap),
        "tworow": tworow_value,
    }
    if args.check_all:
        values = {"mn": evaluators["mn"]()}
        if len(lam) <= args.row_cap:
            values["ct"] = evaluators["ct"]()
        if len(lam) <= 2:
            values["tworow"] = evaluators["tworow"]()
        agree = len(set(values.values())) == 1
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "lambda": format_partition(lam),
                        "mu": format_partition(mu),
                        "values": {k: str(v) for k, v in values.items()},
                        "agree": agree,
                    }
                )
            )
        else:
            for method, v in values.items():
                print(f"{method} {v}")
        return EXIT_OK if agree else EXIT_MISMATCH
    value = evaluators[args.method]()
    if args.format == "json":
        print(
            json.dumps(
                {
                    "lambda": format_partition(lam),
                    "mu": format_partition(mu),
                    "method": args.method,
                    "value": str(value),
                }
            )
        )
    else:
        print(value)
    return EXIT_OK


def cmd_sum(args) -> int:
    mu0 = parse_partition(args.mu0)
    n_lo, n_hi = _parse_range(args.n)

    lemma = sum_A if args.family == "A" else sum_B
    brute = sum_A_bruteforce if args.family == "A" else sum_B_bruteforce
    rows = []
    for n in range(n_lo, n_hi + 1):
        if args.mode == "lemma":
            value = lemma(mu0, n)
        elif args.mode == "brute":
            value = brute(mu0, n)
        else:
            value = lemma(mu0, n)
            check = brute(mu0, n)
            if value != check:
                raise InternalConsistencyError(
                    f"lemma/brute mismatch at n={n}: {value} vs {check}"
                )
        rows.append((n, value))

    if args.format == "json":
        print(
            json.dumps(
                {
                    "family": args.family,
                    "mu0": format_partition(mu0),
                    "mode": args.mode,
                    "rows": [{"n": n, "value": str(v)} for n, v in rows],
                }
            )
        )
    elif args.format == "csv":
        print("n,value")
        for n, v in rows:
            print(f"{n},{v}")
    else:
        if n_lo == n_hi:
            print(rows[0][1])
        else:
            for n, v in rows:
                print(f"{n} {v}")
    return EXIT_OK


def cmd_verify(args) -> int:
    report = verify_theorem(parse_partition(args.mu0), *_parse_range(args.n))

    if args.format == "json":
        print(json.dumps(report.to_json_dict()))
    elif args.format == "csv":
        print("n,A,B,holds")
        for n, a, b in report.rows:
            print(f"{n},{a},{b},{'true' if 2 * a == b else 'false'}")
    else:
        print(
            f"mu0={format_partition(report.mu0)} "
            f"mu0_prime={format_partition(report.mu0_prime)}"
        )
        for n, a, b in report.rows:
            holds = "yes" if 2 * a == b else "no"
            print(f"n={n} A={a} B={b} holds={holds}")
        print(f"all_hold={'yes' if report.all_hold else 'no'}")
    return EXIT_OK if report.all_hold else EXIT_VERIFY_FAILED


def cmd_search(args) -> int:
    for pair in search_pairs(args.K, args.window, jobs=args.jobs):
        print(json.dumps(pair.to_json_dict()))
    return EXIT_OK


def cmd_fit(args) -> int:
    mu0 = parse_partition(args.mu0)
    n_lo = args.n_lo if args.n_lo is not None else mu0.weight()
    fn = fit_closed_form(mu0, args.family, n_lo=n_lo, degree_cap=args.degree_cap)
    out = {"family": args.family, "mu0": format_partition(mu0), "n_lo": n_lo}
    out.update(fn.to_json_dict())
    print(json.dumps(out))
    return EXIT_OK


def cmd_oeis(args) -> int:
    values = _parse_values(args.values)
    transport = live_transport if args.live else offline_transport
    cache_dir = Path(args.cache_dir) if args.cache_dir else None
    client = OeisClient(transport=transport, cache_dir=cache_dir)
    matches = client.lookup(values, max_results=args.max_results)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "query": ",".join(str(v) for v in values),
                    "matches": [m.to_json_dict() for m in matches],
                }
            )
        )
    else:
        for m in matches:
            print(f"{m.sequence_id} {m.name}")
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
    p.add_argument("--method", choices=["mn", "ct", "tworow"], default="mn")
    p.add_argument("--check-all", action="store_true", help="compare all applicable methods")
    p.add_argument("--row-cap", type=int, default=DEFAULT_ROW_CAP)
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
    p.add_argument("--window", type=int, default=12)
    p.add_argument("--jobs", type=_jobs, default=1)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("fit", help="fit family(n) = C(2n,n) * R(n), R rational")
    p.add_argument("--family", choices=["A", "B"], required=True)
    p.add_argument("--mu0", required=True, metavar="PARTS")
    p.add_argument("--n-lo", type=int, default=None)
    p.add_argument("--degree-cap", type=int, default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("oeis", help="look an integer sequence up")
    p.add_argument("values", metavar="V1,V2,...")
    p.add_argument("--max-results", type=_positive_int, default=10)
    p.add_argument("--live", action="store_true", help="allow live network lookups")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--format", choices=["plain", "json"], default="plain")
    p.set_defaults(func=cmd_oeis)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # Exact values outgrow CPython's default 4300-digit int<->str limit (A(3)(n)
    # near n = 7150); lift it for this call only, so importing changes nothing.
    # CPython < 3.10.7 has no limit.
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))
    finally:
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
