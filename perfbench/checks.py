"""Check each op's output without trusting the program's own cross-checks.

``check(argv, code, out, err)`` returns None when an op did what was asked
and its output is right, or a one-line reason when it is not.

- ``verify``: the rows are exactly the requested n values and ``2*A == B``
  holds for the printed integers (the ``holds`` column is not trusted).
- ``search``: every record is well formed, ``theorem_predicted`` is right,
  and every theorem-form mu0 of weight <= K is reported with its companion
  and ratio 1/2.  Theorem forms are enumerated here, not by the program.
- ``fit``: R(n) * C(2n, n) equals ``charsum.sum_A``/``sum_B``, evaluated in
  this process, at three n past any window the fit could have used.
- ``sum``: exit 0 (the program exits 4 when lemma and brute force
  disagree), the requested rows, and each value equal to the lemma
  evaluated in this process.

The ``fit`` and ``sum`` checks import ``charsum``; the caller puts the
checkout's ``src`` on ``sys.path`` first.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from math import comb


def check(argv: list[str], code: int, out: bytes, err: bytes) -> str | None:
    """None if the op's output is right, else why it is not."""
    if b"Traceback (most recent call last)" in err:
        last = err.decode(errors="replace").strip().splitlines()[-1]
        return f"traceback: {last[:200]}"
    if code != 0:
        return f"exit code {code}"
    # A(n) has more than 4300 digits from n ~ 7150 on.
    sys.set_int_max_str_digits(0)
    try:
        text = out.decode()
        return _CHECKERS[argv[0]](argv, text)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def _opt(argv: list[str], flag: str, default: str | None = None) -> str:
    if flag in argv:
        return argv[argv.index(flag) + 1]
    if default is None:
        raise KeyError(flag)
    return default


def _range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    return int(lo), int(hi or lo)


def _parts(text: str) -> tuple[int, ...]:
    return tuple(sorted((int(t) for t in text.split(",") if t.strip()), reverse=True))


def _fmt(parts: tuple[int, ...]) -> str:
    return ",".join(map(str, parts))


def _check_verify(argv: list[str], text: str) -> str | None:
    lo, hi = _range(_opt(argv, "--n"))
    lines = text.splitlines()
    if not lines or lines[0] != "n,A,B,holds":
        return "missing csv header"
    rows = lines[1:]
    if len(rows) != hi - lo + 1:
        return f"{len(rows)} rows, expected {hi - lo + 1}"
    for want_n, row in zip(range(lo, hi + 1), rows):
        n_s, a_s, b_s, holds = row.split(",")
        n, a, b = int(n_s), int(a_s), int(b_s)
        if n != want_n:
            return f"row for n={n}, expected n={want_n}"
        if a < 1 or 2 * a != b:
            return f"2*A != B at n={n}"
        if holds != "true":
            return f"holds column reads {holds!r} at n={n}"
    return None


def partitions(n: int, min_part: int = 2, cap: int | None = None):
    """Partitions of n into parts >= min_part, parts non-increasing."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, n if cap is None else cap), min_part - 1, -1):
        for rest in partitions(n - k, min_part, k):
            yield (k, *rest)


def companion(parts: tuple[int, ...]) -> tuple[int, ...] | None:
    """mu0' for a theorem-form mu0 (odd parts >= 3 plus 2, 4, ..., 2^(t-1)), else None."""
    if any(p < 2 for p in parts):
        return None
    evens = sorted(p for p in parts if p % 2 == 0)
    if evens != [2**j for j in range(1, len(evens) + 1)]:
        return None
    odds = [p for p in parts if p % 2]
    return tuple(sorted(odds + [2 ** (len(evens) + 1)], reverse=True))


_PAIR_KEYS = {"mu0", "mu0_prime", "ratio", "evidence_n", "theorem_predicted"}


def _check_search(argv: list[str], text: str) -> str | None:
    k_max = int(_opt(argv, "--K"))
    window = int(_opt(argv, "--window", "12"))
    found = set()
    for line in text.splitlines():
        rec = json.loads(line)
        if set(rec) != _PAIR_KEYS:
            return f"record keys {sorted(rec)}"
        mu0, mu0p = _parts(rec["mu0"]), _parts(rec["mu0_prime"])
        w = sum(mu0)
        if w > k_max or sum(mu0p) != w + 2:
            return f"weights {w}, {sum(mu0p)} out of range"
        if rec["evidence_n"] != [w, w + window]:
            return f"evidence_n {rec['evidence_n']} for weight {w}"
        predicted = companion(mu0) == mu0p
        if rec["theorem_predicted"] is not predicted:
            return f"theorem_predicted wrong for {rec['mu0']!r} -> {rec['mu0_prime']!r}"
        found.add((rec["mu0"], rec["mu0_prime"], rec["ratio"], predicted))
    for w in range(k_max + 1):
        for mu0 in partitions(w):
            mu0p = companion(mu0)
            if mu0p is not None and (_fmt(mu0), _fmt(mu0p), "1/2", True) not in found:
                return f"theorem pair {_fmt(mu0)!r} -> {_fmt(mu0p)!r} missing"
    return None


def _lemma(family: str):
    import charsum

    return charsum.sum_A if family == "A" else charsum.sum_B


def _poly(cs: list[Fraction], n: int) -> Fraction:
    total = Fraction(0)
    for c in reversed(cs):
        total = total * n + c
    return total


def _check_fit(argv: list[str], text: str) -> str | None:
    import charsum

    family, mu0_text = _opt(argv, "--family"), _opt(argv, "--mu0")
    rec = json.loads(text)
    mu0 = charsum.parse_partition(mu0_text)
    if rec["family"] != family or _parts(rec["mu0"]) != _parts(mu0_text):
        return f"fit answers {rec['family']} {rec['mu0']!r}, asked {family} {mu0_text!r}"
    num = [Fraction(c) for c in rec["numerator"]]
    den = [Fraction(c) for c in rec["denominator"]]
    # The default degree cap 2|mu0| + 4 bounds the fit's training and
    # held-out window (3d + 6 samples, plus shifts), so these n are new.
    past = int(rec["n_lo"]) + 3 * (2 * mu0.weight() + 4) + 17
    value = _lemma(family)
    for n in (past, past + 13, past + 41):
        if _poly(num, n) * comb(2 * n, n) != value(mu0, n) * _poly(den, n):
            return f"R(n)*C(2n,n) != {family}(n) at n={n}"
    return None


def _check_sum(argv: list[str], text: str) -> str | None:
    import charsum

    family = argv[1]
    mu0 = charsum.parse_partition(_opt(argv, "--mu0"))
    lo, hi = _range(_opt(argv, "--n"))
    lines = text.splitlines()
    if lo == hi:
        rows = [(lo, lines[0])] if len(lines) == 1 else []
    else:
        rows = [tuple(line.split(" ")) for line in lines]
    if len(rows) != hi - lo + 1:
        return f"{len(rows)} rows, expected {hi - lo + 1}"
    value = _lemma(family)
    for want_n, (n, v) in zip(range(lo, hi + 1), rows):
        if int(n) != want_n:
            return f"row for n={n}, expected n={want_n}"
        if int(v) != value(mu0, want_n):
            return f"{family}(n) wrong at n={want_n}"
    return None


_CHECKERS = {
    "verify": _check_verify,
    "search": _check_search,
    "fit": _check_fit,
    "sum": _check_sum,
}


def work(argv: list[str]) -> dict[str, int]:
    """The work one op asks for, by the unit each subcommand counts in."""
    if argv[0] == "verify":
        lo, hi = _range(_opt(argv, "--n"))
        return {"n_verified": hi - lo + 1}
    if argv[0] == "search":
        k_max = int(_opt(argv, "--K"))
        count = [sum(1 for _ in partitions(w)) for w in range(k_max + 3)]
        return {"candidate_pairs": sum(count[w] * count[w + 2] for w in range(k_max + 1))}
    if argv[0] == "fit":
        return {"fits": 1}
    lo, hi = _range(_opt(argv, "--n"))
    per_n = (lambda n: n // 2 + 1) if argv[1] == "A" else (lambda n: n)
    return {"brute_force_terms": sum(per_n(n) for n in range(lo, hi + 1))}
