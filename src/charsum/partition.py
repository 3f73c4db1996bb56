"""Integer partitions, their enumeration, and the odd-parts-plus-power-run form.

A partition is stored as a non-increasing tuple of positive integers.  The
special "theorem form" decomposes a partition with smallest part >= 2 into a
multiset of odd parts >= 3 together with a run of consecutive powers of two
2, 4, ..., 2^(t-1) (empty when t = 1).  Its companion replaces the run by the
single part 2^t, raising the weight by exactly 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ge
from typing import Iterable, Iterator, Optional


class PartitionFormatError(ValueError):
    """Raised when a partition string cannot be tokenized."""


@dataclass(frozen=True)
class Partition:
    """Immutable non-increasing sequence of positive integers."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = tuple(self.parts)
        # checked at C speed; the loops only word the error
        if parts and not (
            set(map(type, parts)) == {int} and parts[-1] >= 1 and all(map(ge, parts, parts[1:]))
        ):
            for p in parts:
                if isinstance(p, bool) or not isinstance(p, int) or p < 1:
                    raise ValueError(f"partition parts must be positive integers, got {p!r}")
            for a, b in zip(parts, parts[1:]):
                if a < b:
                    raise ValueError(f"parts must be non-increasing, got {parts}")
        object.__setattr__(self, "parts", parts)

    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __str__(self) -> str:
        return format_partition(self)


@dataclass(frozen=True)
class TheoremForm:
    """Decomposition into odd parts >= 3 plus the power run 2, ..., 2^(t-1).

    ``odd_parts`` is non-increasing; ``t >= 1`` and t = 1 means the run is
    empty (all parts odd).
    """

    odd_parts: tuple[int, ...]
    t: int


def make_partition(raw: Iterable[int]) -> Partition:
    """Sort arbitrary positive integers into a partition (non-increasing)."""
    return Partition(sorted(raw, reverse=True))


def parse_partition(text: str) -> Partition:
    """Parse "5,4,3,2" (any order, spaces allowed); "" is the empty partition."""
    text = text.strip()
    if not text:
        return Partition()
    raw = []
    for token in text.split(","):
        token = token.strip()
        try:
            raw.append(int(token))
        except ValueError:
            raise PartitionFormatError(f"not an integer part: {token!r}") from None
    return make_partition(raw)


def format_partition(p: Partition) -> str:
    """Comma-separated parts; the empty partition formats as ""."""
    return ",".join(str(x) for x in p.parts)


def enumerate_partitions(n: int, min_part: int = 1) -> Iterator[Partition]:
    """All partitions of n with every part >= min_part.

    Deterministic lexicographic-descending order on part sequences, e.g.
    (4), (3,1), (2,2), (2,1,1), (1,1,1,1) for n = 4, min_part = 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if min_part < 1:
        raise ValueError("min_part must be >= 1")

    def rec(remaining: int, cap: int, prefix: list[int]) -> Iterator[Partition]:
        if remaining == 0:
            yield Partition(prefix)
            return
        for k in range(min(remaining, cap), min_part - 1, -1):
            prefix.append(k)
            yield from rec(remaining - k, k, prefix)
            prefix.pop()

    yield from rec(n, n, [])


def check_mu0_n(mu0: Partition, n: int) -> None:
    """The precondition of every sum and two-row value: parts >= 2, n >= |mu0|."""
    if any(p == 1 for p in mu0):
        raise ValueError("mu0 must have smallest part >= 2")
    if n < mu0.weight():
        raise ValueError(f"n={n} is below |mu0|={mu0.weight()}")


def theorem_form_reason(mu0: Partition) -> Optional[str]:
    """The first theorem-form condition mu0 fails, or None if it is theorem form."""
    if any(p == 1 for p in mu0):
        return "part equal to 1"
    evens = sorted(p for p in mu0 if p % 2 == 0)
    if len(set(evens)) != len(evens):
        return "duplicate even part"
    for p in evens:
        if p & (p - 1) != 0:
            return f"even part {p} is not a power of 2"
    if evens != [2**j for j in range(1, len(evens) + 1)]:
        return "even parts are not the consecutive run 2, 4, ..., 2^(t-1)"
    return None


def theorem_form_of(mu0: Partition) -> Optional[TheoremForm]:
    """Decompose mu0 into odd parts >= 3 plus a run 2, 4, ..., 2^(t-1).

    Returns None unless the even parts are exactly the consecutive powers of
    two starting at 2, each appearing once (no even parts means t = 1).  Any
    part equal to 1 disqualifies.  The empty partition is accepted (t = 1,
    no odd parts).
    """
    if theorem_form_reason(mu0) is not None:
        return None
    odds = tuple(p for p in mu0 if p % 2 == 1)
    return TheoremForm(odd_parts=odds, t=len(mu0) - len(odds) + 1)


def companion_mu_prime(form: TheoremForm) -> Partition:
    """Sort(odd_parts + [2^t]); weight is the source weight plus 2."""
    return make_partition(list(form.odd_parts) + [2**form.t])
