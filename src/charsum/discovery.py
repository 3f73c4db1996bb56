"""Search for constant-ratio pairs and fit closed forms to the sums.

``ratio_test`` decides by cross-multiplication whether A(mu0)(n)/B(mu0')(n+2)
is the same exact rational across a finite evidence window (a window is
evidence, not proof).  ``search_pairs`` reaches the same verdict for all
candidate pairs with a weight gap of 2 at once: it computes each partition's
sequence once and joins the mu0 and mu0' whose gcd-reduced sequences are
equal, and flags the pairs matching the odd-parts-plus-power-run
construction.  Unflagged pairs can be window artefacts: with the default
window, 10 of K = 22's 201 pairs are, each with a part above the window.
``fit_closed_form`` formats the rational function R with
family(n) = C(2n, n) * R(n) that ``charsums.exact_ratio`` derives and checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from .charsums import InternalConsistencyError, exact_ratio, sum_A, sum_B
from .partition import (
    Partition,
    check_mu0_n,
    companion_mu_prime,
    enumerate_partitions,
    theorem_form_of,
)
from .polyring import horner

MIN_RATIO_WINDOW = 4  # n_hi - n_lo (a search's window) must be at least this
DEFAULT_SEARCH_WINDOW = 12


class SearchError(ValueError):
    """Search parameters out of range: K < 2 or window < MIN_RATIO_WINDOW."""


@dataclass(frozen=True)
class TheoremPair:
    """A pair with constant A/B ratio over the inclusive window [n_lo, n_hi]."""

    mu0: Partition
    mu0_prime: Partition
    ratio: Fraction
    n_lo: int
    n_hi: int
    theorem_predicted: bool


def ratio_test(
    mu0: Partition, mu0p: Partition, n_lo: int, n_hi: int
) -> Optional[Fraction]:
    """The constant value of A(mu0)(n)/B(mu0p)(n+2) on [n_lo, n_hi], if any.

    Ratios are compared by cross-multiplication against the first sample
    that is not (0, 0), so zeros never divide.  Returns None when the ratio
    varies, when B vanishes while A does not, or when both sequences are
    identically zero (no information).
    """
    if mu0p.weight() != mu0.weight() + 2:
        raise ValueError(
            f"|mu0_prime| must be |mu0|+2, got {mu0p.weight()} vs {mu0.weight()}"
        )
    check_mu0_n(mu0, n_lo)
    check_mu0_n(mu0p, n_lo + 2)
    if n_hi - n_lo < MIN_RATIO_WINDOW:
        raise ValueError(f"evidence window needs n_hi - n_lo >= {MIN_RATIO_WINDOW}")

    a_ref = b_ref = None
    for n in range(n_lo, n_hi + 1):
        a = sum_A(mu0, n)
        b = sum_B(mu0p, n + 2)
        if a_ref is None:
            if (a, b) == (0, 0):
                continue
            if b == 0:
                return None  # A nonzero against zero B: no finite constant
            a_ref, b_ref = a, b
        elif a * b_ref != b * a_ref:
            return None
    if a_ref is None:
        return None
    return Fraction(a_ref, b_ref)


def _sequence(family: str, mu0: Partition, n_lo: int, n_hi: int) -> tuple[int, tuple[int, ...]]:
    """(g, seq // g), g = gcd(seq), for seq the values over n in [n_lo, n_hi]
    of A(mu0)(n) (family "A") or B(mu0)(n + 2) (family "B").

    Every value is >= 1, because the trivial character contributes 1, so two
    sequences have a constant ratio exactly when their reduced forms are
    equal, and the ratio is then the ratio of their gcds.
    """
    if family == "A":
        seq = [sum_A(mu0, n) for n in range(n_lo, n_hi + 1)]
    else:
        seq = [sum_B(mu0, n + 2) for n in range(n_lo, n_hi + 1)]
    if min(seq) < 1:
        raise InternalConsistencyError(f"family {family} sum below 1 for mu0={mu0!r}")
    g = gcd(*seq)
    return g, tuple(v // g for v in seq)


def search_pairs(K: int, window: int = DEFAULT_SEARCH_WINDOW) -> list[TheoremPair]:
    """All constant-ratio pairs with |mu0| <= K and |mu0'| = |mu0| + 2.

    Every mu0 with smallest part >= 2 (the empty partition included) is
    tested against every same-constraint mu0' of weight |mu0| + 2 over
    n in [|mu0|, |mu0| + window], with the same verdict as ``ratio_test``.
    Each partition's sequence is computed once, and the pairs of a weight
    are found by joining the mu0 on their reduced sequences.  Output order
    is deterministic: weight ascending, then the lexicographic-descending
    enumeration order for mu0 and mu0'.
    """
    if K < 2:
        raise SearchError("K must be >= 2")
    if window < MIN_RATIO_WINDOW:
        raise SearchError(f"window must be >= {MIN_RATIO_WINDOW}")
    pairs = []
    for w in range(K + 1):
        buckets: dict[tuple[int, ...], list[tuple[Partition, int]]] = {}
        for mu0p in enumerate_partitions(w + 2, min_part=2):
            g_b, key = _sequence("B", mu0p, w, w + window)
            buckets.setdefault(key, []).append((mu0p, g_b))
        for mu0 in enumerate_partitions(w, min_part=2):
            g_a, key = _sequence("A", mu0, w, w + window)
            matches = buckets.get(key)
            if not matches:
                continue
            form = theorem_form_of(mu0)
            companion = None if form is None else companion_mu_prime(form)
            for mu0p, g_b in matches:
                pairs.append(
                    TheoremPair(mu0, mu0p, Fraction(g_a, g_b), w, w + window, companion == mu0p)
                )
    return pairs


# ---------------------------------------------------------------------------
# Rational-function fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalFn:
    """Ratio of polynomials in n, exact rational coefficients (low to high).

    Reduced to lowest terms with a monic denominator.
    """

    numerator: tuple[Fraction, ...]
    denominator: tuple[Fraction, ...]

    def __call__(self, n: int) -> Fraction:
        num = horner(self.numerator, n)
        den = horner(self.denominator, n)
        if den == 0:
            raise ZeroDivisionError(f"denominator vanishes at n={n}")
        return num / den


def fit_closed_form(mu0: Partition, family: str) -> RationalFn:
    """Find R with family(mu0)(n) = C(2n, n) * R(n), exactly, for all n.

    R is derived and checked by ``charsums.exact_ratio`` and returned in
    reduced monic-denominator form; its degree, max(deg numerator, deg
    denominator), is at most 2|mu0| + 1.
    """
    num, den = exact_ratio(family, mu0)
    lead = den.coeffs[-1]
    return RationalFn(
        tuple(Fraction(c, lead) for c in num.coeffs),
        tuple(Fraction(c, lead) for c in den.coeffs),
    )
