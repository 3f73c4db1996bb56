"""Search for constant-ratio pairs and fit closed forms to the sums.

``ratio_test`` decides by cross-multiplication whether A(mu0)(n)/B(mu0')(n+2)
is the same exact rational across a finite evidence window (a window is
evidence, not proof).  ``search_pairs`` reaches the same verdict for all
candidate pairs with a weight gap of 2 at once: it computes each partition's
sequence once and joins the mu0 and mu0' whose gcd-reduced sequences are
equal, and flags the pairs matching the odd-parts-plus-power-run
construction.  ``fit_closed_form`` writes down the rational function R with
family(n) = C(2n, n) * R(n) from the constant-term formula, each term being
a product of linear factors in n, and checks it against the lemma at the
D + 4 points n = |mu0| .. |mu0| + D + 3, D its degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Callable, Optional

from .charsums import FAMILIES, InternalConsistencyError, _small_poly, sum_A, sum_B
from .partition import (
    Partition,
    check_mu0_n,
    companion_mu_prime,
    enumerate_partitions,
    format_partition,
    theorem_form_of,
)
from .polyring import IntPoly

MIN_RATIO_WINDOW = 3  # n_hi - n_lo must be at least this
DEFAULT_SEARCH_WINDOW = 12


class SearchError(ValueError):
    """Search parameters out of range: K < 2 or window < 4."""


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
    if window < 4:
        raise SearchError("window must be >= 4")
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
        num = _eval(self.numerator, n)
        den = _eval(self.denominator, n)
        if den == 0:
            raise ZeroDivisionError(f"denominator vanishes at n={n}")
        return num / den


def _eval(cs, n: int):
    """Horner evaluation of coefficients listed low to high."""
    total = 0
    for c in reversed(cs):
        total = total * n + c
    return total


def _divide_linear(cs: tuple[int, ...], a: int, b: int) -> Optional[list[int]]:
    """The integer quotient of sum cs[k] n^k by a*n + b, or None if it leaves a
    remainder.  With gcd(a, b) = 1, Gauss's lemma makes every step an exact
    integer division whenever a*n + b divides the polynomial over Q.
    """
    q = [0] * (len(cs) - 1)
    carry = cs[-1]
    for k in range(len(cs) - 2, -1, -1):
        q[k], rem = divmod(carry, a)
        if rem:
            return None
        carry = cs[k] - b * q[k]
    return q if carry == 0 else None


def _family_fn(family: str) -> Callable[[Partition, int], int]:
    if family == "A":
        return sum_A
    if family == "B":
        return sum_B
    raise ValueError(f"family must be 'A' or 'B', got {family!r}")


def _exact_ratio(family: str, mu0: Partition) -> tuple[IntPoly, IntPoly]:
    """R(n) = family(mu0)(n) / C(2n, n) as (numerator, denominator) in lowest terms.

    With h and the divisor from ``FAMILIES`` and m = n - h, the family is
    sum_j c_j C(2m, m + s_j) / divisor over the coefficients c_j of small(x),
    where s_j = top - j and top = deg small / 2.  small is palindromic, so
    the terms at s and -s are equal.  Over C(2n, n) each term is a product
    of linear factors in n:

      C(2m, m) / C(2n, n)     = prod_{t=0..h-1} (n - t) / (2 (2(n - t) - 1))
      C(2m, m + s) / C(2m, m) = prod_{i=1..|s|} (m - i + 1) / (m + i)

    so over the common denominator
    divisor * 2^h prod_t (2n - 2t - 1) prod_{i<=top} (m + i),
    numerator and denominator are integer polynomials of degree at most
    2|mu0| + 1.  The denominator's linear factors are distinct, so dropping
    each one that divides the numerator leaves R in lowest terms.
    """
    dh, divisor = FAMILIES[family]
    h = mu0.weight() + dh
    small = _small_poly(family, mu0.parts)
    top = len(small) // 2
    total = [0] * (top + 1)
    for s, c in enumerate(small[top:]):
        if not c:
            continue
        term = IntPoly((c if s == 0 else 2 * c,))
        for i in range(1, s + 1):
            term = term * IntPoly((1 - i - h, 1))  # m - i + 1
        for i in range(s + 1, top + 1):
            term = term * IntPoly((i - h, 1))  # m + i
        for k, v in enumerate(term.coeffs):
            total[k] += v
    num = IntPoly(total)
    for t in range(h):
        num = num * IntPoly((-t, 1))
    # linear factors a*n + b of the denominator, as (b, a)
    factors = [(-2 * t - 1, 2) for t in range(h)] + [(i - h, 1) for i in range(1, top + 1)]
    den = IntPoly((divisor * 2**h,))
    for b, a in factors:
        quotient = _divide_linear(num.coeffs, a, b)
        if quotient is None:
            den = den * IntPoly((b, a))
        else:
            num = IntPoly(quotient)
    return num, den


def fit_closed_form(mu0: Partition, family: str) -> RationalFn:
    """Find R with family(mu0)(n) = C(2n, n) * R(n), exactly, for all n.

    R is derived from the constant-term formula (``_exact_ratio``) and
    returned in reduced monic-denominator form; its degree,
    max(deg numerator, deg denominator) = D, is at most 2|mu0| + 1.  As a
    check on the derivation, R(n) * C(2n, n) must equal the lemma's value at
    every n in [|mu0|, |mu0| + D + 3]; a mismatch is an
    InternalConsistencyError.
    """
    n_lo = mu0.weight()
    check_mu0_n(mu0, n_lo)
    value = _family_fn(family)
    num, den = _exact_ratio(family, mu0)
    for n in range(n_lo, n_lo + max(num.degree, den.degree) + 4):
        d = _eval(den.coeffs, n)
        if d == 0 or _eval(num.coeffs, n) * comb(2 * n, n) != value(mu0, n) * d:
            raise InternalConsistencyError(
                f"derived R(n) * C(2n, n) differs from {family}(n) at n={n}"
                f" for mu0={format_partition(mu0) or 'empty'}"
            )
    lead = den.coeffs[-1]
    return RationalFn(
        tuple(Fraction(c, lead) for c in num.coeffs),
        tuple(Fraction(c, lead) for c in den.coeffs),
    )
