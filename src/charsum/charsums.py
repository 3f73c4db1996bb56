"""Sums of squared characters over two-rowed and hook shapes.

Both families admit exact constant-term expressions.  With mu0 = (a_1,...,a_r)
(smallest part >= 2) and n >= |mu0|:

  two-rowed  A(mu0)(n) = -1/2 * [x^(n+1)] (1-x)^2 (1+x)^(2(n-sum a)) prod (1+x^{a_i})^2
  hook       B(mu0)(n) =        [x^(n-1)] (1+x)^(2n-2-2 sum a) prod (x^{a_i}-(-1)^{a_i})(1-(-1)^{a_i} x^{a_i})

Both are one coefficient of (1+x)^e * small(x), where small(x) is the fixed
product of (1 +- x^a) factors, of degree about 2|mu0|+2.  ``_constant_term``
serves both: small(x) is built once per (family, mu0) and cached, and the
deg(small)+1 binomials it pairs with come from ``binomial_range``, one
``math.comb`` plus exact ratio steps, instead of one n-digit ``comb`` each.

When 2n-2-2*sum(a) < 0 (exactly the n = |mu0| edge) the binomial factor is
read as a formal power series; the generalized binomial coefficients keep
everything in integers.  The signed expressions are evaluated literally and
the results asserted to be non-negative integers, so a transcription slip in
a sign or the halving surfaces as a hard error instead of a wrong value.

``verify_theorem`` checks 2*A(mu0)(n) = B(mu0')(n+2) over an n-range for a
partition in theorem form, mu0' its companion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .characters import char_mn, padded_class
from .partition import (
    Partition,
    check_mu0_n,
    companion_mu_prime,
    format_partition,
    make_partition,
    theorem_form_of,
    theorem_form_reason,
)
from .polyring import ONE_MINUS_X, IntPoly, binomial_range


class InternalConsistencyError(RuntimeError):
    """A value violated an identity the math guarantees (implementation bug)."""


# Distinct (family, mu0) pairs whose small polynomial stays cached; a search
# with K = 16 touches about 600.
SMALL_POLY_CACHE_SIZE = 1024


@lru_cache(maxsize=SMALL_POLY_CACHE_SIZE)
def _small_poly(family: str, parts: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of the fixed factor small(x) of family A or B for mu0."""
    if family == "A":
        small = ONE_MINUS_X * ONE_MINUS_X
        for a in parts:
            f = IntPoly([1] + [0] * (a - 1) + [1])
            small = small * f * f
    else:
        small = IntPoly((1,))
        for a in parts:
            s = 1 if a % 2 == 0 else -1  # (-1)^a
            small = small * IntPoly([-s] + [0] * (a - 1) + [1])
            small = small * IntPoly([1] + [0] * (a - 1) + [-s])
    return small.coeffs


def _constant_term(family: str, mu0: Partition, e: int, target: int) -> int:
    """[x^target] (1+x)^e * small(x), expanding (1+x)^e as a binomial series.

    ``small`` has non-negative exponents only, so series terms beyond
    x^target can never contribute: the truncation order is exact.
    """
    small = _small_poly(family, mu0.parts)
    binoms = binomial_range(e, target - len(small) + 1, target)
    return sum(c * b for c, b in zip(small, reversed(binoms)) if c)


def sum_A(mu0: Partition, n: int) -> int:
    """Sum of squared characters over all two-rowed shapes of n."""
    check_mu0_n(mu0, n)
    c = _constant_term("A", mu0, 2 * (n - mu0.weight()), n + 1)
    value, rem = divmod(-c, 2)
    if rem != 0:
        raise InternalConsistencyError(
            f"two-rowed coefficient {c} for mu0={mu0!r}, n={n} is odd"
        )
    if value < 0:
        raise InternalConsistencyError(
            f"two-rowed sum came out negative ({value}) for mu0={mu0!r}, n={n}"
        )
    return value


def sum_B(mu0: Partition, n: int) -> int:
    """Sum of squared characters over all hook shapes of n."""
    check_mu0_n(mu0, n)
    value = _constant_term("B", mu0, 2 * n - 2 - 2 * mu0.weight(), n - 1)
    if value < 0:
        raise InternalConsistencyError(
            f"hook sum came out negative ({value}) for mu0={mu0!r}, n={n}"
        )
    return value


def sum_A_bruteforce(mu0: Partition, n: int) -> int:
    """A by definition: squared border-strip characters over (n-j, j)."""
    cls = padded_class(mu0, n)
    total = 0
    for j in range(n // 2 + 1):
        shape = make_partition([p for p in (n - j, j) if p > 0])
        total += char_mn(shape, cls) ** 2
    return total


def sum_B_bruteforce(mu0: Partition, n: int) -> int:
    """B by definition: squared border-strip characters over (j, 1^(n-j))."""
    cls = padded_class(mu0, n)
    total = 0
    for j in range(1, n + 1):
        shape = make_partition([j] + [1] * (n - j))
        total += char_mn(shape, cls) ** 2
    return total


@dataclass(frozen=True)
class VerificationReport:
    """Per-n evidence for 2*A(mu0)(n) = B(mu0')(n+2) over [n_lo, n_hi]."""

    mu0: Partition
    mu0_prime: Partition
    n_lo: int
    n_hi: int
    rows: tuple[tuple[int, int, int], ...]  # (n, A(n), B(n+2))
    all_hold: bool

    def to_json_dict(self) -> dict:
        return {
            "mu0": format_partition(self.mu0),
            "mu0_prime": format_partition(self.mu0_prime),
            "rows": [
                {"n": n, "A": str(a), "B": str(b), "holds": 2 * a == b}
                for n, a, b in self.rows
            ],
            "all_hold": self.all_hold,
        }


def verify_theorem(mu0: Partition, n_lo: int, n_hi: int) -> VerificationReport:
    """Check 2*A(mu0)(n) = B(mu0')(n+2) exactly for every n in [n_lo, n_hi]."""
    form = theorem_form_of(mu0)
    if form is None:
        raise ValueError(f"not theorem form: {theorem_form_reason(mu0)}")
    if not mu0.weight() <= n_lo <= n_hi:
        raise ValueError(f"need |mu0| <= n_lo <= n_hi, got {mu0.weight()}, {n_lo}, {n_hi}")
    mu0p = companion_mu_prime(form)
    rows = []
    all_hold = True
    for n in range(n_lo, n_hi + 1):
        a = sum_A(mu0, n)
        b = sum_B(mu0p, n + 2)
        rows.append((n, a, b))
        if 2 * a != b:
            all_hold = False
    return VerificationReport(mu0, mu0p, n_lo, n_hi, tuple(rows), all_hold)
