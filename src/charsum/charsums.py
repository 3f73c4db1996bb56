"""Sums of squared characters over two-rowed and hook shapes.

Both families admit exact constant-term expressions.  With mu0 = (a_1,...,a_r)
(smallest part >= 2) and n >= |mu0|:

  two-rowed  A(mu0)(n) = -1/2 * [x^(n+1)] (1-x)^2 (1+x)^(2(n-sum a)) prod (1+x^{a_i})^2
  hook       B(mu0)(n) =        [x^(n-1)] (1+x)^(2n-2-2 sum a) prod (x^{a_i}-(-1)^{a_i})(1-(-1)^{a_i} x^{a_i})

Both are one coefficient of (1+x)^e * small(x), where small(x) is a fixed
product of (1 +- x^a) factors of degree about 2|mu0|+2 (for A, the square of
the two-row factor T(x) = (1-x) prod (1+x^{a_i})), built once per (family,
mu0) and cached.  ``FAMILIES`` holds each family's other constants, and
``polyring.binomial_convolution``, shared with ``char_two_row``, is the kernel.

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

from .characters import char_mn, padded_class, two_row_factor
from .partition import (
    Partition,
    check_mu0_n,
    companion_mu_prime,
    format_partition,
    make_partition,
    theorem_form_of,
    theorem_form_reason,
)
from .polyring import IntPoly, binomial_convolution


class InternalConsistencyError(RuntimeError):
    """A value violated an identity the math guarantees (implementation bug)."""


# Distinct (family, mu0) pairs whose small polynomial stays cached; a search
# with K = 16 touches about 600.
SMALL_POLY_CACHE_SIZE = 1024

# family -> (h - |mu0|, top - |mu0|, divisor): with m = n - h, the family's
# sum at n is [x^(m + top)] (1+x)^(2m) small(x) / divisor.
FAMILIES = {"A": (0, 1, -2), "B": (1, 0, 1)}


@lru_cache(maxsize=SMALL_POLY_CACHE_SIZE)
def _small_poly(family: str, parts: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of the fixed factor small(x) of family A or B for mu0."""
    if family == "A":
        t = IntPoly(two_row_factor(parts))
        return (t * t).coeffs
    small = IntPoly((1,))
    for a in parts:
        s = 1 if a % 2 == 0 else -1  # (-1)^a
        small = small * IntPoly([-s] + [0] * (a - 1) + [1])
        small = small * IntPoly([1] + [0] * (a - 1) + [-s])
    return small.coeffs


def _family_sum(family: str, mu0: Partition, n: int) -> int:
    """The family's sum at n, checked to be a non-negative integer."""
    check_mu0_n(mu0, n)
    dh, dtop, divisor = FAMILIES[family]
    m = n - mu0.weight() - dh
    c = binomial_convolution(_small_poly(family, mu0.parts), 2 * m, m + mu0.weight() + dtop)
    value, rem = divmod(c, divisor)
    if rem != 0 or value < 0:
        raise InternalConsistencyError(
            f"{family}(mu0={mu0!r}, n={n}) = {c}/{divisor} is not a non-negative integer"
        )
    return value


def sum_A(mu0: Partition, n: int) -> int:
    """Sum of squared characters over all two-rowed shapes of n."""
    return _family_sum("A", mu0, n)


def sum_B(mu0: Partition, n: int) -> int:
    """Sum of squared characters over all hook shapes of n."""
    return _family_sum("B", mu0, n)


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
