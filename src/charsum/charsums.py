"""Sums of squared characters over two-rowed and hook shapes.

Each family's characters are the coefficients of one polynomial, so its sum
is a squared norm.  With mu0 = (a_1,...,a_r) (smallest part >= 2), n >= |mu0|
and ||g||^2 = [x^deg g] g(x) g~(x), g~(x) = x^(deg g) g(1/x):

  two-rowed  A(mu0)(n) = 1/2 ||(1+x)^(n-sum a) T(x)||^2,    T(x) = (1-x) prod (1+x^{a_i})
  hook       B(mu0)(n) =     ||(1+x)^(n-sum a-1) U(x)||^2,  U(x) = prod (1-(-x)^{a_i})

(``characters`` says which coefficient is which character.)  A's norm
counts each character twice, because the two-row polynomial P has
c_j = -c_{n+1-j}; hence its divisor 2.  Since (1+x)^e is its own reversal,
each norm is one coefficient of (1+x)^(2e) * f(x) f~(x) with f = T or U.
That small polynomial f f~ is palindromic of degree 2 deg f, built once per
(family, mu0) and cached; ``FAMILIES`` holds each family's other constants,
and ``polyring.binomial_convolution``, shared with ``char_two_row``, is the
kernel.

When 2n-2-2*sum(a) < 0 (exactly the n = |mu0| edge) the binomial factor is
read as a formal power series; the generalized binomial coefficients keep
everything in integers.  The results are asserted to be non-negative
integers, so a slip in a factor or the halving surfaces as a hard error
instead of a wrong value.

``verify_theorem`` checks 2*A(mu0)(n) = B(mu0')(n+2) over an n-range for a
partition in theorem form, mu0' its companion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .characters import char_mn, hook_factor, padded_class, two_row_factor
from .partition import (
    Partition,
    check_mu0_n,
    companion_mu_prime,
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

# family -> (h - |mu0|, divisor): with m = n - h and small(x) = f(x) f~(x),
# the family's sum at n is [x^(m + deg f)] (1+x)^(2m) small(x) / divisor.
FAMILIES = {"A": (0, 2), "B": (1, 1)}


@lru_cache(maxsize=SMALL_POLY_CACHE_SIZE)
def _small_poly(family: str, parts: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of f(x) f~(x), f the character factor of family A or B for mu0."""
    f = (two_row_factor if family == "A" else hook_factor)(parts)
    return (IntPoly(f) * IntPoly(reversed(f))).coeffs


def _family_sum(family: str, mu0: Partition, n: int) -> int:
    """The family's sum at n, checked to be a non-negative integer."""
    check_mu0_n(mu0, n)
    dh, divisor = FAMILIES[family]
    m = n - mu0.weight() - dh
    small = _small_poly(family, mu0.parts)
    c = binomial_convolution(small, 2 * m, m + len(small) // 2)
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


def _bruteforce(mu0: Partition, n: int, shapes) -> int:
    """Squared border-strip characters on mu0's padded class, summed over ``shapes``."""
    cls = padded_class(mu0, n)
    return sum(char_mn(make_partition(shape), cls) ** 2 for shape in shapes)


def sum_A_bruteforce(mu0: Partition, n: int) -> int:
    """A by definition: squared border-strip characters over (n-j, j)."""
    return _bruteforce(mu0, n, ([p for p in (n - j, j) if p] for j in range(n // 2 + 1)))


def sum_B_bruteforce(mu0: Partition, n: int) -> int:
    """B by definition: squared border-strip characters over (j, 1^(n-j))."""
    return _bruteforce(mu0, n, ([j] + [1] * (n - j) for j in range(1, n + 1)))


@dataclass(frozen=True)
class VerificationReport:
    """Per-n evidence for 2*A(mu0)(n) = B(mu0')(n+2)."""

    mu0: Partition
    mu0_prime: Partition
    rows: tuple[tuple[int, int, int], ...]  # (n, A(n), B(n+2))

    @property
    def all_hold(self) -> bool:
        return all(2 * a == b for _, a, b in self.rows)


def verify_theorem(mu0: Partition, n_lo: int, n_hi: int) -> VerificationReport:
    """Check 2*A(mu0)(n) = B(mu0')(n+2) exactly for every n in [n_lo, n_hi]."""
    form = theorem_form_of(mu0)
    if form is None:
        raise ValueError(f"not theorem form: {theorem_form_reason(mu0)}")
    if not mu0.weight() <= n_lo <= n_hi:
        raise ValueError(f"need |mu0| <= n_lo <= n_hi, got {mu0.weight()}, {n_lo}, {n_hi}")
    mu0p = companion_mu_prime(form)
    rows = tuple((n, sum_A(mu0, n), sum_B(mu0p, n + 2)) for n in range(n_lo, n_hi + 1))
    return VerificationReport(mu0, mu0p, rows)
