"""Exact univariate polynomials and binomial coefficients over the integers.

``IntPoly`` is a dense coefficient tuple with classical convolution, and
``horner`` evaluates a coefficient list at a point; no floating point
anywhere.  ``binomial_coeff`` reads C(e, k) for any integer e,
as the power-series coefficient of x^k in (1 + x)^e when e < 0,
``binomial_range`` gives a window of them for the price of one, and
``binomial_convolution`` reads [x^k] (1 + x)^e * small(x) off one window.
``central_binomial`` gives C(2m, m) and keeps its last two values, so a
sweep over consecutive m steps each one from its neighbour with one short
multiply and divide instead of a fresh ``comb``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb


@dataclass(frozen=True)
class IntPoly:
    """Dense polynomial; index k of ``coeffs`` holds the coefficient of x^k."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        cs = list(self.coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Highest nonzero index; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        # the factors are mostly sparse (1 +- x^k, a linear factor): list
        # other's nonzero terms once rather than skip its zeros for every i
        terms = [(j, cb) for j, cb in enumerate(b) if cb]
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in terms:
                    out[i + j] += ca * cb
        return IntPoly(out)


ONE_MINUS_X = IntPoly((1, -1))


def horner(cs, x):
    """The polynomial with coefficients ``cs`` (low to high) evaluated at x."""
    total = 0
    for c in reversed(cs):
        total = total * x + c
    return total


def binomial_coeff(e: int, k: int) -> int:
    """Generalized binomial C(e, k) for any integer e and k >= 0.

    For e < 0 this is the power-series coefficient of x^k in (1 + x)^e,
    namely (-1)^k * C(k - e - 1, k); always an integer.
    """
    if k < 0:
        return 0
    if e >= 0:
        return comb(e, k)
    sign = -1 if k % 2 else 1
    return sign * comb(k - e - 1, k)


def binomial_range(e: int, lo: int, hi: int) -> list[int]:
    """[C(e, j) for j in lo..hi], generalized as in ``binomial_coeff``.

    One ``binomial_coeff`` call gives the highest nonzero entry; the rest come
    from the exact step C(e, j-1) = C(e, j) * j / (e - j + 1), whose divisor
    is never zero: j <= e when e >= 0, and e - j + 1 < 0 when e < 0.  On
    n-digit values each step costs a short multiply and divide instead of a
    fresh ``comb``.
    """
    out = [0] * (hi - lo + 1)
    top = hi if e < 0 else min(hi, e)  # for e >= 0, C(e, j) = 0 when j > e
    if top < max(lo, 0):
        return out
    c = binomial_coeff(e, top)
    out[top - lo] = c
    for j in range(top, max(lo, 0), -1):
        c = c * j // (e - j + 1)
        out[j - 1 - lo] = c
    return out


def binomial_convolution(small: tuple[int, ...], e: int, target: int) -> int:
    """[x^target] (1+x)^e * small(x), with (1+x)^e read as a binomial series.

    ``small`` (coefficients from x^0 up) has no negative exponents, so series
    terms beyond x^target never contribute: only len(small) binomials are read.
    """
    binoms = binomial_range(e, target - len(small) + 1, target)
    return sum(c * b for c, b in zip(small, reversed(binoms)) if c)


# The last two (m, C(2m, m)) pairs ``central_binomial`` returned, newest first.
# A sweep asks for neighbours of these: ``verify`` alternates A at m with B at
# m - 1.  Each pair is consistent and the tuple is replaced as a whole, so a
# concurrent caller may lose a kept pair but never reads a wrong value.
_central: tuple[tuple[int, int], ...] = ()


def central_binomial(m: int) -> int:
    """C(2m, m) for m >= 0.

    A request at m or m +- 1 of a kept pair is exact without a ``comb``:

      C(2m + 2, m + 1) = C(2m, m) * 2(2m + 1) / (m + 1)
      C(2m - 2, m - 1) = C(2m, m) * m / (2(2m - 1))

    Any other m is seeded with one ``binomial_coeff(2m, m)``.
    """
    global _central
    if m < 0:
        raise ValueError(f"central_binomial needs m >= 0, got {m}")
    for k, c in _central:
        if k == m:
            value = c
            break
        if k == m - 1:
            value = c * 2 * (2 * k + 1) // m
            break
        if k == m + 1:
            value = c * k // (2 * (2 * k - 1))
            break
    else:
        value = binomial_coeff(2 * m, m)  # the module-level name, so wrappers see the call
    _central = ((m, value),) + tuple(p for p in _central if p[0] != m)[:1]
    return value
