"""Exact univariate polynomials and binomial coefficients over the integers.

``IntPoly`` is a dense coefficient tuple, trimmed of trailing zeros, whose
one operation is the classical convolution ``*``; callers multiply factors
and read the product's ``coeffs``, so it has no equality, hash or degree of
its own.  ``horner`` evaluates a coefficient list at a point; no floating
point anywhere.  ``binomial_coeff`` is C(e, k) for e >= 0; a negative exponent
raises ValueError: no sum or character needs one.
``central_binomial`` gives C(2m, m) and keeps its last value, so a
sweep over consecutive m steps each one from its neighbour with one short
multiply and divide instead of a fresh ``comb``.
"""

from __future__ import annotations

from math import comb


class IntPoly:
    """Dense polynomial; index k of ``coeffs`` holds the coefficient of x^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        # the factors are mostly sparse (1 +- x^k, a linear factor): list
        # other's nonzero terms once rather than skip its zeros for every i
        terms = [(j, cb) for j, cb in enumerate(b) if cb]
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in terms:
                    out[i + j] += ca * cb
        return IntPoly(out)


def horner(cs, x):
    """The polynomial with coefficients ``cs`` (low to high) evaluated at x."""
    total = 0
    for c in reversed(cs):
        total = total * x + c
    return total


def binomial_coeff(e: int, k: int) -> int:
    """C(e, k) for e >= 0; 0 when k < 0 or k > e."""
    return comb(e, k) if k >= 0 else 0


# The last (m, C(2m, m)) pair ``central_binomial`` returned, from C(0, 0) = 1.
# A sweep asks for its neighbours: a ``verify`` row reads A and B at one m,
# the next row at m + 1.  The pair is read and replaced as a whole, so a
# concurrent caller may step from another caller's pair but never reads a
# wrong value.
_central = (0, 1)


def central_binomial(m: int) -> int:
    """C(2m, m) for m >= 0.

    A request at the kept m or m +- 1 is exact without a ``comb``:

      C(2m + 2, m + 1) = C(2m, m) * 2(2m + 1) / (m + 1)
      C(2m - 2, m - 1) = C(2m, m) * m / (2(2m - 1))

    Any other m is seeded with one ``binomial_coeff(2m, m)``.
    """
    global _central
    if m < 0:
        raise ValueError(f"central_binomial needs m >= 0, got {m}")
    k, c = _central
    if k == m:
        value = c
    elif k == m - 1:
        value = c * 2 * (2 * k + 1) // m
    elif k == m + 1:
        value = c * k // (2 * (2 * k - 1))
    else:
        value = binomial_coeff(2 * m, m)  # the module-level name, so wrappers see the call
    _central = (m, value)
    return value
