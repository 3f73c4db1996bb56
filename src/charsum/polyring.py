"""Exact univariate polynomials and binomial coefficients over the integers.

``IntPoly`` is a dense coefficient tuple with classical convolution, and
``horner`` evaluates a coefficient list at a point; no floating point
anywhere.  ``binomial_coeff`` is C(e, k) for e >= 0,
``binomial_range`` gives a window of them for the price of one, and
``binomial_convolution`` reads [x^k] (1 + x)^e * small(x) off one window.
A negative exponent raises ValueError: no sum or character needs one.
``central_binomial`` gives C(2m, m) and keeps its last value, so a
sweep over consecutive m steps each one from its neighbour with one short
multiply and divide instead of a fresh ``comb``.
"""

from __future__ import annotations

from math import comb


class IntPoly:
    """Dense polynomial; index k of ``coeffs`` holds the coefficient of x^k."""

    # frozen by hand, like ``partition.Partition``
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self.coeffs == other.coeffs if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    def __repr__(self) -> str:
        return f"IntPoly(coeffs={self.coeffs!r})"

    def __reduce__(self):
        return IntPoly, (self.coeffs,)

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
    """C(e, k) for e >= 0; 0 when k < 0 or k > e."""
    return comb(e, k) if k >= 0 else 0


def binomial_range(e: int, lo: int, hi: int) -> list[int]:
    """[C(e, j) for j in lo..hi], e >= 0.

    One ``binomial_coeff`` call gives the highest nonzero entry; the rest come
    from the exact step C(e, j-1) = C(e, j) * j / (e - j + 1), whose divisor
    is never zero since j <= e.  On n-digit values each step costs a short
    multiply and divide instead of a fresh ``comb``.
    """
    if e < 0:
        raise ValueError(f"binomial exponent must be >= 0, got {e}")
    out = [0] * (hi - lo + 1)
    top = min(hi, e)  # C(e, j) = 0 when j > e
    if top < max(lo, 0):
        return out
    c = binomial_coeff(e, top)
    out[top - lo] = c
    for j in range(top, max(lo, 0), -1):
        c = c * j // (e - j + 1)
        out[j - 1 - lo] = c
    return out


def binomial_convolution(small: tuple[int, ...], e: int, target: int) -> int:
    """[x^target] (1+x)^e * small(x) for e >= 0.

    ``small`` (coefficients from x^0 up) has no negative exponents, so terms
    of (1+x)^e beyond x^target never contribute: only len(small) binomials
    are read.
    """
    binoms = binomial_range(e, target - len(small) + 1, target)
    return sum(c * b for c, b in zip(small, reversed(binoms)) if c)


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
