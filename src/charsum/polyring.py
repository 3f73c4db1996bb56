"""Exact univariate polynomial arithmetic over arbitrary-precision integers.

Dense coefficient lists, classical convolution, no floating point anywhere.
LaurentPoly adds an integer exponent shift so quotients like numerator/x^k
stay exact; TruncatedSeries handles (1 + x)^e for negative e as a formal
power series with integer (generalized binomial) coefficients.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Sequence, Union


class IntPoly:
    """Dense polynomial; index k of ``coeffs`` holds the coefficient of x^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @property
    def degree(self) -> int:
        """Highest nonzero index; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return IntPoly(out)

    def __pow__(self, e: int) -> "IntPoly":
        return poly_pow(self, e)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{k}")
        return " + ".join(terms)


ZERO = IntPoly()
ONE = IntPoly((1,))
X = IntPoly((0, 1))
ONE_PLUS_X = IntPoly((1, 1))
ONE_MINUS_X = IntPoly((1, -1))


def x_power(k: int) -> IntPoly:
    """The monomial x^k."""
    if k < 0:
        raise ValueError("x_power needs k >= 0; use LaurentPoly for negative shifts")
    return IntPoly([0] * k + [1])


def poly_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact product by classical convolution."""
    return a * b


def poly_pow(a: IntPoly, e: int) -> IntPoly:
    """Exact e-th power by repeated squaring; a**0 is 1."""
    if e < 0:
        raise ValueError("negative exponents go through binomial_series")
    result = ONE
    base = a
    while e:
        if e & 1:
            result = result * base
        base = base * base
        e >>= 1
    return result


class LaurentPoly:
    """x^shift times an IntPoly; coeff(k) reads base.coeff(k - shift)."""

    __slots__ = ("base", "shift")

    def __init__(self, base: IntPoly, shift: int = 0):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "shift", shift)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def coeff(self, k: int) -> int:
        return self.base.coeff(k - self.shift)

    def constant_term(self) -> int:
        return self.coeff(0)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly(self.base * other.base, self.shift + other.shift)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.base.is_zero() and other.base.is_zero():
            return True
        # normalize: strip leading zeros by comparing supports
        return self._support() == other._support()

    def _support(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (k + self.shift, c) for k, c in enumerate(self.base.coeffs) if c != 0
        )

    def __hash__(self) -> int:
        return hash(self._support())

    def __repr__(self) -> str:
        return f"LaurentPoly({self.base!r}, shift={self.shift})"


def reciprocal_substitution(p: IntPoly) -> LaurentPoly:
    """p(1/x) as a Laurent polynomial: reversed coefficients shifted by -deg."""
    if p.is_zero():
        return LaurentPoly(ZERO, 0)
    return LaurentPoly(IntPoly(reversed(p.coeffs)), -p.degree)


def coeff(p: Union[IntPoly, LaurentPoly], k: int) -> int:
    """Coefficient of x^k; zero outside support (k < 0 on an IntPoly gives 0)."""
    return p.coeff(k)


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


class TruncatedSeries:
    """Power-series prefix: coefficients of x^0 .. x^order, nothing beyond."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence[int], order: int):
        if order < 0:
            raise ValueError("order must be >= 0")
        cs = list(coeffs)[: order + 1]
        cs += [0] * (order + 1 - len(cs))
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    def coeff(self, k: int) -> int:
        if k < 0:
            return 0
        if k > self.order:
            raise ValueError(f"coefficient {k} exceeds truncation order {self.order}")
        return self.coeffs[k]

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        out = [0] * (order + 1)
        for i, ca in enumerate(self.coeffs[: order + 1]):
            if ca:
                for j in range(order + 1 - i):
                    cb = other.coeffs[j]
                    if cb:
                        out[i + j] += ca * cb
        return TruncatedSeries(out, order)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.coeffs, self.order))

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)}, order={self.order})"


def binomial_series(e: int, order: int) -> TruncatedSeries:
    """Coefficients of (1 + x)^e up to x^order, any integer e."""
    return TruncatedSeries([binomial_coeff(e, k) for k in range(order + 1)], order)


def series_from_poly(p: IntPoly, order: int) -> TruncatedSeries:
    """Truncate a polynomial to a series of the given order."""
    return TruncatedSeries(p.coeffs, order)


def euler_product(t: int) -> IntPoly:
    """The product (1 + x)(1 + x^2)(1 + x^4)...(1 + x^(2^(t-1))).

    Multiplying by (1 - x) telescopes to exactly 1 - x^(2^t).
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    result = ONE
    for j in range(t):
        result = result * IntPoly([1] + [0] * (2**j - 1) + [1])
    return result


def is_antipalindromic(p: IntPoly) -> bool:
    """True iff coeff(j) = -coeff(d - j) for all j, d the degree (0 is vacuous)."""
    if p.is_zero():
        return True
    d = p.degree
    return all(p.coeff(j) == -p.coeff(d - j) for j in range(d + 1))
