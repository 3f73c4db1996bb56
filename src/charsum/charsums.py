"""Sums of squared characters over two-rowed and hook shapes.

Each family's characters are the coefficients of one polynomial, so its sum
is a squared norm.  With mu0 = (a_1,...,a_r) (smallest part >= 2), n >= |mu0|
and ||g||^2 = [x^deg g] g(x) g~(x), g~(x) = x^(deg g) g(1/x):

  two-rowed  A(mu0)(n) = 1/2 ||(1+x)^(n-sum a) T(x)||^2,  T(x) = (1-x) prod (1+x^{a_i})
  hook       B(mu0)(n) =     ||(1+x)^(n-sum a) V(x)||^2,  V(x) = prod (1-(-x)^{a_i}) / (1+x)

except that B of the empty class has V = 1 and exponent n-1 (``characters``
says which coefficient is which character).  A's norm
counts each character twice, because the two-row polynomial P has
c_j = -c_{n+1-j}; hence its divisor 2.  Since (1+x)^e is its own reversal,
each norm is one coefficient of (1+x)^(2e) * f(x) f~(x) with f = T or V.
That small polynomial f f~ is palindromic of degree 2 deg f, built once per
(family, mu0) and cached, one class per family; ``FAMILIES`` holds each
family's factor and divisor.  ``fit_closed_form`` derives and checks
R(n) = family(n) / C(2n, n).

With m = n - h (see ``_family``) and top = deg f, both small and the row of
(1+x)^(2m) are symmetric, so the sum reads half the window:
c_top C(2m, m) + 2 sum_{s=1..min(top, m)} c_{top+s} C(2m, m+s), each
C(2m, m+s) stepped exactly from the one before.  ``polyring.central_binomial``
gives C(2m, m), stepped from the previous row's when a sweep moves m by one.

The results are asserted to be non-negative integers, so a slip in a
factor or the halving surfaces as a hard error instead of a wrong value.

``verify_theorem`` checks 2*A(mu0)(n) = B(mu0')(n+2) over an n-range for a
partition in theorem form, mu0' its companion.  The theorem is
V(mu0') = T(mu0): both sides read one coefficient of one row, at one m.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb, gcd

from .characters import char_mn, hook_factor, padded_class, two_row_factor
from .partition import (
    Partition,
    check_mu0_n,
    companion_mu_prime,
    theorem_form_of,
    theorem_form_reason,
)
from .polyring import IntPoly, central_binomial, horner


class InternalConsistencyError(RuntimeError):
    """A value violated an identity the math guarantees (implementation bug)."""


# family -> (factor, divisor): with m = n - h, f = factor(mu0) and small(x) = f(x) f~(x),
# the family's sum at n is [x^(m + deg f)] (1+x)^(2m) small(x) / divisor.
FAMILIES = {"A": (two_row_factor, 2), "B": (hook_factor, 1)}


# Every path sweeps n for at most one class per family: a ``verify`` row or a
# search pair reads A(mu0) and B(mu0'), ``fit`` and ``sum`` one of them.
@lru_cache(maxsize=len(FAMILIES))
def _small_poly(family: str, parts: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of f(x) f~(x), f the character factor of family A or B for mu0."""
    f = FAMILIES[family][0](parts)
    return (IntPoly(f) * IntPoly(reversed(f))).coeffs


def _family(family: str, mu0: Partition) -> tuple[int, int, tuple[int, ...]]:
    """(h, divisor, small) of ``FAMILIES`` for the family at mu0."""
    if family not in FAMILIES:
        raise ValueError(f"family must be 'A' or 'B', got {family!r}")
    h = mu0.weight()
    if family == "B" and not h:
        h = 1  # the class 1^n peels one of its 1s (see ``characters``)
    return h, FAMILIES[family][1], _small_poly(family, mu0.parts)


def _family_sum(family: str, mu0: Partition, n: int) -> int:
    """The family's sum at n, checked to be a non-negative integer."""
    check_mu0_n(mu0, n)
    h, divisor, small = _family(family, mu0)
    m = n - h
    if m < 0:  # only B of the empty class at n = 0: no hook has 0 cells
        return 0
    top = len(small) // 2
    # small is palindromic and C(2m, m - s) = C(2m, m + s): read half the window
    b = central = central_binomial(m)
    half = 0
    for s in range(1, min(top, m) + 1):
        b = b * (m - s + 1) // (m + s)  # C(2m, m + s)
        if small[top + s]:
            half += small[top + s] * b
    c = small[top] * central + 2 * half
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
    one_row = (n,) if n else ()  # the empty shape at n = 0
    shapes = ((n - j, j) if j else one_row for j in range(n // 2 + 1))
    return sum(char_mn(Partition(shape), cls) ** 2 for shape in shapes)


def sum_B_bruteforce(mu0: Partition, n: int) -> int:
    """B: squared characters over the hooks (n-k, 1^k), 0 <= k < n, stepped from |mu0|.

    With w = |mu0|, the border-strip oracle gives the w hooks of w on the
    class mu0 itself (the class 1^n starts from the hook (1) at size 1).  Then
    each 1 of the padded class adds one box to every hook, by the branching
    rule chi^(a,1^b)(rho u 1) = chi^(a-1,1^b)(rho) + chi^(a,1^(b-1))(rho):
    the row of leg k at size m + 1 is row[k] + row[k - 1] of size m, a Pascal
    step.  So each n costs w ``char_mn`` calls at size w and n - w steps of
    at most n additions.  The seed row comes from the oracle, not from V, so
    ``sum --mode both`` checks the hook factor and the kernel's reading of it
    at every n; the steps are the lemma's own padding by (1 + x), so past w
    this is not a check of the characters at size n.
    """
    check_mu0_n(mu0, n)
    w = mu0.weight()
    if w:
        row = [char_mn(Partition((w - k,) + (1,) * k), mu0) for k in range(w)]
    elif n:
        row, w = [1], 1  # chi^(1) on the class 1
    else:
        return 0  # no hook has 0 cells
    for _ in range(n - w):
        row = [a + b for a, b in zip(row + [0], [0] + row)]
    return sum(c * c for c in row)


class VerificationReport(namedtuple("VerificationReport", "mu0 mu0_prime rows")):
    """Per-n evidence for 2*A(mu0)(n) = B(mu0')(n+2); ``rows`` holds
    (n, A(n), B(n+2)) tuples."""

    __slots__ = ()

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


def _divide_linear(cs: tuple[int, ...], a: int, b: int) -> list[int] | None:
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


def fit_closed_form(mu0: Partition, family: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """R(n) = family(mu0)(n) / C(2n, n) as (numerator, denominator) in lowest terms:
    tuples of integer coefficients, low to high, whose gcd (content) is 1.

    With h, the divisor and small(x) from ``_family`` and m = n - h, the
    family is sum_j c_j C(2m, m + s_j) / divisor over the coefficients c_j of
    small(x), where s_j = top - j and top = deg small / 2.  small is
    palindromic, so the terms at s and -s are equal.  Over C(2n, n) each term
    is a product of linear factors in n:

      C(2m, m) / C(2n, n)     = prod_{t=0..h-1} (n - t) / (2 (2(n - t) - 1))
      C(2m, m + s) / C(2m, m) = prod_{i=1..|s|} (m - i + 1) / (m + i)

    so over the common denominator
    divisor * 2^h prod_t (2n - 2t - 1) prod_{i<=top} (m + i),
    numerator and denominator are integer polynomials of degree at most
    2|mu0| + 1.  The denominator's linear factors are distinct, so dropping
    each one that divides the numerator leaves R in lowest terms.  Every a is
    positive, and so is the denominator's leading coefficient.

    R(n) * C(2n, n) is checked against the family's sum at n = |mu0| + k,
    k = 0 .. D + 3, D = deg R; a mismatch is an InternalConsistencyError.
    """
    n_lo = mu0.weight()
    check_mu0_n(mu0, n_lo)
    h, divisor, small = _family(family, mu0)
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
    content = gcd(*num.coeffs, *den.coeffs)
    num, den = (tuple(c // content for c in p.coeffs) for p in (num, den))
    value = sum_A if family == "A" else sum_B  # module-level names, so wrappers see the calls
    for n in range(n_lo, n_lo + max(len(num), len(den)) + 3):
        d = horner(den, n)
        if d == 0 or horner(num, n) * comb(2 * n, n) != value(mu0, n) * d:
            raise InternalConsistencyError(
                f"derived R(n) * C(2n, n) differs from {family}(n) at n={n}"
                f" for mu0={str(mu0) or 'empty'}"
            )
    return num, den
