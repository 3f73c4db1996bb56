"""Sums of squared characters over two-rowed and hook shapes.

With mu0 = (a_1,...,a_r) (smallest part >= 2) and n >= |mu0|, each family's
characters on the class mu0 u 1^(n-|mu0|) are the coefficients of one
polynomial (1+x)^(n-sum a) f(x):

  two-rowed  f = T(x) = (1-x) prod (1+x^{a_i}): c_j is the character of
             (n-j, j) for 0 <= j <= n/2, and c_j = -c_{n+1-j}
  hook       f = V(x) = prod (1-(-x)^{a_i}) / (1+x): d_k is the character
             of (n-k, 1^k) for 0 <= k < n (James-Kerber 1981, 2.7, give
             (1+x)^(n-sum a_i-1) prod (1-(-x)^{a_i}); every factor vanishes
             at x = -1, so V is a polynomial)

except that the class 1^n has no factor and peels a 1 instead: V = 1 and
d_k = C(n-1, k).  ``factor`` is the one builder of T, V and their squares.
So each sum is a squared norm, with ||g||^2 = [x^deg g] g(x) g~(x) and
g~(x) = x^(deg g) g(1/x):

  A(mu0)(n) = 1/2 ||(1+x)^(n-sum a) T(x)||^2   (c_j = -c_{n+1-j} counts each twice)
  B(mu0)(n) =     ||(1+x)^(n-sum a) V(x)||^2

Since (1+x)^e is its own reversal, each norm is one coefficient of
(1+x)^(2e) * f(x) f~(x).  That small polynomial f f~ = +-f^2 is palindromic
of degree 2 deg f.  ``_family``, the one per-class cache, builds it once
per (family, mu0), one class per family, with h and the family's divisor;
``_family_sum`` and ``fit_closed_form`` read only it, and the latter derives
R(n) = family(n) / C(2n, n) by one O(top^2) recurrence on
coefficient lists.

With m = n - h (see ``_family``) and top = deg f, both small and the row of
(1+x)^(2m) are symmetric, so the sum reads half the window:
c_top C(2m, m) + 2 sum_{s=1..min(top, m)} c_{top+s} C(2m, m+s), each
C(2m, m+s) stepped exactly from the one before.  ``polyring.central_binomial``
gives C(2m, m), stepped from the previous row's when a sweep moves m by one.

The results are asserted to be non-negative integers, so a slip in a
factor or the halving surfaces as a hard error instead of a wrong value.

``char_two_row_mn`` and ``char_hook_mn`` take the same characters by
border-strip removal instead, reading nothing from T, V or the kernel: from
the hook-length row of the 1s, each part >= 2 is removed from every two-row
shape, or every hook, at once, one O(n) pass per part, since there a border
strip is one of three index moves.  They are the rows of
``sum_A_bruteforce`` and ``sum_B_bruteforce``, so ``--mode both`` checks the
formula against the characters at every n.

``verify_theorem`` checks 2*A(mu0)(n) = B(mu0')(n+2) over an n-range for a
partition in theorem form, mu0' its companion.  The theorem is
V(mu0') = T(mu0): both sides read one coefficient of one row, at one m.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from math import comb, gcd

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


def factor(family: str, parts: tuple[int, ...], power: int = 1) -> tuple[int, ...]:
    """Coefficients of f^power, f the family's factor: T for "A", V for "B".

    The head factor is 1 - x for A; for B it is the first part's quotient
    sum_{k<a_1} (-x)^k, and V = 1 for no parts.  Every other distinct part a,
    of multiplicity c, adds one binomial row (1 + s x^a)^(power c), s = +1
    for A or odd a and -1 otherwise.  Each list is requested whole, so a class
    too large to allocate fails at once, as a ValueError naming it.
    """
    try:
        # T's head 1 - x is V's quotient for a part 2, and V = 1 for no parts
        a, *rest = (2, *parts) if family == "A" else parts or (1,)
        head = IntPoly([1, -1] * (a // 2) + [1] * (a % 2))
        f = head
        for _ in range(power - 1):
            f = f * head
        for a, c in Counter(rest).items():
            s = 1 if family == "A" or a % 2 else -1  # the factor is 1 + s x^a
            e = power * c
            row = [0] * (e * a + 1)
            for i in range(e + 1):
                row[a * i] = comb(e, i) * s**i
            f = f * IntPoly(row)
    except (OverflowError, MemoryError):
        raise ValueError(f"class {parts} is too large to build its factor") from None
    return f.coeffs


# Every path sweeps n for at most one class per family: a ``verify`` row or a
# search pair reads A(mu0) and B(mu0'), ``fit`` and ``sum`` one of them.
@lru_cache(maxsize=2)
def _family(family: str, mu0: Partition) -> tuple[int, int, tuple[int, ...]]:
    """(h, divisor, small) for the family at mu0: with m = n - h, the sum at n
    is [x^(m + deg f)] (1+x)^(2m) small(x) / divisor, small = f(x) f~(x).

    Each factor 1 -+ x^a of f reverses to -+(1 -+ x^a), so f~ = -T for A and
    f~ = (-1)^(number of even parts) V for B, and small is that sign times
    ``factor(family, mu0, 2)``.
    """
    if family == "A":
        h, divisor, sign = mu0.weight(), 2, -1
    elif family == "B":
        # the class 1^n peels one of its 1s (see above)
        h, divisor, sign = mu0.weight() or 1, 1, (-1) ** sum(1 for a in mu0 if a % 2 == 0)
    else:
        raise ValueError(f"family must be 'A' or 'B', got {family!r}")
    return h, divisor, tuple(sign * c for c in factor(family, mu0, 2))


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


def char_two_row_mn(mu0: Partition, n: int) -> list[int]:
    """[chi^(n-q, q)(mu0 u 1^(n-|mu0|)) for q = 0..n//2] by border-strip removal.

    The 1s are closed first: at s = n - |mu0| the row is the hook-length
    formula f^(s-q, q) = C(s, q)(s-2q+1)/(s-q+1).  Then each part k of mu0
    maps the row of size s to the row of size s + k.  A k-strip leaves
    (p, q), p >= q, in one of three ways:

      row 1 only    (p-k, q)          if p-k >= q,               sign +1
      row 2 only    (p, q-k)          if q >= k,                 sign +1
      both rows     (q-1, p+1-k)      if p-q+2 <= k <= p+1,      sign -1

    (a strip over both rows has exactly one column in both, so row 1 keeps
    q - 1 cells).  Each pass is O(n) additions and no state outlives the
    call; nothing is read from the formula's factors.
    """
    check_mu0_n(mu0, n)
    s = n - mu0.weight()
    row, binom = [], 1  # binom is C(s, q), stepped
    for q in range(s // 2 + 1):
        row.append(binom * (s - 2 * q + 1) // (s - q + 1))
        binom = binom * (s - q) // (q + 1)
    for k in mu0:
        s += k
        grown = []
        for q in range(s // 2 + 1):
            p = s - q
            value = row[q] if p - k >= q else 0
            if q >= k:
                value += row[q - k]
            if p - q + 2 <= k <= p + 1:
                value -= row[p + 1 - k]
            grown.append(value)
        row = grown
    return row


def char_hook_mn(mu0: Partition, n: int) -> list[int]:
    """[chi^(n-b, 1^b)(mu0 u 1^(n-|mu0|)) for b = 0..n-1] by border-strip removal.

    As in ``char_two_row_mn``, the 1s are closed first, here by the
    hook-length row f^(s-b, 1^b) = C(s-1, b) at s = n - |mu0|, and each part
    k of mu0 maps the row of size s to the row of size s + k.  A k-strip
    leaves (s+k-b, 1^b) at the end of the arm, at the end of the leg or,
    since a strip through the corner cell takes every cell, as a whole hook:

      arm           (s-b, 1^b)          if b < s,      sign +1
      leg           (s+k-b, 1^(b-k))    if b >= k,     sign (-1)^(k-1)
      whole hook    the empty shape     if s = 0,      sign (-1)^b
    """
    check_mu0_n(mu0, n)
    s = n - mu0.weight()
    row, binom = [], 1  # binom is C(s-1, b), stepped
    for b in range(s):
        row.append(binom)
        binom = binom * (s - 1 - b) // (b + 1)
    for k in mu0:
        if s:
            pad = [0] * k
            leg = row if k % 2 else [-c for c in row]
            row = [a + b for a, b in zip(row + pad, pad + leg)]
        else:
            row = [(-1) ** b for b in range(k)]
        s += k
    return row


def sum_A_bruteforce(mu0: Partition, n: int) -> int:
    """A by definition: squared border-strip characters over (n-q, q), q <= n/2."""
    return sum(c * c for c in char_two_row_mn(mu0, n))


def sum_B_bruteforce(mu0: Partition, n: int) -> int:
    """B by definition: squared border-strip characters over the hooks (n-b, 1^b), b < n."""
    return sum(c * c for c in char_hook_mn(mu0, n))


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


def _times_linear(cs, a: int, b: int) -> list[int]:
    """The coefficients of sum cs[k] n^k times a*n + b."""
    return [b * c + a * d for c, d in zip((*cs, 0), (0, *cs))]


def _divide_linear(cs, a: int, b: int) -> list[int] | None:
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

    With h, the divisor and small(x) from ``_family``, m = n - h and
    top = deg small / 2, the family is (c_top C(2m, m) + 2 sum_{s=1..top}
    c_{top+s} C(2m, m + s)) / divisor, c_j the coefficients of small(x)
    (``_family_sum``).  Over C(2n, n) each term is a product of linear
    factors in n:

      C(2m, m) / C(2n, n)     = prod_{t=0..h-1} (n - t) / (2 (2(n - t) - 1))
      C(2m, m + s) / C(2m, m) = prod_{i=1..s} (m - i + 1) / (m + i)

    so over the common denominator
    divisor * 2^h prod_t (2n - 2t - 1) prod_{i<=top} (m + i) the numerator
    is prod_t (n - t) U_top, with P_0 = 1, U_0 = c_top and

      P_s = P_{s-1} (m - s + 1),   U_s = U_{s-1} (m + s) + 2 c_{top+s} P_s,

    one pass of O(top^2) integer operations; it and the denominator have
    degree at most 2|mu0| + 1.  The denominator's linear factors are
    distinct, so dropping each one that divides the numerator leaves R in
    lowest terms.  Every a is positive, and so is the denominator's leading
    coefficient.

    R(n) * C(2n, n) is checked against the family's sum at n = |mu0| + k,
    k = 0 .. D + 3, D = deg R; a mismatch is an InternalConsistencyError.
    """
    n_lo = mu0.weight()
    check_mu0_n(mu0, n_lo)
    h, divisor, small = _family(family, mu0)
    top = len(small) // 2
    p, num = [1], [small[top]]
    for s in range(1, top + 1):
        p = _times_linear(p, 1, 1 - s - h)  # times m - s + 1
        num = _times_linear(num, 1, s - h)  # times m + s
        num = [u + 2 * small[top + s] * v for u, v in zip(num, p)]
    for t in range(h):
        num = _times_linear(num, 1, -t)
    while not num[-1]:  # for A the leading coefficient is f(1)^2 = 0
        num.pop()
    den = [divisor * 2**h]
    # the denominator's linear factors a*n + b
    for a, b in [(2, -2 * t - 1) for t in range(h)] + [(1, i - h) for i in range(1, top + 1)]:
        quotient = _divide_linear(num, a, b)
        if quotient is None:
            den = _times_linear(den, a, b)
        else:
            num = quotient
    content = gcd(*num, *den)
    num, den = (tuple(c // content for c in cs) for cs in (num, den))
    value = sum_A if family == "A" else sum_B  # module-level names, so wrappers see the calls
    for n in range(n_lo, n_lo + max(len(num), len(den)) + 3):
        d = horner(den, n)
        if d == 0 or horner(num, n) * comb(2 * n, n) != value(mu0, n) * d:
            raise InternalConsistencyError(
                f"derived R(n) * C(2n, n) differs from {family}(n) at n={n}"
                f" for mu0={str(mu0) or 'empty'}"
            )
    return num, den
