"""Symmetric-group character values, computed three ways.

1. ``char_ct``: exact multivariate constant-term extraction from the product
   of difference factors and power sums over one variable per row.
2. ``char_two_row``: for shapes with at most two rows, the coefficient c_j of
   P(x) = (1+x)^(n-sum a_i) * T(x), T(x) = (1-x) prod(1 + x^a_i), where the
   a_i are the parts of the padded class other than 1.  P has degree n+1 and
   c_j = -c_{n+1-j}; for 0 <= j <= n/2, c_j is the character on (n-j, j).
   It reads one binomial per nonzero coefficient of T.  The hook shapes have
   the same kind of factor: the character of (n-k, 1^k), 0 <= k < n, is the
   coefficient d_k of (1+x)^(n-sum a_i) * V(x), V the ``hook_factor``
   (James-Kerber 1981, 2.7, give (1+x)^(n-sum a_i-1) prod(1 - (-x)^a_i);
   every factor vanishes at x = -1, so V = prod(1 - (-x)^a_i) / (1+x) is a
   polynomial).  The class 1^n has no factor and peels one of its 1s
   instead: V = 1, d_k = C(n-1, k).
3. ``char_mn``: Murnaghan-Nakayama on the Maya diagram, the independent
   oracle for the other two and for the sums.  ``sum_A_bruteforce`` takes
   one ``char_mn`` per two-row shape of n; ``sum_B_bruteforce`` takes only
   the |mu0| hooks of |mu0| on the class mu0 and adds the 1s by the
   branching rule, a Pascal step per 1.  Row i of the shape puts a
   bead at lambda_i - i (i >= 1, lambda_i = 0 past the last row), so far
   enough down every place holds a bead.  The shape is kept as its defects,
   the places where it differs from the vacuum of beads at every place < 0:
   the beads at a_i = lambda_i - i >= 0 and the empty places -b_i - 1 < 0,
   b_i = lambda'_i - i, for i up to the side d of the Durfee square (the
   Frobenius coordinates (a | b)).  There are 2d of them whatever n is: 2 for
   a hook, at most 4 for a two-row shape.  Removing a k-border-strip moves a
   bead x to an empty x-k, with sign (-1)^(beads strictly between), and
   toggles both places in the defects.  A bead that can move is a defect
   >= 0 or the vacuum's bead k above a defect < 0, so a memo node looks at
   its 2d defects and nothing else.  Only the class's parts >= 2 are removed
   one by one; the 1s are closed at once by the hook-length formula in
   Frobenius coordinates, so the recursion is as deep as the number of
   parts >= 2 and the memo key carries no 1s.  A state's shape has the
   cells of the parts not yet removed, so no state of one weight is read by
   another: the memo is unbounded and ``char_mn`` clears it when the
   shape's weight differs from the one it holds.  A brute-force A keeps one
   n's states; a brute-force B, seeded at |mu0|, keeps its states over the
   whole window.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, perm

from .partition import Partition, check_mu0_n, make_partition
from .polyring import IntPoly, binomial_coeff

DEFAULT_ROW_CAP = 4


class RowCapExceeded(ValueError):
    """Shape has more rows than the route evaluates; char_mn takes any shape."""


def _check_weights(lmbda: Partition, mu: Partition) -> None:
    if lmbda.weight() != mu.weight():
        raise ValueError(
            f"weight mismatch: |lambda|={lmbda.weight()} but |mu|={mu.weight()}"
        )


def char_ct(lmbda: Partition, mu: Partition) -> int:
    """Character value by expanding the constant-term product exactly.

    Expands prod_{i<j} (1 - x_j/x_i) times prod_k (sum_i x_i^{mu_k}) with one
    variable per row of lmbda and reads the coefficient of the exponent
    vector (lmbda_1, ..., lmbda_m).  Term count grows quickly with the row
    count, hence the cap of DEFAULT_ROW_CAP rows.
    """
    _check_weights(lmbda, mu)
    m = len(lmbda)
    if m > DEFAULT_ROW_CAP:
        raise RowCapExceeded(
            f"lambda has {m} rows, cap is {DEFAULT_ROW_CAP}; use char_mn instead"
        )
    target = lmbda.parts
    # prod_{i<j} (1 - x_j/x_i) is the Vandermonde determinant over
    # prod_i x_i^(m-1-i): one term sgn(s) prod_i x_i^(i - s(i)) per permutation
    # s.  Power sums only raise exponents, so a term with an exponent already
    # above its target row length never contributes: prune it here, then check
    # only the row each power sum raises.
    product = {}
    for perm in permutations(range(m)):
        exps = tuple(i - s for i, s in enumerate(perm))
        if all(e <= t for e, t in zip(exps, target)):
            inversions = sum(a > b for a, b in combinations(perm, 2))
            product[exps] = -1 if inversions % 2 else 1
    for part in mu.parts:
        grown = {}
        for exps, c in product.items():
            for i in range(m):
                if exps[i] + part <= target[i]:
                    raised = exps[:i] + (exps[i] + part,) + exps[i + 1 :]
                    grown[raised] = grown.get(raised, 0) + c
        product = {exps: c for exps, c in grown.items() if c}
    return product.get(target, 0)


def two_row_factor(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of T(x) = (1-x) prod_i (1 + x^{a_i}) for the parts a_i."""
    t = IntPoly((1, -1))
    for a in parts:
        t = t * IntPoly([1] + [0] * (a - 1) + [1])
    return t.coeffs


def hook_factor(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of V(x) = prod_i (1 - (-x)^{a_i}) / (1+x), or 1 for no parts."""
    # the first factor over 1+x is sum_{k<a_1} (-x)^k
    v = IntPoly([(-1) ** k for k in range(parts[0])] if parts else (1,))
    for a in parts[1:]:
        v = v * IntPoly([1] + [0] * (a - 1) + [-((-1) ** a)])
    return v.coeffs


def char_two_row(n: int, j: int, mu0: Partition) -> int:
    """Coefficient c_j of the two-rowed generating polynomial (1+x)^(n-|mu0|) T(x).

    Genuine character of (n-j, j) on the padded class for 0 <= j <= n/2; the
    range extends to j = n+1 (the true degree), where c_{n+1} = -c_0.
    """
    if not 0 <= j <= n + 1:
        raise ValueError(f"j must be in [0, {n + 1}], got {j}")
    check_mu0_n(mu0, n)
    e = n - mu0.weight()
    return sum(t * binomial_coeff(e, j - i) for i, t in enumerate(two_row_factor(mu0.parts)) if t)


def _two_row_route(lmbda: Partition, mu: Partition) -> int:
    """``char_two_row`` on a shape of at most two rows and any class of its weight."""
    if len(lmbda) > 2:
        raise RowCapExceeded("tworow method needs a shape with at most 2 rows")
    _check_weights(lmbda, mu)
    j = lmbda[1] if len(lmbda) == 2 else 0
    return char_two_row(lmbda.weight(), j, Partition([p for p in mu if p > 1]))


# The shape weight whose states ``_mn`` holds.  The value is read and
# replaced as a whole, so a concurrent caller may clear another caller's
# states, costing reuse, but never reads a wrong value.
_mn_weight = 0


def char_mn(lmbda: Partition, mu: Partition) -> int:
    """Character value by border-strip removal on the Maya diagram (the oracle path)."""
    global _mn_weight
    _check_weights(lmbda, mu)
    n = lmbda.weight()
    if n != _mn_weight:
        _mn.cache_clear()
        _mn_weight = n
    parts = mu.parts
    # the class is non-increasing, so its 1s are a suffix
    return _mn(_defects(lmbda.parts), parts[: len(parts) - parts.count(1)])


def _defects(parts: tuple[int, ...]) -> tuple[int, ...]:
    """The shape's defects, ascending: a_i and -b_i - 1 for each row i <= d."""
    ascending = parts[::-1]
    defects = []
    for i, part in enumerate(parts):
        if part <= i:
            break
        # lambda'_(i+1) is len(parts) - bisect_left(ascending, i + 1)
        defects += (part - i - 1, i - len(parts) + bisect_left(ascending, i + 1))
    return tuple(sorted(defects))


@lru_cache(maxsize=None)
def _mn(defects: tuple[int, ...], parts: tuple[int, ...]) -> int:
    """chi^lambda on the class ``parts`` padded with 1s.

    ``defects`` is lambda's ``_defects``; ``parts`` is non-increasing and
    holds no 1s.  The sign counts the beads strictly between mod 2: there
    the defects >= 0 are beads and the places < 0 are beads but for the
    defects, so the parity is that of the defects there plus the places < 0.
    """
    if not parts:
        return _dimension(defects)
    k, rest = parts[0], parts[1:]
    total = 0
    for t, d in enumerate(defects):
        if d >= 0:
            # the bead at d falls to d - k, an empty place >= 0 or a defect < 0
            i, y = t, d - k
            j = bisect_left(defects, y, 0, i)
            filled = defects[j] == y
            if filled != (y < 0):
                continue
            if filled:
                moved = defects[:j] + defects[j + 1 : i] + defects[i + 1 :]
            else:
                moved = defects[:j] + (y,) + defects[j:i] + defects[i + 1 :]
            passed = i - j - filled + (-y - 1 if y < 0 else 0)
        else:
            # the vacuum's bead at d + k < 0 falls into the empty place d
            j, x = t, d + k
            if x >= 0 or x in defects:
                continue
            i = bisect_left(defects, x, j)
            moved = defects[:j] + defects[j + 1 : i] + (x,) + defects[i:]
            passed = i - j - 1 + k - 1
        value = _mn(moved, rest)
        total += -value if passed % 2 else value
    return total


def _dimension(defects: tuple[int, ...]) -> int:
    """f^lambda = |lambda|!/prod(hooks), in Frobenius coordinates:

      f = n! prod_{i<j} (a_i - a_j)(b_i - b_j) / (prod_i a_i! b_i! prod_{i,j} (a_i + b_j + 1))

    Over the defects n = sum |d|.  The a_i and b_i add up to n - rank, so
    n!/prod(a_i! b_i!) is perm(n, rank) times a multinomial, taken one comb
    at a time: no factorial of n.  A pair of defects on one side of 0 puts
    its distance on top, a pair across 0 (a_i + b_j + 1) puts it below.
    """
    n, rank = sum(map(abs, defects)), len(defects) // 2
    top, left = perm(n, rank), n - rank
    for d in defects:
        length = d if d >= 0 else -d - 1  # a_i or b_i
        top *= comb(left, length)
        left -= length
    bottom = 1
    for d, e in combinations(defects, 2):
        if (d < 0) == (e < 0):
            top *= e - d
        else:
            bottom *= e - d
    return top // bottom


# ``charsum char``'s routes; each raises RowCapExceeded for a shape it cannot take.
ROUTES = {"mn": char_mn, "ct": char_ct, "tworow": _two_row_route}


def padded_class(mu0: Partition, n: int) -> Partition:
    """The cycle type mu0 padded with 1s up to weight n."""
    check_mu0_n(mu0, n)
    return make_partition(list(mu0.parts) + [1] * (n - mu0.weight()))
