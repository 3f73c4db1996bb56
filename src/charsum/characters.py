"""Symmetric-group character values, computed three ways: the routes of ``char``.

1. ``char_ct``: exact multivariate constant-term extraction from the product
   of difference factors and power sums over one variable per row.
2. ``char_two_row``: for shapes with at most two rows, the coefficient c_j of
   (1+x)^(n-sum a_i) * T(x), where the a_i are the parts of the padded class
   other than 1 and T is ``charsums.factor`` (``charsums`` says which
   coefficient is which character).  It reads one binomial per nonzero
   coefficient of T.
3. ``char_mn``: Murnaghan-Nakayama on the Maya diagram, the independent
   oracle for the other two.  It starts from lambda and removes each
   part >= 2 of the class from every shape of the current level at
   once, adding up equal shapes: no memo and no recursion.  Row i of the
   shape puts a bead at lambda_i - i (i >= 1, lambda_i = 0 past the last
   row), so far enough down every place holds a bead.  The shape is kept as
   its defects, the places where it differs from the vacuum of beads at
   every place < 0: the beads at a_i = lambda_i - i >= 0 and the empty
   places -b_i - 1 < 0, b_i = lambda'_i - i, for i up to the side d of the
   Durfee square (the Frobenius coordinates (a | b)).  There are 2d of them
   whatever n is: 2 for a hook, at most 4 for a two-row shape.  Removing a
   k-border-strip moves a bead x to an empty x-k, with sign (-1)^(beads
   strictly between), and toggles both places in the defects.  A bead that
   can move is a defect >= 0 or the vacuum's bead k above a defect < 0, so a
   move looks at the 2d defects and nothing else.  Only the class's parts
   >= 2 are removed one by one; the 1s are closed at once, on each shape of
   the last level, by the hook-length formula in Frobenius coordinates.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations, permutations
from math import comb, perm

from .charsums import factor
from .partition import Partition, check_mu0_n
from .polyring import binomial_coeff

DEFAULT_ROW_CAP = 4


class RowCapExceeded(ValueError):
    """A shape or class the route cannot evaluate; char_mn takes any."""


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
    target = lmbda
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
    for part in mu:
        grown = {}
        for exps, c in product.items():
            for i in range(m):
                if exps[i] + part <= target[i]:
                    raised = exps[:i] + (exps[i] + part,) + exps[i + 1 :]
                    grown[raised] = grown.get(raised, 0) + c
        product = {exps: c for exps, c in grown.items() if c}
    return product.get(target, 0)


def char_two_row(n: int, j: int, mu0: Partition) -> int:
    """Coefficient c_j of the two-rowed generating polynomial (1+x)^(n-|mu0|) T(x).

    Genuine character of (n-j, j) on the padded class for 0 <= j <= n/2; the
    range extends to j = n+1 (the true degree), where c_{n+1} = -c_0.
    """
    if not 0 <= j <= n + 1:
        raise ValueError(f"j must be in [0, {n + 1}], got {j}")
    check_mu0_n(mu0, n)
    e = n - mu0.weight()
    return sum(t * binomial_coeff(e, j - i) for i, t in enumerate(factor("A", mu0)) if t)


def _two_row_route(lmbda: Partition, mu: Partition) -> int:
    """``char_two_row`` on a shape of at most two rows and any class of its weight."""
    if len(lmbda) > 2:
        raise RowCapExceeded("tworow method needs a shape with at most 2 rows")
    _check_weights(lmbda, mu)
    j = lmbda[1] if len(lmbda) == 2 else 0
    # with the weights equal and j <= n/2, the one ValueError left is
    # ``factor``'s: a class whose factor cannot be built
    try:
        return char_two_row(lmbda.weight(), j, Partition([p for p in mu if p > 1]))
    except ValueError as exc:
        raise RowCapExceeded(str(exc)) from None


def char_mn(lmbda: Partition, mu: Partition) -> int:
    """Character value by border-strip removal on the Maya diagram (the oracle path)."""
    _check_weights(lmbda, mu)
    level = {_defects(lmbda): 1}  # each shape's defects -> its coefficient
    # the class is non-increasing, so its 1s are a suffix
    for k in mu[: len(mu) - mu.count(1)]:
        grown = {}
        for defects, c in level.items():
            for moved, sign in _mn(defects, k):
                grown[moved] = grown.get(moved, 0) + sign * c
        level = {defects: c for defects, c in grown.items() if c}
    return sum(c * _dimension(defects) for defects, c in level.items())


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


def _mn(defects: tuple[int, ...], k: int):
    """Yield (moved, sign) for each k-border-strip of lambda, ``moved`` its defects.

    ``defects`` is lambda's ``_defects``.  The sign counts the beads strictly
    between mod 2: there the defects >= 0 are beads and the places < 0 are
    beads but for the defects, so the parity is that of the defects there
    plus the places < 0.
    """
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
        yield moved, -1 if passed % 2 else 1


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
