"""Symmetric-group character values, computed three ways.

1. ``char_ct``: exact multivariate constant-term extraction from the product
   of difference factors and power sums over one variable per row.
2. ``char_two_row``: for shapes with at most two rows, the coefficient c_j of
   P(x) = (1+x)^(n-sum a_i) * T(x), T(x) = (1-x) prod(1 + x^a_i), where the
   a_i are the parts of the padded class other than 1.  P has degree n+1 and
   c_j = -c_{n+1-j}; for 0 <= j <= n/2, c_j is the character on (n-j, j).
   It shares its kernel, ``polyring.binomial_convolution``, with the sums.
   The hook shapes have the same kind of factor: the character of
   (n-k, 1^k) is the coefficient d_k of Q(x) = (1+x)^(n-sum a_i-1) * U(x),
   U(x) = prod(1 - (-x)^a_i), for 0 <= k < n (James-Kerber 1981, 2.7).
3. ``char_mn``: Murnaghan-Nakayama on James's abacus, the independent oracle
   for the other two and for the sums.  The shape is its ascending beta-set
   (first-column hook lengths); removing a k-border-strip moves a bead b to
   an empty b-k, with sign (-1)^(beads strictly between).  Only the class's
   parts >= 2 are removed one by one; the 1s are closed at once by the
   hook-length formula f^lambda = |lambda|!/prod(hooks), so the recursion is
   as deep as the number of parts >= 2 and the memo key carries no 1s.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from math import factorial, prod

from .partition import Partition, check_mu0_n, make_partition
from .polyring import ONE_MINUS_X, IntPoly, binomial_convolution

DEFAULT_ROW_CAP = 4

# Distinct (beta-set, remaining parts) states the oracle keeps; a brute-force
# sum at one n of the benchmark's windows visits at most about 400.
ORACLE_CACHE_SIZE = 4096


class RowCapExceeded(ValueError):
    """Shape has too many rows for full expansion; use char_mn instead."""


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
    # {exponent vector: coefficient}; each 1 - x_j/x_i keeps a term or moves
    # one unit of exponent from row i to row j with the opposite sign.
    product = {(0,) * m: 1}
    for i in range(m):
        for j in range(i + 1, m):
            grown = dict(product)
            for exps, c in product.items():
                moved = list(exps)
                moved[i] -= 1
                moved[j] += 1
                moved = tuple(moved)
                grown[moved] = grown.get(moved, 0) - c
            product = {exps: c for exps, c in grown.items() if c}

    # Power sums only raise exponents, so once they start, any term with an
    # exponent already above its target row length can never contribute:
    # prune those once here, then check only the row each power sum raises.
    product = {
        exps: c for exps, c in product.items() if all(e <= t for e, t in zip(exps, target))
    }
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
    t = ONE_MINUS_X
    for a in parts:
        t = t * IntPoly([1] + [0] * (a - 1) + [1])
    return t.coeffs


def hook_factor(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of U(x) = prod_i (1 - (-x)^{a_i}) for the parts a_i."""
    u = IntPoly((1,))
    for a in parts:
        u = u * IntPoly([1] + [0] * (a - 1) + [-((-1) ** a)])
    return u.coeffs


def char_two_row(n: int, j: int, mu0: Partition) -> int:
    """Coefficient c_j of the two-rowed generating polynomial (1+x)^(n-|mu0|) T(x).

    Genuine character of (n-j, j) on the padded class for 0 <= j <= n/2; the
    range extends to j = n+1 (the true degree), where c_{n+1} = -c_0.
    """
    if not 0 <= j <= n + 1:
        raise ValueError(f"j must be in [0, {n + 1}], got {j}")
    check_mu0_n(mu0, n)
    return binomial_convolution(two_row_factor(mu0.parts), n - mu0.weight(), j)


def char_mn(lmbda: Partition, mu: Partition) -> int:
    """Character value by border-strip removal on the abacus (the oracle path)."""
    _check_weights(lmbda, mu)
    betas = tuple(part + i for i, part in enumerate(reversed(lmbda.parts)))
    return _mn(betas, tuple(part for part in mu.parts if part >= 2))


@lru_cache(maxsize=ORACLE_CACHE_SIZE)
def _mn(betas: tuple[int, ...], parts: tuple[int, ...]) -> int:
    """chi^lambda on the class ``parts`` padded with 1s.

    ``betas`` is lambda's ascending beta-set with empty rows trimmed (no bead
    at 0); ``parts`` is non-increasing and holds no 1s.
    """
    if not parts:
        return _dimension(betas)
    k, rest = parts[0], parts[1:]
    total = 0
    # bead i moves k places down to an empty position; the i - j beads it
    # passes are the strip's height
    for i in range(bisect_left(betas, k), len(betas)):
        landing = betas[i] - k
        j = bisect_left(betas, landing)
        if betas[j] == landing:
            continue
        moved = betas[:j] + (landing,) + betas[j:i] + betas[i + 1 :]
        # beads at 0..empty-1 are empty rows: drop them and shift the rest down
        empty = 0
        while empty < len(moved) and moved[empty] == empty:
            empty += 1
        if empty:
            moved = tuple(b - empty for b in moved[empty:])
        value = _mn(moved, rest)
        total += -value if (i - j) % 2 else value
    return total


def _dimension(betas: tuple[int, ...]) -> int:
    """f^lambda = |lambda|!/prod(hooks); a bead b's row has hooks b - g, g < b empty."""
    occupied = set(betas)
    gaps = [g for g in range(max(betas, default=0)) if g not in occupied]
    hooks = prod(b - g for b in betas for g in gaps[: bisect_left(gaps, b)])
    return factorial(sum(betas) - len(betas) * (len(betas) - 1) // 2) // hooks


def padded_class(mu0: Partition, n: int) -> Partition:
    """The cycle type mu0 padded with 1s up to weight n."""
    check_mu0_n(mu0, n)
    return make_partition(list(mu0.parts) + [1] * (n - mu0.weight()))
