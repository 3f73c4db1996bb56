"""Symmetric-group character values, computed three independent ways.

1. ``char_ct``: exact multivariate constant-term extraction from the product
   of difference factors and power sums over one variable per row.
2. ``char_two_row``: for shapes with at most two rows, the coefficient c_j of
   the generating polynomial P(x) = (1-x)(1+x)^(n-sum a_i) * prod(1 + x^a_i),
   where the a_i are the parts of the padded class other than 1.  P has
   degree n+1 and satisfies c_j = -c_{n+1-j}; for 0 <= j <= n/2 the
   coefficient is the genuine character on (n-j, j).
3. ``char_mn``: recursive border-strip removal with memoization, used as the
   brute-force oracle for the other two.
"""

from __future__ import annotations

from functools import lru_cache

from .partition import Partition, check_mu0_n, make_partition
from .polyring import ONE_MINUS_X, IntPoly, binomial_range

DEFAULT_ROW_CAP = 4


class RowCapExceeded(ValueError):
    """Shape has too many rows for full expansion; use char_mn instead."""


class MultiLaurent:
    """Sparse multivariate Laurent polynomial: exponent vector -> integer."""

    __slots__ = ("terms", "nvars")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], int] | None = None):
        clean: dict[tuple[int, ...], int] = {}
        for exps, c in (terms or {}).items():
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} is not length {nvars}")
            if c != 0:
                clean[exps] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "nvars", nvars)

    def __setattr__(self, name, value):
        raise AttributeError("MultiLaurent is immutable")

    def coeff(self, exps: tuple[int, ...]) -> int:
        return self.terms.get(tuple(exps), 0)

    def __mul__(self, other: "MultiLaurent") -> "MultiLaurent":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                v = out.get(key, 0) + c1 * c2
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
        return MultiLaurent(self.nvars, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiLaurent)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"MultiLaurent({self.nvars}, {self.terms!r})"


def char_ct(lmbda: Partition, mu: Partition, max_rows: int = DEFAULT_ROW_CAP) -> int:
    """Character value by expanding the constant-term product exactly.

    Expands prod_{i<j} (1 - x_j/x_i) times prod_k (sum_i x_i^{mu_k}) with one
    variable per row of lmbda and reads the coefficient of the exponent
    vector (lmbda_1, ..., lmbda_m).  Term count grows quickly with the row
    count, hence the cap.
    """
    if lmbda.weight() != mu.weight():
        raise ValueError(
            f"weight mismatch: |lambda|={lmbda.weight()} but |mu|={mu.weight()}"
        )
    m = len(lmbda)
    if m > max_rows:
        raise RowCapExceeded(
            f"lambda has {m} rows, cap is {max_rows}; use char_mn instead"
        )
    if m == 0:
        return 1

    product = MultiLaurent(m, {(0,) * m: 1})
    for i in range(m):
        for j in range(i + 1, m):
            exps = [0] * m
            exps[j] += 1
            exps[i] -= 1
            factor = MultiLaurent(m, {(0,) * m: 1, tuple(exps): -1})
            product = product * factor

    # Power sums only raise exponents, so once they start, any term with an
    # exponent already above its target row length can never contribute.
    target = tuple(lmbda.parts)
    for part in sorted(mu.parts, reverse=True):
        factor_terms: dict[tuple[int, ...], int] = {}
        for i in range(m):
            exps = [0] * m
            exps[i] = part
            factor_terms[tuple(exps)] = 1
        product = product * MultiLaurent(m, factor_terms)
        pruned = {
            exps: c
            for exps, c in product.terms.items()
            if all(e <= t for e, t in zip(exps, target))
        }
        product = MultiLaurent(m, pruned)
    return product.coeff(target)


def two_row_gen_poly(mu0: Partition, n: int) -> IntPoly:
    """P(x) = (1-x)(1+x)^(n - sum a_i) * prod_i (1 + x^{a_i}); degree n+1.

    Coefficient j is the two-rowed character on (n-j, j) for j <= n/2 and
    extends anti-palindromically beyond.
    """
    check_mu0_n(mu0, n)
    excess = n - mu0.weight()
    p = ONE_MINUS_X * IntPoly(binomial_range(excess, 0, excess))
    for a in mu0.parts:
        p = p * IntPoly([1] + [0] * (a - 1) + [1])
    return p


def char_two_row(n: int, j: int, mu0: Partition) -> int:
    """Coefficient c_j of the two-rowed generating polynomial.

    Genuine character of (n-j, j) on the padded class for 0 <= j <= n/2; the
    range extends to j = n+1 (the true degree), where c_{n+1} = -c_0.
    """
    if not 0 <= j <= n + 1:
        raise ValueError(f"j must be in [0, {n + 1}], got {j}")
    return two_row_gen_poly(mu0, n).coeff(j)


def char_mn(lmbda: Partition, mu: Partition) -> int:
    """Character value by recursive border-strip removal (the oracle path)."""
    if lmbda.weight() != mu.weight():
        raise ValueError(
            f"weight mismatch: |lambda|={lmbda.weight()} but |mu|={mu.weight()}"
        )
    return _mn(tuple(lmbda.parts), tuple(sorted(mu.parts, reverse=True)))


@lru_cache(maxsize=None)
def _mn(shape: tuple[int, ...], classes: tuple[int, ...]) -> int:
    if not classes:
        return 1
    k = classes[0]
    rest = classes[1:]
    total = 0
    for smaller, height in _strip_removals(shape, k):
        sign = -1 if height % 2 else 1
        total += sign * _mn(smaller, rest)
    return total


def _strip_removals(shape: tuple[int, ...], k: int):
    """All ways to remove a k-border-strip, as (new shape, strip height).

    First-column hook lengths b_i = shape_i + (m - 1 - i) are distinct; a
    removal is b -> b - k with b - k >= 0 and not already present, and the
    height is the number of other hooks strictly between b - k and b.
    """
    m = len(shape)
    betas = [shape[i] + (m - 1 - i) for i in range(m)]
    occupied = set(betas)
    for b in betas:
        nb = b - k
        if nb < 0 or nb in occupied:
            continue
        height = sum(1 for c in betas if nb < c < b)
        replaced = sorted((c for c in betas if c != b), reverse=True)
        # re-insert the moved hook, keeping the list sorted descending
        pos = 0
        while pos < len(replaced) and replaced[pos] > nb:
            pos += 1
        replaced.insert(pos, nb)
        new_shape = tuple(replaced[i] - (m - 1 - i) for i in range(m))
        while new_shape and new_shape[-1] == 0:
            new_shape = new_shape[:-1]
        yield new_shape, height


def padded_class(mu0: Partition, n: int) -> Partition:
    """The cycle type mu0 padded with 1s up to weight n."""
    check_mu0_n(mu0, n)
    return make_partition(list(mu0.parts) + [1] * (n - mu0.weight()))
