"""Search for constant-ratio pairs and fit closed forms to the sums.

``search_pairs`` lists every pair (mu0, mu0'), all parts >= 2 and
|mu0'| = |mu0| + 2, whose ratio A(mu0)(n) / B(mu0')(n+2) is one constant for
all n.  By the two arguments below these are the paper's theorem-form mu0 and
their companions, each proven by V(mu0') = T(mu0) (``charsums.factor``):

- Unitriangular.  With S = f f~ palindromic of centre c (``charsums``), the
  sequence m -> [x^(m+c)] (1+x)^(2m) S(x) combines m -> C(2m, m+s),
  s = 0..c, and on m = 0..c the matrix C(2m, m+s) is unitriangular, so the
  sequence determines S.  A ratio r for all n thus means S_A(mu0) =
  2r S_B(mu0').  T and V are products of factors 1 - x^k, so f~ = +-f,
  S = +-f^2 and f(0) = 1: hence 2r = 1 and V(mu0') = T(mu0).
- Complete.  Write f = prod_k (1 - x^k)^(v_k); then
  v(T(mu)) = e_1 + sum_{a in mu} (e_2a - e_a) and
  v(V(nu)) = e_1 - e_2 + sum_{odd b in nu} (e_2b - e_b) + sum_{even b in nu} e_b.
  The odd entries give mu0 and mu0' the same odd parts, leaving
  e_2 + sum_{even a in mu0} (e_2a - e_a) = sum_{even b in mu0'} e_b.  The
  right side has no negative entry, so mu0's even parts are 2, 4, ...,
  2^(t-1) and mu0' has the one even part 2^t: the pairs are exactly the
  paper's theorem-form mu0 and their companions, and V determines mu0'.

No halving identity exists at another shift, which PAPER.md does not state.
For families F, G in {A, B}, classes mu0, nu with parts >= 2 and a shift d,
F(mu0)(n) / G(nu)(n+d) is one constant for all large n only for the pairs
above (A over B at d = 2, ratio 1/2, or B over A at d = -2) and for F = G,
nu = mu0, d = 0.  One step of m multiplies S by (1+x)^2/x, and the
functions m -> C(2m, m+s) / C(2m, m) = prod_{i<=s} (m-i+1)/(m+i) have
distinct poles, so they are linearly independent: a constant ratio means
S_F = r (1+x)^(2 delta) S_G, delta the difference of the two m's.  Now
1 + x = (1 - x^2)/(1 - x) has vector e_2 - e_1, and the e_1 entry of v(T)
and of v(V(nu)), nu non-empty, is 1, so delta = 0 and the two arguments
above apply (for F = G, v(f) gives the class back).  B of the empty class,
V = 1, has e_1 entry 0 and is apart.  A window alone misleads:
2A((4,2))(n) = B((9))(n+3) and = B((10))(n+4) hold for n = 7..14 only.

``ratio_test`` cross-checks each proven pair on a window of n.
``fit_closed_form``, which derives and checks the rational function R with
family(n) = C(2n, n) * R(n), lives in ``charsums`` next to the sums; it stays
importable from this module because ``perfbench/trace_shim.py`` wraps it here.
Every value returned is an int or a tuple of ints: a ratio is (p, q).
"""

from __future__ import annotations

import sys
from collections import namedtuple
from math import gcd

from .charsums import InternalConsistencyError, factor, fit_closed_form, sum_A, sum_B
from .partition import (
    Partition,
    companion_mu_prime,
    enumerate_partitions,
    theorem_form_of,
)

MIN_RATIO_WINDOW = 4  # n_hi - n_lo (a search's window) must be at least this
DEFAULT_SEARCH_WINDOW = 12


class SearchError(ValueError):
    """Search parameters out of range: K < 2, window < 4 or K + window > sys.maxsize."""


class TheoremPair(
    namedtuple("TheoremPair", "mu0 mu0_prime ratio n_lo n_hi theorem_predicted")
):
    """A proven pair, its ratio (p, q) = (1, 2) cross-checked over the inclusive
    window [n_lo, n_hi]; ``theorem_predicted`` is always True."""

    __slots__ = ()


def ratio_test(mu0: Partition, mu0p: Partition, n_lo: int, n_hi: int) -> tuple[int, int] | None:
    """The constant value p/q of A(mu0)(n)/B(mu0p)(n+2) on [n_lo, n_hi], if any,
    as (p, q) in lowest terms with q > 0; None when the ratio varies.

    Neither sum is ever 0, so the first sample is a valid reference and
    q > 0: A(n) sums squared characters over shapes that include the one-row
    shape (n) (the empty shape at n = 0), B(n+2) over hooks that include
    (n+2), and a one-row shape's character is 1 on every class.  Each later
    sample is compared with the first by cross-multiplication.
    """
    if mu0p.weight() != mu0.weight() + 2:
        raise ValueError(f"|mu0_prime| must be |mu0|+2, got {mu0p.weight()} vs {mu0.weight()}")
    if n_hi - n_lo < MIN_RATIO_WINDOW:
        raise ValueError(f"evidence window needs n_hi - n_lo >= {MIN_RATIO_WINDOW}")

    a_ref, b_ref = sum_A(mu0, n_lo), sum_B(mu0p, n_lo + 2)
    for n in range(n_lo + 1, n_hi + 1):
        if sum_A(mu0, n) * b_ref != sum_B(mu0p, n + 2) * a_ref:
            return None
    g = gcd(a_ref, b_ref)
    return a_ref // g, b_ref // g


def search_pairs(K: int, window: int = DEFAULT_SEARCH_WINDOW) -> list[TheoremPair]:
    """All constant-ratio pairs with |mu0| <= K and |mu0'| = |mu0| + 2.

    Each theorem-form mu0 of weight w (smallest part >= 2) is paired with its
    companion mu0', proven by V(mu0') = T(mu0) and cross-checked by
    ``ratio_test`` over n in [w, w + window]: a failed certificate or a ratio
    other than 1/2 is an InternalConsistencyError.  Output order is
    deterministic: weight ascending, then the lexicographic-descending
    enumeration order of mu0.
    """
    if K < 2:
        raise SearchError("K must be >= 2")
    if window < MIN_RATIO_WINDOW:
        raise SearchError(f"window must be >= {MIN_RATIO_WINDOW}")
    if K + window > sys.maxsize:  # the bound ``cli`` puts on --n
        raise SearchError(f"K + window must be <= {sys.maxsize}")
    pairs = []
    for w in range(K + 1):
        for mu0 in enumerate_partitions(w, min_part=2):
            form = theorem_form_of(mu0)
            if form is None:
                continue  # no mu0' has V(mu0') = T(mu0) (see above)
            mu0p = companion_mu_prime(form)
            if factor("B", mu0p) != factor("A", mu0):
                raise InternalConsistencyError(f"certificate V({mu0p}) = T({mu0}) fails")
            ratio = ratio_test(mu0, mu0p, w, w + window)
            if ratio != (1, 2):
                raise InternalConsistencyError(
                    f"V({mu0p}) = T({mu0}), but the ratio on [{w}, {w + window}]"
                    f" is {'%d/%d' % ratio if ratio else None}, not 1/2"
                )
            pairs.append(TheoremPair(mu0, mu0p, ratio, w, w + window, True))
    return pairs
