"""Agreement between the three character evaluation routes."""

import random
from collections import Counter
from functools import lru_cache
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charsum.characters import (
    RowCapExceeded,
    _defects,
    _dimension,
    _mn,
    char_ct,
    char_mn,
    char_two_row,
    hook_factor,
    padded_class,
)
from charsum.charsums import sum_A, sum_A_bruteforce, sum_B
from charsum.partition import Partition, enumerate_partitions, make_partition
from charsum.polyring import IntPoly, binomial_coeff


class TestCharCt:
    def test_one_row_is_trivial_character(self):
        for mu in enumerate_partitions(6):
            assert char_ct(make_partition([6]), mu) == 1

    def test_hand_values(self):
        assert char_ct(make_partition([2, 1]), make_partition([3])) == -1
        assert char_ct(make_partition([1, 1]), make_partition([2])) == -1

    def test_empty_shapes(self):
        assert char_ct(Partition(), Partition()) == 1

    def test_weight_mismatch(self):
        with pytest.raises(ValueError, match="weight mismatch"):
            char_ct(make_partition([2, 1]), make_partition([4]))

    def test_row_cap(self, monkeypatch):
        lam = make_partition([1, 1, 1, 1, 1])
        mu = make_partition([5])
        with pytest.raises(RowCapExceeded, match="char_mn"):
            char_ct(lam, mu)
        # the cap is read at call time, so a raised cap admits it
        monkeypatch.setattr("charsum.characters.DEFAULT_ROW_CAP", 5)
        assert char_ct(lam, mu) == char_mn(lam, mu)

    def test_sign_character_cancels_to_one_term(self, monkeypatch):
        # the difference factors of 1^m expand to many terms that must cancel
        # down to the single value (-1)^(number of 2s)
        monkeypatch.setattr("charsum.characters.DEFAULT_ROW_CAP", 6)
        for twos in range(4):
            lam = make_partition([1] * 6)
            mu = make_partition([2] * twos + [1] * (6 - 2 * twos))
            assert char_ct(lam, mu) == (-1) ** twos


class TestCharMn:
    def test_sign_character(self):
        # on (1^n) the value is (-1)^(number of even parts)
        for n in range(1, 8):
            lam = make_partition([1] * n)
            for mu in enumerate_partitions(n):
                k = sum(1 for p in mu if p % 2 == 0)
                assert char_mn(lam, mu) == (-1) ** k

    def test_hand_values(self):
        assert char_mn(make_partition([4, 1]), make_partition([3, 2])) == -1
        assert char_mn(make_partition([3, 1, 1]), make_partition([3, 2])) == 0

    def test_empty(self):
        assert char_mn(Partition(), Partition()) == 1

    def test_weight_mismatch(self):
        with pytest.raises(ValueError, match="weight mismatch"):
            char_mn(make_partition([2]), make_partition([3]))

    def test_first_column_norm(self):
        # sum over shapes of the squared dimension equals n!
        for n in range(1, 8):
            one_class = make_partition([1] * n)
            total = sum(char_mn(lam, one_class) ** 2 for lam in enumerate_partitions(n))
            assert total == factorial(n)

    def test_column_orthogonality(self):
        # sum over shapes of chi(mu)^2 is the centralizer order z_mu
        for n in range(13):
            shapes = list(enumerate_partitions(n))
            for mu in enumerate_partitions(n):
                z = prod(k**m * factorial(m) for k, m in Counter(mu).items())
                assert sum(char_mn(lam, mu) ** 2 for lam in shapes) == z, mu

    def test_class_of_ones_counts_standard_tableaux(self):
        @lru_cache(maxsize=None)
        def syt(shape):
            # branching rule: the largest entry sits in a removable corner
            if not shape:
                return 1
            total = 0
            for i, part in enumerate(shape):
                if i + 1 == len(shape) or shape[i + 1] < part:
                    smaller = shape[:i] + (part - 1,) + shape[i + 1 :]
                    total += syt(tuple(p for p in smaller if p))
            return total

        for n in range(13):
            ones = make_partition([1] * n)
            for lam in enumerate_partitions(n):
                assert char_mn(lam, ones) == syt(lam.parts), lam

    # the benchmark's oracle classes and the states one A at n = 200 visits
    A_STATES_AT_200 = {(6, 2, 2): 392, (5, 3, 2): 392, (4, 4, 2): 393, (4, 3, 3): 393}

    @pytest.mark.parametrize("mu0", list(A_STATES_AT_200))
    def test_memo_holds_one_n_of_a_brute_force_a(self, mu0):
        # on the benchmark's A window each n clears the states of the n
        # before, so the window ends as n = 200 alone does
        states = self.A_STATES_AT_200[mu0]
        mu0 = make_partition(list(mu0))
        _mn.cache_clear()
        sum_A_bruteforce(mu0, 200)
        alone = _mn.cache_info()
        for n in range(160, 201):
            sum_A_bruteforce(mu0, n)
        assert _mn.cache_info() == alone
        assert alone.misses == alone.currsize == states


def _partitions_of(n, max_len=None):
    choices = list(enumerate_partitions(n))
    if max_len is not None:
        choices = [p for p in choices if len(p) <= max_len]
    return st.sampled_from(choices)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 16).flatmap(lambda n: st.tuples(_partitions_of(n, 3), _partitions_of(n))))
def test_mn_agrees_with_ct_on_three_rows(pair):
    lam, mu = pair
    assert char_mn(lam, mu) == char_ct(lam, mu)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.integers(0, 12).flatmap(lambda n: st.tuples(_partitions_of(n), _partitions_of(n))),
        min_size=1,
        max_size=8,
    )
)
def test_memo_cleared_by_weight_keeps_every_value(pairs):
    # pairs of mixed weights in order: each new weight clears the memo
    _mn.cache_clear()
    in_order = [char_mn(lam, mu) for lam, mu in pairs]
    held = _mn.cache_info().currsize
    fresh = []
    for lam, mu in pairs:
        _mn.cache_clear()
        fresh.append(char_mn(lam, mu))
    assert in_order == fresh
    # the memo holds only the states of the last run of one weight
    last = pairs[-1][0].weight()
    run = len(pairs)
    while run and pairs[run - 1][0].weight() == last:
        run -= 1
    _mn.cache_clear()
    for lam, mu in pairs[run:]:
        char_mn(lam, mu)
    assert _mn.cache_info().currsize == held


def _conjugate(lam):
    return make_partition([sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0)])


def _partitions_up_to(cap):
    """Partitions of weight at most cap; half are conjugated, so shapes with
    many rows are as common as shapes with few."""

    def bounded(xs):
        parts = []
        for x in xs:
            if sum(parts) + x > cap:
                break
            parts.append(x)
        return make_partition(parts)

    shapes = st.lists(st.integers(1, cap), max_size=cap).map(bounded)
    return st.tuples(shapes, st.booleans()).map(lambda s: _conjugate(s[0]) if s[1] else s[0])


@settings(max_examples=200, deadline=None)
@given(_partitions_up_to(40))
def test_dimension_is_the_hook_length_formula(lam):
    conj = _conjugate(lam)
    hooks = [lam[i] - j + conj[j] - i - 1 for i in range(len(lam)) for j in range(lam[i])]
    assert _dimension(_defects(lam.parts)) == factorial(lam.weight()) // prod(hooks)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 18).flatmap(lambda n: st.tuples(_partitions_of(n), _partitions_of(n))))
def test_conjugate_shape_is_twisted_by_the_sign(pair):
    # chi^(lambda') = sgn * chi^lambda, sgn(mu) = (-1)^(number of even parts)
    lam, mu = pair
    sign = (-1) ** sum(1 for p in mu if p % 2 == 0)
    assert char_mn(_conjugate(lam), mu) == sign * char_mn(lam, mu)


def gen_poly(mu0, n):
    """P(x)'s coefficients, trimmed, read one by one through ``char_two_row``."""
    return IntPoly(char_two_row(n, j, mu0) for j in range(n + 2)).coeffs


MU0_UP_TO_10 = [mu0 for w in range(11) for mu0 in enumerate_partitions(w, 2)]


class TestTwoRowGenPoly:
    """The generating polynomial P(x) = (1-x)(1+x)^(n-|mu0|) prod (1 + x^a)."""

    def test_examples(self):
        assert gen_poly(make_partition([2]), 2) == (1, -1, 1, -1)
        assert gen_poly(Partition(), 1) == (1, 0, -1)
        assert gen_poly(make_partition([3]), 3) == (1, -1, 0, 1, -1)

    def test_degree_is_n_plus_one(self):
        for mu0 in [Partition(), make_partition([2]), make_partition([3, 2])]:
            for n in range(mu0.weight(), mu0.weight() + 6):
                assert len(gen_poly(mu0, n)) - 1 == n + 1

    def test_part_one_rejected(self):
        with pytest.raises(ValueError, match="smallest part"):
            char_two_row(6, 0, make_partition([3, 1]))

    def test_n_below_weight_rejected(self):
        with pytest.raises(ValueError, match="below"):
            char_two_row(2, 0, make_partition([3]))

    def test_antipalindromic_randomized(self):
        rng = random.Random(11)
        for _ in range(15):
            w = rng.randint(0, 10)
            candidates = list(enumerate_partitions(w, 2))
            if not candidates:
                continue
            mu0 = rng.choice(candidates)
            n = rng.randint(w, 30)
            p = gen_poly(mu0, n)
            assert len(p) - 1 == n + 1
            for j in range(n + 2):
                assert p[j] == -p[n + 1 - j], (mu0, n, j)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(MU0_UP_TO_10), st.integers(0, 30))
    def test_coefficients_of_the_expanded_product(self, mu0, excess):
        n = mu0.weight() + excess
        expected = IntPoly((1, -1)) * IntPoly(binomial_coeff(excess, k) for k in range(excess + 1))
        for a in mu0.parts:
            expected = expected * IntPoly([1] + [0] * (a - 1) + [1])
        cs = [char_two_row(n, j, mu0) for j in range(n + 2)]
        assert cs == list(expected.coeffs)
        assert all(cs[j] == -cs[n + 1 - j] for j in range(n + 2))
        assert sum(c * c for c in cs) == 2 * sum_A(mu0, n)


class TestHookFactor:
    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from([mu0 for mu0 in MU0_UP_TO_10 if mu0.weight() <= 8]), st.integers(0, 6))
    def test_coefficients_are_the_hook_characters(self, mu0, excess):
        # (1+x)^(n-h) V(x) with h = |mu0|, and h = 1 for the class 1^n: from
        # n = |mu0| up, the exponent is never negative
        h = mu0.weight() or 1
        n = h + excess
        cls = padded_class(mu0, n)
        q = IntPoly(comb(excess, k) for k in range(excess + 1)) * IntPoly(hook_factor(mu0.parts))
        assert list(q.coeffs) == [char_mn(make_partition([n - k] + [1] * k), cls) for k in range(n)]
        assert sum(d * d for d in q.coeffs) == sum_B(mu0, n)

    def test_examples(self):
        assert hook_factor(()) == (1,)
        assert hook_factor((2,)) == (1, -1)
        assert hook_factor((3, 2)) == (IntPoly((1, -1, 1)) * IntPoly((1, 0, -1))).coeffs
        assert sum_B(Partition(), 0) == 0  # no hook has 0 cells


class TestCharTwoRow:
    def test_examples(self):
        assert char_two_row(3, 1, make_partition([3])) == -1
        assert char_two_row(2, 0, make_partition([2])) == 1
        assert char_two_row(2, 1, make_partition([2])) == -1

    def test_large_n(self):
        # P = (1-x)(1+x)^19997 (1 + x^3); x^3 is past j = 2
        assert char_two_row(20000, 2, make_partition([3])) == comb(19997, 2) - comb(19997, 1)

    def test_extends_to_degree(self):
        # c_{n+1} = -c_0 is part of the surface
        assert char_two_row(2, 3, make_partition([2])) == -1

    def test_j_out_of_range(self):
        with pytest.raises(ValueError, match="j must be"):
            char_two_row(2, 4, make_partition([2]))
        with pytest.raises(ValueError, match="j must be"):
            char_two_row(2, -1, make_partition([2]))


class TestCrossValidation:
    def test_ct_agrees_with_mn_small(self):
        for n in range(7):
            for lam in enumerate_partitions(n):
                if len(lam) > 3:
                    continue
                for mu in enumerate_partitions(n):
                    assert char_ct(lam, mu) == char_mn(lam, mu), (lam, mu)

    def test_two_row_agrees_with_mn_small(self):
        for w in range(6):
            for mu0 in enumerate_partitions(w, 2):
                for n in range(w, 10):
                    cls = padded_class(mu0, n)
                    for j in range(n // 2 + 1):
                        lam = make_partition([p for p in (n - j, j) if p > 0])
                        assert char_two_row(n, j, mu0) == char_mn(lam, cls)


class TestPaddedClass:
    def test_pads_with_ones(self):
        assert padded_class(make_partition([3, 2]), 8) == make_partition([3, 2, 1, 1, 1])

    def test_rejects_short_n(self):
        with pytest.raises(ValueError):
            padded_class(make_partition([3, 2]), 4)

    def test_rejects_part_one(self):
        with pytest.raises(ValueError, match="smallest part"):
            padded_class(make_partition([3, 1]), 6)
