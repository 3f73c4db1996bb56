"""Exact polynomial arithmetic, series, and the telescoping product."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from charsum.polyring import (
    ONE,
    ONE_MINUS_X,
    ZERO,
    IntPoly,
    LaurentPoly,
    TruncatedSeries,
    binomial_coeff,
    binomial_range,
    binomial_series,
    coeff,
    euler_product,
    is_antipalindromic,
    poly_mul,
    poly_pow,
    reciprocal_substitution,
    series_from_poly,
    x_power,
)


def convolve_oracle(a, b):
    """Independent dict-based convolution."""
    out = {}
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = out.get(i + j, 0) + ca * cb
    deg = max(out, default=-1)
    return [out.get(k, 0) for k in range(deg + 1)]


def pascal_row_oracle(e):
    """Row e of Pascal's triangle by the additive recurrence."""
    row = [1]
    for _ in range(e):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row


def generalized_binomial_oracle(e, k):
    """C(e, k) = e(e-1)...(e-k+1)/k! via exact rationals."""
    num = Fraction(1)
    for i in range(k):
        num *= Fraction(e - i, i + 1)
    assert num.denominator == 1
    return num.numerator


def random_poly(rng, max_deg=6, bound=9):
    return IntPoly([rng.randint(-bound, bound) for _ in range(rng.randint(0, max_deg))])


class TestMul:
    def test_difference_of_squares(self):
        assert ONE_MINUS_X * IntPoly((1, 1)) == IntPoly((1, 0, -1))

    def test_hand_expansion_vs_convolution_oracle(self):
        a = IntPoly((1, -2, 1))
        b = IntPoly((1, 0, 2, 0, 1))
        expected = IntPoly((1, -2, 3, -4, 3, -2, 1))
        assert poly_mul(a, b) == expected
        assert list(expected.coeffs) == convolve_oracle(a.coeffs, b.coeffs)

    def test_zero_annihilates(self):
        p = IntPoly((3, 1, 4))
        assert p * ZERO == ZERO
        assert ZERO * p == ZERO

    def test_degree_adds(self):
        rng = random.Random(1)
        for _ in range(25):
            a, b = random_poly(rng), random_poly(rng)
            if a.is_zero() or b.is_zero():
                continue
            assert (a * b).degree == a.degree + b.degree

    def test_ring_axioms(self):
        rng = random.Random(2)
        for _ in range(40):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert (a - b) + b == a


class TestPow:
    def test_square(self):
        assert poly_pow(IntPoly((1, 1)), 2) == IntPoly((1, 2, 1))

    def test_zeroth_power_is_one(self):
        assert poly_pow(IntPoly((1, 1)), 0) == ONE
        assert poly_pow(ZERO, 0) == ONE

    def test_binomial_row_vs_pascal_oracle(self):
        assert list(poly_pow(IntPoly((1, 1)), 5).coeffs) == [1, 5, 10, 10, 5, 1]
        for e in range(9):
            assert list(poly_pow(IntPoly((1, 1)), e).coeffs) == pascal_row_oracle(e)

    def test_matches_repeated_mul(self):
        rng = random.Random(3)
        for _ in range(15):
            a = random_poly(rng, max_deg=4, bound=4)
            prod = ONE
            for e in range(9):
                assert poly_pow(a, e) == prod
                prod = prod * a

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            poly_pow(IntPoly((1, 1)), -1)


class TestCoeff:
    def test_two_row_polynomial_coefficient(self):
        assert coeff(IntPoly((1, -1, 1, -1)), 2) == 1

    def test_out_of_support_is_zero(self):
        p = IntPoly((1, 2))
        assert coeff(p, -1) == 0
        assert coeff(p, 5) == 0

    def test_laurent_coeff_respects_shift(self):
        lp = LaurentPoly(IntPoly((1, 2, 3)), shift=-2)
        assert coeff(lp, -2) == 1
        assert coeff(lp, 0) == 3
        assert coeff(lp, 1) == 0
        assert lp.constant_term() == 3


class TestBinomialRange:
    @given(
        e=st.integers(-60, 400),
        lo=st.integers(-20, 420),
        width=st.integers(0, 40),
    )
    def test_matches_binomial_coeff_term_by_term(self, e, lo, width):
        # windows reach below 0, above e, and straddle both edges
        hi = lo + width - 1
        assert binomial_range(e, lo, hi) == [binomial_coeff(e, j) for j in range(lo, hi + 1)]

    def test_one_binomial_coeff_call_per_range(self, monkeypatch):
        import charsum.polyring as polyring

        calls = []
        original = polyring.binomial_coeff
        monkeypatch.setattr(
            polyring, "binomial_coeff", lambda e, k: calls.append((e, k)) or original(e, k)
        )
        assert binomial_range(3000, 1480, 1502) == [
            original(3000, j) for j in range(1480, 1503)
        ]
        assert calls == [(3000, 1502)]


class TestBinomialSeries:
    def test_negative_two(self):
        s = binomial_series(-2, 3)
        assert s.coeffs == (1, -2, 3, -4)

    def test_truncated_positive(self):
        assert binomial_series(2, 1).coeffs == (1, 2)

    def test_exponent_zero(self):
        assert binomial_series(0, 5).coeffs == (1, 0, 0, 0, 0, 0)

    def test_against_fraction_product_oracle(self):
        for e in range(-8, 9):
            for k in range(12):
                assert binomial_coeff(e, k) == generalized_binomial_oracle(e, k)

    def test_agrees_with_poly_pow_for_nonnegative(self):
        for e in range(7):
            s = binomial_series(e, 10)
            p = poly_pow(IntPoly((1, 1)), e)
            assert all(s.coeff(k) == p.coeff(k) for k in range(11))

    def test_inverse_pairs_multiply_to_one(self):
        one = TruncatedSeries([1], 40)
        for e in range(-6, 7):
            assert binomial_series(e, 40) * binomial_series(-e, 40) == one


class TestTruncatedSeries:
    def test_mul_tracks_min_order(self):
        a = TruncatedSeries([1, 1, 1], 2)
        b = TruncatedSeries([1, -1], 1)
        prod = a * b
        assert prod.order == 1
        assert prod.coeffs == (1, 0)

    def test_coeff_beyond_order_raises(self):
        s = TruncatedSeries([1, 2], 1)
        with pytest.raises(ValueError):
            s.coeff(2)
        assert s.coeff(-3) == 0

    def test_from_poly(self):
        s = series_from_poly(IntPoly((1, 2, 3, 4)), 2)
        assert s.coeffs == (1, 2, 3)


class TestEulerProduct:
    def test_t_one(self):
        assert euler_product(1) == IntPoly((1, 1))
        assert ONE_MINUS_X * euler_product(1) == IntPoly((1, 0, -1))

    def test_t_two(self):
        assert euler_product(2) == IntPoly((1, 1, 1, 1))
        assert ONE_MINUS_X * euler_product(2) == IntPoly((1, 0, 0, 0, -1))

    def test_t_three_all_ones(self):
        assert euler_product(3) == IntPoly([1] * 8)

    def test_telescopes_up_to_ten(self):
        for t in range(1, 11):
            expected = IntPoly([1] + [0] * (2**t - 1) + [-1])
            assert ONE_MINUS_X * euler_product(t) == expected

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            euler_product(0)


class TestAntipalindromic:
    def test_examples(self):
        assert is_antipalindromic(IntPoly((1, -1, 1, -1)))
        assert not is_antipalindromic(IntPoly((1, 1)))
        assert is_antipalindromic(ZERO)

    def test_odd_middle_coefficient_must_vanish(self):
        assert not is_antipalindromic(IntPoly((1, 5, -1)))
        assert is_antipalindromic(IntPoly((1, 0, -1)))


class TestLaurent:
    def test_reciprocal_substitution(self):
        p = IntPoly((1, -1, 1, -1))
        rp = reciprocal_substitution(p)
        assert rp.coeff(0) == 1
        assert rp.coeff(-3) == -1
        assert rp.coeff(1) == 0

    def test_product_shifts_add(self):
        a = LaurentPoly(IntPoly((1, 1)), shift=-1)
        b = LaurentPoly(IntPoly((1, -1)), shift=2)
        prod = a * b
        assert prod.coeff(1) == 1
        assert prod.coeff(3) == -1
        assert prod.coeff(2) == 0

    def test_equality_ignores_representation(self):
        assert LaurentPoly(IntPoly((0, 1)), shift=0) == LaurentPoly(IntPoly((1,)), shift=1)

    def test_x_power_rejects_negative(self):
        with pytest.raises(ValueError):
            x_power(-1)
        assert x_power(3) == IntPoly((0, 0, 0, 1))

    def test_debug_dump(self):
        assert str(IntPoly((1, 0, -2))) == "1 + -2*x^2"
        assert str(IntPoly((1, -1, 1, -1))) == "1 + -1*x + 1*x^2 + -1*x^3"
        assert str(ZERO) == "0"
