"""Exact polynomial products and binomial coefficients."""

import random
from fractions import Fraction
from math import comb
from itertools import zip_longest

import pytest
from hypothesis import given
from hypothesis import strategies as st

from charsum.polyring import IntPoly, binomial_coeff, central_binomial


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


def falling_factorial_oracle(e, k):
    """C(e, k) = e(e-1)...(e-k+1)/k! via exact rationals."""
    num = Fraction(1)
    for i in range(k):
        num *= Fraction(e - i, i + 1)
    assert num.denominator == 1
    return num.numerator


def add(a, b):
    """Coefficient-wise sum of two IntPolys."""
    return IntPoly(x + y for x, y in zip_longest(a.coeffs, b.coeffs, fillvalue=0))


def random_poly(rng, max_deg=6, bound=9):
    return IntPoly([rng.randint(-bound, bound) for _ in range(rng.randint(0, max_deg))])


class TestMul:
    def test_difference_of_squares(self):
        assert (IntPoly((1, -1)) * IntPoly((1, 1))).coeffs == (1, 0, -1)

    def test_hand_expansion_vs_convolution_oracle(self):
        a = IntPoly((1, -2, 1))
        b = IntPoly((1, 0, 2, 0, 1))
        expected = (1, -2, 3, -4, 3, -2, 1)
        assert (a * b).coeffs == expected
        assert list(expected) == convolve_oracle(a.coeffs, b.coeffs)

    def test_zero_annihilates(self):
        p = IntPoly((3, 1, 4))
        assert (p * IntPoly()).coeffs == ()
        assert (IntPoly() * p).coeffs == ()
        assert (IntPoly() * IntPoly()).coeffs == ()

    def test_degree_adds(self):
        rng = random.Random(1)
        for _ in range(25):
            a, b = random_poly(rng), random_poly(rng)
            if not a.coeffs or not b.coeffs:
                continue
            assert len((a * b).coeffs) - 1 == (len(a.coeffs) - 1) + (len(b.coeffs) - 1)

    def test_trailing_zeros_are_trimmed(self):
        assert IntPoly([1, -1, 0, 0]).coeffs == (1, -1)
        assert IntPoly([0, 0]).coeffs == ()

    def test_ring_axioms(self):
        rng = random.Random(2)
        for _ in range(40):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert (a * b).coeffs == (b * a).coeffs
            assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
            assert (a * add(b, c)).coeffs == add(a * b, a * c).coeffs


class TestCoeff:
    def test_two_row_polynomial_coefficient(self):
        assert IntPoly((1, -1, 1, -1)).coeffs[2] == 1


class TestBinomialRange:
    """``binomial_coeff`` over whole rows of Pascal's triangle and past their ends."""

    def test_against_fraction_product_oracle(self):
        for e in range(9):
            for k in range(12):
                assert binomial_coeff(e, k) == falling_factorial_oracle(e, k)

    def test_agrees_with_poly_pow_for_nonnegative(self):
        power = IntPoly((1,))
        for e in range(7):
            row = [binomial_coeff(e, j) for j in range(11)]
            assert row == list(power.coeffs) + [0] * (11 - len(power.coeffs))
            assert row[: e + 1] == pascal_row_oracle(e)
            power = power * IntPoly((1, 1))

    def test_negative_exponent_raises(self):
        # (1+x)^e with e < 0 is a power series, which no caller reads
        with pytest.raises(ValueError):
            binomial_coeff(-2, 1)


# one move of a walk over m: a step of -1, 0 or +1, a jump, or a return to m = 0
walk_moves = st.one_of(
    st.sampled_from([("step", -1), ("step", 0), ("step", 1)]),
    st.tuples(st.just("jump"), st.integers(0, 400)),
    st.just(("jump", 0)),
)


class TestCentralBinomial:
    @given(start=st.integers(0, 400), moves=st.lists(walk_moves, max_size=40))
    def test_matches_comb_along_walks(self, start, moves):
        # a +1 step steps from the kept pair; any other move seeds afresh
        m = start
        assert central_binomial(m) == comb(2 * m, m)
        for kind, arg in moves:
            m = max(0, m + arg) if kind == "step" else arg
            assert central_binomial(m) == comb(2 * m, m), m

    def test_threads_sharing_the_kept_pairs_read_exact_values(self):
        # concurrent walks overwrite each other's kept pair; every value must
        # still be exact
        import sys
        import threading

        errors = []

        def walk(start):
            for m in list(range(start, start + 60)) + list(range(start + 60, start, -1)):
                if central_binomial(m) != comb(2 * m, m):
                    errors.append(m)

        threads = [threading.Thread(target=walk, args=(100 * i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            central_binomial(-1)
