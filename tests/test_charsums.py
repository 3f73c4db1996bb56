"""The two sum families: closed constant-term route vs brute-force route."""

from math import comb, gcd

import pytest
from conftest import padded
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from charsum import charsums
from charsum.charsums import (
    InternalConsistencyError,
    _divide_linear,
    _family,
    _times_linear,
    char_hook_mn,
    char_two_row_mn,
    factor,
    sum_A,
    sum_A_bruteforce,
    sum_B,
    sum_B_bruteforce,
    verify_theorem,
)
from charsum.partition import (
    Partition,
    companion_mu_prime,
    enumerate_partitions,
    make_partition,
    theorem_form_of,
)
from charsum.polyring import IntPoly, binomial_coeff
from charsum.characters import char_mn, char_two_row
from test_characters import dense_factor


class TestSumA:
    # expected values frozen from the border-strip oracle before wiring up
    # the coefficient route
    @pytest.mark.parametrize(
        "mu0,n,expected",
        [
            ([2], 2, 2),
            ([3], 3, 2),
            ([], 1, 1),
            ([], 0, 1),
            ([2], 4, 2),
            ([], 2, 2),
        ],
    )
    def test_frozen_values(self, mu0, n, expected):
        p = make_partition(mu0)
        assert sum_A_bruteforce(p, n) == expected
        assert sum_A(p, n) == expected

    def test_catalan_prefix_for_identity_class(self):
        # all-ones class: 1, 1, 2, 5, 14, 42, 132
        got = [sum_A(Partition(), n) for n in range(7)]
        assert got == [1, 1, 2, 5, 14, 42, 132]

    def test_part_one_rejected(self):
        with pytest.raises(ValueError, match="smallest part"):
            sum_A(make_partition([2, 1]), 5)

    def test_n_below_weight_rejected(self):
        with pytest.raises(ValueError, match="below"):
            sum_A(make_partition([3]), 2)


class TestSumB:
    @pytest.mark.parametrize(
        "mu0,n,expected",
        [
            ([2], 2, 2),
            ([3, 2], 5, 4),
            ([3], 3, 3),  # hooks of 3 carry values 1, -1, 1
            ([], 2, 2),
        ],
    )
    def test_frozen_values(self, mu0, n, expected):
        p = make_partition(mu0)
        assert sum_B_bruteforce(p, n) == expected
        assert sum_B(p, n) == expected

    def test_negative_exponent_edge(self):
        # n = |mu0| makes the binomial exponent 0 and leaves the hook oracle no
        # 1s to close: every hook's character comes from the class's parts alone
        for mu0 in [[2], [3], [2, 2], [3, 2], [4, 3], [5, 4, 3, 2]]:
            p = make_partition(mu0)
            n = p.weight()
            assert sum_B(p, n) == sum_B_bruteforce(p, n) == sum(c * c for c in hooks_one_at_a_time(p, n))

    def test_part_one_rejected(self):
        with pytest.raises(ValueError, match="smallest part"):
            sum_B(make_partition([1]), 3)

    def test_n_below_weight_rejected(self):
        with pytest.raises(ValueError, match="below"):
            sum_B(make_partition([3, 2]), 4)


def hooks_one_at_a_time(mu0, n):
    """chi^(n-b, 1^b) on the padded class for b = 0..n-1, one ``char_mn`` each."""
    cls = padded(mu0, n)
    return [char_mn(Partition((n - b,) + (1,) * b), cls) for b in range(n)]


def partitions_min_two(max_weight):
    """Partitions with every part >= 2 and weight <= max_weight."""
    return st.lists(st.integers(2, max_weight), max_size=max_weight // 2).filter(
        lambda parts: sum(parts) <= max_weight
    ).map(make_partition)


def two_rows_one_at_a_time(mu0, n):
    """chi^(n-q, q) on the padded class for q = 0..n//2, one ``char_mn`` each."""
    cls = padded(mu0, n)
    return [char_mn(make_partition([p for p in (n - q, q) if p]), cls) for q in range(n // 2 + 1)]


class TestTwoRowStripOracle:
    """``char_two_row_mn`` removes each part >= 2 from every two-row shape at
    once; the reference takes each two-row shape of n from ``char_mn``."""

    def test_equals_one_char_mn_per_shape(self):
        for w in range(9):
            for mu0 in enumerate_partitions(w, 2):
                for n in range(w, w + 13):
                    assert char_two_row_mn(mu0, n) == two_rows_one_at_a_time(mu0, n), (mu0, n)

    def test_at_the_benchmark_size(self):
        mu0 = make_partition([4, 3, 3])
        row = char_two_row_mn(mu0, 200)
        assert row == two_rows_one_at_a_time(mu0, 200)
        assert sum_A_bruteforce(mu0, 200) == sum(c * c for c in row) == sum_A(mu0, 200)

    def test_empty_class(self):
        # the empty shape at n = 0 and the one-row shape (1) at n = 1
        assert char_two_row_mn(Partition(), 0) == [1]
        assert char_two_row_mn(Partition(), 1) == [1]

    @settings(max_examples=60, deadline=None)
    @given(mu0=partitions_min_two(10), extra=st.integers(0, 30))
    def test_equals_one_char_mn_per_shape_drawn(self, mu0, extra):
        n = mu0.weight() + extra
        assert char_two_row_mn(mu0, n) == two_rows_one_at_a_time(mu0, n)

    def test_rejects_n_below_weight_and_parts_one(self):
        with pytest.raises(ValueError, match="below"):
            sum_A_bruteforce(make_partition([3, 2]), 4)
        with pytest.raises(ValueError, match="smallest part"):
            sum_A_bruteforce(make_partition([3, 1]), 6)

    def test_keeps_no_oracle_state(self):
        assert sum_A_bruteforce(make_partition([5, 3, 2]), 60) == sum_A(make_partition([5, 3, 2]), 60)


class TestSteppedHookOracle:
    """``char_hook_mn`` removes each part >= 2 from every hook at once, one
    pass per part; the reference takes each hook of n from ``char_mn``."""

    def test_equals_one_char_mn_per_hook(self):
        for w in range(9):
            for mu0 in enumerate_partitions(w, 2):
                for n in range(w, w + 13):
                    assert char_hook_mn(mu0, n) == hooks_one_at_a_time(mu0, n), (mu0, n)

    def test_at_the_benchmark_size(self):
        mu0 = make_partition([4, 3, 3])
        row = char_hook_mn(mu0, 100)
        assert row == hooks_one_at_a_time(mu0, 100)
        assert sum_B_bruteforce(mu0, 100) == sum(c * c for c in row) == sum_B(mu0, 100)

    def test_empty_class(self):
        # no hook has 0 cells; the class 1^n gives the hook-length row
        empty = Partition()
        for n in range(40):
            assert char_hook_mn(empty, n) == hooks_one_at_a_time(empty, n), n
            assert sum_B_bruteforce(empty, n) == (comb(2 * n - 2, n - 1) if n else 0), n

    @settings(max_examples=60, deadline=None)
    @given(mu0=partitions_min_two(10), extra=st.integers(0, 30))
    def test_equals_one_char_mn_per_hook_drawn(self, mu0, extra):
        n = mu0.weight() + extra
        assert char_hook_mn(mu0, n) == hooks_one_at_a_time(mu0, n)

    def test_rejects_n_below_weight_and_parts_one(self):
        with pytest.raises(ValueError, match="below"):
            sum_B_bruteforce(make_partition([3, 2]), 4)
        with pytest.raises(ValueError, match="smallest part"):
            sum_B_bruteforce(make_partition([3, 1]), 6)

    def test_keeps_no_oracle_state(self):
        assert sum_B_bruteforce(make_partition([5, 3, 2]), 60) == sum_B(make_partition([5, 3, 2]), 60)


class TestLemmaVsDefinition:
    def test_at_the_benchmark_sizes(self):
        # the largest n of the benchmark's oracle windows; the hook factor is
        # otherwise only checked against char_mn up to weight 14
        assert sum_A_bruteforce(make_partition([5, 3, 2]), 200) == sum_A(make_partition([5, 3, 2]), 200)
        assert sum_B_bruteforce(make_partition([4, 3, 3]), 100) == sum_B(make_partition([4, 3, 3]), 100)

    def test_values_nonnegative(self):
        # each sum holds the one-row shape, whose character is 1, so it is at
        # least 1; only B of the empty class at n = 0 sums over no hook
        assert sum_B(Partition(), 0) == 0
        for w in range(6):
            for mu0 in enumerate_partitions(w, 2):
                for n in range(w, 10):
                    assert sum_A(mu0, n) >= 1
                    if n:
                        assert sum_B(mu0, n) >= 1

    @settings(max_examples=150, deadline=None)
    @given(mu0=partitions_min_two(10), extra=st.integers(0, 12))
    def test_values_positive_drawn(self, mu0, extra):
        # the reason ``discovery.ratio_test`` needs no branch for a zero sum
        n = mu0.weight() + extra
        assert sum_A(mu0, n) >= 1
        if n:
            assert sum_B(mu0, n) >= 1


class TestKernelProperties:
    @settings(max_examples=150, deadline=None)
    @given(mu0=partitions_min_two(8), extra=st.integers(0, 12))
    def test_lemma_equals_definition(self, mu0, extra):
        n = mu0.weight() + extra
        assert sum_A(mu0, n) == sum_A_bruteforce(mu0, n)
        assert sum_B(mu0, n) == sum_B_bruteforce(mu0, n)

    def test_large_n_against_one_comb_per_coefficient(self):
        # reference: expand small(x) by hand and take a fresh binomial for
        # every coefficient, as the formula in the module docstring reads
        mu0, n = make_partition([5, 3, 2]), 20000
        small = {0: 1, 1: -2, 2: 1}  # (1 - x)^2
        for a in mu0.parts:
            for _ in range(2):  # (1 + x^a)^2
                grown = dict(small)
                for k, c in small.items():
                    grown[k + a] = grown.get(k + a, 0) + c
                small = grown
        e = 2 * (n - mu0.weight())
        c = sum(v * comb(e, n + 1 - k) for k, v in small.items())
        assert c % 2 == 0
        assert sum_A(mu0, n) == -c // 2

    @settings(max_examples=60, deadline=None)
    @given(
        mu0=partitions_min_two(12),
        family=st.sampled_from(("A", "B")),
        order=st.permutations(range(41)),
    )
    def test_half_window_equals_full_window(self, mu0, family, order):
        # n from |mu0| (rows with m < top first) upwards, in shuffled order so
        # the kept central binomials differ from call to call; m < 0 only for B
        # of the empty class at n = 0, which has no hooks
        h, divisor, small = _family(family, mu0)
        value = sum_A if family == "A" else sum_B
        for extra in order:
            n = mu0.weight() + extra
            m = n - h
            # [x^(m + top)] (1+x)^(2m) small(x), top = deg small / 2
            target = m + len(small) // 2
            expected = sum(c * comb(2 * m, target - k) for k, c in enumerate(small[: target + 1]))
            assert value(mu0, n) == expected // divisor, (n, m)

    def test_a_sweep_seeds_at_most_two_binomials(self, monkeypatch):
        # consecutive rows step the central binomial instead of a fresh comb each
        import charsum.polyring as polyring

        calls = []
        original = polyring.binomial_coeff
        monkeypatch.setattr(
            polyring, "binomial_coeff", lambda e, k: calls.append((e, k)) or original(e, k)
        )
        report = verify_theorem(make_partition([5, 3, 2]), 3000, 3020)
        assert report.all_hold and len(report.rows) == 21
        assert len(calls) <= 2, calls

    def test_a_verify_sweep_builds_one_small_poly_per_family(self):
        _family.cache_clear()
        verify_theorem(make_partition([5, 3, 2]), 3000, 3020)
        assert _family.cache_info().misses == 2

    @pytest.mark.parametrize("family", ("A", "B"))
    def test_small_poly_is_palindromic_of_odd_length(self, family):
        for w in range(13):
            for mu0 in enumerate_partitions(w, 2):
                _, _, small = _family(family, mu0)
                assert len(small) % 2 == 1 and small == small[::-1], mu0

    @pytest.mark.parametrize("family", ("A", "B"))
    def test_small_poly_equals_the_dense_product(self, family):
        # the reference squares the dense factor: f(x) f~(x) term by term
        for w in range(15):
            for mu0 in enumerate_partitions(w, 2):
                f = dense_factor(family, mu0)
                dense = (IntPoly(f) * IntPoly(reversed(f))).coeffs
                assert _family(family, mu0)[2] == dense, mu0


class TestDoublingIdentity:
    def test_full_square_sum_is_twice_the_half_range(self):
        # constant term of P(x) P(1/x) equals the sum of all squared
        # coefficients, which double-counts every genuine character square;
        # x^deg P(1/x) is P with its coefficients reversed, so the constant
        # term is coefficient deg of that product
        for mu0, n in [([], 5), ([2], 6), ([3], 9), ([3, 2], 8), ([2, 2], 10)]:
            p = make_partition(mu0)
            gen = IntPoly(char_two_row(n, j, p) for j in range(n + 2))
            ct = (gen * IntPoly(reversed(gen.coeffs))).coeffs[len(gen.coeffs) - 1]
            assert ct == sum(c * c for c in gen.coeffs)
            assert ct == 2 * sum_A(p, n)


class TestVerifyTheorem:
    def test_smallest_identity_pair(self):
        report = verify_theorem(make_partition([3]), 3, 10)
        assert report.all_hold
        assert report.mu0_prime == make_partition([3, 2])
        assert report.rows[0] == (3, 2, 4)

    def test_larger_instance(self):
        report = verify_theorem(make_partition([5, 4, 3, 2]), 14, 20)
        assert report.all_hold
        assert report.mu0_prime == make_partition([8, 5, 3])

    def test_rejects_non_theorem_form_naming_reason(self):
        with pytest.raises(ValueError, match="duplicate even part"):
            verify_theorem(make_partition([2, 2]), 4, 10)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            verify_theorem(make_partition([3]), 2, 10)
        with pytest.raises(ValueError):
            verify_theorem(make_partition([3]), 10, 3)


class TestInternalConsistency:
    def test_error_type_is_distinct(self):
        assert issubclass(InternalConsistencyError, RuntimeError)
        assert not issubclass(InternalConsistencyError, ValueError)


def term_by_term_numerator(mu0, family):
    """The numerator of ``fit_closed_form`` before reducing, each term
    c_s prod_{i<=s} (m - i + 1) prod_{s<i<=top} (m + i) built alone."""
    h, _, small = _family(family, mu0)
    top = len(small) // 2
    total = [0] * (top + 1)
    for s, c in enumerate(small[top:]):
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
    return list(num.coeffs)


class TestFitArithmetic:
    @settings(max_examples=150, deadline=None)
    @given(mu0=partitions_min_two(16), family=st.sampled_from(("A", "B")))
    def test_recurrence_numerator_equals_term_by_term(self, mu0, family):
        # the first division reads the numerator the recurrence built, unreduced
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(charsums, "_divide_linear", lambda cs, a, b: seen.append(cs) or _divide_linear(cs, a, b))
            charsums.fit_closed_form(mu0, family)
        assert seen[0] == term_by_term_numerator(mu0, family)

    @given(
        cs=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12),
        a=st.integers(1, 50),
        b=st.integers(-50, 50),
    )
    def test_divide_undoes_times_linear(self, cs, a, b):
        assume(gcd(a, b) == 1)
        assert _divide_linear(_times_linear(cs, a, b), a, b) == cs


def one_plus_x_pow(e):
    return IntPoly([binomial_coeff(e, k) for k in range(e + 1)])


def squared_run(lo, t):
    """prod_{j=lo}^{t-1} (1 + x^(2^j))^2."""
    out = IntPoly((1,))
    for j in range(lo, t):
        f = IntPoly([1] + [0] * (2**j - 1) + [1])
        out = out * f * f
    return out


class TestProofStepIdentities:
    def test_factor_transfer(self):
        # (1+x)^(2E) * prod_{j>=1}^2 equals (1+x)^(2(E-1)) * prod_{j>=0}^2:
        # the squared j=0 factor is exactly the transferred (1+x)^2
        for t in range(1, 7):
            for e in (1, 3, 8, 40):
                lhs = one_plus_x_pow(2 * e) * squared_run(1, t)
                rhs = one_plus_x_pow(2 * (e - 1)) * squared_run(0, t)
                assert lhs.coeffs == rhs.coeffs, (t, e)

    def test_theorem_is_one_polynomial_identity(self):
        # V(mu0') = T(mu0) for every theorem-form mu0, mu0' its companion
        forms = [
            (mu0, form)
            for w in range(21)
            for mu0 in enumerate_partitions(w, 2)
            if (form := theorem_form_of(mu0)) is not None
        ]
        assert len(forms) == 136
        for mu0, form in forms:
            assert factor("B", companion_mu_prime(form)) == factor("A", mu0), mu0

    def test_only_the_companion_satisfies_the_identity(self):
        # among nu of weight |mu0| + 2, V(nu) = T(mu0) picks out exactly the
        # companion, and no nu at all when mu0 is not theorem form: the
        # completeness that lets ``search_pairs`` pair only theorem-form mu0
        pairs = 0
        for w in range(29):
            by_factor = {}
            for nu in enumerate_partitions(w + 2, 2):
                by_factor.setdefault(factor("B", nu), []).append(nu)
            for mu0 in enumerate_partitions(w, 2):
                form = theorem_form_of(mu0)
                expected = [] if form is None else [companion_mu_prime(form)]
                assert by_factor.get(factor("A", mu0), []) == expected, mu0
                pairs += len(expected)
        assert pairs == 498

    def test_euler_substitution_preserves_two_row_value(self):
        cases = [(1, (3,)), (2, (3,)), (3, (5, 3)), (4, ()), (5, ())]
        for t, odds in cases:
            run = [2**j for j in range(1, t)]
            mu0 = make_partition(list(odds) + run)
            w = mu0.weight()
            n_min = max(w, 2**t - 1 + sum(odds))
            for n in range(n_min, min(n_min + 3, 41)):
                direct = IntPoly((1, -1)) * IntPoly((1, -1)) * one_plus_x_pow(2 * (n - w))
                for a in mu0.parts:
                    f = IntPoly([1] + [0] * (a - 1) + [1])
                    direct = direct * f * f
                telescoped = IntPoly([1] + [0] * (2**t - 1) + [-1])
                telescoped = telescoped * telescoped
                telescoped = telescoped * one_plus_x_pow(2 * (n - sum(odds) - 1 - sum(run)))
                for a in odds:
                    f = IntPoly([1] + [0] * (a - 1) + [1])
                    telescoped = telescoped * f * f
                assert direct.coeffs == telescoped.coeffs, (t, odds, n)
                assert sum_A(mu0, n) == -direct.coeffs[n + 1] // 2
