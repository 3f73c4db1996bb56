"""The two sum families: closed constant-term route vs brute-force route."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charsum import charsums
from charsum.charsums import (
    FAMILIES,
    InternalConsistencyError,
    _family,
    _small_poly,
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
from charsum.characters import _mn, char_mn, char_two_row, hook_factor, padded_class, two_row_factor


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
        # n = |mu0| makes the binomial exponent 0 and the stepped oracle take
        # no step: its value is exactly the squared char_mn seed row
        for mu0 in [[2], [3], [2, 2], [3, 2], [4, 3], [5, 4, 3, 2]]:
            p = make_partition(mu0)
            n = p.weight()
            assert sum_B(p, n) == sum_B_bruteforce(p, n) == hooks_one_at_a_time(p, n)

    def test_part_one_rejected(self):
        with pytest.raises(ValueError, match="smallest part"):
            sum_B(make_partition([1]), 3)

    def test_n_below_weight_rejected(self):
        with pytest.raises(ValueError, match="below"):
            sum_B(make_partition([3, 2]), 4)


def hooks_one_at_a_time(mu0, n):
    """B by its definition: one border-strip character per hook (n-k, 1^k)."""
    cls = padded_class(mu0, n)
    return sum(char_mn(Partition((n - k,) + (1,) * k), cls) ** 2 for k in range(n))


class TestSteppedHookOracle:
    """``sum_B_bruteforce`` steps the hooks of |mu0| by the branching rule; the
    reference takes every hook of n from the border-strip oracle."""

    def test_equals_one_char_mn_per_hook(self):
        for w in range(9):
            for mu0 in enumerate_partitions(w, 2):
                for n in range(w, w + 13):
                    assert sum_B_bruteforce(mu0, n) == hooks_one_at_a_time(mu0, n), (mu0, n)

    def test_empty_class(self):
        empty = Partition()
        assert sum_B_bruteforce(empty, 0) == 0
        for n in range(1, 40):
            assert sum_B_bruteforce(empty, n) == comb(2 * n - 2, n - 1), n

    def test_at_the_benchmark_size(self):
        mu0 = make_partition([4, 3, 3])
        assert sum_B_bruteforce(mu0, 100) == hooks_one_at_a_time(mu0, 100)

    def test_seeds_one_char_mn_per_hook_of_the_weight(self, monkeypatch):
        calls = []

        def counted(shape, cls):
            calls.append((shape, cls))
            return char_mn(shape, cls)

        monkeypatch.setattr(charsums, "char_mn", counted)
        mu0 = make_partition([5, 3, 2])
        assert sum_B_bruteforce(mu0, 60) == sum_B(mu0, 60)
        assert len(calls) == 10 and {cls for _, cls in calls} == {mu0}

    def test_a_window_misses_the_memo_only_at_its_first_n(self):
        # every n seeds at |mu0|, so the memo keeps the seed's states
        mu0 = make_partition([5, 3, 2])
        _mn.cache_clear()
        sum_B_bruteforce(mu0, 77)
        misses = _mn.cache_info().misses
        for n in range(78, 101):
            sum_B_bruteforce(mu0, n)
        assert _mn.cache_info().misses == misses


def partitions_min_two(max_weight):
    """Partitions with every part >= 2 and weight <= max_weight."""
    return st.lists(st.integers(2, max_weight), max_size=max_weight // 2).filter(
        lambda parts: sum(parts) <= max_weight
    ).map(make_partition)


class TestLemmaVsDefinition:
    def test_equivalence_sweep(self):
        # moderate scale here; the acceptance suite runs the full ranges
        for w in range(7):
            for mu0 in enumerate_partitions(w, 2):
                for n in range(w, 13):
                    assert sum_A(mu0, n) == sum_A_bruteforce(mu0, n), (mu0, n)
                    assert sum_B(mu0, n) == sum_B_bruteforce(mu0, n), (mu0, n)

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
        family=st.sampled_from(sorted(FAMILIES)),
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
        _small_poly.cache_clear()
        verify_theorem(make_partition([5, 3, 2]), 3000, 3020)
        assert _small_poly.cache_info().misses == 2

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_small_poly_is_palindromic_of_odd_length(self, family):
        for w in range(13):
            for mu0 in enumerate_partitions(w, 2):
                _, _, small = _family(family, mu0)
                assert len(small) % 2 == 1 and small == small[::-1], mu0


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
            assert hook_factor(companion_mu_prime(form).parts) == two_row_factor(mu0.parts), mu0

    def test_only_the_companion_satisfies_the_identity(self):
        # among nu of weight |mu0| + 2, V(nu) = T(mu0) picks out exactly the
        # companion, and no nu at all when mu0 is not theorem form: the
        # completeness that lets ``search_pairs`` join on factors
        pairs = 0
        for w in range(29):
            by_factor = {}
            for nu in enumerate_partitions(w + 2, 2):
                by_factor.setdefault(hook_factor(nu.parts), []).append(nu)
            for mu0 in enumerate_partitions(w, 2):
                form = theorem_form_of(mu0)
                expected = [] if form is None else [companion_mu_prime(form)]
                assert by_factor.get(two_row_factor(mu0.parts), []) == expected, mu0
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
