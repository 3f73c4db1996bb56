"""Pair search and exact rational-function fitting."""

import contextlib
import io
import json
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from charsum import charsums, discovery
from charsum.charsums import InternalConsistencyError, _family, factor, sum_A, sum_B, verify_theorem
from charsum.cli import main
from charsum.discovery import (
    SearchError,
    fit_closed_form,
    ratio_test,
    search_pairs,
)
from charsum.partition import (
    Partition,
    companion_mu_prime,
    enumerate_partitions,
    make_partition,
    theorem_form_of,
)
from charsum.polyring import horner

HALF = (1, 2)
# every class with parts >= 2 of weight <= 8, the empty one included
CLASSES_UP_TO_8 = [p for w in range(9) for p in enumerate_partitions(w, min_part=2)]

# `charsum fit` stdout for the benchmark's fits and the README example,
# recorded from an exact interpolating fit (sampled values, linear solves),
# an independent route to the same reduced R.
FIT_GOLDENS = json.loads((Path(__file__).parent / "fit_goldens.json").read_text())


def holds(fit, value, n):
    """value == C(2n, n) * R(n) for the closed form fit = (numerator, denominator)."""
    num, den = fit
    d = horner(den, n)
    return d != 0 and horner(num, n) * comb(2 * n, n) == value * d


def partitions_min_two(max_weight):
    """Partitions with every part >= 2 and weight <= max_weight."""
    return st.lists(st.integers(2, max_weight), max_size=max_weight // 2).filter(
        lambda parts: sum(parts) <= max_weight
    ).map(make_partition)


class TestRatioTest:
    def test_smallest_identity_pair(self):
        assert ratio_test(make_partition([3]), make_partition([3, 2]), 3, 12) == HALF

    def test_larger_theorem_instance(self):
        got = ratio_test(make_partition([5, 4, 3, 2]), make_partition([8, 5, 3]), 14, 22)
        assert got == HALF

    def test_varying_ratio_is_absent(self):
        assert ratio_test(make_partition([3]), make_partition([5]), 3, 12) is None

    def test_weight_gap_enforced(self):
        with pytest.raises(ValueError, match=r"\|mu0\|\+2"):
            ratio_test(make_partition([3]), make_partition([3, 3]), 3, 12)

    def test_minimum_window_enforced(self):
        with pytest.raises(ValueError, match="window"):
            ratio_test(make_partition([3]), make_partition([3, 2]), 3, 5)

    def test_window_search_rejects_is_rejected(self):
        # search_pairs rejects window 3, so ratio_test gives no verdict on it either
        with pytest.raises(ValueError, match="window"):
            ratio_test(make_partition([3]), make_partition([3, 2]), 3, 6)

    def test_part_one_rejected(self):
        with pytest.raises(ValueError, match="smallest part"):
            ratio_test(make_partition([3, 1]), make_partition([3, 2, 1]), 4, 12)

    def test_n_lo_below_weight_rejected(self):
        with pytest.raises(ValueError, match="below"):
            ratio_test(make_partition([3]), make_partition([3, 2]), 2, 12)


class TestSearchPairs:
    def test_small_window_exhaustive(self):
        # frozen from an exhaustive run: only the two pairs built by the
        # power-run rule survive at K=2
        pairs = search_pairs(2, 6)
        assert [(str(p.mu0), str(p.mu0_prime)) for p in pairs] == [
            ("", "2"),
            ("2", "4"),
        ]
        assert all(p.ratio == HALF and p.theorem_predicted for p in pairs)

    def test_k5_includes_expected_pairs(self):
        pairs = search_pairs(5, 10)
        found = {(str(p.mu0), str(p.mu0_prime)) for p in pairs}
        assert ("3", "3,2") in found
        assert ("5", "5,2") in found
        assert all(p.ratio == HALF and p.theorem_predicted for p in pairs)

    def test_completeness_for_small_weights(self):
        pairs = search_pairs(6, 12)
        found = {(p.mu0, p.mu0_prime) for p in pairs}
        for w in range(7):
            for mu0 in enumerate_partitions(w, 2):
                form = theorem_form_of(mu0)
                if form is None:
                    continue
                assert (mu0, companion_mu_prime(form)) in found, mu0

    def test_deterministic(self):
        assert search_pairs(4, 8) == search_pairs(4, 8)

    def test_predicted_pairs_verify(self):
        for pair in search_pairs(6, 12):
            assert pair.theorem_predicted
            assert pair.ratio == HALF
            report = verify_theorem(pair.mu0, pair.n_lo, pair.n_hi)
            assert report.all_hold
            assert report.mu0_prime == pair.mu0_prime

    def test_builds_each_small_poly_once(self):
        # a pair reads A(mu0) and B(mu0') on its window; no class comes back
        charsums._small_poly.cache_clear()
        assert len(search_pairs(14, 12)) == 44
        assert charsums._small_poly.cache_info().misses == 88

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="K"):
            search_pairs(1, 8)
        with pytest.raises(ValueError, match="window"):
            search_pairs(4, 3)

    @pytest.mark.parametrize("K, window", [(1, 8), (4, 3)])
    def test_parameter_errors_are_search_errors(self, K, window):
        with pytest.raises(SearchError):
            search_pairs(K, window)

    def test_join_equals_pairwise_ratio_test_at_window_k_plus_3(self):
        # every centre of S = f f~ is at most K + 1, so by the unitriangular
        # argument a window of K + 1 or more decides each pair exactly
        K = 10
        window = K + 3
        expected = []
        for w in range(K + 1):
            for mu0 in enumerate_partitions(w, 2):
                for mu0p in enumerate_partitions(w + 2, 2):
                    ratio = ratio_test(mu0, mu0p, w, w + window)
                    if ratio is not None:
                        expected.append((mu0, mu0p, ratio, w))
        got = [(p.mu0, p.mu0_prime, p.ratio, p.n_lo) for p in search_pairs(K, window)]
        assert got == expected

    @pytest.mark.parametrize("K, count", [(22, 191), (30, 673)])
    def test_reports_exactly_the_pairs_the_factor_join_finds(self, K, count):
        # the reference is the exhaustive join: every nu of weight w + 2 keyed
        # by V(nu), looked up by T(mu0), with no theorem form consulted
        pairs = search_pairs(K)
        assert all(p.ratio == HALF and p.theorem_predicted for p in pairs)
        got = [(p.mu0, p.mu0_prime) for p in pairs]
        expected = []
        for w in range(K + 1):
            by_factor = {factor("B", nu): nu for nu in enumerate_partitions(w + 2, 2)}
            for mu0 in enumerate_partitions(w, 2):
                if (nu := by_factor.get(factor("A", mu0))) is not None:
                    expected.append((mu0, nu))
        assert got == expected
        assert len(got) == count
        # a window of 12 took both for identities: each has a part above it
        assert (make_partition([14]), make_partition([14, 2])) not in got
        assert (make_partition([14, 7]), make_partition([7, 7, 7, 2])) not in got

    @pytest.mark.parametrize("nu, d", [([9], 3), ([10], 4)], ids=["B(9)", "B(10)"])
    def test_other_shifts_agree_only_on_a_window(self, nu, d):
        # no halving identity exists at a shift other than 2 (see ``discovery``),
        # yet 2A((4,2))(n) = B(nu)(n + d) on n = 7..14: with N = n - 7,
        # A = C(2N, N) - C(2N, N - 8) and B((9))(n + 3) = 2C(2N, N) + 2C(2N, N - 9),
        # whose tails vanish up to N = 7
        mu0, nu = make_partition([4, 2]), make_partition(nu)
        agree = [n for n in range(6, 16) if 2 * sum_A(mu0, n) == sum_B(nu, n + d)]
        assert agree == list(range(7, 15))

    @settings(max_examples=300, deadline=None)
    @given(
        F=st.sampled_from("AB"),
        mu0=st.sampled_from(CLASSES_UP_TO_8),
        G=st.sampled_from("AB"),
        nu=st.sampled_from(CLASSES_UP_TO_8),
        d=st.integers(-4, 6),
    )
    def test_no_other_family_pair_shift_or_class_has_a_constant_ratio(self, F, mu0, G, nu, d):
        # the argument in ``discovery``: F(mu0)(n) / C(2m, m) is a rational function
        # of m whose numerator has degree at most top_F = deg f, and a shift by
        # delta = m_F - m_G costs |delta| more, so a ratio constant on the first
        # top_F + top_G + |delta| + 1 values of n with both m >= 0 is constant for all n
        def is_pair(a, b):
            form = theorem_form_of(a)
            return form is not None and companion_mu_prime(form) == b

        assume(not (F == G and mu0 == nu and d == 0))
        assume(not ((F, G, d) == ("A", "B", 2) and is_pair(mu0, nu)))
        assume(not ((F, G, d) == ("B", "A", -2) and is_pair(nu, mu0)))
        (h_f, _, small_f), (h_g, _, small_g) = _family(F, mu0), _family(G, nu)
        delta = h_g - h_f - d
        n0 = max(h_f, h_g - d)
        window = range(n0, n0 + len(small_f) // 2 + len(small_g) // 2 + abs(delta) + 1)
        f, g = {"A": sum_A, "B": sum_B}[F], {"A": sum_A, "B": sum_B}[G]
        f0, g0 = f(mu0, n0), g(nu, n0 + d)
        assert any(f(mu0, n) * g0 != g(nu, n + d) * f0 for n in window)

    def test_a_ratio_other_than_one_half_is_internal_error(self, capsys, monkeypatch):
        monkeypatch.setattr(discovery, "ratio_test", lambda mu0, mu0p, n_lo, n_hi: (1, 3))
        with pytest.raises(InternalConsistencyError, match="1/3"):
            search_pairs(4)
        assert main(["search", "--K", "4"]) == 4
        assert "1/3" in capsys.readouterr().err

    def test_a_wrong_companion_factor_is_internal_error(self, capsys, monkeypatch):
        # a bad V for (3, 2) must fail the certificate, not drop the pair (3; 3,2)
        def bad_factor(family, parts, power=1):
            f = factor(family, parts, power)
            return f + (1,) if (family, parts) == ("B", (3, 2)) else f

        monkeypatch.setattr(discovery, "factor", bad_factor)
        with pytest.raises(InternalConsistencyError, match="3,2"):
            search_pairs(5)
        assert main(["search", "--K", "5"]) == 4
        assert "3,2" in capsys.readouterr().err


class TestFitClosedForm:
    def test_identity_class_two_row_sum_is_catalan(self):
        fit = fit_closed_form(Partition(), "A")
        assert fit == ((1,), (1, 1))
        for n in range(25):
            assert holds(fit, sum_A(Partition(), n), n)

    def test_holds_on_thirty_heldout_points(self):
        mu0 = make_partition([3])
        fit = fit_closed_form(mu0, "A")
        for n in range(3, 34):
            assert holds(fit, sum_A(mu0, n), n)

    def test_hook_family_fits_too(self):
        mu0 = make_partition([3, 2])
        fit = fit_closed_form(mu0, "B")
        for n in range(5, 26):
            assert holds(fit, sum_B(mu0, n), n)

    def test_pair_is_primitive_with_positive_denominator_lead(self):
        # R(n) = (n^2 - 5n + 9) / (4n^3 - 4n^2 - 5n + 3)
        num, den = fit_closed_form(make_partition([2]), "A")
        assert (num, den) == ((9, -5, 1), (3, -5, -4, 4))
        assert gcd(*num, *den) == 1 and den[-1] > 0

    def test_degree_is_at_most_twice_weight_plus_one(self):
        # the bound fit_closed_form's docstring derives, reached at some mu0
        slack = []
        for w in range(15):
            for mu0 in enumerate_partitions(w, 2):
                for family in "AB":
                    num, den = fit_closed_form(mu0, family)
                    slack.append(max(len(num), len(den)) - 1 - (2 * w + 1))
        assert max(slack) == 0

    def test_bad_family(self):
        with pytest.raises(ValueError, match="family"):
            fit_closed_form(Partition(), "C")

    def test_part_one_rejected(self):
        with pytest.raises(ValueError, match="smallest part"):
            fit_closed_form(make_partition([2, 1]), "A")

    @pytest.mark.parametrize("parts", [[2, 1]], ids=["part-1"])
    def test_preconditions_are_not_fit_errors(self, capsys, parts):
        # a precondition is a domain error (exit 3), as in every command
        with pytest.raises(ValueError, match="smallest part"):
            fit_closed_form(make_partition(parts), "A")
        assert main(["fit", "--family", "A", "--mu0", ",".join(map(str, parts))]) == 3

    @pytest.mark.parametrize(
        "family, mu0_text, stdout", FIT_GOLDENS, ids=[f"{f}-{m or 'empty'}" for f, m, _ in FIT_GOLDENS]
    )
    def test_cli_output_pinned(self, capsys, family, mu0_text, stdout):
        assert main(["fit", "--family", family, "--mu0", mu0_text]) == 0
        assert capsys.readouterr().out == stdout

    @settings(max_examples=60, deadline=None)
    @given(mu0=partitions_min_two(10), family=st.sampled_from("AB"), data=st.data())
    def test_times_central_binomial_equals_lemma(self, mu0, family, data):
        fit = fit_closed_form(mu0, family)
        lemma = sum_A if family == "A" else sum_B
        n = data.draw(st.integers(mu0.weight(), mu0.weight() + 80))
        assert holds(fit, lemma(mu0, n), n)

    @settings(max_examples=60, deadline=None)
    @given(mu0=partitions_min_two(10), family=st.sampled_from("AB"))
    def test_cli_prints_each_coefficient_over_the_denominator_lead(self, mu0, family):
        num, den = fit_closed_form(mu0, family)
        assert gcd(*num, *den) == 1 and den[-1] > 0
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["fit", "--family", family, "--mu0", ",".join(map(str, mu0.parts))]) == 0
        record = json.loads(out.getvalue())
        for key, coeffs in (("numerator", num), ("denominator", den)):
            monic = (Fraction(c, den[-1]) for c in coeffs)
            assert record[key] == [f"{q.numerator}/{q.denominator}" for q in monic]

    def test_validation_mismatch_is_internal_error(self, capsys, monkeypatch):
        monkeypatch.setattr(charsums, "sum_B", lambda mu0, n: sum_B(mu0, n) + (n == 9))
        mu0 = make_partition([3, 2])
        with pytest.raises(InternalConsistencyError, match="n=9"):
            fit_closed_form(mu0, "B")
        assert main(["fit", "--family", "B", "--mu0", "3,2"]) == 4
        assert "n=9" in capsys.readouterr().err
