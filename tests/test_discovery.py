"""Pair search and exact rational-function fitting."""

import json
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charsum import discovery
from charsum.charsums import InternalConsistencyError, sum_A, sum_B, verify_theorem
from charsum.cli import main
from charsum.discovery import (
    FitError,
    RationalFn,
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

HALF = Fraction(1, 2)

# `charsum fit` stdout for the benchmark's fits and the README example,
# recorded from an exact interpolating fit (sampled values, linear solves),
# an independent route to the same reduced R.
FIT_GOLDENS = json.loads((Path(__file__).parent / "fit_goldens.json").read_text())


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

    def test_jobs_do_not_change_results(self):
        assert search_pairs(4, 8, jobs=2) == search_pairs(4, 8, jobs=1)

    def test_predicted_pairs_verify(self):
        for pair in search_pairs(6, 12):
            assert pair.theorem_predicted
            assert pair.ratio == HALF
            report = verify_theorem(pair.mu0, pair.n_lo, pair.n_hi)
            assert report.all_hold
            assert report.mu0_prime == pair.mu0_prime

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="K"):
            search_pairs(1, 8)
        with pytest.raises(ValueError, match="window"):
            search_pairs(4, 3)

    @pytest.mark.parametrize("K, window", [(1, 8), (4, 3)])
    def test_parameter_errors_are_search_errors(self, K, window):
        with pytest.raises(SearchError):
            search_pairs(K, window)

    def test_join_matches_pairwise_ratio_test(self):
        # K = 14 with window 12 is the first to report pairs outside the
        # theorem ((14) -> (14,2) among them), so both verdicts are exercised
        K, window = 14, 12
        expected = []
        for w in range(K + 1):
            for mu0 in enumerate_partitions(w, 2):
                for mu0p in enumerate_partitions(w + 2, 2):
                    ratio = ratio_test(mu0, mu0p, w, w + window)
                    if ratio is not None:
                        expected.append((mu0, mu0p, ratio, w))
        got = [(p.mu0, p.mu0_prime, p.ratio, p.n_lo) for p in search_pairs(K, window)]
        assert got == expected
        assert (make_partition([14]), make_partition([14, 2]), HALF, 14) in got

    def test_json_line_shape(self):
        pair = search_pairs(2, 6)[0]
        assert pair.to_json_dict() == {
            "mu0": "",
            "mu0_prime": "2",
            "ratio": "1/2",
            "evidence_n": [0, 6],
            "theorem_predicted": True,
        }


class TestFitClosedForm:
    def test_identity_class_two_row_sum_is_catalan(self):
        fn = fit_closed_form(Partition(), "A")
        assert fn == RationalFn(
            numerator=(Fraction(1),), denominator=(Fraction(1), Fraction(1))
        )
        for n in range(25):
            assert Fraction(sum_A(Partition(), n)) == comb(2 * n, n) * fn(n)

    def test_holds_on_thirty_heldout_points(self):
        mu0 = make_partition([3])
        fn = fit_closed_form(mu0, "A")
        for n in range(3, 34):
            assert Fraction(sum_A(mu0, n)) == comb(2 * n, n) * fn(n)

    def test_hook_family_fits_too(self):
        mu0 = make_partition([3, 2])
        fn = fit_closed_form(mu0, "B")
        for n in range(5, 26):
            assert Fraction(sum_B(mu0, n)) == comb(2 * n, n) * fn(n)

    def test_stability_under_shifted_start(self):
        mu0 = make_partition([3])
        assert fit_closed_form(mu0, "A", n_lo=3) == fit_closed_form(mu0, "A", n_lo=4)
        assert fit_closed_form(Partition(), "A", n_lo=0) == fit_closed_form(
            Partition(), "A", n_lo=1
        )

    def test_denominator_is_monic_and_reduced(self):
        fn = fit_closed_form(make_partition([2]), "A")
        assert fn.denominator[-1] == 1

    def test_degree_cap_failure_names_cap(self):
        with pytest.raises(FitError, match="degree cap 0"):
            fit_closed_form(Partition(), "A", degree_cap=0)

    def test_bad_family(self):
        with pytest.raises(ValueError, match="family"):
            fit_closed_form(Partition(), "C")

    def test_part_one_rejected(self):
        with pytest.raises(ValueError, match="smallest part"):
            fit_closed_form(make_partition([2, 1]), "A")

    @pytest.mark.parametrize("parts, n_lo", [([2, 1], None), ([3], 2)], ids=["part-1", "n_lo-below"])
    def test_preconditions_are_not_fit_errors(self, parts, n_lo):
        # FitError means only "no fit within the degree cap" (exit 6)
        with pytest.raises(ValueError) as exc:
            fit_closed_form(make_partition(parts), "A", n_lo=n_lo)
        assert not isinstance(exc.value, FitError)

    def test_json_shape(self):
        fn = fit_closed_form(Partition(), "A")
        assert fn.to_json_dict() == {
            "numerator": ["1/1"],
            "denominator": ["1/1", "1/1"],
        }

    @pytest.mark.parametrize(
        "family, mu0_text, stdout", FIT_GOLDENS, ids=[f"{f}-{m or 'empty'}" for f, m, _ in FIT_GOLDENS]
    )
    def test_cli_output_pinned(self, capsys, family, mu0_text, stdout):
        assert main(["fit", "--family", family, "--mu0", mu0_text]) == 0
        assert capsys.readouterr().out == stdout

    @settings(max_examples=60, deadline=None)
    @given(mu0=partitions_min_two(10), family=st.sampled_from("AB"), data=st.data())
    def test_times_central_binomial_equals_lemma(self, mu0, family, data):
        fn = fit_closed_form(mu0, family)
        lemma = sum_A if family == "A" else sum_B
        n = data.draw(st.integers(mu0.weight(), mu0.weight() + 80))
        assert comb(2 * n, n) * fn(n) == lemma(mu0, n)

    @pytest.mark.parametrize("cap, code", [(10, 6), (11, 0)])
    def test_degree_cap_boundary(self, capsys, cap, code):
        # R for (7,3,3), family A, has numerator degree 10, denominator 11
        argv = ["fit", "--family", "A", "--mu0", "7,3,3", "--degree-cap", str(cap)]
        assert main(argv) == code
        if code:
            assert "degree cap 10" in capsys.readouterr().err

    def test_validation_mismatch_is_internal_error(self, capsys, monkeypatch):
        monkeypatch.setattr(discovery, "sum_B", lambda mu0, n: sum_B(mu0, n) + (n == 9))
        mu0 = make_partition([3, 2])
        with pytest.raises(InternalConsistencyError, match="n=9"):
            fit_closed_form(mu0, "B")
        assert main(["fit", "--family", "B", "--mu0", "3,2"]) == 4
        assert "n=9" in capsys.readouterr().err
