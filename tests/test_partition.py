"""Partition construction, enumeration, and the power-run decomposition."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from charsum.partition import (
    Partition,
    PartitionFormatError,
    TheoremForm,
    companion_mu_prime,
    enumerate_partitions,
    format_partition,
    make_partition,
    parse_partition,
    theorem_form_of,
    theorem_form_reason,
)


def pentagonal_partition_counts(limit):
    """p(0..limit) by Euler's pentagonal-number recurrence (independent oracle)."""
    p = [1]
    for n in range(1, limit + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p.append(total)
    return p


class TestMakePartition:
    def test_sorts_non_increasing(self):
        assert make_partition([5, 3, 2, 4]).parts == (5, 4, 3, 2)

    def test_empty(self):
        p = make_partition([])
        assert p.parts == () and p.weight() == 0

    def test_already_sorted(self):
        assert make_partition([3, 3, 3]).parts == (3, 3, 3)

    def test_weight_preserved(self):
        assert make_partition([5, 3, 2, 4]).weight() == 14

    @pytest.mark.parametrize("bad", [[0], [3, -1], [2, 0, 1]])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            make_partition(bad)

    def test_rejects_bool_parts(self):
        # bool is an int subclass; True would otherwise pass as the part 1
        with pytest.raises(ValueError, match="positive integers"):
            Partition([True])
        with pytest.raises(ValueError, match="positive integers"):
            make_partition([3, True])

    def test_constructor_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((2, 3))


class TestValueSemantics:
    @given(raw=st.lists(st.integers(1, 10**30), max_size=12))
    def test_any_valid_parts_round_trip_through_text_and_pickle(self, raw):
        p = Partition(sorted(raw, reverse=True))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            q = pickle.loads(pickle.dumps(p, protocol))
            assert type(q) is Partition and q.parts == p.parts
        q = parse_partition(format_partition(p))
        assert type(q) is Partition and q.parts == p.parts


class TestParseFormat:
    def test_parse(self):
        assert parse_partition("5,4,3,2").parts == (5, 4, 3, 2)
        assert parse_partition(" 2, 3 ").parts == (3, 2)

    def test_empty_string_is_empty_partition(self):
        assert parse_partition("") == Partition()
        assert format_partition(Partition()) == ""

    def test_roundtrip(self):
        for parts in [(5, 4, 3, 2), (7,), ()]:
            p = Partition(parts)
            assert parse_partition(format_partition(p)) == p

    @given(raw=st.lists(st.integers(1, 40), max_size=12))
    def test_roundtrip_property(self, raw):
        p = make_partition(raw)
        assert parse_partition(format_partition(p)) == p
        assert parse_partition(" , ".join(map(str, raw))) == p  # any order, spaces

    def test_tokenize_error(self):
        with pytest.raises(PartitionFormatError):
            parse_partition("3,x")

    def test_nonpositive_is_domain_error_not_format(self):
        with pytest.raises(ValueError):
            parse_partition("3,0")


class TestEnumerate:
    def test_exhaustive_small(self):
        assert [p.parts for p in enumerate_partitions(4, 2)] == [(4,), (2, 2)]
        assert [p.parts for p in enumerate_partitions(5, 2)] == [(5,), (3, 2)]
        assert [p.parts for p in enumerate_partitions(0, 2)] == [()]

    def test_order_is_lex_descending(self):
        got = [p.parts for p in enumerate_partitions(6)]
        assert got == [
            (6,),
            (5, 1),
            (4, 2),
            (4, 1, 1),
            (3, 3),
            (3, 2, 1),
            (3, 1, 1, 1),
            (2, 2, 2),
            (2, 2, 1, 1),
            (2, 1, 1, 1, 1),
            (1, 1, 1, 1, 1, 1),
        ]

    def test_counts_match_pentagonal_recurrence(self):
        counts = pentagonal_partition_counts(30)
        for n in range(31):
            assert sum(1 for _ in enumerate_partitions(n)) == counts[n]

    def test_each_exactly_once_and_min_part(self):
        seen = list(enumerate_partitions(12, 3))
        assert len(seen) == len(set(seen))
        assert all(min(p.parts) >= 3 for p in seen if p.parts)
        assert all(p.weight() == 12 for p in seen)


class TestTheoremForm:
    def test_power_run_with_odds(self):
        form = theorem_form_of(make_partition([5, 4, 3, 2]))
        assert form == TheoremForm(odd_parts=(5, 3), t=3)

    def test_all_odd_means_t_one(self):
        form = theorem_form_of(make_partition([7, 5, 3]))
        assert form == TheoremForm(odd_parts=(7, 5, 3), t=1)

    def test_duplicate_power_rejected(self):
        assert theorem_form_of(make_partition([3, 2, 2])) is None
        assert theorem_form_reason(make_partition([3, 2, 2])) == "duplicate even part"

    def test_run_must_start_at_two(self):
        assert theorem_form_of(make_partition([4])) is None
        assert theorem_form_of(make_partition([4, 3])) is None

    def test_run_must_have_no_gap(self):
        assert theorem_form_of(make_partition([8, 2])) is None

    def test_non_power_even_rejected(self):
        assert theorem_form_of(make_partition([6])) is None
        assert "not a power of 2" in theorem_form_reason(make_partition([6]))

    def test_part_one_rejected(self):
        assert theorem_form_of(make_partition([3, 1])) is None
        assert theorem_form_reason(make_partition([3, 1])) == "part equal to 1"

    def test_empty_partition_accepted(self):
        form = theorem_form_of(Partition())
        assert form == TheoremForm(odd_parts=(), t=1)
        assert companion_mu_prime(form) == make_partition([2])

    def test_single_two_is_the_t_equals_two_run(self):
        form = theorem_form_of(make_partition([2]))
        assert form == TheoremForm(odd_parts=(), t=2)
        assert companion_mu_prime(form) == make_partition([4])

    def test_reason_is_none_for_theorem_form(self):
        assert theorem_form_reason(make_partition([5, 4, 3, 2])) is None


class TestCompanion:
    @pytest.mark.parametrize(
        "mu0,expected",
        [
            ([3], [3, 2]),
            ([5, 4, 3, 2], [8, 5, 3]),
            ([3, 2], [4, 3]),
        ],
    )
    def test_examples(self, mu0, expected):
        form = theorem_form_of(make_partition(mu0))
        assert companion_mu_prime(form) == make_partition(expected)

    def test_roundtrip_and_weight_shift(self):
        # every theorem-form partition up to weight 12 reassembles exactly and
        # its companion weighs two more
        for w in range(13):
            for mu0 in enumerate_partitions(w, 2):
                form = theorem_form_of(mu0)
                if form is None:
                    continue
                run = [2**j for j in range(1, form.t)]
                assert make_partition(list(form.odd_parts) + run) == mu0
                assert companion_mu_prime(form).weight() == w + 2
