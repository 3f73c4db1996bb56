"""Acceptance suite: every criterion at its stated scale, exact equality.

Each test prints one PASS line on success; a failed assertion leaves the
line unprinted and pytest reports the failure.
"""

import json
import random
from math import comb

import pytest

from charsum.characters import char_ct, char_mn, char_two_row, padded_class
from charsum.charsums import sum_A, sum_A_bruteforce, sum_B, sum_B_bruteforce
from charsum.cli import main
from charsum.discovery import fit_closed_form, search_pairs
from charsum.oeis import OeisClient
from charsum.partition import (
    Partition,
    companion_mu_prime,
    enumerate_partitions,
    make_partition,
    theorem_form_of,
)
from charsum.polyring import IntPoly, binomial_coeff, horner


def report(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def one_plus_x_pow(e):
    return IntPoly([binomial_coeff(e, k) for k in range(e + 1)])


def euler_product(t):
    """(1 + x)(1 + x^2)(1 + x^4)...(1 + x^(2^(t-1)))."""
    out = IntPoly((1,))
    for j in range(t):
        out = out * IntPoly([1] + [0] * (2**j - 1) + [1])
    return out


def test_criterion_1_remarkable_identity():
    mu0 = make_partition([3])
    mu0p = make_partition([3, 2])
    for n in range(3, 201):
        assert 2 * sum_A(mu0, n) == sum_B(mu0p, n + 2), f"failed at n={n}"
    report(1, "remarkable identity on [3, 200]")


def test_criterion_2_theorem_sweep():
    forms = 0
    for w in range(15):
        for mu0 in enumerate_partitions(w, 2):
            form = theorem_form_of(mu0)
            if form is None:
                continue
            forms += 1
            mu0p = companion_mu_prime(form)
            for n in range(w, w + 26):
                assert 2 * sum_A(mu0, n) == sum_B(mu0p, n + 2), (mu0, n)
    assert forms >= 40  # the sweep actually covered the family
    report(2, f"theorem sweep over {forms} forms with weight <= 14")


def test_criterion_3_lemma_vs_definition():
    points = 0
    for w in range(9):
        for mu0 in enumerate_partitions(w, 2):
            for n in range(w, 15):  # n = |mu0| exercises the negative exponent
                assert sum_A(mu0, n) == sum_A_bruteforce(mu0, n), (mu0, n, "A")
                assert sum_B(mu0, n) == sum_B_bruteforce(mu0, n), (mu0, n, "B")
                points += 1
    report(3, f"lemma equals definition on {points} (mu0, n) points")


def test_criterion_4_character_cross_validation():
    pairs = 0
    for n in range(9):
        for lam in enumerate_partitions(n):
            if len(lam) > 3:
                continue
            for mu in enumerate_partitions(n):
                assert char_ct(lam, mu) == char_mn(lam, mu), (lam, mu)
                pairs += 1
    two_row_points = 0
    for w in range(9):
        for mu0 in enumerate_partitions(w, 2):
            for n in range(w, 13):
                cls = padded_class(mu0, n)
                for j in range(n // 2 + 1):
                    lam = make_partition([p for p in (n - j, j) if p > 0])
                    assert char_two_row(n, j, mu0) == char_mn(lam, cls), (mu0, n, j)
                    two_row_points += 1
    report(4, f"characters agree on {pairs} ct/mn and {two_row_points} two-row points")


def test_criterion_5_search_rediscovery():
    pairs = search_pairs(8, 12)
    assert pairs, "search returned nothing"
    for pair in pairs:
        assert pair.theorem_predicted, pair
        assert pair.ratio == (1, 2), pair
    found = {(p.mu0, p.mu0_prime) for p in pairs}
    expected = 0
    for w in range(9):
        for mu0 in enumerate_partitions(w, 2):
            form = theorem_form_of(mu0)
            if form is None:
                continue
            expected += 1
            assert (mu0, companion_mu_prime(form)) in found, mu0
    assert len(pairs) == expected
    report(5, f"search rediscovers all {expected} companion pairs at K=8")


def test_criterion_6_proof_step_identities():
    # Euler telescoping, t <= 6
    for t in range(1, 7):
        assert (IntPoly((1, -1)) * euler_product(t)).coeffs == (1,) + (0,) * (2**t - 1) + (-1,)
    # factor transfer with representative exponents reachable from n <= 40
    for t in range(1, 7):
        for e in (1, 4, 12, 40):
            lhs = one_plus_x_pow(2 * e)
            rhs = one_plus_x_pow(2 * (e - 1)) * IntPoly((1, 2, 1))
            for j in range(1, t):
                f = IntPoly([1] + [0] * (2**j - 1) + [1])
                lhs = lhs * f * f
                rhs = rhs * f * f
            assert lhs.coeffs == rhs.coeffs, (t, e)
    # substituting the telescoped product leaves the two-rowed value unchanged
    for t, odds in [(1, (3,)), (2, (3,)), (3, (5, 3)), (4, ()), (5, ())]:
        run = [2**j for j in range(1, t)]
        mu0 = make_partition(list(odds) + run)
        w = mu0.weight()
        n = max(w, 2**t - 1 + sum(odds))
        assert n <= 40
        direct = IntPoly((1, -1)) * IntPoly((1, -1)) * one_plus_x_pow(2 * (n - w))
        for a in mu0.parts:
            f = IntPoly([1] + [0] * (a - 1) + [1])
            direct = direct * f * f
        telescoped = IntPoly([1] + [0] * (2**t - 1) + [-1])
        telescoped = telescoped * telescoped * one_plus_x_pow(2 * (n - sum(odds) - 1 - sum(run)))
        for a in odds:
            f = IntPoly([1] + [0] * (a - 1) + [1])
            telescoped = telescoped * f * f
        assert direct.coeffs == telescoped.coeffs
        assert sum_A(mu0, n) == -direct.coeffs[n + 1] // 2 == -telescoped.coeffs[n + 1] // 2
    report(6, "proof-step polynomial identities for t <= 6")


def test_criterion_7_antipalindromicity_and_doubling():
    rng = random.Random(2024)
    done = 0
    while done < 50:
        w = rng.randint(0, 12)
        candidates = list(enumerate_partitions(w, 2))
        if not candidates:
            continue
        mu0 = rng.choice(candidates)
        n = rng.randint(w, 30)
        p = IntPoly(char_two_row(n, j, mu0) for j in range(n + 2))
        assert len(p.coeffs) - 1 == n + 1, (mu0, n)
        for j in range(n + 2):
            assert p.coeffs[j] == -p.coeffs[n + 1 - j], (mu0, n, j)
        # constant term of p(x) p(1/x): x^deg p(1/x) is p reversed
        ct = (p * IntPoly(reversed(p.coeffs))).coeffs[n + 1]
        assert ct == 2 * sum_A(mu0, n), (mu0, n)
        done += 1
    report(7, "anti-palindromicity and doubling on 50 randomized cases")


def test_criterion_8_closed_form_structure():
    shapes = [[], [2], [3], [2, 2], [3, 2]]
    for parts in shapes:
        mu0 = make_partition(parts)
        num, den = fit_closed_form(mu0, "A")
        start = mu0.weight()
        held_out = range(start + 15, start + 25)  # fresh n beyond any fit sample
        for n in held_out:
            d = horner(den, n)
            assert d != 0 and horner(num, n) * comb(2 * n, n) == sum_A(mu0, n) * d, (mu0, n)
    report(8, f"closed forms fit and validate for {len(shapes)} shapes")


GOLDEN_CLI_CASES = [
    (["char", "--lambda", "2,1", "--mu", "3"], "-1\n"),
    (
        ["sum", "B", "--mu0", "3,2", "--n", "5..8", "--format", "csv"],
        "n,value\n5,4\n6,4\n7,6\n8,12\n",
    ),
    (
        ["verify", "--mu0", "3", "--n", "3..8", "--format", "json"],
        '{"mu0": "3", "mu0_prime": "3,2", "rows": '
        '[{"n": 3, "A": "2", "B": "4", "holds": true}, '
        '{"n": 4, "A": "2", "B": "4", "holds": true}, '
        '{"n": 5, "A": "3", "B": "6", "holds": true}, '
        '{"n": 6, "A": "6", "B": "12", "holds": true}, '
        '{"n": 7, "A": "15", "B": "30", "holds": true}, '
        '{"n": 8, "A": "44", "B": "88", "holds": true}], "all_hold": true}\n',
    ),
    (
        ["search", "--K", "2", "--window", "6"],
        '{"mu0": "", "mu0_prime": "2", "ratio": "1/2", '
        '"evidence_n": [0, 6], "theorem_predicted": true}\n'
        '{"mu0": "2", "mu0_prime": "4", "ratio": "1/2", '
        '"evidence_n": [2, 8], "theorem_predicted": true}\n',
    ),
    (
        ["fit", "--family", "A", "--mu0", ""],
        '{"family": "A", "mu0": "", "n_lo": 0, '
        '"numerator": ["1/1"], "denominator": ["1/1", "1/1"]}\n',
    ),
]

OEIS_FIXTURE = json.dumps(
    {
        "count": 1,
        "results": [
            {
                "number": 984,
                "data": "1,2,6,20,70,252,924,3432",
                "name": "Central binomial coefficients: binomial(2*n,n) = (2*n)!/(n!)^2.",
            }
        ],
    }
)


def test_criterion_9_cli_goldens(capsys, tmp_path, monkeypatch):
    # no --live flag anywhere: any network attempt raises instead of fetching
    for argv, expected in GOLDEN_CLI_CASES:
        for _ in range(2):  # byte-identical across repeated invocations
            assert main(argv) == 0
            assert capsys.readouterr().out == expected, argv
    monkeypatch.setenv("CHARSUM_OEIS_CACHE", str(tmp_path))
    OeisClient(cache_dir=tmp_path).seed_cache("1,2,6,20,70,252", OEIS_FIXTURE)
    for _ in range(2):
        assert main(["oeis", "1,2,6,20,70,252"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "A000984 Central binomial coefficients: "
            "binomial(2*n,n) = (2*n)!/(n!)^2.\n"
        )
    report(9, "six subcommands byte-identical, OEIS fixture-only")
