"""CLI behaviour that an argv and its pinned output cannot show: runs against a
monkeypatched library, runs in their own process (warnings, deep classes,
module-load budgets), drawn inputs, relations between runs that hold whatever
the corpus records, the OEIS cache that CHARSUM_OEIS_CACHE names, and the
README's claims.  What a plain run prints is pinned in
``cli_output_digests.json`` (see test_cli_digests)."""

import ast
import contextlib
import importlib.util
import io
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import src_env
from hypothesis import given, settings
from hypothesis import strategies as st

from charsum import characters, charsums, oeis
from charsum.cli import build_parser, main
from charsum.oeis import OeisClient, UnparsableCacheWarning
from charsum.partition import enumerate_partitions, format_partition, theorem_form_of

try:
    import resource
except ImportError:  # not on Windows
    resource = None

CENTRAL_BINOMIAL_RESPONSE = json.dumps(
    {
        "count": 2,
        "results": [
            {
                "number": 984,
                "data": "1,2,6,20,70,252,924,3432",
                "name": "Central binomial coefficients: binomial(2*n,n) = (2*n)!/(n!)^2.",
            },
            {
                "number": 1700,
                "data": "1,1,2,6,20,70,252",
                "name": "a(n) = binomial(2n-2, n-1).",
            },
        ],
    }
)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def oeis_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("CHARSUM_OEIS_CACHE", str(tmp_path))
    OeisClient(cache_dir=tmp_path).seed_cache(
        "1,2,6,20,70,252", CENTRAL_BINOMIAL_RESPONSE
    )
    return tmp_path


class TestCharCommand:
    def test_check_all_disagreement_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(characters, "char_ct", lambda lam, mu: 999)
        code, out, _ = run(
            capsys, ["char", "--lambda", "3,1", "--mu", "2,2", "--check-all"]
        )
        assert code == 4
        assert "mn -1" in out and "ct 999" in out

    def test_check_all_reads_the_row_cap_when_it_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(characters, "DEFAULT_ROW_CAP", 2)
        code, out, err = run(
            capsys, ["char", "--lambda", "2,1,1", "--mu", "3,1", "--check-all"]
        )
        assert (code, out, err) == (0, "mn 0\n", "")

    @pytest.mark.parametrize(
        "lam, mu, methods",
        [("2,1,1", "2,2", ["mn", "ct"]), ("2,1,1,1,1", "3,3", ["mn"])],
    )
    def test_check_all_skips_the_routes_the_shape_exceeds(self, capsys, lam, mu, methods):
        # plain and json name the same routes
        argv = ["char", "--lambda", lam, "--mu", mu, "--check-all"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == methods
        code, out, _ = run(capsys, argv + ["--format", "json"])
        assert code == 0
        assert list(json.loads(out)["values"]) == methods

    def test_methods_select(self, capsys):
        for method in ["mn", "ct", "tworow"]:
            code, out, _ = run(
                capsys, ["char", "--lambda", "3,1", "--mu", "2,2", "--method", method]
            )
            assert (code, out) == (0, "-1\n"), method


class TestSumCommand:
    def test_forced_mismatch_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr("charsum.charsums.sum_A_bruteforce", lambda mu0, n: 999)
        code, _, err = run(
            capsys, ["sum", "A", "--mu0", "3", "--n", "3", "--mode", "both"]
        )
        assert code == 4
        assert err == "error: lemma/brute mismatch at n=3: 2 vs 999\n"

    def test_brute_mode_matches_lemma(self, capsys):
        _, lemma_out, _ = run(capsys, ["sum", "B", "--mu0", "3", "--n", "3..8"])
        _, brute_out, _ = run(
            capsys, ["sum", "B", "--mu0", "3", "--n", "3..8", "--mode", "brute"]
        )
        assert lemma_out == brute_out


class TestVerifyCommand:
    @settings(max_examples=40, deadline=None)
    @given(
        mu0=st.sampled_from(
            [p for w in range(11) for p in enumerate_partitions(w, 2) if theorem_form_of(p)]
        ),
        start=st.integers(0, 6),
        length=st.integers(1, 5),
    )
    def test_every_format_gives_the_same_rows(self, mu0, start, length):
        n_range = f"{mu0.weight() + start}..{mu0.weight() + start + length - 1}"
        outs = {}
        for fmt in ("plain", "csv", "json"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["verify", "--mu0", format_partition(mu0), "--n", n_range, "--format", fmt]) == 0
            outs[fmt] = out.getvalue()
        plain = [
            (int(n), int(a), int(b), holds == "yes")
            for n, a, b, holds in re.findall(r"^n=(\d+) A=(\d+) B=(\d+) holds=(yes|no)$", outs["plain"], re.M)
        ]
        csv = [
            (int(n), int(a), int(b), holds == "true")
            for n, a, b, holds in (line.split(",") for line in outs["csv"].splitlines()[1:])
        ]
        report = json.loads(outs["json"])
        rows = [(r["n"], int(r["A"]), int(r["B"]), r["holds"]) for r in report["rows"]]
        assert len(rows) == length and plain == csv == rows
        assert outs["plain"].endswith("all_hold=yes\n") and report["all_hold"] is True

    @pytest.mark.parametrize(
        "fmt, expected",
        [
            (
                "plain",
                "mu0=3 mu0_prime=3,2\n"
                "n=3 A=2 B=4 holds=yes\n"
                "n=4 A=2 B=5 holds=no\n"
                "n=5 A=3 B=6 holds=yes\n"
                "all_hold=no\n",
            ),
            ("csv", "n,A,B,holds\n3,2,4,true\n4,2,5,false\n5,3,6,true\n"),
            (
                "json",
                '{"mu0": "3", "mu0_prime": "3,2", "rows": '
                '[{"n": 3, "A": "2", "B": "4", "holds": true}, '
                '{"n": 4, "A": "2", "B": "5", "holds": false}, '
                '{"n": 5, "A": "3", "B": "6", "holds": true}], "all_hold": false}\n',
            ),
        ],
    )
    def test_a_failing_row_exits_1(self, capsys, monkeypatch, fmt, expected):
        original = charsums.sum_B
        # B(3,2)(6) is the value verify compares with A(3)(4)
        monkeypatch.setattr(charsums, "sum_B", lambda mu0, n: original(mu0, n) + (n == 6))
        code, out, err = run(capsys, ["verify", "--mu0", "3", "--n", "3..5", "--format", fmt])
        assert (code, out, err) == (1, expected, "")

    def test_integers_past_the_str_digit_limit(self, capsys):
        # A(3)(7200) has more than 4300 digits, CPython's default int->str limit
        code, out, _ = run(capsys, ["verify", "--mu0", "3", "--n", "7200..7201", "--format", "csv"])
        assert code == 0
        rows = out.splitlines()
        assert rows[0] == "n,A,B,holds"
        assert [row.split(",")[0] for row in rows[1:]] == ["7200", "7201"]
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            for row in rows[1:]:
                _, a, b, holds = row.split(",")
                assert len(a) > 4300 and 2 * int(a) == int(b) and holds == "true"
        finally:
            sys.set_int_max_str_digits(saved)
        assert sys.get_int_max_str_digits() == saved  # main restored it too

    def test_deterministic_byte_identical(self, capsys):
        _, first, _ = run(capsys, ["verify", "--mu0", "3", "--n", "3..6", "--format", "json"])
        _, second, _ = run(capsys, ["verify", "--mu0", "3", "--n", "3..6", "--format", "json"])
        assert first == second


class TestSearchCommand:
    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_bad_jobs_is_a_usage_error(self, capsys, jobs):
        # search runs in one process: --jobs is not an option, whatever its value
        with pytest.raises(SystemExit) as exc:
            main(["search", "--K", "2", "--jobs", jobs])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err


# (reply, the parse problem it names)
MALFORMED_RESPONSES = [
    pytest.param({"results": [{"number": "A984"}]}, "number is not an integer", id="non-integer number"),
    pytest.param({"results": [{"number": -5}]}, "number is not an integer", id="negative number"),
    pytest.param(
        {"results": [{"number": 984, "data": "1,2,x,6"}]}, "data is not a list of integers", id="non-integer data"
    ),
    pytest.param({"results": 5}, "results is not a list", id="non-list results"),
]


class TestOeisCommand:
    # the runs with oeis_cache read the cache that CHARSUM_OEIS_CACHE names,
    # where every corpus argv passes --cache-dir
    def test_plain_golden_from_fixture(self, capsys, oeis_cache):
        code, out, _ = run(capsys, ["oeis", "1,2,6,20,70,252"])
        assert code == 0
        assert out == (
            "A000984 Central binomial coefficients: binomial(2*n,n) = (2*n)!/(n!)^2.\n"
            "A001700 a(n) = binomial(2n-2, n-1).\n"
        )

    @pytest.mark.parametrize(
        "fmt, expected", [("plain", ""), ("json", '{"query": "1,1,1,1,1,7", "matches": []}\n')]
    )
    def test_no_matches(self, capsys, oeis_cache, fmt, expected):
        OeisClient(cache_dir=oeis_cache).seed_cache("1,1,1,1,1,7", json.dumps({"results": []}))
        code, out, err = run(capsys, ["oeis", "1,1,1,1,1,7", "--format", fmt])
        assert (code, out, err) == (0, expected, "")

    def test_cache_dir_flag_overrides(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CHARSUM_OEIS_CACHE", str(tmp_path / "empty"))
        OeisClient(cache_dir=tmp_path).seed_cache(
            "1,2,6,20,70,252", CENTRAL_BINOMIAL_RESPONSE
        )
        code, out, _ = run(
            capsys, ["oeis", "1,2,6,20,70,252", "--cache-dir", str(tmp_path)]
        )
        assert code == 0
        assert out.startswith("A000984")

    def test_uncached_offline_exits_7(self, capsys, oeis_cache):
        code, _, err = run(capsys, ["oeis", "9,8,7,6,5,4"])
        assert code == 7
        assert "disabled" in err

    def test_too_few_values_exits_3(self, capsys, oeis_cache):
        code, _, err = run(capsys, ["oeis", "1,2,3"])
        assert code == 3
        assert "at least 6" in err

    @pytest.mark.parametrize("response,problem", MALFORMED_RESPONSES)
    def test_malformed_cached_response_exits_7(self, capsys, tmp_path, response, problem):
        # a cache file that does not parse is a miss, so the offline lookup fails
        path = OeisClient(cache_dir=tmp_path).seed_cache("1,2,6,20,70,252", json.dumps(response))
        with pytest.warns(UnparsableCacheWarning, match=path.name) as record:
            code, _, err = run(capsys, ["oeis", "1,2,6,20,70,252", "--cache-dir", str(tmp_path)])
        assert problem in str(record[0].message)
        assert code == 7
        assert err.startswith("error: ") and "disabled" in err

    @pytest.mark.parametrize("response,problem", MALFORMED_RESPONSES)
    def test_malformed_live_response_exits_7(self, capsys, tmp_path, monkeypatch, response, problem):
        monkeypatch.setattr(oeis, "live_transport", lambda query: json.dumps(response))
        code, out, err = run(
            capsys, ["oeis", "1,2,6,20,70,252", "--live", "--cache-dir", str(tmp_path)]
        )
        assert (code, out) == (7, "")
        assert err.startswith("error: ") and problem in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_bad_max_results_is_a_usage_error(self, capsys, oeis_cache, value):
        with pytest.raises(SystemExit) as exc:
            main(["oeis", "1,2,6,20,70,252", "--max-results", value])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_max_results_limits_the_matches(self, capsys, oeis_cache):
        code, out, _ = run(capsys, ["oeis", "1,2,6,20,70,252", "--max-results", "1"])
        assert code == 0
        assert out == "A000984 Central binomial coefficients: binomial(2*n,n) = (2*n)!/(n!)^2.\n"

    def test_unparsable_cache_file_is_named_and_offline_still_exits_7(self, capsys, oeis_cache):
        path = OeisClient(cache_dir=oeis_cache).seed_cache("1,2,6,20,70,252", "<html>503</html>")
        with pytest.warns(UnparsableCacheWarning, match=path.name):
            code, _, err = run(capsys, ["oeis", "1,2,6,20,70,252"])
        assert code == 7
        assert "disabled" in err

    def test_library_warning_is_one_line_on_stderr(self, tmp_path):
        # a fresh process shows warnings as Python formats them, unlike pytest
        path = OeisClient(cache_dir=tmp_path).seed_cache("5,5,5,5,5,5", "<html>503</html>")
        proc = _cli_process("oeis", "5,5,5,5,5,5", "--cache-dir", str(tmp_path))
        assert (proc.returncode, proc.stdout) == (7, b"")
        warning, error = proc.stderr.decode().splitlines()
        assert warning.startswith(f"warning: ignoring cache file {path} that does not parse")
        assert error.startswith("error: ") and "disabled" in error
        assert "cli.py:" not in proc.stderr.decode()
        assert "client.lookup(" not in proc.stderr.decode()

    def test_cache_dir_that_is_a_file_exits_7(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(oeis, "live_transport", lambda query: CENTRAL_BINOMIAL_RESPONSE)
        not_a_dir = tmp_path / "cache"
        not_a_dir.write_text("")
        code, out, err = run(
            capsys, ["oeis", "1,2,6,20,70,252", "--live", "--cache-dir", str(not_a_dir)]
        )
        assert (code, out) == (7, "")
        assert err.startswith(f"error: cannot write the cache file {not_a_dir}") and err.count("\n") == 1


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


def test_import_loads_neither_http_nor_process_pool():
    code = (
        "import sys, charsum.cli; "
        "print(sorted({'urllib.request', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=src_env()
    ).stdout
    assert out == "[]\n"


# A sum, verify or char run imports none of these: the other commands' modules
# and the standard-library modules that only those commands use.
NOT_LOADED_BY_SUM_VERIFY_CHAR = {
    "charsum.discovery",
    "charsum.oeis",
    "dataclasses",
    "inspect",
    "fractions",
    "decimal",
    "json",
}


# run the CLI on sys.argv, then print its exit code and every module it loaded
RUN_CLI_AND_LIST_MODULES = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('charsum.cli', run_name='__main__')\n"
    "except SystemExit as exc:\n"
    "    print((exc.code, sorted(sys.modules)), file=sys.stderr)\n"
)


def _loaded_modules(code, *argv):
    """The last stderr line of ``python -S -c code argv`` (no ``site``, so no
    .pth file preloads a module), read as a Python literal."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv], capture_output=True, text=True, env=src_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stderr.splitlines()[-1])


@pytest.mark.parametrize(
    "argv",
    [
        ["sum", "A", "--mu0", "5,3,2", "--n", "10..12"],
        ["verify", "--mu0", "3", "--n", "3..5", "--format", "csv"],
        ["char", "--lambda", "3,1", "--mu", "2,2"],
        ["char", "--lambda", "3,1", "--mu", "2,2", "--check-all"],
    ],
    ids=["sum", "verify", "char", "char-check-all"],
)
def test_sum_verify_and_char_load_only_what_they_run(argv):
    exit_code, loaded = _loaded_modules(RUN_CLI_AND_LIST_MODULES, *argv)
    assert exit_code == 0
    assert sorted(NOT_LOADED_BY_SUM_VERIFY_CHAR & set(loaded)) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["sum", "A", "--mu0", "3,1", "--n", "5"],
        ["verify", "--mu0", "3,1", "--n", "4..5"],
        ["char", "--lambda", "3,1", "--mu", "3"],
    ],
    ids=["sum", "verify", "char"],
)
def test_a_failing_sum_verify_or_char_loads_only_what_it_runs(argv):
    # the exit-code table names no class of a module the run did not load
    exit_code, loaded = _loaded_modules(RUN_CLI_AND_LIST_MODULES, *argv)
    assert exit_code == 3
    assert sorted(NOT_LOADED_BY_SUM_VERIFY_CHAR & set(loaded)) == []


def test_a_failing_fit_loads_neither_discovery_nor_oeis():
    exit_code, loaded = _loaded_modules(RUN_CLI_AND_LIST_MODULES, "fit", "--family", "A", "--mu0", "3,1")
    assert exit_code == 3
    assert sorted({"charsum.discovery", "charsum.oeis", "json"} & set(loaded)) == []


@pytest.mark.parametrize(
    "argv", [["search", "--K", "8"], ["fit", "--family", "A", "--mu0", "3"]], ids=["search", "fit"]
)
def test_search_and_fit_load_no_rational_arithmetic(argv):
    # the library computes in integers only; `fractions` would bring the other two
    exit_code, loaded = _loaded_modules(RUN_CLI_AND_LIST_MODULES, *argv)
    # fit_closed_form lives in charsums, so only search needs discovery
    assert exit_code == 0 and ("charsum.discovery" in loaded) == (argv[0] == "search")
    assert sorted({"fractions", "decimal", "numbers"} & set(loaded)) == []


@pytest.mark.parametrize(
    "argv, code",
    [
        (["sum", "A", "--mu0", "5,3,2", "--n", "10..12", "--mode", "both"], 0),
        (["sum", "B", "--mu0", "3,1", "--n", "5", "--mode", "both"], 3),
        (["verify", "--mu0", "3", "--n", "3..5"], 0),
        (["verify", "--mu0", "3,1", "--n", "4..5"], 3),
        (["fit", "--family", "A", "--mu0", "5,3"], 0),
        (["fit", "--family", "B", "--mu0", "3,1"], 3),
        (["search", "--K", "8"], 0),
        (["search", "--K", "1"], 5),
    ],
    ids=["sum", "sum-fails", "verify", "verify-fails", "fit", "fit-fails", "search", "search-fails"],
)
def test_only_char_loads_characters(argv, code):
    # T, V and both border-strip rows live in charsums; characters holds the char routes
    exit_code, loaded = _loaded_modules(RUN_CLI_AND_LIST_MODULES, *argv)
    assert exit_code == code
    assert "charsum.characters" not in loaded


def test_import_charsum_loads_no_submodule_until_a_name_is_used():
    code = (
        "import sys, charsum\n"
        "before = sorted(m for m in sys.modules if m.startswith('charsum'))\n"
        "charsum.sum_A\n"
        "print((before, sorted(m for m in sys.modules if m.startswith('charsum'))), file=sys.stderr)\n"
    )
    before, after = _loaded_modules(code)
    assert before == ["charsum"]
    assert after == ["charsum", "charsum.charsums", "charsum.partition", "charsum.polyring"]


def _cli_process(*argv, script=None):
    command = [sys.executable, *([script] if script else ["-m", "charsum.cli"]), *argv]
    return subprocess.run(command, capture_output=True, env=src_env(), timeout=120)


class TestDeepClasses:
    """``char_mn`` removes one part >= 2 of the class per pass, and closes the
    1s at once, so neither long tails of 1s nor many parts >= 2 cost stack
    depth; neither do the brute-force routes."""

    @pytest.mark.parametrize("family", ["A", "B"])
    def test_brute_force_sum_at_n_500(self, family):
        proc = _cli_process("sum", family, "--mu0", "3", "--n", "500", "--mode", "both")
        assert (proc.returncode, proc.stderr) == (0, b"")

    def test_character_on_600_ones(self):
        proc = _cli_process("char", "--lambda", "500,100", "--mu", ",".join(["1"] * 600))
        assert proc.returncode == 0
        assert proc.stdout == f"{math.comb(600, 100) - math.comb(600, 99)}\n".encode()

    @pytest.mark.parametrize(
        "lam, value, method",
        [
            ("2000", 1, "mn"),
            ("1000,1000", math.comb(1000, 500), "mn"),
            ("2000", 1, "tworow"),
            ("1000,1000", math.comb(1000, 500), "tworow"),
        ],
        ids=["2000", "1000,1000", "2000-tworow", "1000,1000-tworow"],
    )
    def test_character_on_1000_twos(self, lam, value, method):
        # chi^(2000) is trivial; chi^(m, m) on 2^m is (-1)^m C(m, m // 2); the
        # tworow route reads T, one binomial row for the 1000 twos
        twos = ",".join(["2"] * 1000)
        proc = _cli_process("char", "--lambda", lam, "--mu", twos, "--method", method)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{value}\n".encode(), b"")

    def test_brute_force_sums_on_1000_twos_at_n_2000(self):
        # both routes take the class whole, one border-strip pass per part;
        # --mode both also checks them against the lemma
        twos = ",".join(["2"] * 1000)
        for family in "AB":
            proc = _cli_process("sum", family, "--mu0", twos, "--n", "2000", "--mode", "both")
            assert (proc.returncode, proc.stderr) == (0, b""), family
            assert proc.stdout.rstrip(b"\n").isdigit(), family

    def test_every_route_on_1000_twos(self):
        # mn, ct and tworow agree on chi^(1000,1000), or --check-all exits 4
        twos = ",".join(["2"] * 1000)
        proc = _cli_process("char", "--lambda", "1000,1000", "--mu", twos, "--check-all")
        expected = "".join(f"{method} {math.comb(1000, 500)}\n" for method in ("mn", "ct", "tworow"))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected.encode(), b"")


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.skipif(resource is None, reason="needs the resource module")
@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--family", "A", "--mu0", "1000000000000"],
        ["fit", "--family", "B", "--mu0", "1000000000000000000"],
        ["sum", "B", "--mu0", "1000000000000", "--n", "1000000000000"],
        ["verify", "--mu0", "1000000000001", "--n", "1000000000001"],
    ],
    ids=["fit-A", "fit-B", "sum-B", "verify"],
)
def test_a_class_too_large_to_build_exits_3_at_once(argv):
    # each list of the class's factor is one allocation, which fails at once;
    # the address-space limit keeps a build that grows instead from taking the
    # host's memory (such a run times out here)
    command = [sys.executable, "-m", "charsum.cli", *argv]
    proc = subprocess.run(
        command, capture_output=True, env=src_env(), timeout=30, preexec_fn=_limit_address_space
    )
    mu0 = argv[argv.index("--mu0") + 1]
    expected = f"error: class {mu0} is too large to build its factor\n".encode()
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, b"", expected)


def test_trace_shim_binds_every_name_it_wraps(tmp_path):
    # perfbench/trace_shim.py wraps library functions by name; a rename there
    # would make it fail or change the output
    perfbench = Path(__file__).parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("spans", perfbench / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for i, argv in enumerate(
        [
            ["sum", "B", "--mu0", "3,2", "--n", "5..9", "--mode", "both"],
            ["sum", "A", "--mu0", "5,3,2", "--n", "10..13", "--mode", "both"],
            ["fit", "--family", "A", "--mu0", "5,3"],
            ["search", "--K", "6", "--window", "6"],
            ["char", "--lambda", "3,1", "--mu", "2,2", "--check-all"],
        ]
    ):
        span_file = tmp_path / f"{i}.spans"
        traced = _cli_process(str(span_file), str(i), "--", *argv, script=str(perfbench / "trace_shim.py"))
        plain = _cli_process(*argv)
        assert traced.returncode == 0, traced.stderr
        assert plain.returncode == 0 and traced.stdout == plain.stdout, argv
        totals = spans.op_totals(*spans.read(span_file))
        if argv[0] == "fit":
            # the fit's self-check calls the sums by their module-level names
            assert totals["fit_sum_calls"] > 0
        if argv[-1] == "both":
            # the brute-force sums are wrapped by the names the CLI calls; both
            # build their rows by border-strip passes, without char_mn
            lo, hi = map(int, argv[argv.index("--n") + 1].split(".."))
            assert totals[f"charsums.sum_{argv[1]}_bruteforce.calls"] == hi - lo + 1
            assert totals["characters.char_mn.calls"] == 0
        if argv[0] == "char":
            # ``char`` looks each route up by name, so the shim sees the one char_mn call
            assert totals["characters.char_mn.calls"] == 1


def test_every_flag_in_readme_cli_section_is_accepted():
    # the README must not document an option that the parser rejects
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    (subparsers,) = build_parser()._subparsers._group_actions
    accepted = {flag for p in subparsers.choices.values() for flag in p._option_string_actions}
    assert named and named <= accepted, sorted(named - accepted)


def readme_section(title):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_tour_holds():
    tour = readme_section("Library quick tour").split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, []
    for stmt in ast.parse(tour).body:
        code = ast.get_source_segment(tour, stmt)
        if isinstance(stmt, ast.Expr):
            values.append(eval(code, namespace))
        else:
            exec(code, namespace)
    companion, a, holds, pairs, fit = values
    assert companion.parts == (3, 2)
    assert a == 2 and holds is True
    assert pairs and {p.ratio for p in pairs} == {(1, 2)}
    assert fit == ((1,), (1, 1))  # 1/(n+1)


def test_readme_cli_examples_print_what_their_comments_say(capsys):
    block = readme_section("CLI").split("```\n", 2)[1]
    comments = {}
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        comments[tuple(shlex.split(command)[1:])] = comment.strip()
    for argv, out in [
        (("char", "--lambda", "2,1", "--mu", "3"), "-1"),
        (("sum", "A", "--mu0", "3", "--n", "3"), "2"),
    ]:
        assert comments[argv] == out
        assert run(capsys, list(argv)) == (0, out + "\n", "")
    argv = ("fit", "--family", "A", "--mu0", "")
    assert comments[argv].startswith('{"numerator": ["1/1"]')
    code, out, _ = run(capsys, list(argv))
    assert code == 0 and json.loads(out)["numerator"] == ["1/1"]
