"""CLI exit codes: the exception table, pinned edge cases, a closed stdout,
and random argv."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charsum
from charsum import charsums, discovery
from charsum.charsums import InternalConsistencyError
from charsum.cli import EXIT_CODES, main

GOLDENS = json.loads((Path(__file__).parent / "cli_exit_goldens.json").read_text())

# The codes of the README exit table that a run in-process can return.
README_CODES = {0, 1, 2, 3, 4, 5, 7}


def _src_env():
    src = str(Path(charsum.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_table_lists_every_subclass_before_its_base():
    classes = [cls for cls, *_ in EXIT_CODES]
    for i, cls in enumerate(classes):
        assert not any(issubclass(later, cls) for later in classes[i + 1 :]), cls


@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize("row", GOLDENS, ids=[" ".join(g["argv"]) for g in GOLDENS])
def test_exit_code_and_stderr_pinned(capsys, tmp_path, row):
    # The last stderr line: for argparse errors the first is the usage line,
    # which wraps with the terminal width.
    argv = [a.replace("{cache}", str(tmp_path)) for a in row["argv"]]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    lines = capsys.readouterr().err.splitlines()
    assert (code, lines[-1] if lines else "") == (row["exit"], row["stderr"])


class TestInternalErrors:
    @pytest.fixture(autouse=True)
    def broken_sum_A(self, monkeypatch):
        def fail(mu0, n):
            raise InternalConsistencyError(f"forced failure at n={n}")

        monkeypatch.setattr(charsums, "sum_A", fail)
        monkeypatch.setattr(discovery, "sum_A", fail)

    @pytest.mark.parametrize(
        "argv, first_n",
        [(["verify", "--mu0", "3", "--n", "3..5"], 3), (["search", "--K", "2"], 0)],
        ids=["verify", "search"],
    )
    def test_exit_4_with_one_error_line(self, capsys, argv, first_n):
        assert main(argv) == 4
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: forced failure at n={first_n}\n")


def test_closed_stdout_exits_141_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "charsum.cli", "verify", "--mu0", "3", "--n", "3..1000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_src_env(),
    )
    # about 600 kB of rows against a 64 kB pipe: the writer is still writing
    assert proc.stdout.readline() == b"mu0=3 mu0_prime=3,2\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


PARTITIONS = st.one_of(
    st.lists(st.integers(-1, 9), max_size=4).map(lambda ps: ",".join(map(str, ps))),
    st.sampled_from(["", "x", "3,,2", " 3 , 2 ", "2.5", "5,4,3,2", "3,2,2"]),
)
RANGES = st.one_of(
    st.integers(-3, 60).map(str),
    st.tuples(st.integers(-3, 60), st.integers(-3, 60)).map(lambda t: f"{t[0]}..{t[1]}"),
    st.sampled_from(["", "..", "x", "3..", "..5", "3..x"]),
)


def rarely(bad, good):
    """good, or one time in ten bad: argparse rejects bad, and each rejected
    argv tests less of the program."""
    return st.integers(0, 9).flatmap(lambda k: bad if k == 9 else good)


def ints(lo, hi):
    return rarely(st.sampled_from(["", "x", "1.5"]), st.integers(lo, hi).map(str))


def choices(*values):
    return rarely(st.just("bogus"), st.sampled_from(values))


FORMATS = choices("plain", "json", "csv")  # sum and verify
FLAG = st.just(None)
# subcommand -> (positional arguments, {option: (values, required)})
COMMANDS = {
    "char": (
        [],
        {
            "--lambda": (PARTITIONS, True),
            "--mu": (PARTITIONS, True),
            "--method": (choices("mn", "ct", "tworow"), False),
            "--check-all": (FLAG, False),
            "--format": (choices("plain", "json"), False),
        },
    ),
    "sum": (
        [choices("A", "B")],
        {
            "--mu0": (PARTITIONS, True),
            "--n": (RANGES, True),
            "--mode": (choices("lemma", "brute", "both"), False),
            "--format": (FORMATS, False),
        },
    ),
    "verify": ([], {"--mu0": (PARTITIONS, True), "--n": (RANGES, True), "--format": (FORMATS, False)}),
    "search": (
        [],
        {"--K": (ints(-2, 8), True), "--window": (ints(-2, 16), False)},
    ),
    "fit": (
        [],
        {"--family": (choices("A", "B"), True), "--mu0": (PARTITIONS, True)},
    ),
    "oeis": (
        [
            st.one_of(
                st.lists(st.integers(0, 300), max_size=14).map(lambda vs: ",".join(map(str, vs))),
                st.sampled_from(["1,2,foo,4,5,6", "0,0,0,0,0,0", "1,2,6,20,70,252"]),
            )
        ],
        {"--max-results": (ints(-1, 3), False), "--format": (choices("plain", "json"), False)},
    ),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    positional, options = COMMANDS[command]
    argv = [command] + [draw(values) for values in positional]
    for option, (values, required) in options.items():
        # a required option is left out now and then, for argparse to reject
        if draw(st.integers(0, 9)) < (9 if required else 5):
            value = draw(values)
            argv += [option] if value is None else [option, value]
    return argv


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=150, deadline=None)
@given(argv=argvs())
def test_random_argv_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as cache:
        if argv[0] == "oeis":
            argv = argv + ["--cache-dir", cache]  # never the user's cache; never --live
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv  # argparse rejected the argv
                return
    assert code in README_CODES, argv
    message = err.getvalue()
    assert message == "" or (message.startswith("error: ") and message.count("\n") == 1), argv
