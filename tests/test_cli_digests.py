"""Byte-identity corpus: every argv in ``cli_output_digests.json`` keeps its
exit code, its stderr text and the SHA-256 and byte length of its stdout.

Each argv runs in-process through ``cli.main``; then the whole corpus runs
again in reverse order in the same process, so no output may depend on the
state that ``polyring._central`` and ``charsums._family`` keep between
calls.  An entry whose ``stderr`` is null is an argparse error: argparse
words those differently from one Python version to the next, so only the
exit code and the (empty) stdout are pinned.  ``{cache}`` in an argv is an
OEIS cache directory seeded with ``OEIS_FIXTURES``.

A change that alters outputs on purpose rewrites only the entries of the
argvs it names, each one shell-quoted string (an argv not in the corpus is
appended to it), and lists them in CHANGES.md:

    PYTHONPATH=src python tests/test_cli_digests.py "sum A --mu0 '' --n 0" ...
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

from charsum import polyring
from charsum.cli import main
from charsum.oeis import OeisClient

CORPUS_FILE = Path(__file__).parent / "cli_output_digests.json"
CORPUS = json.loads(CORPUS_FILE.read_text())

OEIS_FIXTURES = {
    "1,2,6,20,70,252": json.dumps(
        {
            "count": 2,
            "results": [
                {
                    "number": 984,
                    "data": "1,2,6,20,70,252,924,3432",
                    "name": "Central binomial coefficients: binomial(2*n,n) = (2*n)!/(n!)^2.",
                },
                {"number": 51924, "data": "1,2,6,20,70,252,923", "name": "A near miss."},
            ],
        }
    )
}


def seed_cache(directory) -> str:
    client = OeisClient(cache_dir=directory)
    for query, raw in OEIS_FIXTURES.items():
        client.seed_cache(query, raw)
    return str(directory)


def _write_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def record(argv: list[str], cache: str) -> dict:
    """The corpus entry of one in-process run of ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    # fresh filters, and warnings written to stderr, so each run warns as a new
    # process would (pytest records warnings instead)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("default")
        warnings.showwarning = _write_warning
        try:
            code, argparse_error = main([a.replace("{cache}", cache) for a in argv]), False
        except SystemExit as exc:
            code, argparse_error = exc.code, True
    stdout = out.getvalue().encode()
    return {
        "argv": argv,
        "exit": code,
        "stderr": None if argparse_error else err.getvalue().replace(cache, "{cache}"),
        "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
        "stdout_bytes": len(stdout),
    }


def mismatches(entries, cache: str) -> list[list[str]]:
    """The argvs of ``entries`` whose run differs from the entry."""
    return [entry["argv"] for entry in entries if record(entry["argv"], cache) != entry]


def test_every_output_is_pinned_in_both_orders(tmp_path):
    cache = seed_cache(tmp_path)
    assert mismatches(CORPUS, cache) == []
    assert mismatches(CORPUS[::-1], cache) == []


def test_the_corpus_holds_each_argv_once():
    argvs = [tuple(entry["argv"]) for entry in CORPUS]
    assert len(argvs) == len(set(argvs))


def test_a_tampered_digest_fails(tmp_path):
    entry = next(e for e in CORPUS if e["stdout_bytes"])
    tampered = {**entry, "stdout_sha256": hashlib.sha256(b"tampered").hexdigest()}
    assert mismatches([tampered], seed_cache(tmp_path)) == [entry["argv"]]


def test_an_output_read_from_stale_state_fails(tmp_path, monkeypatch):
    # A(3)(3) reads the kept pair at m = 0, here a wrong C(0, 0)
    entry = next(e for e in CORPUS if e["argv"] == ["sum", "A", "--mu0", "3", "--n", "3"])
    monkeypatch.setattr(polyring, "_central", (0, 2))
    assert mismatches([entry], seed_cache(tmp_path)) == [entry["argv"]]


def _write(entries) -> None:
    CORPUS_FILE.write_text("[\n" + ",\n".join(f"  {json.dumps(e)}" for e in entries) + "\n]\n")


if __name__ == "__main__":
    import shlex

    by_argv = {tuple(entry["argv"]): entry for entry in CORPUS}
    with tempfile.TemporaryDirectory() as directory:
        cache = seed_cache(directory)
        for text in sys.argv[1:]:
            argv = shlex.split(text)
            by_argv[tuple(argv)] = record(argv, cache)
    _write(by_argv.values())
