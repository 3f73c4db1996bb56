"""Byte-identity corpus: the one place that pins CLI outputs.  Every argv in
``cli_output_digests.json`` keeps its exit code, its stderr and its stdout.

An entry has one of two stderr fields and one of two stdout shapes:

- ``stderr`` is the whole stderr text; ``stderr_last`` is its last line only,
  kept for an argparse error, whose usage line wraps with the terminal width.
- ``stdout`` is the whole stdout text, for stdout of at most
  ``STDOUT_TEXT_MAX`` bytes; longer stdout is kept as ``stdout_sha256`` and
  ``stdout_bytes``, its SHA-256 and byte length.

Each argv runs in-process through ``cli.main``; then the whole corpus runs
again in reverse order in the same process, so no output may depend on the
state that ``polyring._central`` and ``charsums._family`` keep between
calls.  ``{cache}`` in an argv is an OEIS cache directory seeded with
``OEIS_FIXTURES``.  Every JSON record a run prints (each line of ``search``
and ``fit``, and each ``--format json`` output) is also checked against its
command's schema in ``src/charsum/schemas/``.

The stdout of ``fit --family A --mu0 ''`` and of ``fit --family A|B --mu0 M``
for M in 5,5,3, 5,5,5, 7,3,3, 7,5,3 and 9,3,3 (eleven runs) was first
recorded from an exact interpolating fit (sampled values, linear solves), a
route to the same reduced closed form that is independent of
``discovery.fit_closed_form``.

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
from importlib.resources import files

import jsonschema
import pytest
from conftest import CORPUS, CORPUS_FILE

from charsum import polyring
from charsum.cli import main
from charsum.oeis import OeisClient

# stdout of at most this many bytes is kept as text, longer stdout as its digest
STDOUT_TEXT_MAX = 1024

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
    ),
    # the query starts one term into the entry's data
    "2,6,20,70,252,924": json.dumps(
        {
            "results": [
                {
                    "number": 984,
                    "data": "1,2,6,20,70,252,924,3432",
                    "name": "Central binomial coefficients: binomial(2*n,n) = (2*n)!/(n!)^2.",
                }
            ]
        }
    ),
    "1,1,1,1,1,7": json.dumps({"results": []}),
}
# the schema of each command's JSON records
SCHEMAS = {
    "char": "char_result.v1.json",
    "sum": "sum_report.v1.json",
    "verify": "verify_report.v1.json",
    "search": "theorem_pair.v1.json",
    "fit": "fit_result.v1.json",
    "oeis": "oeis_result.v1.json",
}


def seed_cache(directory) -> str:
    client = OeisClient(cache_dir=directory)
    for query, raw in OEIS_FIXTURES.items():
        client.seed_cache(query, raw)
    return str(directory)


def _write_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def run(argv: list[str], cache: str) -> tuple[int, str, str, bool]:
    """One in-process run of ``argv``: its exit code, stdout and stderr, and
    whether argparse rejected it."""
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
    return code, out.getvalue(), err.getvalue().replace(cache, "{cache}"), argparse_error


def record(argv: list[str], cache: str) -> dict:
    """The corpus entry of one in-process run of ``argv``."""
    code, stdout, stderr, argparse_error = run(argv, cache)
    entry = {"argv": argv, "exit": code}
    if argparse_error:
        # argparse's usage line wraps with the terminal width; its last line does not
        entry["stderr_last"] = stderr.splitlines()[-1]
    else:
        entry["stderr"] = stderr
    data = stdout.encode()
    if len(data) <= STDOUT_TEXT_MAX:
        entry["stdout"] = stdout
    else:
        entry |= {"stdout_sha256": hashlib.sha256(data).hexdigest(), "stdout_bytes": len(data)}
    return entry


def mismatches(entries, cache: str) -> list[list[str]]:
    """The argvs of ``entries`` whose run differs from the entry."""
    return [entry["argv"] for entry in entries if record(entry["argv"], cache) != entry]


def test_every_output_is_pinned_in_both_orders(tmp_path):
    cache = seed_cache(tmp_path)
    assert mismatches(CORPUS, cache) == []
    assert mismatches(CORPUS[::-1], cache) == []


def test_every_json_output_matches_its_schema(tmp_path):
    cache = seed_cache(tmp_path)
    validators = {}
    for command, name in SCHEMAS.items():
        schema = json.loads(files("charsum").joinpath("schemas", name).read_text())
        validators[command] = jsonschema.validators.validator_for(schema)(schema)
    runs = records = 0
    for entry in CORPUS:
        argv = entry["argv"]
        if argv[0] in ("search", "fit") or ("--format", "json") in zip(argv, argv[1:]):
            lines = run(argv, cache)[1].splitlines()
            assert lines or entry["exit"] != 0, argv  # a run that succeeds prints a record
            for line in lines:
                validators[argv[0]].validate(json.loads(line))
            runs, records = runs + 1, records + len(lines)
    print(f"{records} JSON records of {runs} corpus runs match their schemas")


def test_the_corpus_holds_each_argv_once():
    argvs = [tuple(entry["argv"]) for entry in CORPUS]
    assert len(argvs) == len(set(argvs))
    for entry in CORPUS:
        stderr_fields = {"stderr", "stderr_last"} & set(entry)
        stdout_fields = set(entry) - stderr_fields - {"argv", "exit"}
        size = len(entry["stdout"].encode()) if "stdout" in entry else entry["stdout_bytes"]
        assert len(stderr_fields) == 1, entry["argv"]
        text = size <= STDOUT_TEXT_MAX
        assert stdout_fields == ({"stdout"} if text else {"stdout_sha256", "stdout_bytes"}), entry["argv"]


def test_a_tampered_digest_fails(tmp_path):
    entry = next(e for e in CORPUS if "stdout_sha256" in e)
    tampered = {**entry, "stdout_sha256": hashlib.sha256(b"tampered").hexdigest()}
    assert mismatches([tampered], seed_cache(tmp_path)) == [entry["argv"]]


@pytest.mark.parametrize("field", ["stdout", "stderr", "stderr_last"])
def test_a_tampered_field_fails(tmp_path, field):
    entry = next(e for e in CORPUS if e.get(field))
    tampered = {**entry, field: "tampered"}
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
