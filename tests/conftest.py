"""Helpers shared by the test modules: the corpus of CLI outputs, the
environment of a CLI subprocess and classes padded with 1s."""

import json
import os
from pathlib import Path

import charsum
from charsum.partition import Partition

# every pinned CLI run (see test_cli_digests), in file order and by argv
CORPUS_FILE = Path(__file__).parent / "cli_output_digests.json"
CORPUS = json.loads(CORPUS_FILE.read_text())
PINNED = {tuple(entry["argv"]): entry for entry in CORPUS}


def src_env() -> dict:
    """The environment of a CLI subprocess: this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(charsum.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def padded(mu0, n):
    """The class mu0 padded with 1s up to weight n."""
    return Partition(mu0 + (1,) * (n - mu0.weight()))
