"""Client for the On-Line Encyclopedia of Integer Sequences search endpoint.

The transport is injectable so tests (and offline use) run against recorded
fixtures; live HTTP is opt-in.  Responses that parse are cached on disk,
written atomically and keyed by a hash of the query string, and the cache is
always consulted before the transport, so a repeated query performs zero
network operations.  Each ``OeisClient`` serializes its live requests and
spaces them LIVE_REQUEST_INTERVAL seconds apart; a CLI run makes at most one
request, so it never waits.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

MIN_QUERY_TERMS = 6
MAX_QUERY_TERMS = 12
LIVE_REQUEST_INTERVAL = 2.0  # seconds between live requests
SEARCH_URL = "https://oeis.org/search"

Transport = Callable[[str], str]


class OeisError(Exception):
    pass


class OeisNetworkError(OeisError):
    """The lookup needed the network and could not use it."""


class OeisParseError(OeisError):
    """The response was not in the expected JSON shape."""


class LowInformationQueryWarning(UserWarning):
    """The query carries too little information for matches to mean much."""


class QueryTruncationWarning(UserWarning):
    """The query exceeded the endpoint-friendly length and was truncated."""


class UnparsableCacheWarning(UserWarning):
    """A cache file did not parse; the lookup treats it as a miss."""


@dataclass(frozen=True)
class OeisMatch:
    sequence_id: str  # e.g. "A000984"
    name: str
    matched_offset: int  # index into the entry's data where the query aligns
    match_length: int  # number of consecutive query terms matched there


def default_cache_dir() -> Path:
    env = os.environ.get("CHARSUM_OEIS_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "charsum" / "oeis"


def cache_key(query: str) -> str:
    import hashlib  # imported here: it loads OpenSSL, and only lookups need it

    return hashlib.sha256(query.encode("utf-8")).hexdigest()


def live_transport(query: str) -> str:
    """HTTP GET against the JSON search endpoint."""
    import urllib.error  # imported here: most runs never go live, and the import is slow
    import urllib.parse
    import urllib.request

    url = SEARCH_URL + "?" + urllib.parse.urlencode({"q": query, "fmt": "json"})
    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            return resp.read().decode("utf-8")
    except (urllib.error.URLError, OSError) as exc:
        raise OeisNetworkError(f"live lookup failed: {exc}") from exc


def offline_transport(query: str) -> str:
    raise OeisNetworkError(
        "live network lookups are disabled and the query is not cached; "
        "enable them explicitly or seed the cache with a recorded fixture"
    )


class OeisClient:
    """Shared lookup service: disk cache first, then the injected transport."""

    def __init__(
        self,
        transport: Optional[Transport] = None,
        cache_dir: Optional[Path] = None,
    ):
        self._transport = transport if transport is not None else offline_transport
        self.cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self._lock = threading.Lock()
        self._last_request = 0.0

    def cache_path(self, query: str) -> Path:
        return self.cache_dir / (cache_key(query) + ".json")

    def seed_cache(self, query: str, raw_response: str) -> Path:
        """Record a fixture for the query (what the transport would return)."""
        path = self.cache_path(query)
        _write_atomic(path, raw_response)
        return path

    def lookup(self, values: Sequence[int], max_results: int = 10) -> list[OeisMatch]:
        """Search for the integer sequence; parsed matches, best first.

        Requires at least MIN_QUERY_TERMS values (shorter queries are
        under-determined).  Queries longer than MAX_QUERY_TERMS are truncated
        with a warning; an all-zero query is flagged as low-information.
        max_results must be a positive integer.
        """
        if isinstance(max_results, bool) or not isinstance(max_results, int) or max_results < 1:
            raise ValueError(f"max_results must be a positive integer, got {max_results!r}")
        values = [int(v) for v in values]
        if len(values) < MIN_QUERY_TERMS:
            raise ValueError(
                f"need at least {MIN_QUERY_TERMS} terms, got {len(values)}"
            )
        if len(values) > MAX_QUERY_TERMS:
            warnings.warn(
                f"query truncated to its first {MAX_QUERY_TERMS} terms",
                QueryTruncationWarning,
                stacklevel=2,
            )
            values = values[:MAX_QUERY_TERMS]
        if all(v == 0 for v in values):
            warnings.warn(
                "all-zero query: matches are ambiguous",
                LowInformationQueryWarning,
                stacklevel=2,
            )
        query = ",".join(str(v) for v in values)
        return self._fetch(query, values)[:max_results]

    def _fetch(self, query: str, values: list[int]) -> list[OeisMatch]:
        """Every match in the cached reply, else in the transport's.

        A transport reply is cached only after it parses, so a bad reply (an
        error page, say) fails this lookup and the next one asks again.  A
        cache file that does not parse is a miss: the transport's reply,
        once it parses, replaces it.  A reply that cannot be cached (the
        cache directory is a file, say) is an OeisError naming the file.
        """
        path = self.cache_path(query)
        with self._lock:
            # under the lock: a concurrent lookup of the query may have just cached it
            cached = _read_cache(path, values)
            if cached is not None:
                return cached
            wait = LIVE_REQUEST_INTERVAL - (time.monotonic() - self._last_request)
            if wait > 0 and self._last_request > 0:
                time.sleep(wait)
            raw = self._transport(query)
            self._last_request = time.monotonic()
            matches = _parse_matches(raw, values)
            try:
                _write_atomic(path, raw)
            except OSError as exc:
                raise OeisError(f"cannot write the cache file {path}: {exc}") from None
            return matches


def _read_cache(path: Path, values: Sequence[int]) -> Optional[list[OeisMatch]]:
    """The matches in a cache file; None if it is absent or does not parse
    (with a warning naming the file)."""
    if not path.is_file():
        return None
    try:
        return _parse_matches(path.read_text(encoding="utf-8"), values)
    except (OeisParseError, UnicodeDecodeError) as exc:
        warnings.warn(
            f"ignoring cache file {path} that does not parse: {exc}",
            UnparsableCacheWarning,
            stacklevel=4,  # the caller of OeisClient.lookup
        )
        return None


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temporary file in the same directory, so a reader
    (or a crash) never sees a half-written cache file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _parse_matches(raw: str, values: Sequence[int]) -> list[OeisMatch]:
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise OeisParseError(f"response is not JSON: {raw[:120]!r}") from exc
    if isinstance(payload, dict):
        entries = payload.get("results")
        if entries is None:
            entries = []
    elif isinstance(payload, list):
        entries = payload
    else:
        raise OeisParseError(f"unexpected response shape: {raw[:120]!r}")
    if not isinstance(entries, list):
        raise OeisParseError(f"results is not a list: {raw[:120]!r}")

    matches = []
    for entry in entries:
        if not isinstance(entry, dict) or "number" not in entry:
            raise OeisParseError(f"unexpected entry shape: {str(entry)[:120]!r}")
        number = entry["number"]
        # type(), not isinstance: JSON's true decodes to a bool, a subclass of int
        if type(number) not in (int, str) or not str(number).isdecimal():
            raise OeisParseError(f"entry number is not an integer >= 0: {number!r:.120}")
        seq_id = "A%06d" % int(number)
        name = str(entry.get("name", ""))
        data = _parse_data_terms(entry.get("data", ""))
        offset, length = _best_alignment(data, list(values))
        matches.append(OeisMatch(seq_id, name, offset, length))
    return matches


def _parse_data_terms(data) -> list[int]:
    try:
        return [int(token) for token in str(data).split(",") if token.strip()]
    except ValueError:
        raise OeisParseError(f"entry data is not a list of integers: {str(data)[:120]!r}") from None


def _best_alignment(data: list[int], query: list[int]) -> tuple[int, int]:
    """Longest contiguous run of query terms inside data: (offset, length).

    Offset is the data index where the best run starts; (-1, 0) when no term
    aligns at all.  Ties go to the earliest run in data.
    """
    import difflib  # imported here: a CLI start that never looks up skips it

    # autojunk=False: by default a query of 200+ terms would treat its frequent terms as junk
    match = difflib.SequenceMatcher(None, data, query, autojunk=False).find_longest_match()
    return (match.a, match.size) if match.size else (-1, 0)
