"""OEIS client: fixtures, caching, warnings, and failure modes."""

import json
import threading

import pytest

from charsum.oeis import (
    LowInformationQueryWarning,
    OeisClient,
    OeisMatch,
    OeisNetworkError,
    OeisParseError,
    QueryTruncationWarning,
    UnparsableCacheWarning,
    cache_key,
    offline_transport,
)

CENTRAL_BINOMIAL_QUERY = [1, 2, 6, 20, 70, 252]

CENTRAL_BINOMIAL_RESPONSE = json.dumps(
    {
        "greeting": "Greetings from The On-Line Encyclopedia of Integer Sequences!",
        "query": "1,2,6,20,70,252",
        "count": 2,
        "results": [
            {
                "number": 984,
                "data": "1,2,6,20,70,252,924,3432,12870,48620",
                "name": "Central binomial coefficients: binomial(2*n,n) = (2*n)!/(n!)^2.",
            },
            {
                "number": 1700,
                "data": "1,1,2,6,20,70,252,924",
                "name": "a(n) = binomial(2n-2, n-1).",
            },
        ],
    }
)


class RecordingTransport:
    """Counts calls and serves canned responses keyed by query string."""

    def __init__(self, responses):
        self.responses = responses
        self.calls = []

    def __call__(self, query):
        self.calls.append(query)
        if query not in self.responses:
            raise OeisNetworkError(f"no canned response for {query!r}")
        return self.responses[query]


@pytest.fixture
def client(tmp_path):
    transport = RecordingTransport({"1,2,6,20,70,252": CENTRAL_BINOMIAL_RESPONSE})
    return OeisClient(transport=transport, cache_dir=tmp_path, min_interval=0.0)


class TestLookup:
    def test_central_binomial_prefix_matches(self, client):
        matches = client.lookup(CENTRAL_BINOMIAL_QUERY)
        ids = [m.sequence_id for m in matches]
        assert "A000984" in ids
        top = matches[0]
        assert top == OeisMatch(
            sequence_id="A000984",
            name="Central binomial coefficients: binomial(2*n,n) = (2*n)!/(n!)^2.",
            matched_offset=0,
            match_length=6,
        )

    def test_offset_within_entry_data(self, client):
        # the second fixture sequence holds the query starting at index 1
        matches = client.lookup(CENTRAL_BINOMIAL_QUERY)
        assert matches[1].matched_offset == 1
        assert matches[1].match_length == 6

    def test_max_results(self, client):
        assert len(client.lookup(CENTRAL_BINOMIAL_QUERY, max_results=1)) == 1

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "2", True, None])
    def test_max_results_must_be_a_positive_integer(self, client, bad):
        with pytest.raises(ValueError, match="max_results must be a positive integer"):
            client.lookup(CENTRAL_BINOMIAL_QUERY, max_results=bad)
        assert client._transport.calls == []

    def test_too_few_terms_rejected(self, client):
        with pytest.raises(ValueError, match="at least 6"):
            client.lookup([1, 2, 3, 4, 5])

    def test_no_match_is_empty_not_error(self, tmp_path):
        empty = json.dumps({"count": 0, "results": None})
        values = [10**39 + i for i in range(6)]
        transport = RecordingTransport({",".join(map(str, values)): empty})
        c = OeisClient(transport=transport, cache_dir=tmp_path, min_interval=0.0)
        assert c.lookup(values) == []

    def test_all_zero_query_warns_low_information(self, tmp_path):
        transport = RecordingTransport(
            {"0,0,0,0,0,0": json.dumps({"count": 0, "results": []})}
        )
        c = OeisClient(transport=transport, cache_dir=tmp_path, min_interval=0.0)
        with pytest.warns(LowInformationQueryWarning):
            c.lookup([0, 0, 0, 0, 0, 0])

    def test_long_query_truncated_with_warning(self, tmp_path):
        first12 = list(range(1, 13))
        transport = RecordingTransport(
            {",".join(map(str, first12)): json.dumps({"count": 0, "results": []})}
        )
        c = OeisClient(transport=transport, cache_dir=tmp_path, min_interval=0.0)
        with pytest.warns(QueryTruncationWarning):
            c.lookup(list(range(1, 20)))
        assert transport.calls == [",".join(map(str, first12))]


class TestCache:
    def test_repeat_query_hits_cache_not_network(self, client):
        first = client.lookup(CENTRAL_BINOMIAL_QUERY)
        assert len(client._transport.calls) == 1
        second = client.lookup(CENTRAL_BINOMIAL_QUERY)
        assert len(client._transport.calls) == 1
        assert first == second

    def test_fixture_runs_are_byte_identical(self, tmp_path):
        results = []
        for _ in range(2):
            c = OeisClient(cache_dir=tmp_path, min_interval=0.0)
            c.seed_cache("1,2,6,20,70,252", CENTRAL_BINOMIAL_RESPONSE)
            results.append(c.lookup(CENTRAL_BINOMIAL_QUERY))
        assert results[0] == results[1]

    def test_cache_file_is_keyed_by_query_hash(self, client):
        client.lookup(CENTRAL_BINOMIAL_QUERY)
        expected = client.cache_dir / (cache_key("1,2,6,20,70,252") + ".json")
        assert expected.is_file()
        assert expected.read_text() == CENTRAL_BINOMIAL_RESPONSE

    def test_seeded_cache_makes_offline_lookup_work(self, tmp_path):
        c = OeisClient(cache_dir=tmp_path, min_interval=0.0)  # offline transport
        c.seed_cache("1,2,6,20,70,252", CENTRAL_BINOMIAL_RESPONSE)
        assert c.lookup(CENTRAL_BINOMIAL_QUERY)[0].sequence_id == "A000984"

    def test_concurrent_lookups_share_one_fetch(self, tmp_path):
        transport = RecordingTransport({"1,2,6,20,70,252": CENTRAL_BINOMIAL_RESPONSE})
        c = OeisClient(transport=transport, cache_dir=tmp_path, min_interval=0.0)
        threads = [
            threading.Thread(target=c.lookup, args=(CENTRAL_BINOMIAL_QUERY,))
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(transport.calls) == 1


class TestFailures:
    def test_offline_transport_is_explicit(self, tmp_path):
        c = OeisClient(cache_dir=tmp_path)
        with pytest.raises(OeisNetworkError, match="disabled"):
            c.lookup([9, 8, 7, 6, 5, 4])

    def test_offline_transport_callable_directly(self):
        with pytest.raises(OeisNetworkError):
            offline_transport("1,2,3,4,5,6")

    def test_malformed_response_carries_snippet(self, tmp_path):
        transport = RecordingTransport({"1,2,3,4,5,6": "<html>not json</html>"})
        c = OeisClient(transport=transport, cache_dir=tmp_path, min_interval=0.0)
        with pytest.raises(OeisParseError, match="not json"):
            c.lookup([1, 2, 3, 4, 5, 6])

    def test_wrong_shape_response(self, tmp_path):
        transport = RecordingTransport({"1,2,3,4,5,6": json.dumps("just a string")})
        c = OeisClient(transport=transport, cache_dir=tmp_path, min_interval=0.0)
        with pytest.raises(OeisParseError, match="unexpected response shape"):
            c.lookup([1, 2, 3, 4, 5, 6])

    def test_entry_without_number_is_parse_error(self, tmp_path):
        bad = json.dumps({"results": [{"name": "missing number"}]})
        transport = RecordingTransport({"1,2,3,4,5,6": bad})
        c = OeisClient(transport=transport, cache_dir=tmp_path, min_interval=0.0)
        with pytest.raises(OeisParseError, match="entry"):
            c.lookup([1, 2, 3, 4, 5, 6])


    def test_non_integer_number_is_parse_error(self, tmp_path):
        entries = [
            ({"number": "A984", "data": "1,2,6"}, "number is not an integer"),
            ({"number": True, "data": "1,2,6"}, "number is not an integer"),
            ({"number": 1.5, "data": "1,2,6"}, "number is not an integer"),
            ({"number": -5, "data": "1,2,6"}, "number is not an integer"),
            ({"number": 984, "data": "1,2,x,6"}, "data is not a list of integers"),
        ]
        for entry, message in entries:
            transport = RecordingTransport({"1,2,3,4,5,6": json.dumps({"results": [entry]})})
            c = OeisClient(transport=transport, cache_dir=tmp_path, min_interval=0.0)
            with pytest.raises(OeisParseError, match=message):
                c.lookup([1, 2, 3, 4, 5, 6])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "results", [5, {"number": 984}, "1,2,3"], ids=["number", "object", "string"]
    )
    def test_non_list_results_is_parse_error(self, tmp_path, results):
        transport = RecordingTransport({"1,2,3,4,5,6": json.dumps({"results": results})})
        c = OeisClient(transport=transport, cache_dir=tmp_path, min_interval=0.0)
        with pytest.raises(OeisParseError, match="results is not a list"):
            c.lookup([1, 2, 3, 4, 5, 6])

    def test_reply_that_does_not_parse_is_not_cached(self, tmp_path):
        replies = iter(["<html>503</html>", CENTRAL_BINOMIAL_RESPONSE])
        c = OeisClient(transport=lambda q: next(replies), cache_dir=tmp_path, min_interval=0.0)
        with pytest.raises(OeisParseError, match="not JSON"):
            c.lookup(CENTRAL_BINOMIAL_QUERY)
        assert list(tmp_path.iterdir()) == []
        assert c.lookup(CENTRAL_BINOMIAL_QUERY)[0].sequence_id == "A000984"
        # only the parsed reply, and no temporary file beside it
        assert list(tmp_path.iterdir()) == [c.cache_path("1,2,6,20,70,252")]


    def test_cache_file_that_does_not_parse_is_a_miss(self, tmp_path):
        transport = RecordingTransport({"1,2,6,20,70,252": CENTRAL_BINOMIAL_RESPONSE})
        c = OeisClient(transport=transport, cache_dir=tmp_path, min_interval=0.0)
        path = c.seed_cache("1,2,6,20,70,252", "<html>503</html>")
        with pytest.warns(UnparsableCacheWarning, match=path.name) as record:
            assert c.lookup(CENTRAL_BINOMIAL_QUERY)[0].sequence_id == "A000984"
        assert len(record) == 1
        assert transport.calls == ["1,2,6,20,70,252"]
        assert path.read_text() == CENTRAL_BINOMIAL_RESPONSE
        assert list(tmp_path.iterdir()) == [path]
        assert c.lookup(CENTRAL_BINOMIAL_QUERY)[0].sequence_id == "A000984"
        assert len(transport.calls) == 1

    def test_cache_file_that_does_not_parse_stays_if_the_reply_fails(self, tmp_path):
        c = OeisClient(cache_dir=tmp_path, min_interval=0.0)  # offline transport
        path = c.seed_cache("1,2,6,20,70,252", "<html>503</html>")
        with pytest.warns(UnparsableCacheWarning), pytest.raises(OeisNetworkError):
            c.lookup(CENTRAL_BINOMIAL_QUERY)
        assert path.read_text() == "<html>503</html>"


class TestEnvironment:
    def test_cache_dir_env_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHARSUM_OEIS_CACHE", str(tmp_path / "envcache"))
        c = OeisClient()
        assert c.cache_dir == tmp_path / "envcache"

    def test_list_payload_accepted(self, tmp_path):
        # newer endpoint revisions return a bare array of entries
        payload = json.dumps(
            [{"number": 984, "data": "1,2,6,20,70,252", "name": "Central binomials."}]
        )
        transport = RecordingTransport({"1,2,6,20,70,252": payload})
        c = OeisClient(transport=transport, cache_dir=tmp_path, min_interval=0.0)
        assert c.lookup(CENTRAL_BINOMIAL_QUERY)[0].sequence_id == "A000984"
