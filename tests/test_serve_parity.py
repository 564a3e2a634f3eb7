"""Concurrency-parity suite for the serving tier (repro.serve).

The serving contract: every HTTP response body is bit-identical (float
repr included) to ``encode_response(evaluate(endpoint, payload, params))``
— the direct library call — on the snapshot named by the response's
fingerprint header.  This suite enforces that contract cold, hot (cache
hits), under ≥8 threads of mixed-endpoint contention, and across an
atomic snapshot swap performed mid-load, where zero torn or stale
responses are tolerated.
"""

from __future__ import annotations

import json
import random
import threading
import urllib.error
import urllib.request
from urllib.parse import quote

import pytest

from repro.datasets import service_requests
from repro.datasets.civic import civic_lod_graph
from repro.serve import (
    CACHE_HEADER,
    FINGERPRINT_HEADER,
    create_server,
    encode_response,
    evaluate,
    fingerprint_path,
)
from repro.store import open_dataset, open_graph
from rawhttp import exchange

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

#: The mixed query workload: every endpoint, several parameter shapes.
QUERIES: list[tuple[str, dict]] = [
    ("/profile", {}),
    ("/profile", {"criteria": ["completeness", "balance", "duplication"]}),
    ("/advise", {"neighbours": 5}),
    ("/cube/aggregate", {
        "dimensions": ["district"],
        "measures": [{"column": "resolution_days", "aggregation": "mean"},
                     {"column": "resolution_days", "aggregation": "count", "name": "rows"}],
        "levels": ["district"],
    }),
    ("/cube/aggregate", {
        "dimensions": ["district"],
        "measures": [{"column": "resolution_days", "aggregation": "sum"}],
    }),
    ("/cube/pivot", {
        "dimensions": ["district", "topic"],
        "measures": [{"column": "resolution_days", "aggregation": "mean", "name": "avg_days"}],
        "row_level": "district", "column_level": "topic",
    }),
    ("/kpi", {"kpis": [{"name": "resolution", "column": "resolution_days",
                        "target": 14.0, "higher_is_better": False}]}),
    ("/kpi", {"kpis": [{"name": "resolution", "column": "resolution_days",
                        "target": 14.0, "higher_is_better": False}],
              "level": "district"}),
    ("/lod/select", {"patterns": [["?s", RDF_TYPE, "?t"]],
                     "order_by": "s", "limit": 10}),
    ("/lod/select", {"patterns": [["?s", RDF_TYPE, "?t"]],
                     "variables": ["t"], "distinct": True}),
    ("/lod/ask", {"patterns": [["?s", RDF_TYPE, "?t"]]}),
]

#: Dataset-only subset used while hammering across a snapshot swap.
SWAP_QUERIES: list[tuple[str, dict]] = [
    ("/profile", {"criteria": ["completeness", "balance"]}),
    ("/cube/aggregate", {
        "dimensions": ["district"],
        "measures": [{"column": "resolution_days", "aggregation": "mean"}],
        "levels": ["district"],
    }),
    ("/kpi", {"kpis": [{"name": "resolution", "column": "resolution_days",
                        "target": 14.0, "higher_is_better": False}]}),
]


def _get(base: str, path: str, params: dict | None = None):
    url = base + path
    if params is not None:
        url += "?q=" + quote(json.dumps(params))
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, dict(response.headers), response.read()


def _post(base: str, path: str, params: dict):
    request = urllib.request.Request(
        base + path, data=json.dumps(params).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, dict(response.headers), response.read()


@pytest.fixture(scope="module")
def store_paths(tmp_path_factory):
    """Saved snapshot files: dataset A, a one-seed-different dataset B, a graph."""
    work = tmp_path_factory.mktemp("serve-stores")
    dataset_a = service_requests(n_rows=120, seed=3)
    dataset_b = service_requests(n_rows=120, seed=4)
    graph = civic_lod_graph(service_requests(n_rows=40, seed=5), entity_class="ServiceRequest")
    return {
        "dataset_a": dataset_a.save(work / "requests.rps"),
        "dataset_b": dataset_b.save(work / "requests_v2.rps"),
        "graph": graph.save(work / "civic.rps"),
    }


@pytest.fixture(scope="module")
def expected(store_paths, small_knowledge_base):
    """Direct-library expected bytes for every query, per snapshot file.

    ``expected[file_key][(path, canonical-params)]`` are the bytes the
    server must produce for that query on that snapshot — computed on an
    independently opened payload of the same file, which *is* the direct
    library call the ISSUE's parity requirement names.
    """
    payloads = {
        "dataset_a": open_dataset(store_paths["dataset_a"]),
        "dataset_b": open_dataset(store_paths["dataset_b"]),
        "graph": open_graph(store_paths["graph"]),
    }
    table: dict[str, dict] = {key: {} for key in payloads}
    for path, params in QUERIES + SWAP_QUERIES:
        for key in ("dataset_a", "dataset_b") if not path.startswith("/lod") else ("graph",):
            table[key][(path, json.dumps(params, sort_keys=True))] = encode_response(
                evaluate(path, payloads[key], params, knowledge_base=small_knowledge_base)
            )
    yield table
    for payload in payloads.values():
        payload.close()


@pytest.fixture()
def server(store_paths, small_knowledge_base):
    """A live threaded server over dataset A + the graph, torn down after."""
    srv = create_server(
        stores=[store_paths["dataset_a"]],
        graphs=[store_paths["graph"]],
        knowledge_base=small_knowledge_base,
    )
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    thread.join(timeout=10)
    srv.close()


def _expected_key(path: str, params: dict) -> tuple[str, str]:
    return (path, json.dumps(params, sort_keys=True))


def _file_key(path: str) -> str:
    return "graph" if path.startswith("/lod") else "dataset_a"


class TestColdAndHotParity:
    def test_every_endpoint_cold_bit_identical(self, server, expected, store_paths):
        """First-touch (cache-miss) responses equal the direct library call."""
        fingerprints = {
            "dataset_a": fingerprint_path(store_paths["dataset_a"]),
            "graph": fingerprint_path(store_paths["graph"]),
        }
        for path, params in QUERIES:
            status, headers, body = _post(server.url, path, params)
            assert status == 200
            assert headers[CACHE_HEADER] == "miss"
            key = _file_key(path)
            assert headers[FINGERPRINT_HEADER] == fingerprints[key]
            assert body == expected[key][_expected_key(path, params)], path

    def test_hot_cache_replays_identical_bytes(self, server, expected):
        """The second identical request is a hit with byte-identical body."""
        for path, params in QUERIES:
            _, h1, b1 = _post(server.url, path, params)
            _, h2, b2 = _post(server.url, path, params)
            assert h1[CACHE_HEADER] == "miss"
            assert h2[CACHE_HEADER] == "hit"
            assert b1 == b2 == expected[_file_key(path)][_expected_key(path, params)]

    def test_get_and_post_share_one_cache_entry(self, server):
        """GET ?q= and POST body canonicalise to the same key and bytes."""
        path, params = QUERIES[3]
        _, h1, b1 = _get(server.url, path, params)
        _, h2, b2 = _post(server.url, path, params)
        assert h2[CACHE_HEADER] == "hit"
        assert b1 == b2

    def test_spelling_differences_share_one_cache_entry(self, server):
        """Key order in the query JSON does not defeat canonicalisation."""
        params = {"criteria": ["completeness", "balance"], "dataset": "requests"}
        reordered = {"dataset": "requests", "criteria": ["completeness", "balance"]}
        _, h1, b1 = _post(server.url, "/profile", params)
        _, h2, b2 = _post(server.url, "/profile", reordered)
        assert h2[CACHE_HEADER] == "hit"
        assert b1 == b2


class TestConcurrentParity:
    N_THREADS = 8
    ITERATIONS = 3

    def test_mixed_workload_under_contention(self, server, expected):
        """≥8 threads, shuffled mixed workload: every response bit-identical."""
        failures: list[str] = []
        seen_flags: set[str] = set()
        lock = threading.Lock()

        def hammer(worker: int) -> None:
            rng = random.Random(worker)
            for _ in range(self.ITERATIONS):
                workload = QUERIES[:]
                rng.shuffle(workload)
                for path, params in workload:
                    send = _get if rng.random() < 0.5 else _post
                    try:
                        status, headers, body = send(server.url, path, params)
                    except urllib.error.HTTPError as exc:  # pragma: no cover - failure path
                        with lock:
                            failures.append(f"{path}: HTTP {exc.code}")
                        continue
                    want = expected[_file_key(path)][_expected_key(path, params)]
                    with lock:
                        seen_flags.add(headers[CACHE_HEADER])
                        if status != 200:
                            failures.append(f"{path}: status {status}")
                        elif body != want:
                            failures.append(f"{path}: body diverged from the direct call")

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(self.N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures, failures[:5]
        assert seen_flags == {"hit", "miss"}, "contended run should exercise both cache paths"


class TestSnapshotSwap:
    N_THREADS = 8

    def test_swap_under_sustained_load_no_torn_no_stale(self, server, expected, store_paths):
        """A mid-flight /reload to different content never tears a response.

        Every response observed during the swap must be bit-identical to
        the direct library call on the snapshot its fingerprint header
        names (old or new — nothing in between), and once the swap has
        been acknowledged every later response serves the new content.
        """
        fingerprint_a = fingerprint_path(store_paths["dataset_a"])
        fingerprint_b = fingerprint_path(store_paths["dataset_b"])
        by_fingerprint = {
            fingerprint_a: {key: expected["dataset_a"][key]
                            for key in (_expected_key(p, q) for p, q in SWAP_QUERIES)},
            fingerprint_b: {key: expected["dataset_b"][key]
                            for key in (_expected_key(p, q) for p, q in SWAP_QUERIES)},
        }
        failures: list[str] = []
        lock = threading.Lock()
        stop = threading.Event()
        swapped = threading.Event()
        old_snapshot = server.app.registry.get("requests")

        def hammer(worker: int) -> None:
            rng = random.Random(100 + worker)
            while not stop.is_set():
                path, params = SWAP_QUERIES[rng.randrange(len(SWAP_QUERIES))]
                status, headers, body = _post(server.url, path, params)
                fingerprint = headers[FINGERPRINT_HEADER]
                with lock:
                    if status != 200:
                        failures.append(f"{path}: status {status}")
                    elif fingerprint not in by_fingerprint:
                        failures.append(f"{path}: unknown fingerprint {fingerprint}")
                    elif body != by_fingerprint[fingerprint][_expected_key(path, params)]:
                        failures.append(
                            f"{path}: TORN — body does not match snapshot {fingerprint}"
                        )
                    elif swapped.is_set() and fingerprint == fingerprint_a:
                        failures.append(f"{path}: STALE — old snapshot served after swap")

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(self.N_THREADS)]
        for thread in threads:
            thread.start()
        try:
            # Let the load build, then swap to the modified store mid-flight.
            for path, params in SWAP_QUERIES:
                _post(server.url, path, params)
            status, _, body = _post(
                server.url, "/reload",
                {"name": "requests", "path": str(store_paths["dataset_b"])},
            )
            assert status == 200
            reply = json.loads(body)
            assert reply["changed"] is True
            assert reply["snapshot"]["fingerprint"] == fingerprint_b
            assert reply["previous_fingerprint"] == fingerprint_a
            # In-flight requests that leased snapshot A before the publish may
            # legitimately still *complete* after it; what must never happen is
            # a *new* lease on A.  The swap barrier: one request after /reload
            # returned is guaranteed to lease B.
            _, headers, _ = _post(server.url, *SWAP_QUERIES[0])
            assert headers[FINGERPRINT_HEADER] == fingerprint_b
            swapped.set()
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=120)
        assert not failures, failures[:5]

        # Publish-then-retire: the old snapshot's memory map is released
        # once the last in-flight lease drains (all workers joined above).
        assert old_snapshot.closed
        # And post-swap responses are hot-cacheable under the new fingerprint.
        _, h1, b1 = _post(server.url, *SWAP_QUERIES[1])
        _, h2, b2 = _post(server.url, *SWAP_QUERIES[1])
        assert h2[CACHE_HEADER] == "hit" and b1 == b2
        assert h2[FINGERPRINT_HEADER] == fingerprint_b

    def test_reload_same_content_is_a_no_op_for_the_cache(self, server, expected):
        """Reloading an unchanged file keeps the fingerprint and the cache."""
        path, params = SWAP_QUERIES[1]
        _, h1, _ = _post(server.url, path, params)
        status, _, body = _post(server.url, "/reload", {"name": "requests"})
        assert status == 200
        assert json.loads(body)["changed"] is False
        _, h2, b2 = _post(server.url, path, params)
        assert h2[CACHE_HEADER] == "hit"
        assert h2[FINGERPRINT_HEADER] == h1[FINGERPRINT_HEADER]
        assert b2 == expected["dataset_a"][_expected_key(path, params)]


class TestKeepAliveFraming:
    """Every request's body is read before anything is parsed, so an error
    reply never leaves bytes behind for the next request on the connection."""

    HEALTH = b"GET /health HTTP/1.1\r\nHost: test\r\n\r\n"

    def _assert_json_400(self, reply):
        status, headers, body = reply
        assert status == 400
        assert headers["content-type"] == "application/json"
        assert json.loads(body)["status"] == 400

    def test_negative_content_length_is_rejected_and_closes(self, server):
        request = b"POST /profile HTTP/1.1\r\nHost: test\r\nContent-Length: -1\r\n\r\n"
        replies, closed = exchange(server, request + self.HEALTH, 2)
        assert closed and len(replies) == 1
        self._assert_json_400(replies[0])

    def test_non_numeric_content_length_is_rejected_and_closes(self, server):
        request = b"POST /profile HTTP/1.1\r\nHost: test\r\nContent-Length: abc\r\n\r\n{}"
        replies, closed = exchange(server, request + self.HEALTH, 2)
        assert closed and len(replies) == 1
        self._assert_json_400(replies[0])

    def test_body_of_a_malformed_query_is_consumed(self, server):
        body = b'{"criteria": ["balance"]}'
        request = b"POST /profile?q=%7Bbroken HTTP/1.1\r\nHost: test\r\n" + (
            b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        replies, _ = exchange(server, request + self.HEALTH, 2)
        assert len(replies) == 2
        self._assert_json_400(replies[0])
        assert replies[1][0] == 200
        assert json.loads(replies[1][2])["status"] == "ok"

    def test_over_deep_json_body_gets_the_json_400(self, server):
        depth = 100_000  # far past any interpreter's recursion limit
        body = b'{"a":' * depth + b"1" + b"}" * depth
        request = b"POST /profile HTTP/1.1\r\nHost: test\r\n" + (
            b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        replies, _ = exchange(server, request + self.HEALTH, 2)
        assert len(replies) == 2
        self._assert_json_400(replies[0])
        assert json.loads(replies[0][2])["error"].startswith("malformed request:")
        assert replies[1][0] == 200

    def test_get_body_is_consumed(self, server):
        request = b"GET /health HTTP/1.1\r\nHost: test\r\nContent-Length: 5\r\n\r\nhello"
        follow = b"POST /health HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n"
        replies, _ = exchange(server, request + follow, 2)
        assert [status for status, _, _ in replies] == [200, 200]
        assert all(json.loads(body)["status"] == "ok" for _, _, body in replies)
