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

import itertools
import json
import os
import random
import sys
import threading
import urllib.error
import urllib.request
from urllib.parse import quote

import numpy as np
import pytest

from repro.datasets import service_requests
from repro.datasets.civic import civic_lod_graph
from repro.serve import (
    CACHE_HEADER,
    FINGERPRINT_HEADER,
    ReproApp,
    create_server,
    encode_response,
    evaluate,
    fingerprint_path,
)
from repro.store import open_dataset, open_graph
from repro.tabular.dataset import Column, ColumnRole, ColumnType, Dataset
from repro.tabular.encoded import encode_dataset
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


# ---------------------------------------------------------------------------
# Appended snapshots: recurring queries advanced at /reload
# ---------------------------------------------------------------------------

GATE = ["completeness", "consistency", "duplication", "balance", "dimensionality"]
#: The maintained query shapes, as a dashboard over a growing budget table asks them.
APPEND_QUERIES: list[tuple[str, dict]] = [
    ("/profile", {"criteria": GATE}),
    ("/profile", {}),
    ("/kpi", {"kpis": [{"name": "avg_rate", "column": "rate", "target": 0.6},
                       {"name": "avg_amount", "column": "amount", "target": 250_000.0,
                        "higher_is_better": False}],
              "level": "district"}),
    ("/cube/aggregate", {
        "dimensions": ["district", "category"],
        "measures": [{"column": "amount", "aggregation": "sum", "name": "total"},
                     {"column": "rate", "aggregation": "mean"},
                     {"column": "amount", "aggregation": "std"}],
        "levels": ["district", "category"],
    }),
]
BUDGET_CTYPES = {"district": ColumnType.CATEGORICAL, "category": ColumnType.CATEGORICAL,
                 "amount": ColumnType.NUMERIC, "rate": ColumnType.NUMERIC}


def _budget_rows(seed: int, n: int, districts: int = 6) -> list[dict]:
    """Budget rows whose float sums round (cents, thirds), with gaps in a key and a measure."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        rows.append({
            "district": None if rng.random() < 0.05 else f"d{int(rng.integers(districts))}",
            "category": ("roads", "parks", "schools")[int(rng.integers(3))],
            "amount": None if rng.random() < 0.05 else float(np.round(rng.uniform(1, 5e5), 2)),
            "rate": float(rng.integers(1, 100)) / 3.0,
        })
    return rows


def _budget(rows: list[dict], name: str = "budget") -> Dataset:
    return Dataset.from_rows(rows, name=name, ctypes=BUDGET_CTYPES)


def _replace(dataset: Dataset, store) -> None:
    """Save ``dataset`` beside ``store`` and move it over ``store``, as ``repro ingest`` does."""
    tmp = store.with_name(store.name + ".tmp")
    dataset.save(tmp)
    os.replace(tmp, store)


def _direct(store, path: str, params: dict) -> bytes:
    """The reference bytes: ``evaluate`` on a separately opened copy of ``store``."""
    payload = open_dataset(store)
    try:
        return encode_response(evaluate(path, payload, params))
    finally:
        payload.close()


class TestAppendedSnapshots:
    def test_append_cycles_serve_the_batch_bytes(self, tmp_path):
        """Six append → save → replace → /reload cycles: every answer is the direct call's."""
        store = tmp_path / "budget.rps"
        current = _budget(_budget_rows(0, 400))
        current.save(store)
        srv = create_server(stores=[store])
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            for cycle in range(1, 7):
                # Each batch brings a district the base never had.
                current = current.append_rows(_budget_rows(cycle, 60, districts=6 + cycle))
                _replace(current, store)
                status, _, body = _post(srv.url, "/reload", {"name": "budget"})
                assert status == 200
                reply = json.loads(body)
                assert reply["appended_rows"] == 60
                assert reply["snapshot"]["appended_rows"] == 60
                expected_states = (0, 0) if cycle == 1 else (0, 4) if cycle == 2 else (4, 0)
                assert (reply["states_advanced"], reply["states_seeded"]) == expected_states
                for path, params in APPEND_QUERIES:
                    status, headers, body = _post(srv.url, path, params)
                    assert status == 200
                    assert headers[FINGERPRINT_HEADER] == reply["snapshot"]["fingerprint"]
                    assert headers[CACHE_HEADER] == ("miss" if cycle == 1 else "hit")
                    assert body == _direct(store, path, params), (cycle, path)
            status, _, body = _get(srv.url, "/snapshots")
            assert json.loads(body)["snapshots"][0]["appended_rows"] == 60
        finally:
            srv.shutdown()
            thread.join(timeout=10)
            srv.close()

    def test_append_reloads_under_load_never_serve_torn_or_stale_bytes(self, tmp_path):
        """Threads query while append reloads advance the states: each body is its fingerprint's."""
        versions = [_budget(_budget_rows(0, 300))]
        for batch in range(1, 5):
            versions.append(versions[-1].append_rows(_budget_rows(batch, 30, districts=6 + batch)))
        paths = [dataset.save(tmp_path / f"v{i}.rps") for i, dataset in enumerate(versions)]
        expected = {
            fingerprint_path(path): {_expected_key(q, p): _direct(path, q, p) for q, p in APPEND_QUERIES}
            for path in paths
        }
        app = ReproApp()
        app.registry.publish("budget", paths[0])
        requests = [(q, p, json.dumps(p).encode()) for q, p in APPEND_QUERIES]
        failures: list[str] = []
        stop = threading.Event()

        def hammer(worker: int) -> None:
            for i in itertools.count(worker):
                if stop.is_set():
                    return
                path, params, raw = requests[i % len(requests)]
                status, head, body = app.respond("POST", path, raw)
                fingerprint = dict(
                    line.split(": ", 1) for line in head.decode("latin-1").split("\r\n") if line
                ).get(FINGERPRINT_HEADER)
                if status != 200 or body != expected.get(fingerprint, {}).get(_expected_key(path, params)):
                    failures.append(f"{path} on {fingerprint}: status {status}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(6)]
        try:
            for thread in threads:
                thread.start()
            for path in paths[1:]:
                status, _, body = app.handle("POST", "/reload", {"name": "budget", "path": str(path)})
                assert status == 200 and json.loads(body)["appended_rows"] == 30
                # A query after the reload returned leases the new snapshot.
                _, headers, _ = app.handle("POST", *APPEND_QUERIES[0])
                assert headers[FINGERPRINT_HEADER] == fingerprint_path(path)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
            app.registry.close_all()
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:5]

    @pytest.mark.parametrize("change", [
        "first_row", "rows_removed", "vocabulary_reordered", "column_added",
        "renamed", "role", "ctype", "unrelated_store", "same_file",
    ])
    def test_a_reload_that_is_not_an_append_takes_the_batch_path(self, tmp_path, change):
        """After states exist, any other reload reports no append and serves the direct bytes."""
        store = tmp_path / "budget.rps"
        rows = _budget_rows(0, 300)
        current = _budget(rows)
        current.save(store)
        app = ReproApp()
        app.registry.publish("budget", store)
        try:
            for batch in (1, 2):  # the second append seeds every query's state
                for path, params in APPEND_QUERIES:
                    assert app.handle("POST", path, params)[0] == 200
                rows = rows + _budget_rows(batch, 40)
                current = current.append_rows(rows[-40:])
                _replace(current, store)
                assert app.handle("POST", "/reload", {"name": "budget"})[0] == 200
            assert len(app._states["budget"][1]) == len(APPEND_QUERIES)
            new_rows = rows + _budget_rows(9, 40)
            ctypes = dict(BUDGET_CTYPES)
            roles, name, target = {}, "budget", store
            if change == "first_row":
                new_rows[0] = dict(new_rows[0], rate=new_rows[0]["rate"] + 1.0)
            elif change == "rows_removed":
                new_rows = rows[:-10]
            elif change == "column_added":
                new_rows = [dict(row, extra=1.0) for row in new_rows]
            elif change == "renamed":
                name = "budget_v2"
            elif change == "role":
                roles = {"category": ColumnRole.TARGET}
            elif change == "ctype":
                ctypes["category"] = ColumnType.STRING
            elif change == "unrelated_store":
                new_rows = _budget_rows(77, 500)
                target = tmp_path / "unrelated.rps"
            elif change == "same_file":
                new_rows = rows
            replacement = Dataset.from_rows(new_rows, name=name, ctypes=ctypes, roles=roles)
            if change == "vocabulary_reordered":  # as a store file may hold it
                codes, vocabulary, _ = encode_dataset(replacement).codes_view("district")
                reordered = vocabulary[::-1]
                remap = np.asarray([reordered.index(level) for level in vocabulary] + [-1])
                district = replacement["district"]
                replacement = replacement.replace_column(Column.from_vocabulary(
                    "district", district.ctype, district.role, remap[codes], reordered
                ))
            if change != "same_file":
                _replace(replacement, target)
            params = {"name": "budget"} if target == store else {"name": "budget", "path": str(target)}
            status, _, body = app.handle("POST", "/reload", params)
            assert status == 200
            reply = json.loads(body)
            assert reply["appended_rows"] is None
            assert (reply["states_advanced"], reply["states_seeded"]) == (0, 0)
            assert reply["changed"] is (change != "same_file")
            for path, params in APPEND_QUERIES:
                status, headers, body = app.handle("POST", path, params)
                assert status == 200
                assert headers[FINGERPRINT_HEADER] == fingerprint_path(target)
                assert body == _direct(target, path, params), path
        finally:
            app.registry.close_all()
