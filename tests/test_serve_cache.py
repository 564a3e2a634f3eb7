"""Property suite for serving-tier fingerprints and the result cache.

Hypothesis drives two families of properties:

* **fingerprint soundness** — saving identical content twice yields the
  same fingerprint (cache hits survive a byte-identical re-save), while
  mutating a single cell yields a different one (a changed store can
  never alias a cached result);
* **cache/swap interleavings** — arbitrary sequences of {query,
  raw request, re-save-modified-store, swap, append-and-reload} driven through
  :meth:`repro.serve.ReproApp.handle` and :meth:`repro.serve.ReproApp.respond`
  (the exact code path the HTTP server runs, minus sockets; repeated raw
  requests go through the exact-request aliases) never return a response
  whose fingerprint differs from the currently-registered snapshot, and
  every body is bit-identical to a direct library call on the store file
  that snapshot was opened from.

Deterministic tests below pin the alias rules: an alias hit replays the
canonical hit's header block and body object and counts as a hit, one-off
queries take one entry, ``/reload`` prunes aliases with their fingerprint,
and an alias never outlives a change to the snapshot its request resolves to.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from urllib.parse import quote

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.datasets.civic import civic_lod_graph
from repro.serve import (
    CACHE_HEADER,
    FINGERPRINT_HEADER,
    ReproApp,
    ResultCache,
    SnapshotRegistry,
    canonical_query,
    encode_response,
    evaluate,
    fingerprint_path,
)
from repro.store import open_dataset
from repro.tabular.dataset import Dataset

#: Unique file names across hypothesis examples sharing one tmp_path.
_FILE_COUNTER = itertools.count()

_GROUPS = ["alpha", "beta", "gamma"]

#: The two cheap queries the interleaving machine fires.
_QUERIES = [
    ("/cube/aggregate", {
        "dimensions": ["g"],
        "measures": [{"column": "x", "aggregation": "sum"},
                     {"column": "x", "aggregation": "count", "name": "n"}],
        "levels": ["g"],
    }),
    ("/profile", {"criteria": ["completeness", "balance", "duplication"]}),
]


def _raw(params: dict) -> bytes:
    """The body a client would POST for ``params``."""
    return json.dumps(params).encode("utf-8")


def _head(head: bytes) -> dict[str, str]:
    """A response header block as a dict."""
    lines = head.decode("latin-1").split("\r\n")
    return dict(line.split(": ", 1) for line in lines if line)


def _make_dataset(version: int, n_rows: int = 8) -> Dataset:
    """A tiny deterministic dataset whose content is a function of ``version``."""
    rows = [
        {"g": _GROUPS[i % len(_GROUPS)], "x": float(i) + version * 0.5, "y": float((i * 7) % 5)}
        for i in range(n_rows)
    ]
    return Dataset.from_rows(rows, name="tiny")


def _save(dataset: Dataset, tmp_path):
    """Save to a path that is unique across hypothesis examples."""
    return dataset.save(tmp_path / f"s{next(_FILE_COUNTER):05d}.rps")


# -- fingerprint soundness ----------------------------------------------------


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(version=st.integers(min_value=0, max_value=1_000), n_rows=st.integers(2, 16))
def test_identical_content_shares_a_fingerprint(tmp_path, version, n_rows):
    """Equal content ⇒ equal fingerprint, whatever file it was saved to."""
    first = _save(_make_dataset(version, n_rows), tmp_path)
    second = _save(_make_dataset(version, n_rows), tmp_path)
    assert fingerprint_path(first) == fingerprint_path(second)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    version=st.integers(min_value=0, max_value=1_000),
    row=st.integers(min_value=0, max_value=7),
    column=st.sampled_from(["g", "x", "y"]),
)
def test_one_cell_mutation_changes_the_fingerprint(tmp_path, version, row, column):
    """Any single-cell edit must produce a different fingerprint."""
    base = _make_dataset(version)
    pristine = _save(base, tmp_path)
    rows = base.to_rows()
    rows[row][column] = "MUTATED" if column == "g" else float(rows[row][column]) + 1.0
    mutated = _save(Dataset.from_rows(rows, name="tiny"), tmp_path)
    assert fingerprint_path(pristine) != fingerprint_path(mutated)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(version=st.integers(min_value=0, max_value=1_000))
def test_fingerprint_ignores_the_file_name(tmp_path, version):
    """The fingerprint is content identity — paths and mtimes don't leak in."""
    dataset = _make_dataset(version)
    assert fingerprint_path(dataset.save(tmp_path / f"a{version}.rps")) == fingerprint_path(
        dataset.save(tmp_path / f"completely-different-name-{version}.rps")
    )


# -- cache/swap interleavings -------------------------------------------------


def _appended(path, batch: int):
    """The store at ``path`` plus a few rows, one of them in a group it may not have had."""
    current = open_dataset(path)
    try:
        rows = [{"g": _GROUPS[(batch + i) % 2] if i else f"new{batch}", "x": batch / 3 + i * 0.1,
                 "y": float(i)} for i in range(3)]
        return _save(current.append_rows(rows), tmp_path=path.parent)
    finally:
        current.close()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    ops=st.lists(
        st.sampled_from(["query0", "query1", "raw0", "raw1", "modify", "swap", "append"]),
        min_size=1, max_size=12,
    )
)
def test_interleavings_never_serve_stale_or_torn_results(tmp_path, ops):
    """The central cache property, under arbitrary op interleavings.

    Whatever order queries, re-saves, swaps and append reloads (which
    advance the recurring queries' states) arrive in: a query's
    fingerprint always equals the registered snapshot's, and its body is
    bit-identical to the direct library call on that snapshot's file —
    so a cached result can never outlive the content it was computed on.
    """
    version = 0
    live_path = pending_path = _save(_make_dataset(version), tmp_path)
    registry = SnapshotRegistry()
    registry.publish("tiny", live_path)
    app = ReproApp(registry, ResultCache(max_entries=8))
    try:
        for batch, op in enumerate(ops):
            if op == "modify":
                version += 1
                pending_path = _save(_make_dataset(version), tmp_path)
            elif op == "append":
                live_path = pending_path = _appended(live_path, batch)
                status, _, body = app.handle(
                    "POST", "/reload", {"name": "tiny", "path": str(live_path)}
                )
                assert status == 200
                assert json.loads(body)["appended_rows"] == 3
            elif op == "swap":
                status, _, body = app.handle(
                    "POST", "/reload", {"name": "tiny", "path": str(pending_path)}
                )
                assert status == 200
                reply = json.loads(body)
                expected_change = fingerprint_path(pending_path) != fingerprint_path(live_path)
                assert reply["changed"] == expected_change
                live_path = pending_path
            else:
                path, params = _QUERIES[int(op[-1])]
                if op.startswith("raw"):
                    status, head, body = app.respond("POST", path, _raw(params))
                    headers = _head(head)
                else:
                    status, headers, body = app.handle("POST", path, params)
                assert status == 200
                # Never stale: the response carries the registered fingerprint.
                assert headers[FINGERPRINT_HEADER] == registry.get("tiny").fingerprint
                assert headers[FINGERPRINT_HEADER] == fingerprint_path(live_path)
                # Never torn: bit-identical to the direct call on that file.
                direct = open_dataset(live_path)
                try:
                    assert body == encode_response(evaluate(path, direct, params))
                finally:
                    direct.close()
                assert len(app.cache) <= 8
    finally:
        registry.close_all()


# -- deterministic cache unit properties --------------------------------------


def test_canonical_query_is_key_order_insensitive():
    """Spelling-level differences collapse to one canonical key."""
    a = canonical_query({"b": [1, 2], "a": {"y": 1, "x": 2}})
    b = canonical_query({"a": {"x": 2, "y": 1}, "b": [1, 2]})
    assert a == b


def test_params_nested_past_the_recursion_limit_are_a_400(tmp_path):
    """Parameters too deep to serialise as a cache key get the JSON 400."""
    registry = SnapshotRegistry()
    registry.publish("tiny", _save(_make_dataset(0), tmp_path))
    params: dict = {}
    for _ in range(100_000):  # far past any interpreter's recursion limit
        params = {"x": params}
    try:
        status, _, body = ReproApp(registry).handle("POST", "/profile", params)
    finally:
        registry.close_all()
    assert status == 400
    assert json.loads(body)["error"].startswith("malformed request:")


def test_lru_eviction_is_bounded_and_oldest_first():
    """The cache never exceeds its bound and evicts least-recently-used."""
    cache = ResultCache(max_entries=3)
    for i in range(5):
        cache.put("fp", "/e", f"q{i}", b"%d" % i)
    assert len(cache) == 3
    assert cache.get("fp", "/e", "q0") is None
    assert cache.get("fp", "/e", "q1") is None
    assert cache.get("fp", "/e", "q4") == b"4"
    stats = cache.stats()
    assert stats["evictions"] == 2
    assert stats["entries"] == 3


def test_get_refreshes_recency():
    """A hit protects the entry from the next eviction."""
    cache = ResultCache(max_entries=2)
    cache.put("fp", "/e", "old", b"old")
    cache.put("fp", "/e", "new", b"new")
    assert cache.get("fp", "/e", "old") == b"old"
    cache.put("fp", "/e", "newest", b"newest")
    assert cache.get("fp", "/e", "old") == b"old", "recently-used entry survived"
    assert cache.get("fp", "/e", "new") is None, "least-recently-used entry evicted"


def test_prune_drops_only_retired_fingerprints():
    """``prune`` clears retired snapshots' entries and keeps live ones."""
    cache = ResultCache(max_entries=8)
    cache.put("live", "/e", "q", b"keep")
    cache.put("retired", "/e", "q", b"drop")
    cache.put("retired", "/f", "q", b"drop-too")
    assert cache.prune({"live"}) == 2
    assert cache.get("live", "/e", "q") == b"keep"
    assert cache.get("retired", "/e", "q") is None


# -- exact-request aliases ----------------------------------------------------


def _app(tmp_path) -> ReproApp:
    registry = SnapshotRegistry()
    registry.publish("tiny", _save(_make_dataset(0), tmp_path))
    return ReproApp(registry, ResultCache(max_entries=8))


def test_an_alias_hit_replays_the_canonical_hit(tmp_path):
    """The third identical request is answered from the alias the second made."""
    app = _app(tmp_path)
    path, params = _QUERIES[1]
    try:
        replies = [app.respond("POST", path, _raw(params)) for _ in range(2)]
        hits = app.cache.stats()["hits"]
        status, head, body = app.respond("POST", path, _raw(params))
        assert app.cache.stats()["hits"] == hits + 1
    finally:
        app.registry.close_all()
    (_, cold_head, cold), (_, hit_head, hit) = replies
    assert _head(cold_head)[CACHE_HEADER] == "miss"
    assert _head(hit_head)[CACHE_HEADER] == "hit"
    assert status == 200 and head == hit_head
    assert body is hit and body == cold, "the alias holds the cached body object"


def test_a_one_off_query_takes_one_entry_and_a_repeat_one_alias(tmp_path):
    """Aliases are made on hits only, so a query never repeated costs one slot."""
    app = _app(tmp_path)
    path, params = _QUERIES[0]
    try:
        app.respond("POST", path, _raw(params))
        assert app.cache.stats()["entries"] == 1
        app.respond("POST", path, _raw(params))
        assert app.cache.stats()["entries"] == 2
        app.respond("POST", path, _raw(params))
        assert app.cache.stats()["entries"] == 2
        # Another spelling of the query hits the entry at once, so it gets its own alias.
        for _ in range(2):
            app.respond("GET", path + "?q=" + quote(json.dumps(params)), b"")
            assert app.cache.stats()["entries"] == 3
    finally:
        app.registry.close_all()


def test_reload_prunes_the_aliases_of_retired_fingerprints(tmp_path):
    """``cache_entries_pruned`` counts the entry and the alias of the old content."""
    app = _app(tmp_path)
    path, params = _QUERIES[0]
    try:
        for _ in range(3):
            _, head, old = app.respond("POST", path, _raw(params))
        status, _, reply = app.handle(
            "POST", "/reload", {"name": "tiny", "path": str(_save(_make_dataset(1), tmp_path))}
        )
        assert status == 200
        assert json.loads(reply)["cache_entries_pruned"] == 2
        assert len(app.cache) == 0
        _, new_head, new = app.respond("POST", path, _raw(params))
    finally:
        app.registry.close_all()
    assert _head(new_head)[CACHE_HEADER] == "miss"
    assert _head(new_head)[FINGERPRINT_HEADER] != _head(head)[FINGERPRINT_HEADER]
    assert new != old


def test_an_alias_never_outlives_its_snapshot_binding(tmp_path):
    """After a swap, the repeat is answered from the new content before any prune runs."""
    app = _app(tmp_path)
    path, params = _QUERIES[0]
    replacement = _save(_make_dataset(1), tmp_path)
    try:
        for _ in range(2):
            app.respond("POST", path, _raw(params))
        app.registry.swap("tiny", replacement)  # no /reload, so nothing is pruned
        _, head, body = app.respond("POST", path, _raw(params))
        fingerprint = app.registry.get("tiny").fingerprint
    finally:
        app.registry.close_all()
    assert _head(head)[FINGERPRINT_HEADER] == fingerprint == fingerprint_path(replacement)
    direct = open_dataset(replacement)
    try:
        assert body == encode_response(evaluate(path, direct, params))
    finally:
        direct.close()


def test_an_alias_of_an_unnamed_query_ends_when_the_default_does(tmp_path):
    """A query that names no snapshot resolves anew once another name takes its kind."""
    registry = SnapshotRegistry()
    registry.publish("tiny", _save(_make_dataset(0), tmp_path))
    graph = civic_lod_graph(_make_dataset(0), entity_class="Row").save(tmp_path / "graph.rps")
    registry.publish("other", graph)
    app = ReproApp(registry, ResultCache(max_entries=8))
    path, params = _QUERIES[1]
    try:
        for _ in range(3):
            status, _, _ = app.respond("POST", path, _raw(params))
            assert status == 200
        # A second dataset name: "tiny" still serves the same fingerprint,
        # but an unnamed query is now ambiguous.
        registry.publish("second", _save(_make_dataset(2), tmp_path))
        status, _, body = app.respond("POST", path, _raw(params))
    finally:
        registry.close_all()
    assert status == 400
    assert "several dataset snapshots" in json.loads(body)["error"]


def test_a_reload_to_another_kind_is_refused_and_the_old_snapshot_serves(tmp_path):
    """A graph store cannot replace a dataset name: a 400 naming both kinds, and nothing changes."""
    registry = SnapshotRegistry()
    registry.publish("tiny", _save(_make_dataset(0), tmp_path))
    graph = civic_lod_graph(_make_dataset(0), entity_class="Row").save(tmp_path / "graph.rps")
    app = ReproApp(registry, ResultCache(max_entries=8))
    path, params = _QUERIES[0]
    try:
        _, _, before = app.respond("POST", path, _raw(params))
        fingerprint, layout = registry.get("tiny").fingerprint, registry.layout
        status, _, body = app.handle("POST", "/reload", {"name": "tiny", "path": str(graph)})
        assert status == 400
        error = json.loads(body)["error"]
        assert "a dataset snapshot" in error and "holds a graph" in error
        assert registry.get("tiny").fingerprint == fingerprint
        assert registry.get("tiny").kind == "dataset"
        assert registry.layout == layout
        status, head, after = app.respond("POST", path, _raw(params))
    finally:
        registry.close_all()
    assert status == 200 and after == before
    assert _head(head)[FINGERPRINT_HEADER] == fingerprint


def test_concurrent_repeats_lose_no_count_and_keep_the_bound(tmp_path):
    """Threads racing through aliases, canonical hits and misses: every request is counted once."""
    app = _app(tmp_path)
    requests = [(path, _raw(params)) for path, params in _QUERIES]
    requests += [("/profile", _raw({"criteria": ["completeness"], "nonce": i})) for i in range(12)]
    n_threads, rounds = 6, 40
    failures: list[str] = []

    def hammer(worker: int) -> None:
        for i in range(rounds):
            path, body = requests[(worker + i) % len(requests)]
            status, head, _ = app.respond("POST", path, body)
            if status != 200 or _head(head)[FINGERPRINT_HEADER] != app.registry.get("tiny").fingerprint:
                failures.append(f"{path}: {status}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        app.registry.close_all()
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:5]
    stats = app.cache.stats()
    assert stats["hits"] + stats["misses"] == n_threads * rounds
    assert stats["entries"] <= stats["max_entries"] == 8
