"""``serve_mix``: dashboard traffic from two keep-alive sessions against ``repro serve``.

The server (a ``python -m repro.cli serve`` subprocess) holds a dirty
``service_requests`` snapshot, an air-quality graph and the knowledge base.
Each session replays its own seeded stream in a closed loop, waiting for
every reply:

* about 90 % of requests are drawn Zipf-wise from :data:`CATALOGUE`, fixed
  dashboard queries covering all seven endpoints; the cache is warmed with
  them first, so they are hits;
* the rest are unique ad-hoc queries (:func:`adhoc_query`), which always
  miss: they vary KPI targets, measure names, criteria subsets and LOD limits.

The mix is fixed: how many requests, how many of each catalogue query and
how many ad-hoc queries per endpoint do not depend on the seed, only their
order and the parity sample do.  The cache is sized so nothing is evicted,
which keeps the hit and miss counts identical across runs of one seed.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import KnowledgeBase
from repro.datasets.civic import air_quality, civic_lod_graph, service_requests
from repro.quality.profile import DEFAULT_CRITERIA
from repro.serve import encode_response, evaluate
from repro.store import open_dataset, open_graph, save_dataset, save_graph

from perfbench.harness import (
    NULL_TRACER,
    HttpSession,
    Phase,
    ServerProcess,
    encode_request,
    layer_ms,
    root_medians,
)
from perfbench.kdd_pipeline import build_knowledge_base, knowledge_base_samples

SESSIONS = 2
#: One request in ``ADHOC_EVERY`` is a unique ad-hoc query.
ADHOC_EVERY = 10
#: Ad-hoc queries per endpoint and session re-checked against a direct call
#: (a fixed number, so the check costs the same at every ``--seconds``).
PARITY_PER_ENDPOINT = 4
ZIPF_EXPONENT = 1.1
#: Large enough that the timed phase never evicts (see the module docstring).
CACHE_ENTRIES = 1_000_000
#: Requests per second one session completes on the reference host; only
#: used to turn ``--seconds`` into a fixed stream length.
NOMINAL_RATE_PER_SESSION = 195.0

_CIVIC = "http://openbi.example.org/civic/"
_DAYS = {"column": "resolution_days", "aggregation": "mean", "name": "avg_days"}
_DAYS_KPI = {"name": "days", "column": "resolution_days", "target": 14.0, "higher_is_better": False}
_BACKLOG_KPI = {"name": "backlog", "column": "open_backlog", "target": 40.0, "higher_is_better": False}

#: The dashboard queries, most popular first.
CATALOGUE: tuple[tuple[str, dict], ...] = (
    ("/kpi", {"kpis": [_DAYS_KPI], "level": "district"}),
    ("/cube/aggregate", {"dimensions": ["district", "topic"], "measures": [_DAYS], "levels": ["district"]}),
    ("/profile", {}),
    ("/lod/select", {"patterns": [["?s", _CIVIC + "district", "?d"], ["?s", _CIVIC + "no2", "?n"]],
                     "limit": 50}),
    ("/advise", {}),
    ("/cube/pivot", {"dimensions": ["district", "topic"], "measures": [_DAYS],
                     "row_level": "district", "column_level": "topic"}),
    ("/lod/ask", {"patterns": [["?s", _CIVIC + "alert", {"literal": "alert"}]]}),
    ("/profile", {"criteria": ["completeness", "balance"]}),
    ("/kpi", {"kpis": [_DAYS_KPI]}),
    ("/cube/aggregate", {"dimensions": ["district", "topic"],
                         "measures": [{"column": "resolution_days", "aggregation": "count", "name": "n"}],
                         "levels": ["topic"]}),
    ("/lod/select", {"patterns": [["?s", _CIVIC + "district", {"literal": "north"}],
                                  ["?s", _CIVIC + "no2", "?n"]],
                     "order_by": "n", "descending": True, "limit": 20}),
    ("/advise", {"neighbours": 3}),
    ("/kpi", {"kpis": [_DAYS_KPI, _BACKLOG_KPI], "level": "topic"}),
    ("/profile", {"criteria": ["completeness", "consistency", "duplication"]}),
    ("/cube/aggregate", {"dimensions": ["channel", "topic"],
                         "measures": [{"column": "open_backlog", "aggregation": "sum", "name": "backlog"}],
                         "levels": ["channel", "topic"]}),
    ("/lod/select", {"patterns": [["?s", _CIVIC + "district", "?d"]], "variables": ["d"], "distinct": True}),
    ("/cube/pivot", {"dimensions": ["channel", "priority"],
                     "measures": [{"column": "resolution_days", "aggregation": "count", "name": "n"}],
                     "row_level": "channel", "column_level": "priority"}),
    ("/profile", {"criteria": ["accuracy", "outliers"]}),
    ("/lod/ask", {"patterns": [["?s", _CIVIC + "district", {"literal": "nowhere"}]]}),
    ("/advise", {"algorithms": ["naive_bayes", "decision_tree"]}),
    ("/cube/aggregate", {"dimensions": ["district"], "measures": [_DAYS]}),
    ("/lod/select", {"patterns": [["?s", _CIVIC + "month", {"literal": 7.0}], ["?s", _CIVIC + "pm10", "?p"]],
                     "limit": 100}),
    ("/profile", {"criteria": ["correlation"]}),
    ("/cube/aggregate", {"dimensions": ["priority"],
                         "measures": [{"column": "open_backlog", "aggregation": "mean",
                                       "name": "avg_backlog"}],
                         "levels": ["priority"]}),
)
ADHOC_ENDPOINTS = ("/profile", "/advise", "/cube/aggregate", "/cube/pivot", "/kpi", "/lod/select", "/lod/ask")
_MISS_GROUPS = {"/profile": "profile", "/advise": "advise", "/cube/aggregate": "cube", "/cube/pivot": "cube",
                "/kpi": "kpi", "/lod/select": "lod", "/lod/ask": "lod"}


@dataclass(frozen=True)
class Sizes:
    """Input sizes and repeat counts (the benchmark's; tests pass smaller ones)."""

    request_rows: int = 50_000
    graph_entities: int = 5_000
    kb_rows: int = 200
    setup_repeats: int = 7
    min_stream: int = 60


@dataclass(frozen=True)
class Request:
    """One pre-encoded request of a session stream."""

    path: str
    params: dict
    raw: bytes
    catalogue: int
    checked: bool


@dataclass
class Inputs:
    """Everything generated from the seed before set-up starts."""

    store: Path
    graph: Path
    kb: Path
    seed: int
    stream_length: int
    sizes: Sizes


def _nth_permutation(items: list, index: int) -> list:
    """The ``index``-th permutation of ``items`` in the factorial number system."""
    pool, result = list(items), []
    for size in range(len(pool), 0, -1):
        index, position = divmod(index, size)
        result.append(pool.pop(position))
    return result


def adhoc_query(slot: int, k: int, session: int) -> tuple[str, dict]:
    """Session ``session``'s ``k``-th ad-hoc query on endpoint ``ADHOC_ENDPOINTS[slot]``.

    ``k`` rotates the query shape, so each session gets the same mix of
    shapes; ``w`` makes the query unique across sessions.
    """
    path = ADHOC_ENDPOINTS[slot]
    w = k * SESSIONS + session
    if path == "/profile":
        kept = [c for i, c in enumerate(DEFAULT_CRITERIA) if i != k % len(DEFAULT_CRITERIA)]
        order = (k // len(DEFAULT_CRITERIA)) * SESSIONS + session
        return path, {"criteria": _nth_permutation(kept, order)}
    if path == "/advise":
        algorithms = (None, ["naive_bayes", "decision_tree"], ["decision_tree", "naive_bayes"])[k % 3]
        return path, {"neighbours": 1 + w, **({"algorithms": algorithms} if algorithms else {})}
    if path == "/cube/aggregate":
        dimensions, levels, column, aggregation = (
            (["district", "topic"], ["district"], "resolution_days", "mean"),
            (["channel", "topic"], ["topic"], "open_backlog", "sum"),
            (["district", "channel"], ["district", "channel"], "resolution_days", "max"),
            (["priority"], ["priority"], "open_backlog", "mean"),
        )[k % 4]
        measure = {"column": column, "aggregation": aggregation, "name": f"m{w}"}
        return path, {"dimensions": dimensions, "measures": [measure], "levels": levels}
    if path == "/cube/pivot":
        rows, columns = (("district", "topic"), ("channel", "priority"))[k % 2]
        measure = {"column": "resolution_days", "aggregation": "mean", "name": f"m{w}"}
        return path, {"dimensions": [rows, columns], "measures": [measure],
                      "row_level": rows, "column_level": columns}
    if path == "/kpi":
        level = (None, "district", "topic")[k % 3]
        return path, {"kpis": [dict(_DAYS_KPI, target=5.0 + w / 128)], **({"level": level} if level else {})}
    if path == "/lod/select":
        second = ("no2", "pm10")[k % 2]
        return path, {"patterns": [["?s", _CIVIC + "district", "?d"], ["?s", _CIVIC + second, "?v"]],
                      "limit": 25 + w}
    return path, {"patterns": [["?s", _CIVIC + "no2", {"literal": 20.0 + w / 8}]]}


def _apportion(weights: list[float], total: int) -> list[int]:
    """Integer counts summing to ``total`` in proportion to ``weights`` (largest remainder)."""
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [math.floor(x) for x in exact]
    by_remainder = sorted(range(len(weights)), key=lambda i: (counts[i] - exact[i], i))
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def catalogue_counts(n_catalogue: int) -> list[int]:
    """How many times each catalogue query appears among ``n_catalogue`` requests."""
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(CATALOGUE))]
    return _apportion(weights, n_catalogue)


def session_stream(seed: int, session: int, length: int) -> list[Request]:
    """Session ``session``'s seeded request stream of ``length`` requests."""
    n_adhoc = length // ADHOC_EVERY
    slots = [(index, -1) for index, count in enumerate(catalogue_counts(length - n_adhoc))
             for _ in range(count)]
    slots += [(-1, j) for j in range(n_adhoc)]
    rng = np.random.default_rng([seed, session])
    checked: set[int] = set()
    for slot in range(len(ADHOC_ENDPOINTS)):
        on_endpoint = range(slot, n_adhoc, len(ADHOC_ENDPOINTS))
        picks = rng.choice(len(on_endpoint), size=min(PARITY_PER_ENDPOINT, len(on_endpoint)), replace=False)
        checked.update(on_endpoint[i] for i in picks.tolist())
    stream = []
    for position in rng.permutation(len(slots)):
        catalogue, j = slots[position]
        if catalogue >= 0:
            path, params = CATALOGUE[catalogue]
            stream.append(Request(path, params, encode_request(path, params), catalogue, False))
        else:
            slot, k = j % len(ADHOC_ENDPOINTS), j // len(ADHOC_ENDPOINTS)
            path, params = adhoc_query(slot, k, session)
            stream.append(Request(path, params, encode_request(path, params), -1, j in checked))
    return stream


def prepare(seed: int, seconds: int, workdir: Path, sizes: Sizes = Sizes()) -> Inputs:
    """Write the snapshots and knowledge base the server loads."""
    store = save_dataset(
        service_requests(n_rows=sizes.request_rows, seed=seed, dirty=True, name="requests"),
        workdir / "requests.rps",
    )
    readings = air_quality(n_rows=sizes.graph_entities, seed=seed + 1)
    graph = save_graph(civic_lod_graph(readings, entity_class="AirQualityReading"), workdir / "air.rps")
    kb = workdir / "kb.json"
    build_knowledge_base(knowledge_base_samples(sizes.kb_rows)).to_json(kb)
    length = max(sizes.min_stream, round(seconds * NOMINAL_RATE_PER_SESSION))
    return Inputs(store, graph, kb, seed, length, sizes)


@dataclass
class _SessionLog:
    """What one session saw."""

    latencies: list[float] = field(default_factory=list)
    hits: int = 0
    misses: int = 0
    response_bytes: int = 0
    hit_sizes: list[int] = field(default_factory=list)
    bodies: list[tuple[Request, bytes]] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0
    error: str | None = None


class _Direct:
    """A separately opened copy of the snapshots, for direct ``evaluate`` calls."""

    def __init__(self, inputs: Inputs) -> None:
        self.dataset = open_dataset(inputs.store)
        self.graph = open_graph(inputs.graph)
        self.knowledge_base = KnowledgeBase.from_json(inputs.kb)

    def response(self, request: Request) -> bytes:
        payload = self.graph if request.path.startswith("/lod/") else self.dataset
        return encode_response(evaluate(request.path, payload, request.params, self.knowledge_base))

    def close(self) -> None:
        self.dataset.close()
        self.graph.close()


def _replay(port: int, session: int, stream: list[Request], barrier: threading.Barrier,
            log: _SessionLog, tracer, direct: _Direct | None) -> None:
    """Replay one stream in a closed loop, one reply at a time."""
    try:
        with HttpSession(port) as connection:
            barrier.wait(timeout=120)
            log.started = time.perf_counter()
            try:
                _replay_stream(connection, session, stream, log, tracer, direct)
            finally:
                log.finished = time.perf_counter()
    except Exception:  # the rest of the stream counts as failed; the other session must not hang
        log.error = traceback.format_exc()
        barrier.abort()


def _replay_stream(connection: HttpSession, session: int, stream: list[Request], log: _SessionLog,
                   tracer, direct: _Direct | None) -> None:
    seen: set[int] = set()
    for i, request in enumerate(stream):
        op = i * SESSIONS + session
        start = time.perf_counter()
        with tracer.span("op", op=op):
            with tracer.span("serve.request") as span:
                reply = connection.exchange(request.raw)
                hit = reply.headers.get("x-repro-cache") == "hit"
                span.name = "serve.hit" if hit else f"serve.miss.{_MISS_GROUPS[request.path]}"
        elapsed = time.perf_counter() - start
        if reply.status != 200:
            print(f"serve_mix: {request.path} answered {reply.status}: {reply.body[:200]!r}", file=sys.stderr)
            continue
        log.latencies.append(elapsed)
        log.response_bytes += len(reply.body)
        if hit:
            log.hits += 1
            log.hit_sizes.append(len(reply.body))
        else:
            log.misses += 1
            if direct is not None:
                slug = request.path.strip("/").replace("/", "_")
                with tracer.span(f"serve.evaluate.{slug}", op=op):
                    direct.response(request)
        if request.checked or (request.catalogue >= 0 and request.catalogue not in seen):
            seen.add(request.catalogue)
            log.bodies.append((request, reply.body))


def _cache_stats(port: int) -> dict:
    with HttpSession(port) as connection:
        return json.loads(connection.exchange(encode_request("/cache/stats", method="GET")).body)["cache"]


def run_phase(inputs: Inputs, tracer=NULL_TRACER) -> Phase:
    """Launch the server, warm its cache, replay both streams, then check parity."""
    phase = Phase()
    streams = [session_stream(inputs.seed, s, inputs.stream_length) for s in range(SESSIONS)]
    args = ["--store", str(inputs.store), "--graph", str(inputs.graph), "--kb", str(inputs.kb),
            "--cache-entries", str(CACHE_ENTRIES)]
    server = ServerProcess(Path(__file__).resolve().parent.parent / "src", args)
    logs = [_SessionLog() for _ in range(SESSIONS)]
    direct = _Direct(inputs)
    try:
        try:
            for trial in range(inputs.sizes.setup_repeats):
                if trial:
                    server.stop()
                with tracer.span("serve.startup"):
                    phase.setup.append(server.start())
            with HttpSession(server.port) as warm:
                for path, params in CATALOGUE * 2:
                    if warm.exchange(encode_request(path, params)).status != 200:
                        raise RuntimeError(f"catalogue query {path} {params} failed while warming up")
            before = _cache_stats(server.port)
            barrier = threading.Barrier(SESSIONS)
            threads = [
                threading.Thread(target=_replay, args=(server.port, s, streams[s], barrier, logs[s], tracer,
                                                       direct if tracer.enabled else None))
                for s in range(SESSIONS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for log in logs:
                if log.error:
                    print(f"serve_mix: a session stopped early:\n{log.error}", file=sys.stderr)
            try:
                after = _cache_stats(server.port)
                phase.peak_rss_mb = server.peak_rss_mb()
            except (OSError, RuntimeError) as error:  # the server has gone: no counters to read
                phase.mismatches.append(f"the server stopped answering: {error!r}")
                after = before
        finally:
            server.stop()
        expected: dict[int, bytes] = {}  # catalogue index -> direct answer, computed once
        for log in logs:
            for request, body in log.bodies:
                if request.catalogue in expected:
                    reference = expected[request.catalogue]
                else:
                    reference = direct.response(request)
                    if request.catalogue >= 0:
                        expected[request.catalogue] = reference
                if body != reference:
                    phase.mismatches.append(f"{request.path} {request.params}: served bytes differ")
    finally:
        direct.close()
    ran = [log for log in logs if log.started]
    phase.elapsed = max(log.finished for log in ran) - min(log.started for log in ran) if ran else 0.0
    phase.attempted = sum(len(stream) for stream in streams)
    phase.latencies = [x for log in logs for x in log.latencies]
    phase.failed = phase.attempted - len(phase.latencies)  # non-200 answers and requests never sent
    delta = {key: after[key] - before[key] for key in ("hits", "misses", "evictions")}
    per_endpoint: dict[str, int] = {}
    for stream in streams:
        for request in stream:
            per_endpoint[request.path] = per_endpoint.get(request.path, 0) + 1
    phase.work = {
        "requests": phase.attempted,
        "hits": sum(log.hits for log in logs),
        "misses": sum(log.misses for log in logs),
        "cache_stats_delta": delta,
        "per_endpoint": dict(sorted(per_endpoint.items())),
        "response_bytes": sum(log.response_bytes for log in logs),
        "parity_checked": sum(len(log.bodies) for log in logs),
    }
    if tracer.enabled:
        phase.spans = tracer.spans
        phase.layers = _layer_metrics(tracer.spans, logs, delta)
    return phase


def _layer_metrics(spans, logs: list[_SessionLog], delta: dict) -> dict[str, float]:
    """The serve_mix per-layer metrics from a traced phase."""
    layers = layer_ms(spans)
    outside = root_medians(spans)
    layers["serve.startup_s"] = outside.pop("serve.startup")
    layers.update({f"{name}_ms": seconds * 1e3 for name, seconds in outside.items()})
    misses = {s.op: s.duration for s in spans if s.name.startswith("serve.miss.")}
    overheads = [misses[s.op] - s.duration for s in spans
                 if s.name.startswith("serve.evaluate.") and s.op in misses]
    if overheads:
        layers["serve.overhead_ms"] = float(np.median(overheads)) * 1e3
    sizes = [size for log in logs for size in log.hit_sizes]
    if sizes:
        layers["serve.response_bytes"] = float(np.median(sizes))
    layers["serve.cache_hit_ratio"] = delta["hits"] / max(1, delta["hits"] + delta["misses"])
    layers["serve.cache_evictions"] = float(delta["evictions"])
    return layers
