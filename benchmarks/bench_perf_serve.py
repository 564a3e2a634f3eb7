"""BENCH-PERF-SERVE — hot-cache vs cold served query throughput.

The serving tier (:mod:`repro.serve`) promises that putting a long-lived
HTTP server in front of the library costs you nothing in correctness and
buys you a fingerprint-keyed result cache: a **hot** response (cache hit)
replays the exact bytes of the first computation, so repeated dashboard
queries skip the compute entirely.  Each case measures, over a live
``ReproServer`` (its keep-alive HTTP/1.1 handler) and one keep-alive
connection:

* *cold* — every request a fresh cache key (a nonce parameter), so each
  one computes: direct cost + HTTP/dispatch overhead (``ref_s``, seconds
  per request);
* *hot* — the same request repeated byte for byte, so after the first
  canonical hit it is answered from its exact-request alias: HTTP overhead
  only (``fast_s``, and ``hot_qps`` for the README).

``speedup`` is hot over cold.  Identity requires every hot and cold body to
equal the direct library call (``evaluate`` + canonical serialization) on an
independently opened snapshot of the same store file.
``benchmarks/_harness.py`` runs it, records ``BENCH_perf_serve.json`` and
guards it with ``--quick``.
"""

from __future__ import annotations

import http.client
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.datasets import make_classification_dataset
from repro.lod.publish import publish_dataset
from repro.serve import create_server, encode_response, evaluate
from repro.store import open_dataset, open_graph, save_dataset, save_graph

try:
    from benchmarks import _harness
except ModuleNotFoundError:  # run as a script
    import _harness

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

#: Snapshot sizes and the requests per measured rate.
FULL = {"rows=8000": dict(dataset_rows=8_000, graph_rows=800, n_cold=8, n_hot=60)}
QUICK = {"rows=2000": dict(dataset_rows=2_000, graph_rows=300, n_cold=5, n_hot=30)}
GUARDED = ("profile", "cube_aggregate", "lod_select")

#: The benchmarked workloads: (key, endpoint, params, snapshot kind).
_WORKLOADS = [
    ("profile", "/profile", {}, "dataset"),
    (
        "cube_aggregate",
        "/cube/aggregate",
        {
            "dimensions": ["cat_0"],
            "measures": [{"column": "num_0", "aggregation": "mean"},
                         {"column": "num_1", "aggregation": "sum"}],
            "levels": ["cat_0"],
        },
        "dataset",
    ),
    (
        "lod_select",
        "/lod/select",
        {"patterns": [["?s", RDF_TYPE, "?t"]], "order_by": "s"},
        "graph",
    ),
]


def _seconds_per_call(fn, n: int) -> float:
    """Run ``fn`` ``n`` times and return the mean wall time per call."""
    start = time.perf_counter()
    for _ in range(n):
        fn()
    return (time.perf_counter() - start) / n


def _workload_case(connection, payload, endpoint: str, params: dict, n_cold: int, n_hot: int) -> dict:
    """Measure cold and hot request times for one endpoint, with parity.

    ``payload`` is an independently opened dataset/graph over the same
    store file the server serves — the direct-library baseline.
    """
    direct_body = encode_response(evaluate(endpoint, payload, params))

    def post(body_params: dict) -> bytes:
        connection.request(
            "POST", endpoint, body=json.dumps(body_params), headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        body = response.read()
        assert response.status == 200, body
        return body

    # Cold: a fresh nonce per request defeats the cache key, so every
    # request computes (endpoints ignore unknown parameters).
    nonce = iter(range(10_000_000))
    cold_bodies = {post({**params, "nonce": next(nonce)}) for _ in range(2)}
    cold_s = _seconds_per_call(lambda: post({**params, "nonce": next(nonce)}), n_cold)
    # Hot: the identical request replays cached bytes (the first one warms).
    hot_body = post(params)
    hot_s = _seconds_per_call(lambda: post(params), n_hot)
    return _harness.case(
        hot_s, cold_s, hot_body == direct_body and cold_bodies == {direct_body}, hot_qps=1 / hot_s
    )


def cases(dataset_rows: int, graph_rows: int, n_cold: int, n_hot: int) -> dict:
    """Save, serve and hammer every workload at one size."""
    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
        dataset_path = save_dataset(
            make_classification_dataset(n_rows=dataset_rows, n_numeric=4, n_categorical=3, seed=0),
            Path(tmp) / "bench.rps",
        )
        entities = make_classification_dataset(n_rows=graph_rows, n_numeric=2, n_categorical=2, seed=0)
        graph_path = save_graph(publish_dataset(entities), Path(tmp) / "bench_graph.rps")
        server = create_server(stores=[dataset_path], graphs=[graph_path])
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        payloads = {"dataset": open_dataset(dataset_path), "graph": open_graph(graph_path)}
        connection = http.client.HTTPConnection(*server.server_address[:2], timeout=60)
        try:
            return {
                key: _workload_case(connection, payloads[kind], endpoint, params, n_cold, n_hot)
                for key, endpoint, params, kind in _WORKLOADS
            }
        finally:
            connection.close()
            for payload in payloads.values():
                payload.close()
            server.shutdown()
            thread.join(timeout=10)
            server.close()


def check(sizes: dict) -> None:
    """Every hot rate must beat its cold rate, the profile's by ≥5×."""
    for key, stats in sizes["rows=8000"].items():
        assert stats["speedup"] > 1.0, f"{key}: hot is no faster than cold: {stats}"
    profile = sizes["rows=8000"]["profile"]["speedup"]
    assert profile >= 5.0, f"profile hot-cache speedup is {profile:.1f}x, below the 5x bar"


if __name__ == "__main__":
    sys.exit(_harness.main(sys.modules[__name__]))
