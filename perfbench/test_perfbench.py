"""Tests of the benchmark's own helpers, plus a tiny run of each workload."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import feed_ingest, harness, kdd_pipeline, run, serve_mix

ROOT = Path(__file__).resolve().parent.parent


# -- tail percentile ------------------------------------------------------------


def test_tail_percentile_leaves_exactly_ten_samples_beyond():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    tail = harness.tail_percentile(values)
    assert (tail.percentile, tail.value, tail.n, tail.beyond) == (90.0, 90, 100, 10)
    assert sum(v > tail.value for v in values) == 10


def test_tail_percentile_is_the_highest_with_ten_beyond():
    tail = harness.tail_percentile([float(v) for v in range(37)])
    assert tail.percentile == pytest.approx(100 * 27 / 37)
    assert tail.value == 26.0
    assert harness.tail_percentile(list(range(11))).value == 0


def test_tail_percentile_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        harness.tail_percentile(list(range(10)))


# -- spans and self time -----------------------------------------------------------


def _span(span_id, name, start, end, parent=None, op=0):
    return harness.Span(span_id, name, parent, op, 1, start, end)


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        _span(1, "op", 0.0, 10.0),
        _span(2, "a", 1.0, 4.0, parent=1),
        _span(3, "c", 2.0, 3.0, parent=2),
        _span(4, "b", 5.0, 7.0, parent=1),
        _span(5, "a", 8.0, 9.0, parent=1),
        _span(6, "setup", 20.0, 21.0),
    ]
    assert harness.self_times(spans) == {1: 4.0, 2: 2.0, 3: 1.0, 4: 2.0, 5: 1.0, 6: 1.0}
    [op] = harness.op_breakdowns(spans)
    assert op.layers == {"a": 3.0, "b": 2.0, "c": 1.0}
    assert op.unattributed == 4.0
    assert sum(op.layers.values()) + op.unattributed == op.wall


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [_span(1, "op", 0.0, 10.0), _span(2, "x", 1.0, 4.0, parent=1), _span(3, "y", 3.0, 6.0, parent=1)]
    assert harness.self_times(spans)[1] == 5.0


def test_tracer_nests_spans_per_thread_and_writes_chrome_trace():
    tracer = harness.Tracer()
    with tracer.span("op", op=7):
        with tracer.span("inner") as inner:
            inner.name = "renamed"
    renamed, op = tracer.spans
    assert (renamed.name, renamed.parent, renamed.op) == ("renamed", op.id, 7)
    assert op.parent is None and op.start <= renamed.start <= renamed.end <= op.end
    events = harness.chrome_trace(tracer.spans)["traceEvents"]
    assert [e["name"] for e in events] == ["op", "renamed"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    with harness.NULL_TRACER.span("op", op=1):
        pass
    assert not harness.NULL_TRACER.enabled


# -- seeded inputs --------------------------------------------------------------------


def _stream_bytes(seed, session, length=700):
    return b"".join(r.raw for r in serve_mix.session_stream(seed, session, length))


def test_serve_streams_are_byte_identical_per_seed_and_differ_across_seeds():
    assert _stream_bytes(1, 0) == _stream_bytes(1, 0)
    assert _stream_bytes(1, 0) != _stream_bytes(2, 0)
    assert _stream_bytes(1, 0) != _stream_bytes(1, 1)


def test_serve_mix_is_fixed_and_adhoc_queries_are_unique():
    streams = [serve_mix.session_stream(seed, s, 700) for seed in (1, 2) for s in range(serve_mix.SESSIONS)]
    mixes = [sorted((r.path, r.catalogue) for r in stream if r.catalogue >= 0) for stream in streams]
    assert all(mix == mixes[0] for mix in mixes)
    for seed_streams in (streams[:2], streams[2:]):
        adhoc = [r.raw for stream in seed_streams for r in stream if r.catalogue < 0]
        assert len(adhoc) == 2 * 70 and len(set(adhoc)) == len(adhoc)
        catalogue = {harness.encode_request(path, params) for path, params in serve_mix.CATALOGUE}
        assert not catalogue & set(adhoc)
    assert {r.path for r in streams[0]} == set(serve_mix.ADHOC_ENDPOINTS)
    for stream in streams:  # the parity sample: a fixed number of ad-hoc queries per endpoint
        checked = [r.path for r in stream if r.checked]
        assert sorted(checked) == sorted(serve_mix.ADHOC_ENDPOINTS * serve_mix.PARITY_PER_ENDPOINT)


def test_kdd_pool_and_feed_batches_are_seeded():
    sizes = kdd_pipeline.Sizes(small_rows=40, large_factor=2)
    one, again, other = (kdd_pipeline.make_pool(seed, sizes) for seed in (1, 1, 2))
    assert [(s.csv, s.ntriples) for s in one] == [(s.csv, s.ntriples) for s in again]
    assert [s.csv for s in one] != [s.csv for s in other]
    assert feed_ingest.feed_batch(1, 0, 50) == feed_ingest.feed_batch(1, 0, 50)
    assert feed_ingest.feed_batch(1, 0, 50) != feed_ingest.feed_batch(2, 0, 50)


# -- tiny runs of each workload ----------------------------------------------------


@pytest.fixture
def sequential(monkeypatch):
    monkeypatch.delenv("REPRO_N_JOBS", raising=False)


def _smoke(workload, sizes, tmp_path):
    inputs = workload.prepare(5, 1, tmp_path, sizes)
    untraced = workload.run_phase(inputs)
    traced = workload.run_phase(inputs, harness.Tracer())
    for phase in (untraced, traced):
        assert phase.mismatches == []
        assert phase.failed == 0 and phase.attempted == len(phase.latencies) > 10
    assert traced.work == untraced.work
    values, _ = run.end_to_end(untraced, harness)
    assert set(values) == set(harness.END_TO_END_UNITS) and all(v > 0 for v in values.values())
    layers = run.per_layer(untraced, traced, harness, [harness.calibration_probe(1)])
    assert set(layers) == set(harness.PER_LAYER_UNITS)
    for op in harness.op_breakdowns(traced.spans):
        assert sum(op.layers.values()) + op.unattributed == pytest.approx(op.wall)
    return untraced, layers


def test_kdd_pipeline_tiny_run_passes_its_checks(tmp_path, sequential):
    sizes = kdd_pipeline.Sizes(small_rows=120, large_factor=2, companion_divisor=4, kb_rows=60,
                               setup_repeats=1, min_cycles=3)
    phase, layers = _smoke(kdd_pipeline, sizes, tmp_path)
    assert len(phase.work["sources"]) == len(kdd_pipeline.POOL_GENERATORS)
    assert layers["recovery.salvage_ms"] > 0 and layers["store.bytes_per_input_byte"] > 0
    assert layers["mining.advised.naive_bayes"] + layers["mining.advised.decision_tree"] == 5


def test_serve_mix_tiny_run_passes_its_checks(tmp_path, sequential):
    sizes = serve_mix.Sizes(request_rows=400, graph_entities=60, kb_rows=60, setup_repeats=1, min_stream=200)
    phase, layers = _smoke(serve_mix, sizes, tmp_path)
    assert phase.work["misses"] == phase.work["cache_stats_delta"]["misses"] == phase.attempted // 10
    assert phase.work["cache_stats_delta"]["evictions"] == 0
    assert layers["serve.hit_ms"] > 0 and layers["serve.evaluate.profile_ms"] > 0


def test_feed_ingest_tiny_run_passes_its_checks(tmp_path, sequential):
    sizes = feed_ingest.Sizes(base_rows=500, batch_rows=20, setup_repeats=1, warmup_cycles=1, min_cycles=11)
    phase, layers = _smoke(feed_ingest, sizes, tmp_path)
    assert phase.work["rows_per_cycle"] == [20] * 12
    assert layers["serve.fresh.profile_ms"] > 0 and layers["feeds.incremental_share"] > 0


def test_a_broken_serve_session_counts_the_rest_of_its_stream_as_failed(tmp_path, sequential, monkeypatch):
    replay = serve_mix._replay_stream

    def broken_after_five(connection, session, stream, *rest):
        replay(connection, session, stream[:5] if session == 1 else stream, *rest)
        if session == 1:
            raise ConnectionError("the server closed the connection")

    monkeypatch.setattr(serve_mix, "_replay_stream", broken_after_five)
    sizes = serve_mix.Sizes(request_rows=400, graph_entities=60, kb_rows=60, setup_repeats=1, min_stream=200)
    inputs = serve_mix.prepare(5, 1, tmp_path, sizes)
    phase = serve_mix.run_phase(inputs)
    n = inputs.stream_length
    assert phase.attempted == 2 * n and len(phase.latencies) == n + 5
    assert phase.failed == n - 5 and phase.elapsed > 0


def test_stop_repeats_a_sigterm_the_server_ignored(tmp_path):
    script = tmp_path / "deaf_once.py"
    script.write_text(
        "import signal, sys, time\n"
        "heard = []\n"
        "signal.signal(signal.SIGTERM, lambda *_: sys.exit(0) if heard else heard.append(1))\n"
        "print('ready', flush=True)\n"
        "while True:\n"
        "    time.sleep(0.05)\n"
    )
    server = harness.ServerProcess(ROOT / "src", [])
    server.proc = subprocess.Popen([sys.executable, str(script)], stdout=subprocess.PIPE, text=True)
    assert server.proc.stdout.readline() == "ready\n"
    proc = server.proc
    started = time.perf_counter()
    server.stop()
    assert proc.returncode == 0  # ended by the repeated SIGTERM, not by SIGKILL
    assert time.perf_counter() - started < 5
    assert server.proc is None


# -- recorded work --------------------------------------------------------------------


def test_recorded_work_is_kept_only_from_clean_runs_and_compared_per_key(tmp_path):
    work = {"hits": 9, "misses": 1}
    assert run.check_recorded_work(tmp_path, "a", work, clean=False) is None
    assert not list(tmp_path.iterdir())  # a broken run never becomes the reference
    assert run.check_recorded_work(tmp_path, "a", work, clean=True) is None
    assert run.check_recorded_work(tmp_path, "a", work, clean=True) is None
    assert run.check_recorded_work(tmp_path, "a", {"hits": 8, "misses": 2}, clean=True) is not None
    assert run.check_recorded_work(tmp_path, "b", {"hits": 8, "misses": 2}, clean=True) is None


def test_code_digest_follows_the_code(tmp_path):
    for top in ("src/repro", "perfbench/__pycache__"):
        (tmp_path / top).mkdir(parents=True)
    (tmp_path / "src/repro/__init__.py").write_text("x = 1\n")
    before = run.code_digest(tmp_path)
    (tmp_path / "perfbench/__pycache__/run.cpython.pyc").write_bytes(b"\0")
    assert run.code_digest(tmp_path) == before
    (tmp_path / "src/repro/__init__.py").write_text("x = 2\n")
    assert run.code_digest(tmp_path) != before


# -- the runner's contract -------------------------------------------------------------


def test_benchmark_json_names_the_runner_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER_UNITS


def test_runner_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kdd_pipeline", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
