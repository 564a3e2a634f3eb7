"""``feed_ingest``: one ingest job feeding a live ``repro serve``, batch after batch.

The base is a budget fact table (the ``bench_perf_ingest.py`` schema plus a
per-batch ``datum`` cursor column, which ``repro ingest`` requires) served
by a ``python -m repro.cli serve`` subprocess.  JSONL batches arrive through
a :class:`~repro.feeds.FeedConnector`.  One op is quickstart step 10 at
scale (:func:`_run_op`): fetch the batch after the cursor, append it,
refresh the data-quality gate (:class:`~repro.feeds.IncrementalProfile` and
:class:`~repro.feeds.IncrementalKPIBoard`), save to a sibling ``.tmp`` and
``os.replace``, ``POST /reload``, then re-query ``/profile``, ``/kpi`` and
``/cube/aggregate`` until each answer carries the new fingerprint.  Op
latency is freshness: the time until dashboards serve the new rows.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from repro.bi import KPI, Cube, Dimension, Measure
from repro.feeds import FeedConnector, FixtureFeed, IncrementalKPIBoard, IncrementalProfile
from repro.quality import measure_quality
from repro.serve import encode_response, evaluate
from repro.store import open_dataset
from repro.tabular.dataset import ColumnType, Dataset

from perfbench.harness import (
    NULL_TRACER,
    HttpSession,
    Phase,
    ServerProcess,
    encode_request,
    layer_ms,
    own_peak_rss_mb,
    profile_bytes,
    root_medians,
)

STORE_NAME = "budget"
DISTRICTS = tuple(f"district_{i:02d}" for i in range(20))
CATEGORIES = ("transport", "health", "education", "culture", "housing", "parks", "safety", "it")
#: The data-quality gate: the criteria refreshed per batch and served by ``/profile``.
GATE_CRITERIA = ["completeness", "consistency", "duplication", "balance", "dimensionality"]
KPIS = (
    KPI("avg_rate", "rate", target=0.6),
    KPI("avg_amount", "amount", target=300_000.0, higher_is_better=False, tolerance=0.2),
)
PROFILE_QUERY = {"criteria": GATE_CRITERIA}
KPI_QUERY = {
    "kpis": [
        {"name": "avg_rate", "column": "rate", "target": 0.6},
        {"name": "avg_amount", "column": "amount", "target": 300_000.0, "higher_is_better": False,
         "tolerance": 0.2},
    ],
    "level": "district",
}
CUBE_QUERY = {
    "dimensions": ["district", "category"],
    "measures": [{"column": "amount", "aggregation": "sum", "name": "total"}],
    "levels": ["district"],
}
#: Re-queries allowed per endpoint before a stale fingerprint fails the op.
MAX_STALE = 20
#: Seconds one cycle takes on the reference host; only used to turn
#: ``--seconds`` into a fixed cycle count.
NOMINAL_CYCLE_S = 0.375
_BASE_DATUM = datetime(2026, 1, 1)


@dataclass(frozen=True)
class Sizes:
    """Input sizes and repeat counts (the benchmark's; tests pass smaller ones)."""

    base_rows: int = 100_000
    batch_rows: int = 1_000
    setup_repeats: int = 5
    warmup_cycles: int = 2
    min_cycles: int = 12


@dataclass
class Inputs:
    """Everything generated from the seed before set-up starts."""

    base: Path
    feed: Path
    batch_bytes: list[int]
    cycles: int
    sizes: Sizes
    workdir: Path


def _datum(batch: int) -> str:
    """The cursor value of batch ``batch`` (-1 is the base table)."""
    return (_BASE_DATUM + timedelta(hours=batch + 1)).isoformat()


def _columns(rng: np.random.Generator, n: int, districts: tuple[str, ...]) -> dict[str, list]:
    """``n`` rows of the budget schema, with about 5 % gaps in a key and a measure."""
    district = [None if gap else districts[i]
                for gap, i in zip(rng.random(n) < 0.05, rng.integers(len(districts), size=n))]
    amount = np.round(rng.uniform(1_000, 500_000, size=n), 2)
    amount[rng.random(n) < 0.05] = np.nan
    return {
        "district": district,
        "category": [CATEGORIES[i] for i in rng.integers(len(CATEGORIES), size=n)],
        "year": (2019.0 + rng.integers(5, size=n)).tolist(),
        "amount": amount.tolist(),
        "rate": np.round(rng.uniform(0.0, 1.2, size=n), 4).tolist(),
    }


def base_table(seed: int, rows: int) -> Dataset:
    """The base fact table for ``seed``."""
    columns = _columns(np.random.default_rng([seed, 0]), rows, DISTRICTS)
    columns["datum"] = [_datum(-1)] * rows
    ctypes = {"district": ColumnType.CATEGORICAL, "category": ColumnType.CATEGORICAL,
              "year": ColumnType.NUMERIC, "amount": ColumnType.NUMERIC, "rate": ColumnType.NUMERIC,
              "datum": ColumnType.CATEGORICAL}
    return Dataset.from_dict(columns, name=STORE_NAME, ctypes=ctypes)


def feed_batch(seed: int, batch: int, rows: int) -> bytes:
    """Batch ``batch`` of the feed as JSONL; it brings one brand-new district."""
    columns = _columns(np.random.default_rng([seed, batch + 1]), rows, DISTRICTS + ("district_NEW",))
    lines = []
    for i in range(rows):
        record = {name: values[i] for name, values in columns.items()}
        if record["amount"] != record["amount"]:
            record["amount"] = None
        record["datum"] = _datum(batch)
        lines.append(json.dumps(record, sort_keys=True))
    return ("\n".join(lines) + "\n").encode("utf-8")


def prepare(seed: int, seconds: int, workdir: Path, sizes: Sizes = Sizes()) -> Inputs:
    """Write the base store and every feed batch the job will fetch."""
    cycles = max(sizes.min_cycles, round(seconds / NOMINAL_CYCLE_S))
    base = base_table(seed, sizes.base_rows).save(workdir / "base.rps")
    feed = workdir / "feed"
    feed.mkdir()
    batch_bytes = []
    for batch in range(sizes.warmup_cycles + cycles):
        payload = feed_batch(seed, batch, sizes.batch_rows)
        (feed / f"batch_{batch:05d}.jsonl").write_bytes(payload)
        batch_bytes.append(len(payload))
    return Inputs(base, feed, batch_bytes, cycles, sizes, workdir)


class _Gate:
    """The ingest job's state: the current dataset and its incremental boards.

    The opened base stays open until :meth:`close`, because merged datasets
    may still read lazily from its memory map.
    """

    def __init__(self, store: Path) -> None:
        self.opened = open_dataset(store)
        self.dataset = self.opened
        cube = Cube(self.dataset, dimensions=[Dimension("district", ("district",))],
                    measures=[Measure(kpi.name, kpi.compute, "mean") for kpi in KPIS])
        self.profile = IncrementalProfile(self.dataset, criteria=GATE_CRITERIA)
        self.kpis = IncrementalKPIBoard(KPIS, cube, "district")
        self.latest_profile = None

    def close(self) -> None:
        self.opened.close()


@dataclass
class _Cycle:
    """What one op did, kept for the work record."""

    rows: int
    bytes_written: int
    stale: int
    served_profile: bytes


def _fresh(session: HttpSession, raw: bytes, fingerprint: str) -> tuple[bytes, int]:
    """Re-query until the answer carries ``fingerprint``; return body and stale count."""
    for stale in range(MAX_STALE + 1):
        reply = session.exchange(raw)
        if reply.status != 200:
            raise RuntimeError(f"fresh query answered {reply.status}: {reply.body[:200]!r}")
        if reply.headers.get("x-repro-fingerprint") == fingerprint:
            return reply.body, stale
    raise RuntimeError(f"still stale after {MAX_STALE} re-queries")


_PROFILE_RAW = encode_request("/profile", PROFILE_QUERY)
_KPI_RAW = encode_request("/kpi", KPI_QUERY)
_CUBE_RAW = encode_request("/cube/aggregate", CUBE_QUERY)
_RELOAD_RAW = encode_request("/reload", {"name": STORE_NAME})


def _run_op(gate: _Gate, connector: FeedConnector, cursor: str, store: Path, session: HttpSession,
            tracer, op: int) -> _Cycle:
    """One batch from the feed to fresh dashboards, one span per layer call."""
    tmp = store.with_name(store.name + ".tmp")
    with tracer.span("op", op=op):
        with tracer.span("feeds.fetch"):
            rows = next(connector.pages(since=cursor), [])
        with tracer.span("feeds.append"):
            merged = gate.dataset.append_rows(rows)
        with tracer.span("feeds.refresh"):
            gate.latest_profile = gate.profile.refresh(merged)
            gate.kpis.refresh(merged)
        with tracer.span("store.rewrite"):
            merged.save(tmp)
            os.replace(tmp, store)
        with tracer.span("serve.reload"):
            reload = json.loads(session.exchange(_RELOAD_RAW).body)
            fingerprint = reload["snapshot"]["fingerprint"]
        with tracer.span("serve.fresh.profile"):
            served_profile, stale_profile = _fresh(session, _PROFILE_RAW, fingerprint)
        with tracer.span("serve.fresh.kpi"):
            _, stale_kpi = _fresh(session, _KPI_RAW, fingerprint)
        with tracer.span("serve.fresh.cube"):
            _, stale_cube = _fresh(session, _CUBE_RAW, fingerprint)
    if not reload["changed"]:
        raise RuntimeError("the reload did not change the served snapshot")
    gate.dataset = merged
    return _Cycle(len(rows), store.stat().st_size, stale_profile + stale_kpi + stale_cube, served_profile)


def run_phase(inputs: Inputs, tracer=NULL_TRACER) -> Phase:
    """Serve a fresh copy of the base, ingest every batch, then check the final store."""
    phase = Phase()
    store = inputs.workdir / f"{STORE_NAME}.rps"
    server = ServerProcess(Path(__file__).resolve().parent.parent / "src",
                           ["--store", str(store), "--cache-entries", "64"])
    connector = FeedConnector(FixtureFeed(inputs.feed, cursor_field="datum"),
                              page_size=inputs.sizes.batch_rows)
    connector.feed.page(0, 1)  # read the fixture files before anything is timed
    gate = None
    cycles: list[_Cycle] = []
    try:
        for trial in range(inputs.sizes.setup_repeats):
            if trial:
                server.stop()
                gate.close()
            shutil.copyfile(inputs.base, store)
            with tracer.span("serve.startup"):
                launch = server.start()
            with tracer.span("feeds.seed"):
                start = time.perf_counter()
                gate = _Gate(store)
                phase.setup.append(launch + time.perf_counter() - start)
        cursor = _datum(-1)
        phase_start = time.perf_counter()
        phase.attempted = inputs.cycles
        with HttpSession(server.port) as session:
            for batch in range(inputs.sizes.warmup_cycles + inputs.cycles):
                timed = batch >= inputs.sizes.warmup_cycles
                if batch == inputs.sizes.warmup_cycles:
                    phase_start = time.perf_counter()
                start = time.perf_counter()
                try:
                    cycle = _run_op(gate, connector, cursor, store, session,
                                    tracer if timed else NULL_TRACER, batch)
                except Exception:  # stop feeding: later batches would build on a broken state
                    traceback.print_exc(file=sys.stderr)
                    break
                if timed:
                    phase.latencies.append(time.perf_counter() - start)
                cycles.append(cycle)
                cursor = _datum(batch)
        phase.elapsed = time.perf_counter() - phase_start
        phase.failed = phase.attempted - len(phase.latencies)  # the failed batch and every one after it
        phase.peak_rss_mb = server.peak_rss_mb() + own_peak_rss_mb()
        phase.mismatches = _check(inputs, store, gate, cycles)
    finally:
        server.stop()
        if gate is not None:
            gate.close()
    phase.work = {
        "rows_per_cycle": [c.rows for c in cycles],
        "bytes_written": [c.bytes_written for c in cycles],
        "stale_answers": sum(c.stale for c in cycles),
        "incremental_criteria": gate.profile.incremental_criteria,
    }
    if tracer.enabled:
        phase.spans = tracer.spans
        phase.layers = _layer_metrics(tracer.spans, inputs, cycles, gate)
    return phase


def _check(inputs: Inputs, store: Path, gate: _Gate, cycles: list[_Cycle]) -> list[str]:
    """Served bytes, gate profile and row count of the final store."""
    problems = []
    sizes = inputs.sizes
    expected_rows = sizes.base_rows + (sizes.warmup_cycles + inputs.cycles) * sizes.batch_rows
    if gate.latest_profile is None or (
        profile_bytes(gate.latest_profile) != profile_bytes(measure_quality(gate.dataset, GATE_CRITERIA))
    ):
        problems.append("the gate's incremental profile differs from measure_quality on the merged data")
    final = open_dataset(store)
    try:
        if final.n_rows != expected_rows:
            problems.append(f"final store holds {final.n_rows} rows, expected {expected_rows}")
        direct = encode_response(evaluate("/profile", final, PROFILE_QUERY))
        if not cycles or direct != cycles[-1].served_profile:
            problems.append("served /profile differs from the direct call on the final store")
    finally:
        final.close()
    return problems


def _layer_metrics(spans, inputs: Inputs, cycles: list[_Cycle], gate: _Gate) -> dict[str, float]:
    """The feed_ingest per-layer metrics from a traced phase."""
    layers = layer_ms(spans)
    layers["serve.startup_s"] = root_medians(spans)["serve.startup"]
    timed = cycles[inputs.sizes.warmup_cycles:]
    delta_bytes = inputs.batch_bytes[inputs.sizes.warmup_cycles:]
    if timed:
        layers["store.write_amplification"] = float(
            np.median([c.bytes_written / size for c, size in zip(timed, delta_bytes)])
        )
    layers["feeds.incremental_share"] = len(gate.profile.incremental_criteria) / len(GATE_CRITERIA)
    return layers
