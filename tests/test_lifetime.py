"""Lifetime tests: superseded datasets, encodings and graphs are freed at once.

A dataset owns its :class:`~repro.tabular.encoded.EncodedDataset`, and a
triple store owns its :class:`~repro.lod.triples.ColumnarTriples` snapshot;
neither cached view holds its owner strongly.  So reference counting frees a
dropped dataset or graph, arrays included, as soon as its last holder lets
go.  Every test here runs with the cyclic garbage collector disabled: a
reference cycle would keep the object alive and fail the test.

The allocator test at the end drives a ``repro serve`` subprocess through
append → rewrite → ``/reload`` → fresh query cycles and counts the server's
minor page faults: the CLI pins glibc's ``mallopt`` thresholds, so the heap
that each reload frees is reused by the next query instead of being returned
to the kernel and faulted back in.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import re
import signal
import subprocess
import sys
import tracemalloc
import urllib.request
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.datasets import service_requests
from repro.exceptions import LODError
from repro.lod import parse_ntriples, to_ntriples
from repro.lod.publish import publish_dataset
from repro.quality import measure_quality
from repro.quality.criteria import CRITERIA_REGISTRY
from repro.serve.server import ReproApp
from repro.store import open_dataset, open_graph
from repro.tabular.dataset import ColumnType, Dataset
from repro.tabular.encoded import encode_dataset

CATEGORICAL = ["district", "category"]
NUMERIC = ["amount", "rate"]
CTYPES = {"district": ColumnType.CATEGORICAL, "category": ColumnType.CATEGORICAL,
          "amount": ColumnType.NUMERIC, "rate": ColumnType.NUMERIC}


@pytest.fixture
def no_gc():
    """Run the test with the cyclic garbage collector off."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _columns(seed: int, n: int) -> dict[str, list]:
    """``n`` budget rows with gaps in a key and a measure."""
    rng = np.random.default_rng(seed)
    district = [None if gap else f"district_{i:02d}"
                for gap, i in zip(rng.random(n) < 0.05, rng.integers(20, size=n))]
    amount = np.round(rng.uniform(1_000, 500_000, size=n), 2)
    amount[rng.random(n) < 0.05] = np.nan
    return {
        "district": district,
        "category": [("transport", "health", "parks", "it")[i] for i in rng.integers(4, size=n)],
        "amount": [None if value != value else value for value in amount.tolist()],
        "rate": np.round(rng.uniform(0.0, 1.2, size=n), 4).tolist(),
    }


def _table(seed: int, n: int) -> Dataset:
    return Dataset.from_dict(_columns(seed, n), name="budget", ctypes=CTYPES)


def _rows(seed: int, n: int) -> list[dict]:
    columns = _columns(seed, n)
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


def _warm(dataset: Dataset) -> Dataset:
    """Cache the views an ingest job's gate builds, so appends extend them."""
    encoded = encode_dataset(dataset)
    for name in CATEGORICAL:
        encoded.codes_view(name)
        encoded.normalised_levels(name)
    for name in NUMERIC:
        encoded.numeric_view(name)
    return dataset


def _same(a, b) -> bool:
    """Bit-exact equality of views: arrays by dtype and bytes, the rest by ``==``."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


def _views(encoded) -> list:
    """Every view an encoding answers, over present and absent columns."""
    views = [encoded.n_rows]
    for name in CATEGORICAL + NUMERIC + ["absent"]:
        views += [encoded.numeric_view(name), encoded.codes_view(name),
                  encoded.missing_view(name), encoded.group_codes_view(name),
                  encoded.normalised_levels(name), encoded.normalised_codes_view(name)]
    views.append(encoded.group_keys(CATEGORICAL + NUMERIC))
    views.append(encode_dataset(encoded.take(np.arange(0, encoded.n_rows, 3))).codes_view("district"))
    return views


def _assert_same_dataset(a: Dataset, b: Dataset) -> None:
    assert a.name == b.name and a == b
    for name in a.column_names:
        assert (a[name].ctype, a[name].role) == (b[name].ctype, b[name].role)
        if a[name].is_numeric():
            assert _same(a[name].values, b[name].values)


def _assert_answers_alone(encoded, reference: Dataset) -> None:
    """``encoded`` answers every view, criterion and ``.dataset`` as ``reference``'s encoding does."""
    live = reference.copy()
    fresh = encode_dataset(live)
    assert all(map(_same, _views(encoded), _views(fresh)))
    for criterion in CRITERIA_REGISTRY.values():
        # No facade is held here, so each read of ``encoded.dataset`` builds one.
        assert repr(criterion().measure_encoded(encoded)) == repr(criterion().measure_encoded(fresh))
    facade = encoded.dataset
    assert encode_dataset(facade) is encoded
    _assert_same_dataset(facade, reference)


# ---------------------------------------------------------------------------
# Datasets and their encodings
# ---------------------------------------------------------------------------

def test_superseded_append_result_is_freed_with_its_encoding(no_gc):
    base = _warm(_table(0, 4_000))
    base.append_rows(_rows(0, 500))  # lazy imports and the base's own caches
    delta_1, delta_2 = _rows(1, 500), _rows(2, 500)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        first = base.append_rows(delta_1)
        footprint = tracemalloc.get_traced_memory()[0] - before
        encoded = encode_dataset(first)
        assert encoded.codes_view("district")[0].size == 4_500  # seeded by the append
        arrays = [weakref.ref(encoded.numeric_view(name)[0]) for name in NUMERIC]
        arrays += [weakref.ref(encoded.codes_view(name)[0]) for name in CATEGORICAL]
        owner = weakref.ref(first)
        del encoded
        second = first.append_rows(delta_2)
        with_both = tracemalloc.get_traced_memory()[0]
        assert second.n_rows == 5_000
        del first
        del second
        freed = with_both - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert owner() is None
    assert all(array() is None for array in arrays)
    # ``second`` grows the buffers ``first`` ends, so the chain holds one copy
    # of the rows: ``second`` adds at most one batch's share of ``first``.
    assert with_both - before - footprint <= footprint * len(delta_2) / 4_500
    assert freed >= 0.8 * (with_both - before)


def test_encoding_of_a_dropped_copy_answers_alone(no_gc):
    reference = _table(3, 600)
    copy = reference.copy()
    encoded = encode_dataset(copy)
    owner = weakref.ref(copy)
    del copy
    assert owner() is None
    _assert_answers_alone(encoded, reference)


def test_take_fold_whose_parent_was_dropped_answers_alone(no_gc):
    parent = _table(4, 600)
    reference = parent.copy()
    indices = np.arange(0, 600, 2)
    fold = encode_dataset(parent).take(indices)
    encoded = encode_dataset(fold)
    owners = [weakref.ref(parent), weakref.ref(fold)]
    del parent, fold
    assert all(owner() is None for owner in owners)
    _assert_answers_alone(encoded, reference.take(indices))


def test_opened_store_encoding_answers_after_its_dataset_is_dropped(no_gc, tmp_path):
    reference = _table(5, 600)
    path = reference.save(tmp_path / "budget.rps")
    opened = open_dataset(path)
    encoded = encode_dataset(opened)
    owners = [weakref.ref(opened), weakref.ref(opened._store_file)]
    del opened
    assert all(owner() is None for owner in owners)
    # The memory-mapped views keep the map alive without the StoreFile.
    _assert_answers_alone(encoded, reference)


def test_append_loop_grows_by_one_batch_per_batch(no_gc):
    base_rows, batch, batches = 5_000, 200, 30
    _warm(_table(6, 500)).append_rows(_rows(6, 10))  # lazy imports
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        current = _warm(_table(6, base_rows))
        # One batch's share of the encoded base: its codes, values and views.
        per_batch = (tracemalloc.get_traced_memory()[0] - start) * batch / base_rows
        current = current.append_rows(_rows(7, batch))
        after_first = tracemalloc.get_traced_memory()[0]
        for i in range(1, batches):
            current = current.append_rows(_rows(7 + i, batch))
        growth = (tracemalloc.get_traced_memory()[0] - after_first) / (batches - 1)
    finally:
        tracemalloc.stop()
    assert current.n_rows == base_rows + batches * batch
    # The growth buffers double their capacity, so appends that regrow them
    # hold up to twice a batch's share of the base, which builds no cells;
    # keeping each superseded dataset would add a whole merged one (26+ batches).
    assert growth <= 2.5 * per_batch, (growth, per_batch)


# ---------------------------------------------------------------------------
# Graphs and their columnar snapshots
# ---------------------------------------------------------------------------

@pytest.fixture
def ntriples() -> str:
    return to_ntriples(publish_dataset(service_requests(n_rows=40)))


def test_parsed_graph_with_a_columnar_snapshot_is_freed(no_gc, ntriples):
    graph = parse_ntriples(ntriples)
    snapshot = graph.store.columnar()
    spo = snapshot.order("spo")
    owners = [weakref.ref(graph), weakref.ref(graph.store)]
    del graph
    assert all(owner() is None for owner in owners)
    # The orphaned snapshot keeps serving what it holds; it cannot build more.
    assert snapshot.order("spo") is spo
    with pytest.raises(LODError, match="stale"):
        snapshot.order("pos")


def test_opened_graph_is_freed_and_its_snapshot_keeps_every_order(no_gc, ntriples, tmp_path):
    path = parse_ntriples(ntriples).save(tmp_path / "graph.rps")
    graph = open_graph(path)
    snapshot = graph.store.columnar()
    orders = {index: snapshot.order(index) for index in ("spo", "pos", "osp")}
    owners = [weakref.ref(graph), weakref.ref(graph.store)]
    del graph
    assert all(owner() is None for owner in owners)
    assert all(snapshot.order(index) is order for index, order in orders.items())


# ---------------------------------------------------------------------------
# Serving: retired snapshots
# ---------------------------------------------------------------------------

@pytest.fixture
def app(tmp_path) -> ReproApp:
    path = tmp_path / "requests.rps"
    service_requests(n_rows=300, dirty=True).save(path)
    app = ReproApp()
    app.registry.publish("requests", path)
    return app


PROFILE = {"criteria": ["completeness", "balance", "duplication"]}


def test_reload_frees_the_retired_payload(no_gc, app):
    assert app.handle("POST", "/profile", PROFILE)[0] == 200
    payload = weakref.ref(app.registry.get("requests").payload)
    assert app.handle("POST", "/reload", {"name": "requests"})[0] == 200
    assert payload() is None


def test_a_lease_across_the_reload_keeps_the_payload_until_it_ends(no_gc, app):
    with app.registry.lease("requests") as snapshot:
        payload = weakref.ref(snapshot.payload)
        del snapshot
        assert app.handle("POST", "/reload", {"name": "requests"})[0] == 200
        assert payload() is not None
        assert measure_quality(payload(), PROFILE["criteria"]).dataset_name == "service_requests"
    assert payload() is None


def test_reload_frees_the_retired_payload_when_states_advance(no_gc, tmp_path):
    """Advanced query states move to the new payload and keep none of the retired one."""
    store = tmp_path / "budget.rps"
    current = _table(3, 2_000)
    current.save(store)
    app = ReproApp()
    app.registry.publish("budget", store)
    queries = [
        ("/profile", PROFILE),
        ("/kpi", {"kpis": [{"name": "avg_rate", "column": "rate", "target": 0.6}], "level": "district"}),
        ("/cube/aggregate", {"dimensions": ["district"], "measures": [{"column": "amount"}],
                             "levels": ["district"]}),
    ]
    try:
        for cycle in range(1, 5):
            for path, params in queries:
                assert app.handle("POST", path, params)[0] == 200
            payload = weakref.ref(app.registry.get("budget").payload)
            current = current.append_rows(_rows(10 + cycle, 200))
            tmp = store.with_name(store.name + ".tmp")
            current.save(tmp)
            os.replace(tmp, store)
            status, _, body = app.handle("POST", "/reload", {"name": "budget"})
            assert status == 200
            assert json.loads(body)["states_advanced"] == (len(queries) if cycle > 1 else 0)
            assert payload() is None
    finally:
        app.registry.close_all()


# ---------------------------------------------------------------------------
# The server's allocator pin
# ---------------------------------------------------------------------------

def _minor_faults(pid: int) -> int:
    """``minflt`` of process ``pid`` (field 10 of ``/proc/<pid>/stat``)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return int(fields[7])


#: Server minor faults allowed per reload cycle.  On a 2-vCPU VM with glibc
#: 2.36 this measured about 2,000 per cycle while superseded datasets waited
#: for the cyclic collector, about 2,500 once they were freed at once but
#: without the pin, and about 50 with both.
MAX_FAULTS_PER_CYCLE = 500


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="the allocator pin is glibc's mallopt",
)
def test_serve_reuses_the_heap_a_reload_frees(tmp_path):
    store = tmp_path / "budget.rps"
    current = _table(8, 50_000)
    current.save(store)
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--store", str(store), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        url = re.search(r"http://[\d.]+:\d+", process.stdout.readline()).group(0)

        def post(path: str, params: dict) -> None:
            request = urllib.request.Request(
                url + path, data=json.dumps(params).encode("utf-8"),
                headers={"Content-Type": "application/json"}, method="POST",
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                assert response.status == 200

        query = {"criteria": ["completeness", "consistency", "duplication", "balance", "dimensionality"]}
        post("/profile", query)
        faults = {}
        for cycle in range(1, 13):
            current = current.append_rows(_rows(8 + cycle, 1_000))
            tmp = store.with_name(store.name + ".tmp")
            current.save(tmp)
            os.replace(tmp, store)
            post("/reload", {"name": "budget"})
            post("/profile", query)
            faults[cycle] = _minor_faults(process.pid)
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
    per_cycle = (faults[12] - faults[4]) / 8
    assert per_cycle <= MAX_FAULTS_PER_CYCLE, per_cycle
