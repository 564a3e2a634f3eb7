"""BENCH-PERF-STORE — memory-mapped store open vs cold in-memory encode.

The persistence tier (:mod:`repro.store`) promises two things: opening a
saved store file costs O(metadata) instead of O(cells) — the columns' codes
and values and the graph's index orders come back as zero-copy memory maps,
so no cell is coerced or coded again — and everything computed on them is
**bit-identical** to a cold in-memory encode of the same dataset or graph.
Two cases, each timing the cold path first:

``dataset``
    Cold path (build every column from its raw cells — coercing and coding
    them — then encode every numeric/code/missing/normalised view) vs
    ``repro.store.open_dataset`` plus touching the same views, at ≥1M cells.
    The open skips the coercing and coding; the first touch pays, per coded
    column, one ``float()`` and one normalisation per level and a gather by
    code (none when no level parses as a float, as here).  Identity covers
    the views as raw bytes, the quality profile and a cube roll-up.
``graph``
    Cold path (intern the columnar snapshot and build all three index
    orderings and block tables) vs ``repro.store.open_graph`` plus building
    the block tables from the mapped orderings.  Identity covers the
    orderings and block tables as raw bytes and a vectorized ``rdf:type``
    select.

``benchmarks/_harness.py`` runs it, records ``BENCH_perf_store.json`` and
guards it with ``--quick``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from collections.abc import Callable
from pathlib import Path

import numpy as np

from repro.bi import Cube, Dimension, Measure
from repro.datasets import make_classification_dataset
from repro.lod.publish import publish_dataset
from repro.lod.query import TriplePattern, Variable, select
from repro.lod.vocabulary import RDF
from repro.quality import measure_quality
from repro.store import open_dataset, open_graph, save_dataset, save_graph
from repro.tabular.dataset import Column, ColumnType, Dataset
from repro.tabular.encoded import encode_dataset

try:
    from benchmarks import _harness
except ModuleNotFoundError:  # run as a script
    import _harness

#: 150k rows x 8 columns = 1.2M cells; the graph has ~7 triples per row.
FULL = {"rows=150000": dict(dataset_rows=150_000, graph_rows=4_000, repeats=2)}
QUICK = {"rows=20000": dict(dataset_rows=20_000, graph_rows=600, repeats=3)}
GUARDED = ("dataset", "graph")
DATASET_NUMERIC = 5
DATASET_CATEGORICAL = 3


def _touch_dataset_views(dataset) -> None:
    """Materialise every encoded view (the startup work being measured).

    With the column build before it, this is the work the cold path pays
    per process.  The store open skips the column build, coercion and
    first-seen code assignment; on an opened store this pays, per coded
    column, one ``float()`` and one normalisation per level and a gather by
    code (none when no level parses as a float).
    """
    encoded = encode_dataset(dataset)
    for column in dataset.columns:
        name = column.name
        encoded.numeric_view(name)
        if column.ctype != ColumnType.NUMERIC:
            encoded.codes_view(name)
            encoded.normalised_levels(name)


def _touch_graph_orders(graph) -> None:
    """Materialise the columnar snapshot's orders and block tables."""
    columnar = graph.store.columnar()
    for index in ("spo", "pos", "osp"):
        columnar.order(index)
        columnar._block_table(index)


def _graph_order_bytes(graph) -> dict[str, bytes]:
    """The columnar orders and block tables as raw comparable bytes."""
    columnar = graph.store.columnar()
    views: dict[str, bytes] = {}
    for index in ("spo", "pos", "osp"):
        for label, array in zip("spo", columnar.order(index)):
            views[f"{index}.{label}"] = np.asarray(array).tobytes()
        keys, starts, ends = columnar._block_table(index)
        views[f"{index}.blocks"] = b"".join(np.asarray(a).tobytes() for a in (keys, starts, ends))
    return views


def _select_signature(graph) -> bytes:
    """A byte signature of a vectorized rdf:type select over ``graph``."""
    bindings = select(graph, [TriplePattern(Variable("s"), RDF.type, Variable("t"))])
    return "\x00".join(f"{row['s']}|{row['t']}" for row in bindings).encode()


def _profile_signature(dataset) -> str:
    """The quality profile as canonical JSON (the hot-path parity witness)."""
    return json.dumps(measure_quality(dataset).to_json_dict(), sort_keys=True)


def _cube_rollup(dataset):
    """A single-dimension cube roll-up on the first categorical column."""
    categorical = next(c.name for c in dataset.columns if c.ctype != ColumnType.NUMERIC)
    numeric = next(c.name for c in dataset.columns if c.ctype == ColumnType.NUMERIC)
    cube = Cube(
        dataset,
        dimensions=[Dimension(categorical, (categorical,))],
        measures=[Measure("mean_value", numeric, "mean"), Measure("rows", numeric, "count")],
    )
    return cube.rollup(categorical)


def _cold_dataset(dataset) -> Callable[[], None]:
    """The dataset's cold path: build each column from its raw cells, then touch the views."""
    cells = dataset.to_dict()

    def cold():
        columns = [Column(c.name, cells[c.name], ctype=c.ctype, role=c.role) for c in dataset.columns]
        _touch_dataset_views(Dataset(columns, name=dataset.name))

    return cold


def _cold_graph(graph) -> Callable[[], None]:
    """The graph's cold path: forget the columnar snapshot, then rebuild its orders."""

    def cold():
        _harness.drop_caches(graph)
        _touch_graph_orders(graph)

    return cold


def _open_vs_cold(cold, path: Path, open_payload, touch, repeats: int):
    """Time ``cold()``, then ``open_payload(path)`` plus ``touch`` of the opened payload.

    Every opened payload stays alive until the timing ends, so no run pays
    for unmapping the one before it.
    """
    opened: list = []

    def open_and_touch():
        opened.append(open_payload(path))
        touch(opened[-1])

    _, cold_s = _harness.timed(cold, repeats)
    _, open_s = _harness.timed(open_and_touch, repeats)
    return opened[-1], open_s, cold_s


def cases(dataset_rows: int, graph_rows: int, repeats: int) -> dict:
    """Save, then time cold encode vs store open for a dataset and a graph."""
    with tempfile.TemporaryDirectory(prefix="bench-store-") as tmp:
        dataset = make_classification_dataset(
            n_rows=dataset_rows, n_numeric=DATASET_NUMERIC, n_categorical=DATASET_CATEGORICAL, seed=0
        )
        path = save_dataset(dataset, Path(tmp) / "dataset.rps")
        opened, open_s, cold_s = _open_vs_cold(
            _cold_dataset(dataset), path, open_dataset, _touch_dataset_views, repeats
        )
        results = {
            "dataset": _harness.case(
                open_s,
                cold_s,
                _harness.encoded_bytes(dataset) == _harness.encoded_bytes(opened)
                and _profile_signature(dataset) == _profile_signature(opened)
                and _cube_rollup(dataset) == _cube_rollup(opened),
                n_cells=dataset_rows * (DATASET_NUMERIC + DATASET_CATEGORICAL),
            )
        }
        graph = publish_dataset(
            make_classification_dataset(n_rows=graph_rows, n_numeric=2, n_categorical=2, seed=0)
        )
        path = save_graph(graph, Path(tmp) / "graph.rps")
        opened, open_s, cold_s = _open_vs_cold(
            _cold_graph(graph), path, open_graph, _touch_graph_orders, repeats
        )
        results["graph"] = _harness.case(
            open_s,
            cold_s,
            _graph_order_bytes(graph) == _graph_order_bytes(opened)
            and _select_signature(graph) == _select_signature(opened),
            n_triples=len(graph),
        )
    return results


def check(sizes: dict) -> None:
    """Store open must beat the cold encode ≥20× for the dataset and at all for the graph."""
    dataset, graph = sizes["rows=150000"]["dataset"], sizes["rows=150000"]["graph"]
    assert dataset["speedup"] >= 20.0, f"dataset open speedup is {dataset['speedup']:.1f}x, below 20x"
    assert graph["speedup"] > 1.0, f"graph open speedup is {graph['speedup']:.1f}x, not above 1x"


if __name__ == "__main__":
    sys.exit(_harness.main(sys.modules[__name__]))
