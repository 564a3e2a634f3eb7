"""Round-trip and bit-identicality tests for the binary persistence tier.

The contract under test (docs/encoded-core.md §5, docs/store-format.md):
reopening a saved store file yields memory-mapped views **bit-identical**
to a cold in-memory encode of the same payload, every hot path computes
identical results on them, the mapped arrays are read-only, and opening
never mutates the file.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from parity import on_reference

from repro.bi import Cube, Dimension, Measure
from repro.datasets import service_requests
from repro.lod.graph import Graph
from repro.lod.publish import publish_dataset
from repro.lod.query import TriplePattern, Variable, count, select
from repro.lod.terms import Literal, Triple
from repro.lod.vocabulary import Namespace, RDF
from repro.mining import NaiveBayesClassifier, cross_validate
from repro.quality import measure_quality
from repro.store import (
    FORMAT_VERSION,
    StoreFile,
    inspect_store,
    open_dataset,
    open_graph,
    save_dataset,
    save_graph,
)
from repro.tabular.dataset import Column, ColumnType, Dataset
from repro.tabular.encoded import encode_dataset
from repro.tabular.transforms import group_by

EX = Namespace("http://example.org/")


def _source(n_rows=150):
    return service_requests(n_rows=n_rows, dirty=True)


def _view_bytes(dataset):
    """Every encoded view of ``dataset`` as raw bytes, keyed by view name."""
    encoded = encode_dataset(dataset)
    views = {}
    for column in dataset.columns:
        name = column.name
        values, missing = encoded.numeric_view(name)
        views[f"{name}.num"] = values.tobytes()
        views[f"{name}.nmk"] = missing.tobytes()
        if column.ctype != ColumnType.NUMERIC:
            codes, vocabulary, index = encoded.codes_view(name)
            views[f"{name}.cod"] = codes.tobytes()
            views[f"{name}.lev"] = tuple(vocabulary)
            views[f"{name}.idx"] = tuple(index.items())
            views[f"{name}.nrm"] = tuple(encoded.normalised_levels(name))
    return views


# -- dataset round trip -------------------------------------------------------


def test_dataset_roundtrip_views_bit_identical(tmp_path):
    dataset = _source()
    path = save_dataset(dataset, tmp_path / "sr.rps")
    opened = open_dataset(path)
    assert opened.n_rows == dataset.n_rows
    assert opened.column_names == dataset.column_names
    assert opened == dataset
    assert _view_bytes(opened) == _view_bytes(dataset)


def test_dataset_roundtrip_cells_and_schema(tmp_path):
    dataset = _source()
    opened = open_dataset(save_dataset(dataset, tmp_path / "sr.rps"))
    for column in dataset.columns:
        reopened = opened[column.name]
        assert reopened.ctype == column.ctype
        assert reopened.role == column.role
        cells = column.tolist()
        recells = reopened.tolist()
        assert len(cells) == len(recells)
        for a, b in zip(cells, recells):
            if isinstance(a, float) and np.isnan(a):
                assert isinstance(b, float) and np.isnan(b)
            else:
                assert a == b and type(a) is type(b)


def test_dataset_open_method_and_verify(tmp_path):
    dataset = _source(80)
    path = dataset.save(tmp_path / "sr.rps")
    opened = Dataset.open(path, verify=True)
    assert opened == dataset


# -- hot-path parity ----------------------------------------------------------


def test_profile_identical_on_reopened_dataset(tmp_path):
    dataset = _source().set_target("resolved_late")
    opened = open_dataset(save_dataset(dataset, tmp_path / "sr.rps"))
    before = json.dumps(measure_quality(dataset).to_json_dict(), sort_keys=True)
    after = json.dumps(measure_quality(opened).to_json_dict(), sort_keys=True)
    assert before == after


def test_group_by_and_cube_identical_on_reopened_dataset(tmp_path):
    dataset = _source()
    opened = open_dataset(save_dataset(dataset, tmp_path / "sr.rps"))
    aggregations = {
        "mean_days": ("resolution_days", "mean"),
        "total_backlog": ("open_backlog", "sum"),
        "n": ("resolution_days", "count"),
    }
    assert group_by(opened, ["district"], aggregations) == group_by(
        dataset, ["district"], aggregations
    )

    def cube_of(ds):
        return Cube(
            ds,
            dimensions=[Dimension("district", ("district",))],
            measures=[Measure("mean_days", "resolution_days", "mean")],
        ).rollup("district")

    assert cube_of(opened) == cube_of(dataset)


def test_cube_grand_total_on_reopened_dataset(tmp_path):
    """Regression: ``Cube.aggregate(None)`` built its ``__all__`` pseudo-column
    with ``type(columns[0])``, which blew up on memory-mapped coded columns."""
    dataset = _source()
    opened = open_dataset(save_dataset(dataset, tmp_path / "sr.rps"))

    def total_of(ds):
        return Cube(
            ds,
            dimensions=[Dimension("district", ("district",))],
            measures=[Measure("mean_days", "resolution_days", "mean")],
        ).aggregate()

    assert total_of(opened) == total_of(dataset)


def test_cross_validation_identical_on_reopened_dataset(tmp_path):
    dataset = _source(120).set_target("resolved_late")
    opened = open_dataset(save_dataset(dataset, tmp_path / "sr.rps"))
    opened = opened.set_target("resolved_late")
    before = cross_validate(NaiveBayesClassifier, dataset, k=3, seed=0)
    after = cross_validate(NaiveBayesClassifier, opened, k=3, seed=0)
    assert before.fold_accuracies == after.fold_accuracies
    assert before.accuracy == after.accuracy
    assert before.macro_f1 == after.macro_f1


# -- graph round trip ---------------------------------------------------------


def test_graph_roundtrip_is_order_identical(tmp_path):
    graph = publish_dataset(_source(60))
    path = save_graph(graph, tmp_path / "g.rps")
    opened = open_graph(path)
    assert len(opened) == len(graph)
    assert opened.identifier == graph.identifier
    assert opened.prefixes.keys() == graph.prefixes.keys()
    # reference-tier iteration order replays exactly
    assert [t.n3() for t in opened] == [t.n3() for t in graph]
    for s, p, o in [(None, RDF.type, None), (None, None, None)]:
        assert [t.n3() for t in opened.triples(s, p, o)] == [
            t.n3() for t in graph.triples(s, p, o)
        ]


def test_graph_select_identical_both_tiers(tmp_path):
    graph = publish_dataset(_source(60))
    opened = open_graph(save_graph(graph, tmp_path / "g.rps"))
    patterns = [TriplePattern(Variable("s"), RDF.type, Variable("t"))]
    assert select(opened, patterns) == select(graph, patterns)
    assert on_reference(select, opened, patterns) == on_reference(select, graph, patterns)
    assert count(opened, patterns) == count(graph, patterns)


def test_graph_open_method_and_mutation(tmp_path):
    graph = publish_dataset(_source(40))
    path = graph.save(tmp_path / "g.rps")
    snapshot = path.read_bytes()
    opened = Graph.open(path, verify=True)
    victim = next(iter(opened))
    assert opened.remove(victim)
    assert victim not in opened
    assert len(opened) == len(graph) - 1
    opened.add_triple(victim)
    assert victim in opened
    opened.add(EX.extra, RDF.type, EX.Thing)
    assert len(opened) == len(graph) + 1
    # copy-on-write: mutating the reopened graph never touches the file
    assert path.read_bytes() == snapshot


# -- no-mutation snapshot -----------------------------------------------------


def test_open_and_use_never_mutates_the_file(tmp_path):
    dataset = _source().set_target("resolved_late")
    path = save_dataset(dataset, tmp_path / "sr.rps")
    snapshot = path.read_bytes()
    opened = open_dataset(path)
    measure_quality(opened)
    group_by(opened, ["district"], {"n": ("resolution_days", "count")})
    opened.take([0, 2, 4])
    assert path.read_bytes() == snapshot

    graph = publish_dataset(dataset)
    graph_path = save_graph(graph, tmp_path / "g.rps")
    graph_snapshot = graph_path.read_bytes()
    opened_graph = open_graph(graph_path)
    select(opened_graph, [TriplePattern(Variable("s"), RDF.type, Variable("t"))])
    list(opened_graph)
    assert graph_path.read_bytes() == graph_snapshot


def test_memmap_views_are_read_only(tmp_path):
    dataset = _source(50)
    opened = open_dataset(save_dataset(dataset, tmp_path / "sr.rps"))
    encoded = encode_dataset(opened)
    values, _ = encoded.numeric_view("resolution_days")
    codes, _, _ = encoded.codes_view("district")
    cat_values, cat_missing = encoded.numeric_view("district")
    for array in (values, codes, cat_values, cat_missing):
        with pytest.raises(ValueError):
            np.asarray(array)[0] = 0


# -- edge cases ---------------------------------------------------------------


def test_roundtrip_boolean_datetime_unicode_and_all_missing(tmp_path):
    dataset = Dataset(
        [
            Column("flag", [True, False, None, True], ctype=ColumnType.BOOLEAN),
            Column(
                "when",
                ["2024-01-01", "2024-06-30", None, "2025-02-28"],
                ctype=ColumnType.DATETIME,
            ),
            Column("city", ["oslo", "bønn–æøå", "合肥", None], ctype=ColumnType.CATEGORICAL),
            Column("empty", [None, None, None, None], ctype=ColumnType.NUMERIC),
            Column("gone", [None, None, None, None], ctype=ColumnType.CATEGORICAL),
        ],
        name="edge",
    )
    opened = open_dataset(save_dataset(dataset, tmp_path / "edge.rps"))
    assert opened == dataset
    assert _view_bytes(opened) == _view_bytes(dataset)
    assert opened["flag"].tolist()[:2] == [True, False]
    assert opened["flag"].tolist()[2] is None
    assert opened["city"].tolist()[1] == "bønn–æøå"


def test_roundtrip_single_row_and_empty_graph(tmp_path):
    dataset = Dataset([Column("x", [1.0])], name="one")
    assert open_dataset(save_dataset(dataset, tmp_path / "one.rps")) == dataset

    graph = Graph("http://example.org/empty")
    opened = open_graph(save_graph(graph, tmp_path / "empty.rps"))
    assert len(opened) == 0
    assert list(opened) == []
    opened.add(EX.s, RDF.type, EX.T)
    assert len(opened) == 1


def test_store_file_inspection_surface(tmp_path):
    dataset = _source(30)
    path = save_dataset(dataset, tmp_path / "sr.rps")
    store_file = StoreFile(path)
    assert "meta" in store_file.sections
    assert store_file.verify() == {}
    from repro.store import inspect_store

    info = inspect_store(path, verify=True)
    assert info["payload"] == "dataset"
    assert not info["damaged"]
    json.dumps(info)  # must stay JSON-serialisable


# -- format versions ----------------------------------------------------------


def test_version_2_writes_only_primaries(tmp_path, tiny_store_v1):
    tiny, _ = tiny_store_v1
    info = inspect_store(save_dataset(tiny, tmp_path / "tiny.rps"))
    assert info["format_version"] == FORMAT_VERSION == 2
    assert (info["file_length"], info["n_sections"]) == (736, 4)  # docs/store-format.md §6
    dataset = _source()
    sections = StoreFile(save_dataset(dataset, tmp_path / "sr.rps")).sections
    expected = {"meta"}
    for i, column in enumerate(dataset.columns):
        expected |= {f"c{i}.val"} if column.is_numeric() else {f"c{i}.cod", f"c{i}.lev"}
    assert set(sections) == expected
    assert not any(section.derived for section in sections.values())
    graph_sections = StoreFile(save_graph(publish_dataset(_source(20)), tmp_path / "g.rps")).sections
    assert "spo.s" in graph_sections
    assert not [name for name in graph_sections if name.rsplit(".", 1)[-1] in ("bk", "bs", "be")]


def test_version_1_dataset_opens_like_a_cold_encode(tiny_store_v1):
    dataset, path = tiny_store_v1
    assert path.stat().st_size == 1248
    assert inspect_store(path)["format_version"] == 1
    opened = open_dataset(path, verify=True)
    assert opened == dataset
    assert opened["price"].tolist()[::2] == [1.5, 4.0] and opened["city"].tolist() == ["oslo", "bonn", None]
    assert _view_bytes(opened) == _view_bytes(dataset)
    opened.close()


def test_ingest_rewrites_a_version_1_store_as_version_2(tmp_path, tiny_store_v1):
    from repro.cli.main import main

    dataset, path = tiny_store_v1
    feed = tmp_path / "feed.jsonl"
    feed.write_text('{"price": 2.5, "city": "rome"}\n')
    assert main(["ingest", str(feed), str(path), "--cursor-field", "price"]) == 0
    assert inspect_store(path)["format_version"] == FORMAT_VERSION
    opened = open_dataset(path)
    assert opened == dataset.append_rows([{"price": 2.5, "city": "rome"}])
    opened.close()


def test_version_1_graph_opens_order_identical(tiny_graph_store_v1):
    graph, path = tiny_graph_store_v1
    assert inspect_store(path)["format_version"] == 1
    opened = open_graph(path, verify=True)
    assert [t.n3() for t in opened] == [t.n3() for t in graph]
    for index in ("spo", "pos", "osp"):
        saved, built = opened.store.columnar(), graph.store.columnar()
        assert [a.tobytes() for a in saved.order(index)] == [a.tobytes() for a in built.order(index)]
        assert [a.tobytes() for a in saved._block_table(index)] == [a.tobytes() for a in built._block_table(index)]
    patterns = [TriplePattern(Variable("s"), RDF.type, Variable("t"))]
    assert select(opened, patterns) == select(graph, patterns)
    assert on_reference(select, opened, patterns) == on_reference(select, graph, patterns)
    opened.close()


# -- property suite -----------------------------------------------------------

_cell_numbers = st.one_of(
    st.none(),
    st.integers(min_value=-10_000, max_value=10_000),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
)
_cell_categories = st.one_of(
    st.none(),
    st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=0x2F00), max_size=8
    ),
)


@st.composite
def mixed_datasets(draw, min_rows: int = 1, max_rows: int = 25):
    """Random datasets with numeric, categorical and boolean columns."""
    n = draw(st.integers(min_value=min_rows, max_value=max_rows))
    numbers = draw(st.lists(_cell_numbers, min_size=n, max_size=n))
    categories = draw(st.lists(_cell_categories, min_size=n, max_size=n))
    flags = draw(st.lists(st.one_of(st.none(), st.booleans()), min_size=n, max_size=n))
    return Dataset(
        [
            Column("value", numbers, ctype=ColumnType.NUMERIC),
            Column("zone", categories, ctype=ColumnType.CATEGORICAL),
            Column("flag", flags, ctype=ColumnType.BOOLEAN),
        ],
        name="generated",
    )


@given(mixed_datasets())
@settings(max_examples=30, deadline=None)
def test_property_dataset_roundtrip(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("store") / "p.rps"
    opened = open_dataset(save_dataset(dataset, path))
    assert opened == dataset
    assert _view_bytes(opened) == _view_bytes(dataset)


_subjects = st.sampled_from([EX[f"s{i}"] for i in range(6)])
_predicates = st.sampled_from([EX[f"p{i}"] for i in range(4)])
_literal_values = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=20),
)
_objects = st.one_of(_subjects, _literal_values.map(Literal))
_triple_lists = st.lists(st.builds(Triple, _subjects, _predicates, _objects), max_size=50)


@given(_triple_lists)
@settings(max_examples=30, deadline=None)
def test_property_graph_roundtrip(tmp_path_factory, triples):
    graph = Graph("http://example.org/prop")
    for triple in triples:
        graph.add_triple(triple)
    path = tmp_path_factory.mktemp("store") / "p.rps"
    opened = open_graph(save_graph(graph, path))
    # order-sensitive equality; terms compare with the library's ``==`` (the
    # interner conflates ==-equal literals like 0 and 0.0 by design)
    assert list(opened) == list(graph)
    patterns = [TriplePattern(Variable("s"), Variable("p"), Variable("o"))]
    assert select(opened, patterns) == select(graph, patterns)
    assert on_reference(select, opened, patterns) == on_reference(select, graph, patterns)


# -- CLI smoke ----------------------------------------------------------------


def test_cli_store_roundtrip(tmp_path, capsys):
    from repro.cli.main import main
    from repro.tabular.io_csv import write_csv

    csv_path = write_csv(_source(40), tmp_path / "sr.csv")
    store_path = tmp_path / "sr.rps"
    assert main(["store", "save", str(csv_path), str(store_path)]) == 0
    assert main(["store", "open", str(store_path), "--head", "2"]) == 0
    assert main(["store", "inspect", str(store_path), "--verify"]) == 0
    out = capsys.readouterr().out
    assert "dataset" in out
    assert "c0" in out


def test_cli_store_graph_roundtrip(tmp_path, capsys):
    from repro.cli.main import main
    from repro.lod.serialization import to_ntriples

    graph = publish_dataset(_source(20))
    nt_path = tmp_path / "g.nt"
    to_ntriples(graph, nt_path)
    store_path = tmp_path / "g.rps"
    assert main(["store", "save", str(nt_path), str(store_path)]) == 0
    assert main(["store", "open", str(store_path), "--head", "1", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "triples" in out
