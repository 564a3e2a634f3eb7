"""Batch-vs-incremental equivalence harness for the ingestion tier (repro.feeds).

The incremental tier extends the library's two-tier protocol from *row vs
encoded* to *batch vs incremental*: the batch recompute over base+delta is
the reference, ``refresh(merged)`` is the delta tier, and the two must be
**bit-identical** — float bits, row order, column order, vocabulary order.
This harness pins that contract for appends (extended encodings vs cold
encodes), group-bys/cubes/KPI boards, quality profiles, the columnar triple
index, the chunked readers and feed connector, and the ``repro ingest`` CLI
end to end against a live server.
"""

from __future__ import annotations

import json
import struct
import sys
import threading
import tracemalloc
import urllib.request

import numpy as np
import pytest
from parity import assert_identical_datasets, bits

from repro.bi import KPI, Cube, Dimension, Measure, evaluate_kpis_by_level
from repro.exceptions import FeedError, FeedTransientError, OLAPError, ReproError, SchemaError
from repro.feeds import (
    FeedConnector,
    FixtureFeed,
    IncrementalGroupBy,
    IncrementalKPIBoard,
    IncrementalProfile,
    append_dataset,
    append_rows,
    appended_rows,
    incremental_cube_aggregate,
    read_csv_chunks,
    read_jsonl,
    read_jsonl_chunks,
)
import repro.feeds.incremental as incremental_module
import repro.quality.duplicates as duplicates_module
from repro.quality import measure_quality
from repro.quality.completeness import CompletenessCriterion
from repro.quality.duplicates import DuplicationCriterion
from repro.tabular import read_csv, write_csv
from repro.tabular import encoded as encoded_module
from repro.tabular.dataset import Column, ColumnRole, ColumnType, Dataset
from repro.tabular.encoded import _CACHE_ATTR, encode_dataset
from repro.tabular.transforms import group_by
from repro.tiers import reference

AGGREGATIONS = ("sum", "mean", "min", "max", "count", "std", "median")


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------

def _assert_identical_profiles(a, b):
    """Profiles compared through their canonical JSON form (float-exact repr)."""
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(b.to_json_dict(), sort_keys=True)


def _assert_identical_encodings(merged: Dataset, source: Dataset):
    """The merged dataset's cached views equal a cold encode of ``source``, bit for bit."""
    seeded = getattr(merged, _CACHE_ATTR, None)
    assert seeded is not None and seeded.dataset is merged
    cold = encode_dataset(source)
    for column in merged.columns:
        if column.is_numeric():
            values, missing = seeded.numeric_view(column.name)
            c_values, c_missing = cold.numeric_view(column.name)
            assert np.array_equal(values, c_values, equal_nan=True)
            assert np.array_equal(missing, c_missing)
        else:
            codes, vocabulary, index = seeded.codes_view(column.name)
            c_codes, c_vocab, c_index = cold.codes_view(column.name)
            assert vocabulary == c_vocab
            assert index == c_index
            assert np.array_equal(codes, c_codes)


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

def _base_rows(n: int, seed: int = 0, categories=("a", "b", "c")) -> list[dict]:
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        rows.append(
            {
                "region": None if rng.random() < 0.05 else str(rng.choice(list(categories))),
                "year": int(2020 + i % 3),
                "amount": None if rng.random() < 0.08 else float(np.round(rng.normal(100, 30), 3)),
                "score": float(np.round(rng.random(), 6)),
            }
        )
    return rows


def _base_dataset(n: int = 200, seed: int = 0, name: str = "budget") -> Dataset:
    return Dataset.from_rows(_base_rows(n, seed=seed), name=name)


def _delta_rows(n: int, seed: int = 99) -> list[dict]:
    # New category level, some all-missing cells, to stress vocabulary extension.
    rows = _base_rows(n, seed=seed, categories=("b", "dNEW", "a"))
    if rows:
        rows[0]["amount"] = None
        rows[0]["region"] = None
    return rows


def _cold(dataset: Dataset) -> Dataset:
    """A structurally identical dataset with no cached encoding (cold copy)."""
    clone = Dataset.from_rows(
        list(dataset.iter_rows()),
        name=dataset.name,
        ctypes={c.name: c.ctype for c in dataset.columns},
        roles={c.name: c.role for c in dataset.columns},
        column_order=dataset.column_names,
    )
    return clone


# ---------------------------------------------------------------------------
# Appends and encoded-view extension
# ---------------------------------------------------------------------------

class TestAppend:
    def test_append_rows_matches_cold_encode(self):
        base = _base_dataset(150)
        encode_dataset(base)
        merged = append_rows(base, _delta_rows(40))
        assert merged.n_rows == 190
        _assert_identical_encodings(merged, _cold(merged))

    def test_append_dataset_extends_instead_of_reencoding(self, monkeypatch):
        base = _base_dataset(120)
        base_encoded = encode_dataset(base)
        for column in base.columns:  # materialise the views the append must extend
            if column.is_numeric():
                base_encoded.numeric_view(column.name)
            else:
                base_encoded.codes_view(column.name)
        delta = Dataset.from_rows(
            _delta_rows(30),
            ctypes={c.name: c.ctype for c in base.columns},
            column_order=base.column_names,
            name="delta",
        )
        encode_dataset(delta)
        merged = append_dataset(base, delta)
        seeded = getattr(merged, _CACHE_ATTR)

        def _boom(*args):  # pragma: no cover - only runs on regression
            raise AssertionError(f"a view was recomputed after append: {args!r}")

        # The numeric views are seeded, the codes are the merged columns' own,
        # and no cell is read.
        monkeypatch.setattr(encoded_module, "_level_floats", _boom)
        monkeypatch.setattr(encoded_module, "_float_codes", _boom)
        monkeypatch.setattr(Column, "values", property(_boom))
        for column in merged.columns:
            if column.is_numeric():
                seeded.numeric_view(column.name)
            else:
                seeded.codes_view(column.name)

    def test_vocabulary_is_append_stable(self):
        base = _base_dataset(100)
        base_vocab = encode_dataset(base).codes_view("region")[1]
        merged = append_rows(base, _delta_rows(25))
        vocab = getattr(merged, _CACHE_ATTR).codes_view("region")[1]
        assert vocab[: len(base_vocab)] == base_vocab
        assert "dNEW" in vocab

    def test_empty_delta_returns_base(self):
        base = _base_dataset(20)
        assert append_rows(base, []) is base

    def test_a_renamed_append_is_encoded_under_its_name(self):
        base = _base_dataset(20, name="base")
        encode_dataset(base).codes_view("region")  # a materialised view takes the extension path
        merged = base.append_rows(_delta_rows(5), name="renamed")
        encoded = encode_dataset(merged)
        assert merged.name == "renamed"
        del merged  # the encoding now answers for the dataset through a facade
        assert encoded.dataset.name == "renamed"

    def test_unknown_column_is_schema_error(self):
        base = _base_dataset(10)
        with pytest.raises(SchemaError, match="unknown column"):
            append_rows(base, [{"region": "a", "bogus": 1}])

    def test_uncoercible_cell_is_schema_error(self):
        base = _base_dataset(10)
        with pytest.raises(SchemaError, match="schema-incompatible rows"):
            append_rows(base, [{"amount": "not-a-number"}])

    def test_mismatched_columns_is_schema_error(self):
        base = _base_dataset(10)
        other = Dataset.from_rows([{"x": 1.0}], name="other")
        with pytest.raises(SchemaError, match="schema-incompatible delta"):
            append_dataset(base, other)

    def test_mismatched_ctype_is_schema_error(self):
        base = _base_dataset(10)
        rows = list(base.iter_rows())[:3]
        delta = Dataset.from_rows(
            rows,
            ctypes={"region": ColumnType.CATEGORICAL, "year": ColumnType.NUMERIC,
                    "amount": ColumnType.NUMERIC, "score": ColumnType.STRING},
            column_order=base.column_names,
        )
        with pytest.raises(SchemaError, match="schema-incompatible delta"):
            append_dataset(base, delta)

    def test_all_missing_delta_block(self):
        base = _base_dataset(60)
        encode_dataset(base)
        merged = append_rows(base, [{} for _ in range(5)])
        assert merged.n_rows == 65
        _assert_identical_encodings(merged, _cold(merged))

    def test_repeated_appends_stay_identical(self):
        merged = _base_dataset(80)
        encode_dataset(merged)
        for seed in (7, 8, 9):
            merged = append_rows(merged, _delta_rows(15, seed=seed))
        assert merged.n_rows == 125
        _assert_identical_encodings(merged, _cold(merged))


def _views_snapshot(dataset: Dataset) -> list:
    """The bytes of every cached view and every cell of ``dataset``."""
    encoded = getattr(dataset, _CACHE_ATTR)
    snapshot = [[bits(cell) for cell in column.tolist()] for column in dataset.columns]
    for name in dataset.column_names:
        if not dataset[name].is_numeric():
            codes, vocabulary, _ = encoded.codes_view(name)
            snapshot += [codes.tobytes(), list(vocabulary), encoded.missing_view(name).tobytes()]
        values, missing = encoded.numeric_view(name)
        snapshot += [values.tobytes(), missing.tobytes()]
    return snapshot


def _assert_equals_cold(merged: Dataset, rows: list[dict], like: Dataset) -> None:
    """``merged`` holds ``rows`` with ``like``'s schema: cells, and views equal to a cold encode."""
    cold = Dataset.from_rows(rows, name=like.name, ctypes={c.name: c.ctype for c in like.columns},
                             roles={c.name: c.role for c in like.columns}, column_order=like.column_names)
    assert_identical_datasets(merged, cold)
    _assert_identical_encodings(merged, cold)
    for name in merged.column_names:
        values, missing = getattr(merged, _CACHE_ATTR).numeric_view(name)
        c_values, c_missing = encode_dataset(cold).numeric_view(name)
        assert values.tobytes() == c_values.tobytes() and missing.tobytes() == c_missing.tobytes()


class TestAppendBuffers:
    """Appends grow shared buffers in place at the tail and copy everywhere else."""

    def _encoded_base(self, n: int = 120) -> tuple[Dataset, list[dict]]:
        """An encoded base that ends at its buffers' tails (an append result), and its rows."""
        rows = _base_rows(n)
        base = _base_dataset(n - 20)
        encoded = encode_dataset(base)
        for column in base.columns:
            encoded.numeric_view(column.name)
            if not column.is_numeric():
                encoded.codes_view(column.name)
        return append_rows(base, rows[n - 20:]), rows

    def test_two_branches_in_sequence_equal_cold_encodes(self):
        base, rows = self._encoded_base()
        before = _views_snapshot(base)
        batches = [_delta_rows(30, seed=1), _delta_rows(45, seed=2)]
        merged = [append_rows(base, batch) for batch in batches]
        for result, batch in zip(merged, batches):
            _assert_equals_cold(result, rows + batch, base)
        assert _views_snapshot(base) == before
        assert not base["amount"].values.flags.writeable

    def test_branches_from_threads_equal_cold_encodes(self):
        batches = [_delta_rows(40, seed=seed) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                base, rows = self._encoded_base()
                before = _views_snapshot(base)
                results: dict[int, Dataset] = {}

                def branch(i: int) -> None:
                    results[i] = append_rows(base, batches[i])

                threads = [threading.Thread(target=branch, args=(i,)) for i in range(len(batches))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert sorted(results) == list(range(len(batches)))
                for i, batch in enumerate(batches):
                    _assert_equals_cold(results[i], rows + batch, base)
                assert _views_snapshot(base) == before
        finally:
            sys.setswitchinterval(interval)

    def test_chained_appends_onto_an_opened_store_copy_at_most_twice(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 100_000
        base = Dataset.from_dict({
            "region": [("a", "b", "c", None)[i] for i in rng.integers(4, size=n)],
            "year": (2020.0 + rng.integers(3, size=n)).tolist(),
            "amount": np.round(rng.normal(100, 30, size=n), 3).tolist(),
            "score": rng.random(n).tolist(),
        }, name="budget")
        opened = Dataset.open(base.save(tmp_path / "base.rps"))
        batch = _delta_rows(1_000)
        current = opened
        large = 0
        tracemalloc.start()
        try:
            for _ in range(64):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                current = append_rows(current, batch)
                large += tracemalloc.get_traced_memory()[1] - before > 1_000_000
        finally:
            tracemalloc.stop()
            opened.close()
        assert current.n_rows == 164_000
        # The first append copies out of the map; the buffers then regrow at most once.
        assert large <= 2, large

    def test_a_saved_chain_is_byte_identical_to_a_cold_save(self, tmp_path):
        base = _base_dataset(300)
        rows = base.to_rows()
        opened = current = Dataset.open(base.save(tmp_path / "base.rps"))
        for seed in range(5):
            batch = _delta_rows(40 + seed, seed=seed)
            current = append_rows(current, batch)
            rows += batch
        chain = current.save(tmp_path / "chain.rps").read_bytes()
        opened.close()
        cold = Dataset.from_rows(rows, name=base.name, ctypes={c.name: c.ctype for c in base.columns},
                                 column_order=base.column_names)
        assert chain == cold.save(tmp_path / "cold.rps").read_bytes()


class TestAppendedRows:
    """The structural check of whether a dataset is another plus appended rows."""

    def test_an_append_counts_its_rows(self, tmp_path):
        base = _base_dataset(60)
        merged = append_rows(base, _delta_rows(15))
        assert appended_rows(base, merged) == 15
        opened_base = Dataset.open(base.save(tmp_path / "base.rps"))
        opened_merged = Dataset.open(merged.save(tmp_path / "merged.rps"))
        try:
            assert appended_rows(opened_base, opened_merged) == 15
            assert appended_rows(opened_base, Dataset.open(base.save(tmp_path / "same.rps"))) == 0
            assert all(c._cells is None for c in opened_merged.columns if not c.is_numeric())
        finally:
            opened_base.close()
            opened_merged.close()

    @pytest.mark.parametrize("change", [
        "unchanged", "first_row", "rows_removed", "vocabulary_reordered", "column_added",
        "renamed", "role", "ctype", "nan_payload",
    ])
    def test_anything_but_an_append_is_none(self, change):
        base = _base_dataset(40)
        rows = base.to_rows() + _delta_rows(5)
        ctypes = {c.name: c.ctype for c in base.columns}
        roles = {c.name: c.role for c in base.columns}
        name = base.name
        if change == "first_row":
            rows[0]["score"] = rows[0]["score"] + 1.0
        elif change == "rows_removed":
            rows = rows[:30]
        elif change == "column_added":
            rows = [dict(row, extra=1.0) for row in rows]
        elif change == "renamed":
            name = "other"
        elif change == "role":
            roles["region"] = ColumnRole.TARGET
        elif change == "ctype":
            ctypes["year"] = ColumnType.CATEGORICAL
        merged = Dataset.from_rows(rows, name=name, ctypes=ctypes, roles=roles,
                                   column_order=list(rows[0]))
        if change == "vocabulary_reordered":  # as a store file may hold it
            codes, vocabulary, _ = encode_dataset(merged).codes_view("region")
            reordered = vocabulary[::-1]
            remap = np.asarray([reordered.index(level) for level in vocabulary] + [-1])
            region = merged["region"]
            merged = merged.replace_column(
                Column.from_vocabulary("region", region.ctype, region.role, remap[codes], reordered)
            )
        elif change == "nan_payload":  # still missing, but not the same bytes
            values = merged["amount"].values
            values[np.flatnonzero(np.isnan(values))[0]] = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
        assert appended_rows(base, merged) == (5 if change == "unchanged" else None)


# ---------------------------------------------------------------------------
# Chunked readers
# ---------------------------------------------------------------------------

class TestChunkedReaders:
    @pytest.fixture()
    def csv_file(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(_base_dataset(97), path)
        return path

    def test_csv_chunks_reproduce_read_csv(self, csv_file):
        whole = read_csv(csv_file)
        blocks = list(read_csv_chunks(csv_file, chunk_rows=10))
        assert [b.n_rows for b in blocks] == [10] * 9 + [7]
        combined = blocks[0]
        for block in blocks[1:]:
            combined = combined.concat(block)
        combined.name = whole.name
        assert_identical_datasets(combined, whole)

    def test_csv_chunks_single_block(self, csv_file):
        blocks = list(read_csv_chunks(csv_file, chunk_rows=1000))
        assert len(blocks) == 1 and blocks[0].n_rows == 97

    def test_csv_chunk_rows_must_be_positive(self, csv_file):
        with pytest.raises(SchemaError, match="chunk_rows"):
            next(read_csv_chunks(csv_file, chunk_rows=0))

    def test_csv_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(SchemaError, match="empty CSV content"):
            list(read_csv_chunks(path))

    def test_csv_header_only_is_an_error(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,b\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="header row and at least one data row"):
            list(read_csv_chunks(path))

    def test_csv_overlong_row_is_an_error(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2,3\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="salvage"):
            list(read_csv_chunks(path))

    def test_csv_blank_rows_and_padding(self, tmp_path):
        path = tmp_path / "padded.csv"
        path.write_text("a,b\n1,2\n\n3\n", encoding="utf-8")
        blocks = list(read_csv_chunks(path, chunk_rows=100))
        rows = list(blocks[0].iter_rows())
        assert len(rows) == 2
        padded = rows[1]["b"]
        assert padded is None or padded != padded  # missing: None or nan

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        rows = _base_rows(41, seed=3)
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        whole = read_jsonl(path)
        assert whole.n_rows == 41
        assert whole.column_names == ["region", "year", "amount", "score"]
        blocks = list(read_jsonl_chunks(path, chunk_rows=8))
        assert [b.n_rows for b in blocks] == [8] * 5 + [1]

    def test_jsonl_missing_tokens_normalised(self, tmp_path):
        path = tmp_path / "na.jsonl"
        path.write_text('{"a": "NA", "b": 1}\n{"a": "x", "b": 2}\n', encoding="utf-8")
        dataset = read_jsonl(path)
        assert dataset["a"].tolist()[0] is None

    def test_jsonl_malformed_line_is_an_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"a": 1}\n{broken\n', encoding="utf-8")
        with pytest.raises(SchemaError, match="malformed JSON on line 2"):
            list(read_jsonl_chunks(path))

    def test_jsonl_non_object_line_is_an_error(self, tmp_path):
        path = tmp_path / "list.jsonl"
        path.write_text("[1, 2]\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="not an object"):
            list(read_jsonl_chunks(path))

    def test_jsonl_nested_value_is_an_error(self, tmp_path):
        path = tmp_path / "nested.jsonl"
        path.write_text('{"a": {"deep": 1}}\n', encoding="utf-8")
        with pytest.raises(SchemaError, match="nested"):
            list(read_jsonl_chunks(path))

    def test_jsonl_late_unknown_key_is_an_error(self, tmp_path):
        path = tmp_path / "drift.jsonl"
        path.write_text('{"a": 1}\n{"a": 2, "b": 3}\n', encoding="utf-8")
        with pytest.raises(SchemaError, match="unknown column"):
            list(read_jsonl_chunks(path, chunk_rows=1))

    def test_jsonl_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "none.jsonl"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="contains no records"):
            list(read_jsonl_chunks(path))


# ---------------------------------------------------------------------------
# Feed connector
# ---------------------------------------------------------------------------

def _write_feed(directory, batches):
    directory.mkdir(exist_ok=True)
    for i, batch in enumerate(batches):
        (directory / f"batch-{i:03d}.jsonl").write_text(
            "\n".join(json.dumps(r) for r in batch) + "\n", encoding="utf-8"
        )
    return directory


class _FlakyFeed(FixtureFeed):
    """A fixture feed that fails transiently a set number of times."""

    def __init__(self, root, failures: int):
        super().__init__(root)
        self.failures = failures
        self.attempts = 0

    def page(self, offset, limit, since=None):
        self.attempts += 1
        if self.failures > 0:
            self.failures -= 1
            raise FeedTransientError("simulated outage")
        return super().page(offset, limit, since=since)


class TestConnector:
    @pytest.fixture()
    def feed_dir(self, tmp_path):
        records = [
            {"region": f"r{i % 3}", "amount": float(i), "datum": f"2026-08-{i + 1:02d}"}
            for i in range(9)
        ]
        return _write_feed(tmp_path / "feed", [records[:4], records[4:]])

    def test_batches_consumed_in_sorted_order(self, feed_dir):
        feed = FixtureFeed(feed_dir)
        assert [p.name for p in feed.batch_paths] == ["batch-000.jsonl", "batch-001.jsonl"]
        records = FeedConnector(feed, page_size=4).records()
        assert [r["amount"] for r in records] == [float(i) for i in range(9)]

    def test_single_file_feed(self, feed_dir):
        feed = FixtureFeed(feed_dir / "batch-000.jsonl")
        assert len(feed.page(0, 100)) == 4

    def test_cursor_filtering(self, feed_dir):
        connector = FeedConnector(FixtureFeed(feed_dir), page_size=100)
        records = connector.records(since="2026-08-06")
        assert [r["datum"] for r in records] == ["2026-08-07", "2026-08-08", "2026-08-09"]

    def test_pages_stop_on_short_page(self, feed_dir):
        pages = list(FeedConnector(FixtureFeed(feed_dir), page_size=4).pages())
        assert [len(p) for p in pages] == [4, 4, 1]

    def test_throttle_sleeps_between_pages_only(self, feed_dir):
        waits = []
        connector = FeedConnector(
            FixtureFeed(feed_dir), page_size=4, throttle=1.5, _sleep=waits.append
        )
        list(connector.pages())
        assert waits == [1.5, 1.5]

    def test_transient_failures_are_retried(self, feed_dir):
        waits = []
        feed = _FlakyFeed(feed_dir, failures=2)
        connector = FeedConnector(feed, page_size=100, retry_wait=0.25, _sleep=waits.append)
        assert len(connector.records()) == 9
        assert waits == [0.25, 0.25]

    def test_exhausted_retries_raise_feed_error(self, feed_dir):
        feed = _FlakyFeed(feed_dir, failures=10)
        connector = FeedConnector(feed, max_retries=2, _sleep=lambda _: None)
        with pytest.raises(FeedError, match="after 2 retries"):
            connector.records()

    def test_invalid_parameters(self, feed_dir):
        with pytest.raises(FeedError, match="page_size"):
            FeedConnector(FixtureFeed(feed_dir), page_size=0)
        with pytest.raises(FeedError, match="max_retries"):
            FeedConnector(FixtureFeed(feed_dir), max_retries=-1)

    def test_missing_fixture_is_feed_error(self, tmp_path):
        with pytest.raises(FeedError, match="does not exist"):
            FixtureFeed(tmp_path / "nope")
        (tmp_path / "empty").mkdir()
        with pytest.raises(FeedError, match="no .jsonl batch files"):
            FixtureFeed(tmp_path / "empty")

    def test_malformed_fixture_is_feed_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{oops\n", encoding="utf-8")
        with pytest.raises(FeedError, match="malformed JSON"):
            FixtureFeed(path).page(0, 10)

    def test_fetch_dataset(self, feed_dir):
        connector = FeedConnector(FixtureFeed(feed_dir))
        dataset = connector.fetch_dataset(name="delta")
        assert dataset.n_rows == 9 and dataset.name == "delta"
        assert connector.fetch_dataset(since="2027-01-01") is None

    def test_missing_cursor_is_served_only_unfiltered(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        cursors = ['"2026-01-01"', "null", '"n/a"', None, '"2026-01-03"']
        path.write_text("".join(
            f'{{"n": {i}' + ("" if cursor is None else f', "datum": {cursor}') + "}\n"
            for i, cursor in enumerate(cursors, start=1)
        ), encoding="utf-8")
        connector = FeedConnector(FixtureFeed(path), page_size=2)
        assert [r["n"] for r in connector.records(since="2026-01-02")] == [5]
        assert connector.records(since="2026-01-03") == []
        assert [r["n"] for r in connector.records()] == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("layout", ["sorted", "unsorted", "ties_across_files", "absent_and_missing"])
    def test_page_equals_the_linear_filter(self, tmp_path, layout):
        rng = np.random.default_rng(5)
        days = [f"2026-03-{day:02d}" for day in range(1, 25)]
        if layout == "sorted":
            cursors = days
        elif layout == "unsorted":
            cursors = [days[i] for i in rng.permutation(len(days))]
        elif layout == "ties_across_files":
            cursors = sorted(days[:8] * 3)
        else:
            cursors = [None if i % 5 == 2 else "" if i % 7 == 3 else days[i] for i in range(len(days))]
        records = [{"n": i} if cursor is None else {"n": i, "datum": cursor}
                   for i, cursor in enumerate(cursors)]
        feed = FixtureFeed(_write_feed(tmp_path / "feed", [records[:9], records[9:16], records[16:]]))

        def linear(offset, limit, since):  # the reference: a filter over every record
            loaded = feed.page(0, len(records))
            matched = [r for r in loaded if r.get("datum") is not None and str(r["datum"]) > since]
            return matched[offset : offset + limit]

        for since in ["", "2026-01-01", "2026-03-04", "2026-03-05", "2026-03-07T12", "2026-03-24", "2027"]:
            for offset in (0, 1, 3, 7, 30):
                for limit in (1, 2, 5, 100):
                    assert feed.page(offset, limit, since=since) == linear(offset, limit, since)


# ---------------------------------------------------------------------------
# Incremental group-by / cube / KPI board
# ---------------------------------------------------------------------------

class TestIncrementalGroupBy:
    AGGS = {f"amount_{agg}": ("amount", agg) for agg in AGGREGATIONS}

    def test_refresh_is_bit_identical_for_every_aggregation(self):
        base = _base_dataset(200)
        board = IncrementalGroupBy(base, ["region", "year"], self.AGGS)
        assert board.incremental
        merged = append_rows(base, _delta_rows(50))
        assert_identical_datasets(
            board.refresh(merged), group_by(_cold(merged), ["region", "year"], self.AGGS)
        )

    def test_initial_result_matches_group_by(self):
        base = _base_dataset(120)
        board = IncrementalGroupBy(base, ["region"], self.AGGS)
        assert_identical_datasets(board.result(), group_by(base, ["region"], self.AGGS))

    def test_sequential_refreshes(self):
        merged = _base_dataset(100)
        board = IncrementalGroupBy(merged, ["region"], self.AGGS)
        for seed in (5, 6, 7):
            merged = append_rows(merged, _delta_rows(20, seed=seed))
            result = board.refresh(merged)
        assert_identical_datasets(result, group_by(_cold(merged), ["region"], self.AGGS))

    def test_empty_delta_refresh(self):
        base = _base_dataset(60)
        board = IncrementalGroupBy(base, ["region"], self.AGGS)
        assert_identical_datasets(board.refresh(base), group_by(base, ["region"], self.AGGS))

    def test_forced_instance_can_resume_incrementally(self):
        base = _base_dataset(50)
        board = IncrementalGroupBy(base, ["region"], self.AGGS)
        merged = append_rows(base, _delta_rows(10))
        with reference():
            board.refresh(merged)
        merged2 = append_rows(merged, _delta_rows(10, seed=4))
        assert_identical_datasets(
            board.refresh(merged2), group_by(_cold(merged2), ["region"], self.AGGS)
        )

    def test_non_numeric_source_falls_back(self, monkeypatch):
        # A STRING source column (numeric-looking cells) cannot be folded:
        # the reference coerces each cell with float(v) at aggregation time.
        rows = [{"g": f"k{i % 3}", "v": str(i)} for i in range(30)]
        ctypes = {"g": ColumnType.CATEGORICAL, "v": ColumnType.STRING}
        base = Dataset.from_rows(rows, name="strs", ctypes=ctypes)
        board = IncrementalGroupBy(base, ["g"], {"n": ("v", "sum")})
        assert not board.incremental
        calls = []
        real = incremental_module.group_by
        monkeypatch.setattr(
            incremental_module, "group_by",
            lambda *a, **k: calls.append(a) or real(*a, **k),
        )
        delta = Dataset.from_rows(
            [{"g": "k9", "v": str(100 + i)} for i in range(5)], ctypes=ctypes
        )
        merged = append_dataset(base, delta)
        result = board.refresh(merged)
        assert len(calls) == 1
        assert_identical_datasets(result, real(_cold(merged), ["g"], {"n": ("v", "sum")}))

    def test_no_keys_fold_every_row_into_one_group(self):
        base = _base_dataset(30)
        board = IncrementalGroupBy(base, [], self.AGGS)
        merged = append_rows(base, _delta_rows(10))
        assert_identical_datasets(board.refresh(merged), group_by(_cold(merged), [], self.AGGS))

    def test_sums_resume_the_left_fold(self):
        # Compensated summation (builtin sum on Python >= 3.12) gives 1.0 for
        # the first group; the left fold from 0 gives 0.0 on every version.
        values = (1e16, 1.0, -1e16, -0.0, -0.0)
        rows = [{"g": "big" if i < 3 else "zero", "v": v} for i, v in enumerate(values)]
        ctypes = {"g": ColumnType.CATEGORICAL, "v": ColumnType.NUMERIC}
        aggs = {"s": ("v", "sum"), "m": ("v", "mean")}
        base = Dataset.from_rows(rows[:2], name="fold", ctypes=ctypes)
        board = IncrementalGroupBy(base, ["g"], aggs)
        result = board.refresh(append_rows(base, rows[2:]))
        assert [bits(x) for x in result["s"].tolist()] == [bits(0.0), bits(0.0)]
        assert [bits(x) for x in result["m"].tolist()] == [bits(0.0), bits(0.0)]

    def test_advancing_on_opened_stores_materialises_no_column(self, tmp_path):
        base = _base_dataset(200)
        opened = Dataset.open(base.save(tmp_path / "base.rps"))
        merged = Dataset.open(append_rows(base, _delta_rows(40)).save(tmp_path / "merged.rps"))
        try:
            cube = Cube(opened, dimensions=[Dimension("geo", ("region",))],
                        measures=[Measure("total", "amount", "sum"), Measure("top", "score", "max")])
            grouped = incremental_cube_aggregate(cube, ["region", "year"])
            kpis = IncrementalKPIBoard([KPI("avg_score", "score", target=0.5)], cube, "region")
            grouped_result, kpi_result = grouped.refresh(merged), kpis.refresh(merged)
            for dataset in (opened, merged):
                assert all(c._cells is None for c in dataset.columns if not c.is_numeric())
            cold = _cold(merged)
            assert_identical_datasets(grouped_result, group_by(cold, ["region", "year"], cube._aggregations()))
            reference_cube = Cube(cold, dimensions=cube.dimensions, measures=cube.measures, name=cube.name)
            assert_identical_datasets(
                kpi_result,
                evaluate_kpis_by_level([KPI("avg_score", "score", target=0.5)], reference_cube, "region"),
            )
        finally:
            opened.close()
            merged.close()

    def test_refresh_target_validation(self):
        base = _base_dataset(30)
        board = IncrementalGroupBy(base, ["region"], self.AGGS)
        with pytest.raises(SchemaError, match="columns"):
            board.refresh(Dataset.from_rows([{"x": 1.0}]))
        with pytest.raises(SchemaError, match="fewer than"):
            board.refresh(base.head(5))


class TestIncrementalCubeAndKPIs:
    def _cube(self, dataset, name="budget"):
        return Cube(
            dataset,
            dimensions=[Dimension("geo", ("region",)), Dimension("time", ("year",))],
            measures=[Measure("total", "amount", "sum"), Measure("avg_score", "score", "mean")],
            name=name,
        )

    def test_cube_aggregate_refresh_matches_batch(self):
        base = _base_dataset(150)
        board = incremental_cube_aggregate(self._cube(base), ["region", "year"])
        merged = append_rows(base, _delta_rows(40))
        assert_identical_datasets(
            board.refresh(merged), self._cube(_cold(merged)).aggregate(["region", "year"])
        )

    def test_empty_levels_is_an_error(self):
        with pytest.raises(OLAPError, match="at least one level"):
            incremental_cube_aggregate(self._cube(_base_dataset(10)), [])

    def test_kpi_board_refresh_matches_batch(self):
        kpis = [
            KPI("spend", "amount", target=100.0, higher_is_better=False, tolerance=0.2),
            KPI("quality", "score", target=0.5),
        ]
        base = _base_dataset(150)
        board = IncrementalKPIBoard(kpis, self._cube(base), "region")
        merged = append_rows(base, _delta_rows(40))
        refreshed = board.refresh(merged)
        batch = evaluate_kpis_by_level(kpis, self._cube(_cold(merged)), "region")
        assert_identical_datasets(refreshed, batch)
        assert_identical_datasets(board.result(), batch)

    def test_kpi_board_forced_refresh_matches_batch(self, monkeypatch):
        kpis = [KPI("spend", "amount", target=100.0)]
        base = _base_dataset(60)
        board = IncrementalKPIBoard(kpis, self._cube(base), "region")
        calls = []
        real = incremental_module.group_by
        monkeypatch.setattr(
            incremental_module, "group_by",
            lambda *a, **k: calls.append(a) or real(*a, **k),
        )
        merged = append_rows(base, _delta_rows(15))
        with reference():
            refreshed = board.refresh(merged)
        assert len(calls) == 1
        assert_identical_datasets(
            refreshed, evaluate_kpis_by_level(kpis, self._cube(_cold(merged)), "region")
        )


# ---------------------------------------------------------------------------
# Validation: one table per batch/incremental pair of entry points
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("entry", [group_by, IncrementalGroupBy], ids=["group_by", "IncrementalGroupBy"])
@pytest.mark.parametrize(
    "keys, aggregations, message",
    [
        (["ghost"], {"x": ("amount", "sum")}, "unknown group-by key"),
        (["region"], {"x": ("ghost", "sum")}, "references unknown column"),
        (["region"], {"x": ("amount", "mode")}, "unknown aggregation"),
    ],
    ids=["unknown_key", "unknown_source", "unknown_aggregation"],
)
def test_group_by_validation(entry, keys, aggregations, message):
    with pytest.raises(SchemaError, match=message):
        entry(_base_dataset(10), keys, aggregations)


@pytest.mark.parametrize(
    "entry", [evaluate_kpis_by_level, IncrementalKPIBoard], ids=["evaluate_kpis_by_level", "IncrementalKPIBoard"]
)
@pytest.mark.parametrize(
    "kpis, message",
    [
        ([], "no KPIs"),
        ([KPI("f", lambda d: 1.0, target=1.0)], "uses a callable"),
        ([KPI("g", "ghost", target=1.0)], "references unknown column"),
        ([KPI("r", "region", target=1.0)], "non-numeric"),
        # Name collisions would silently overwrite scoreboard columns.
        ([KPI("region", "amount", target=1.0)], "collides"),
        ([KPI("r", "amount", target=1.0), KPI("r", "score", target=1.0)], "collides"),
    ],
    ids=["empty", "callable", "unknown_column", "non_numeric", "level_name", "repeated_name"],
)
def test_kpi_validation(entry, kpis, message):
    cube = Cube(_base_dataset(10), dimensions=[Dimension("geo", ("region",))],
                measures=[Measure("total", "amount", "sum")])
    with pytest.raises(ReproError, match=message):
        entry(kpis, cube, "region")


# ---------------------------------------------------------------------------
# Incremental quality profiles
# ---------------------------------------------------------------------------

class TestIncrementalProfile:
    def test_refresh_matches_measure_quality_all_criteria(self):
        base = _base_dataset(150)
        profile = IncrementalProfile(base)
        merged = append_rows(base, _delta_rows(40))
        _assert_identical_profiles(profile.refresh(merged), measure_quality(_cold(merged)))

    def test_routing_split(self):
        profile = IncrementalProfile(_base_dataset(30))
        assert set(profile.incremental_criteria) == {
            "completeness", "duplication", "balance", "dimensionality",
        }
        assert set(profile.fallback_criteria) == {
            "accuracy", "consistency", "correlation", "outliers",
        }

    def test_sequential_refreshes(self):
        merged = _base_dataset(100)
        profile = IncrementalProfile(merged)
        for seed in (11, 12):
            merged = append_rows(merged, _delta_rows(25, seed=seed))
            refreshed = profile.refresh(merged)
        _assert_identical_profiles(refreshed, measure_quality(_cold(merged)))

    def test_initial_profile_matches_measure_quality(self):
        base = _base_dataset(80)
        _assert_identical_profiles(IncrementalProfile(base).profile(), measure_quality(_cold(base)))

    def test_balance_with_categorical_target(self):
        base = _base_dataset(120).set_target("region")
        profile = IncrementalProfile(base, criteria=["balance"])
        assert profile.incremental_criteria == ["balance"]
        merged = append_rows(base, _delta_rows(30))
        _assert_identical_profiles(
            profile.refresh(merged), measure_quality(_cold(merged), ["balance"])
        )

    def test_balance_with_numeric_target_falls_back(self):
        base = _base_dataset(60).set_target("amount")
        profile = IncrementalProfile(base, criteria=["balance"])
        assert profile.fallback_criteria == ["balance"]
        merged = append_rows(base, _delta_rows(20))
        _assert_identical_profiles(
            profile.refresh(merged), measure_quality(_cold(merged), ["balance"])
        )

    def test_subclassed_criterion_falls_back(self):
        # A subclass that overrides either tier keeps its own behaviour: its
        # encoded tier is no longer the state, so it is recomputed.
        class OwnMeasure(CompletenessCriterion):
            def measure(self, dataset):
                return super().measure(dataset)

        class OwnEncodedTier(CompletenessCriterion):
            def _measure_encoded(self, encoded):
                return super()._measure_encoded(encoded)

        for custom in (OwnMeasure, OwnEncodedTier):
            profile = IncrementalProfile(_base_dataset(40), criteria=[custom()])
            assert profile.fallback_criteria == ["completeness"]
            merged = append_rows(profile._dataset, _delta_rows(10))
            _assert_identical_profiles(profile.refresh(merged), measure_quality(_cold(merged), [custom()]))

    def test_a_subclass_that_overrides_no_tier_refreshes_incrementally(self):
        class Renamed(CompletenessCriterion):
            pass

        profile = IncrementalProfile(_base_dataset(40), criteria=[Renamed()])
        assert profile.incremental_criteria == ["completeness"]
        merged = append_rows(profile._dataset, _delta_rows(10))
        _assert_identical_profiles(profile.refresh(merged), measure_quality(_cold(merged), [Renamed()]))

    def test_refresh_target_validation(self):
        profile = IncrementalProfile(_base_dataset(30))
        with pytest.raises(SchemaError, match="fewer than"):
            profile.refresh(_base_dataset(10))

    def test_balance_without_discrete_columns(self):
        rows = [{"x": float(i), "y": float(i * 2)} for i in range(20)]
        base = Dataset.from_rows(rows, name="nums")
        profile = IncrementalProfile(base, criteria=["balance"])
        merged = append_rows(base, [{"x": 1.0, "y": 2.0}])
        _assert_identical_profiles(
            profile.refresh(merged), measure_quality(_cold(merged), ["balance"])
        )


class TestDuplicationState:
    """The packed-key duplication state against the batch criterion and the row path, delta by delta."""

    CTYPES = {"name": ColumnType.STRING, "flag": ColumnType.BOOLEAN, "x": ColumnType.NUMERIC,
              "empty": ColumnType.CATEGORICAL}
    BATCHES = [
        [
            {"name": "Café", "flag": True, "x": 0.0, "empty": None},
            {"name": None, "flag": False, "x": 1.5, "empty": None},
            {"name": "cafe", "flag": True, "x": 0.0, "empty": None},
            {"name": "bar", "flag": None, "x": None, "empty": None},
            {"name": "bar", "flag": None, "x": None, "empty": None},
        ],
        [
            # "<missing>" first appears here: it keys with the missing cell of row 1.
            {"name": "<missing>", "flag": False, "x": 1.5, "empty": None},
            {"name": "CAFÉ", "flag": True, "x": -0.0, "empty": None},
            {"name": "new level", "flag": False, "x": 2.0000001, "empty": None},
            {"name": "new level", "flag": False, "x": 2.0, "empty": None},
            {"name": "  Bar ", "flag": None, "x": None, "empty": None},
        ],
        [
            {"name": "missing", "flag": False, "x": 1.5, "empty": None},
            {"name": "café", "flag": False, "x": 0.0, "empty": None},
            {"name": "new level", "flag": True, "x": 2.0, "empty": None},
            {"name": None, "flag": False, "x": 1.5, "empty": None},
        ],
    ]

    @pytest.mark.parametrize("fuzzy", [True, False])
    def test_every_delta_matches_the_batch_and_row_tiers(self, fuzzy):
        merged = Dataset.from_rows(self.BATCHES[0], name="dups", ctypes=self.CTYPES)
        profile = IncrementalProfile(merged, criteria=[DuplicationCriterion(fuzzy=fuzzy)])
        assert profile.incremental_criteria == ["duplication"]
        for rows in self.BATCHES[1:]:
            merged = append_rows(merged, rows)
            refreshed = profile.refresh(merged)
            _assert_identical_profiles(
                refreshed, measure_quality(_cold(merged), [DuplicationCriterion(fuzzy=fuzzy)])
            )
            with reference():
                row_tier = measure_quality(_cold(merged), [DuplicationCriterion(fuzzy=fuzzy)])
            _assert_identical_profiles(refreshed, row_tier)
        details = refreshed.details("duplication")
        # Exact: the repeated "bar" row, "<missing>" and a later missing cell
        # against row 1, and 2.0000001 rounding to 2.0.  Fuzzy adds the café
        # variants, " Bar " and "missing" against "<missing>".
        assert details["n_exact_duplicates"] == 4
        assert details["n_fuzzy_duplicates"] == (7 if fuzzy else 0)

    def test_keys_that_share_a_hash_still_count_exactly(self, monkeypatch):
        # A hash with three values makes most keys collide, driving the paths
        # a 64-bit hash almost never takes: ties sorted by key at seeding and
        # several candidates compared per lookup.
        monkeypatch.setattr(duplicates_module, "_row_hashes", lambda cells: cells[:, 0] % np.uint64(3))
        merged = _base_dataset(120)
        profile = IncrementalProfile(merged, criteria=["duplication"])
        for seed in (5, 6, 7, 8):
            merged = append_rows(merged, _delta_rows(30, seed=seed) + _base_rows(10, seed=seed))
            _assert_identical_profiles(profile.refresh(merged), measure_quality(_cold(merged), ["duplication"]))
        assert profile.profile().details("duplication")["n_exact_duplicates"] > 0


# ---------------------------------------------------------------------------
# Ingest CLI end to end
# ---------------------------------------------------------------------------

class TestIngestEndToEnd:
    def test_ingest_append_reload_parity(self, tmp_path):
        """Feed batch → `repro ingest` → atomic store replace → /reload → served
        bytes match a direct library call over the merged data."""
        from repro.cli import main
        from repro.serve import create_server
        from repro.serve.endpoints import encode_response, evaluate

        rows = [
            {"region": f"r{i % 4}", "year": 2020 + i % 3, "amount": float(i),
             "datum": f"2026-07-{i % 28 + 1:02d}"}
            for i in range(50)
        ]
        store = tmp_path / "budget.rps"
        Dataset.from_rows(rows, name="budget").save(store)
        delta = [
            {"region": f"r{i % 5}", "year": 2023, "amount": float(100 + i),
             "datum": f"2026-08-{i + 1:02d}"}
            for i in range(10)
        ]
        feed_dir = _write_feed(tmp_path / "feed", [delta[:6], delta[6:]])

        server = create_server(stores=[str(store)], port=0)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        try:
            with urllib.request.urlopen(f"{server.url}/profile?dataset=budget") as response:
                fingerprint_before = response.headers["X-Repro-Fingerprint"]
            code = main(
                ["ingest", str(feed_dir), str(store),
                 "--since", "2026-08-03", "--limit", "4", "--reload-url", server.url]
            )
            assert code == 0
            with urllib.request.urlopen(f"{server.url}/profile?dataset=budget") as response:
                assert response.headers["X-Repro-Fingerprint"] != fingerprint_before
                served = response.read()
        finally:
            server.shutdown()
            server.close()
            thread.join(timeout=10)

        merged = Dataset.open(store)
        try:
            assert merged.n_rows == 57  # 50 base + the 7 records after the cursor
            direct = encode_response(evaluate("/profile", merged, {"dataset": "budget"}, None))
        finally:
            merged.close()
        assert served == direct

    def test_ingest_empty_delta_leaves_store_unchanged(self, tmp_path, capsys):
        from repro.cli import main

        store = tmp_path / "d.rps"
        Dataset.from_rows([{"a": 1.0, "datum": "2026-01-01"}], name="d").save(store)
        before = store.read_bytes()
        feed = _write_feed(tmp_path / "feed", [[{"a": 2.0, "datum": "2026-01-02"}]])
        assert main(["ingest", str(feed), str(store), "--since", "2027-01-01"]) == 0
        assert "store unchanged" in capsys.readouterr().out
        assert store.read_bytes() == before
