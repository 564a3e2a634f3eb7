"""Unit tests for repro.tabular.dataset (Column, Dataset, type inference)."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from parity import assert_identical_datasets

from repro.datasets import make_classification_dataset
from repro.exceptions import SchemaError
from repro.tabular.dataset import (
    Column,
    ColumnRole,
    ColumnType,
    Dataset,
    infer_column_type,
    is_missing_value,
)
from repro.tabular.encoded import count_distinct, distinct_sorted, encode_dataset


class TestMissingValues:
    def test_none_is_missing(self):
        assert is_missing_value(None)

    def test_nan_is_missing(self):
        assert is_missing_value(float("nan"))
        assert is_missing_value(np.nan)

    def test_regular_values_are_not_missing(self):
        assert not is_missing_value(0)
        assert not is_missing_value("")
        assert not is_missing_value(False)
        assert not is_missing_value("text")


class TestTypeInference:
    def test_numeric_inference(self):
        assert infer_column_type([1, 2.5, "3"]) == ColumnType.NUMERIC

    def test_boolean_inference(self):
        assert infer_column_type([True, False, "yes", "no"]) == ColumnType.BOOLEAN

    def test_datetime_inference(self):
        assert infer_column_type(["2020-01-01", "2021-12-31"]) == ColumnType.DATETIME

    def test_categorical_inference(self):
        assert infer_column_type(["a", "b", "a", "c"] * 10) == ColumnType.CATEGORICAL

    def test_string_inference_for_high_cardinality(self):
        values = [f"unique-text-{i}" for i in range(200)]
        assert infer_column_type(values) == ColumnType.STRING

    def test_all_missing_defaults_to_string(self):
        assert infer_column_type([None, None]) == ColumnType.STRING


class TestColumn:
    def test_numeric_column_coerces_strings(self):
        column = Column("x", ["1", "2.5", None])
        assert column.ctype == ColumnType.NUMERIC
        assert column[0] == 1.0
        assert math.isnan(column[2])

    def test_boolean_column_coercion(self):
        column = Column("flag", ["yes", "no", True], ctype=ColumnType.BOOLEAN)
        assert column.tolist() == [True, False, True]

    def test_missing_mask_and_counts(self):
        column = Column("x", [1.0, None, 3.0])
        assert column.missing_mask().tolist() == [False, True, False]
        assert column.n_missing() == 1
        assert column.non_missing() == [1.0, 3.0]

    def test_distinct_preserves_first_seen_order(self):
        column = Column("c", ["b", "a", "b", "c"], ctype=ColumnType.CATEGORICAL)
        assert column.distinct() == ["b", "a", "c"]

    def test_value_counts(self):
        column = Column("c", ["a", "a", "b", None], ctype=ColumnType.CATEGORICAL)
        assert column.value_counts() == {"a": 2, "b": 1}

    def test_invalid_role_rejected(self):
        with pytest.raises(SchemaError):
            Column("x", [1], role="nonsense")

    def test_invalid_type_rejected(self):
        with pytest.raises(SchemaError):
            Column("x", [1], ctype="imaginary")

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("", [1])

    def test_take_and_copy_are_independent(self):
        column = Column("x", [1.0, 2.0, 3.0])
        taken = column.take([2, 0])
        assert taken.tolist() == [3.0, 1.0]
        clone = column.copy()
        clone.values[0] = 99.0
        assert column[0] == 1.0

    def test_equality_handles_missing(self):
        a = Column("x", [1.0, None])
        b = Column("x", [1.0, None])
        assert a == b

    def test_with_values_keeps_metadata(self):
        column = Column("x", [1.0, 2.0], role=ColumnRole.TARGET)
        replaced = column.with_values([5, 6])
        assert replaced.role == ColumnRole.TARGET
        assert replaced.ctype == ColumnType.NUMERIC


class TestDatasetConstruction:
    def test_from_rows_preserves_column_order(self):
        ds = Dataset.from_rows([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        assert ds.column_names == ["a", "b"]
        assert ds.shape == (2, 2)

    def test_from_rows_fills_missing_keys(self):
        ds = Dataset.from_rows([{"a": 1}, {"a": 2, "b": "x"}])
        assert is_missing_value(ds["b"][0])

    def test_from_dict(self):
        ds = Dataset.from_dict({"a": [1, 2], "b": ["x", "y"]})
        assert ds.n_rows == 2

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(SchemaError):
            Dataset([Column("a", [1, 2]), Column("b", [1])])

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Dataset([Column("a", [1]), Column("a", [2])])

    def test_empty_dataset_rejected(self):
        with pytest.raises(SchemaError):
            Dataset([])
        with pytest.raises(SchemaError):
            Dataset.from_rows([])


class TestDatasetAccess:
    def test_row_access(self, tiny_dataset):
        row = tiny_dataset.row(0)
        assert row["id"] == "r1"
        assert row["amount"] == 10.0

    def test_row_out_of_range(self, tiny_dataset):
        with pytest.raises(SchemaError):
            tiny_dataset.row(99)

    def test_unknown_column(self, tiny_dataset):
        with pytest.raises(SchemaError):
            tiny_dataset["nope"]

    def test_to_rows_roundtrip(self, tiny_dataset):
        rebuilt = Dataset.from_rows(
            tiny_dataset.to_rows(),
            ctypes={c.name: c.ctype for c in tiny_dataset.columns},
            roles={c.name: c.role for c in tiny_dataset.columns},
        )
        assert rebuilt == tiny_dataset

    def test_summary_reports_missing_and_distinct(self, tiny_dataset):
        summary = tiny_dataset.summary()
        assert summary["amount"]["n_missing"] == 1
        assert summary["district"]["n_distinct"] == 2


class TestDatasetManipulation:
    def test_add_and_drop_column(self, tiny_dataset):
        extended = tiny_dataset.add_column(Column("extra", [1, 2, 3, 4, 5]))
        assert "extra" in extended
        reduced = extended.drop_columns(["extra"])
        assert "extra" not in reduced
        # original untouched
        assert "extra" not in tiny_dataset

    def test_add_duplicate_column_rejected(self, tiny_dataset):
        with pytest.raises(SchemaError):
            tiny_dataset.add_column(Column("amount", [0, 0, 0, 0, 0]))

    def test_add_wrong_length_rejected(self, tiny_dataset):
        with pytest.raises(SchemaError):
            tiny_dataset.add_column(Column("extra", [1, 2]))

    def test_drop_unknown_rejected(self, tiny_dataset):
        with pytest.raises(SchemaError):
            tiny_dataset.drop_columns(["ghost"])

    def test_select_columns_order(self, tiny_dataset):
        selected = tiny_dataset.select_columns(["label", "amount"])
        assert selected.column_names == ["label", "amount"]

    def test_rename_column(self, tiny_dataset):
        renamed = tiny_dataset.rename_column("amount", "value")
        assert "value" in renamed and "amount" not in renamed

    def test_rename_collision_rejected(self, tiny_dataset):
        with pytest.raises(SchemaError):
            tiny_dataset.rename_column("amount", "district")

    def test_replace_column(self, tiny_dataset):
        replaced = tiny_dataset.replace_column(Column("amount", [1, 1, 1, 1, 1]))
        assert replaced["amount"].tolist() == [1.0] * 5

    def test_set_target_switches_roles(self, tiny_dataset):
        switched = tiny_dataset.set_target("district")
        assert switched.target_column().name == "district"
        assert switched["label"].role == ColumnRole.FEATURE

    def test_set_role_validates(self, tiny_dataset):
        with pytest.raises(SchemaError):
            tiny_dataset.set_role("amount", "invalid")

    def test_target_column_requires_exactly_one(self, tiny_dataset):
        no_target = tiny_dataset.set_role("label", ColumnRole.FEATURE)
        with pytest.raises(SchemaError):
            no_target.target_column()


class TestDatasetRows:
    def test_take_and_head(self, tiny_dataset):
        head = tiny_dataset.head(2)
        assert head.n_rows == 2
        taken = tiny_dataset.take([4, 0])
        assert taken["id"].tolist() == ["r5", "r1"]

    def test_filter(self, tiny_dataset):
        filtered = tiny_dataset.filter(lambda row: row["label"] == "a")
        assert filtered.n_rows == 3

    def test_filter_removing_everything_rejected(self, tiny_dataset):
        with pytest.raises(SchemaError):
            tiny_dataset.filter(lambda row: False)

    def test_sample_reproducible(self, tiny_dataset):
        a = tiny_dataset.sample(3, seed=1)
        b = tiny_dataset.sample(3, seed=1)
        assert a.to_rows() == b.to_rows()

    def test_sample_too_large_rejected(self, tiny_dataset):
        with pytest.raises(SchemaError):
            tiny_dataset.sample(50)

    def test_sample_with_replacement(self, tiny_dataset):
        sampled = tiny_dataset.sample(10, seed=0, replace=True)
        assert sampled.n_rows == 10

    def test_shuffle_is_permutation(self, tiny_dataset):
        shuffled = tiny_dataset.shuffle(seed=3)
        assert sorted(shuffled["id"].tolist()) == sorted(tiny_dataset["id"].tolist())

    def test_concat(self, tiny_dataset):
        doubled = tiny_dataset.concat(tiny_dataset)
        assert doubled.n_rows == 10

    def test_concat_mismatched_rejected(self, tiny_dataset):
        other = tiny_dataset.drop_columns(["active"])
        with pytest.raises(SchemaError):
            tiny_dataset.concat(other)

    def test_copy_is_deep(self, tiny_dataset):
        clone = tiny_dataset.copy()
        clone["amount"].values[0] = 999.0
        assert tiny_dataset["amount"][0] == 10.0


class TestNumericMatrix:
    def test_numeric_matrix_shape(self, tiny_dataset):
        matrix = tiny_dataset.numeric_matrix()
        assert matrix.shape == (5, 1)

    def test_numeric_matrix_rejects_non_numeric(self, tiny_dataset):
        with pytest.raises(SchemaError):
            tiny_dataset.numeric_matrix(["district"])

    def test_feature_and_target_helpers(self, tiny_dataset):
        assert tiny_dataset.has_target()
        assert tiny_dataset.target_column().name == "label"
        assert "amount" in tiny_dataset.feature_names()
        assert "id" not in tiny_dataset.feature_names()


@pytest.fixture
def encodable() -> Dataset:
    return make_classification_dataset(n_rows=150, n_numeric=3, n_categorical=1, seed=11)


def test_encoded_dataset_refuses_pickling(encodable):
    with pytest.raises(TypeError, match="cannot be pickled"):
        pickle.dumps(encode_dataset(encodable))


def test_dataset_pickle_drops_view_state(tmp_path, encodable):
    encode_dataset(encodable)  # populate the instance cache
    clone = pickle.loads(pickle.dumps(encodable))
    assert not hasattr(clone, "_encoded_cache")
    path = tmp_path / "drop.rps"
    encodable.save(path)
    opened = Dataset.open(path)
    encode_dataset(opened)
    state = opened.__getstate__()
    assert "_store_file" not in state
    assert "_encoded_cache" not in state
    # Coded columns (an opened store's, and an append's) pickle their codes, not their cells.
    appended = opened.append_rows(list(encodable.head(7).iter_rows()))
    for dataset in (opened, appended):
        coded = [c for c in dataset.columns if not c.is_numeric()]
        assert coded
        clone = pickle.loads(pickle.dumps(dataset))
        assert all(c._cells is None for c in coded)
        assert not hasattr(clone, "_encoded_cache")
        assert_identical_datasets(clone, dataset)
        # The mask is not pickled: it is built again, as ``codes < 0``.
        for c in (clone[column.name] for column in coded):
            assert c._missing_cache is None and c.missing_mask().tobytes() == (np.asarray(c._codes) < 0).tobytes()
    opened.close()


@pytest.mark.parametrize(
    "keys",
    [[], [7], [3, 3, 3, 3], np.random.default_rng(0).integers(-50, 50, size=1_000).tolist()],
    ids=["empty", "one", "all-equal", "random"],
)
def test_distinct_sorted_equals_np_unique(keys):
    keys = np.asarray(keys, dtype=np.int64)
    expected = np.unique(keys)
    result = distinct_sorted(keys)
    assert result.dtype == expected.dtype
    assert np.array_equal(result, expected)
    assert count_distinct(keys) == expected.size
