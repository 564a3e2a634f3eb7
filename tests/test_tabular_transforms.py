"""Unit tests for repro.tabular.transforms."""

from __future__ import annotations

import math
from contextlib import nullcontext

import pytest

from repro.exceptions import SchemaError
from repro.tabular.dataset import Column, ColumnType, Dataset, is_missing_value
from repro.tabular.transforms import (
    derive_column,
    discretize,
    distinct,
    group_by,
    join,
    normalize,
    pivot_counts,
    project,
    select,
    sort_by,
    train_test_indices,
)
from repro.tiers import reference


@pytest.fixture
def sales():
    return Dataset.from_rows(
        [
            {"district": "north", "year": 2020, "amount": 100.0},
            {"district": "north", "year": 2021, "amount": 150.0},
            {"district": "south", "year": 2020, "amount": 80.0},
            {"district": "south", "year": 2021, "amount": 90.0},
            {"district": "south", "year": 2021, "amount": 90.0},
        ],
        name="sales",
        ctypes={"year": ColumnType.CATEGORICAL},
    )


@pytest.fixture
def districts():
    return Dataset.from_rows(
        [
            {"district": "north", "population": 40000},
            {"district": "south", "population": 30000},
            {"district": "west", "population": 20000},
        ],
        name="districts",
    )


class TestSelectionProjection:
    def test_select_filters_rows(self, sales):
        northern = select(sales, lambda row: row["district"] == "north")
        assert northern.n_rows == 2

    def test_project_keeps_columns(self, sales):
        projected = project(sales, ["district", "amount"])
        assert projected.column_names == ["district", "amount"]

    def test_distinct_full_row(self, sales):
        assert distinct(sales).n_rows == 4

    def test_distinct_subset(self, sales):
        assert distinct(sales, subset=["district"]).n_rows == 2

    def test_sort_by(self, sales):
        ordered = sort_by(sales, ["amount"])
        assert ordered["amount"].tolist() == sorted(sales["amount"].tolist())

    def test_sort_descending(self, sales):
        ordered = sort_by(sales, ["amount"], descending=True)
        assert ordered["amount"][0] == max(sales["amount"].tolist())

    def test_sort_unknown_column(self, sales):
        with pytest.raises(SchemaError):
            sort_by(sales, ["ghost"])

    def test_sort_missing_values_last(self):
        ds = Dataset.from_dict({"x": [2.0, None, 1.0]})
        ordered = sort_by(ds, ["x"])
        assert is_missing_value(ordered["x"][2])


class TestJoin:
    def test_inner_join(self, sales, districts):
        joined = join(sales, districts, on="district")
        assert joined.n_rows == sales.n_rows
        assert "population" in joined.column_names

    def test_left_join_keeps_unmatched(self, sales, districts):
        extra = sales.concat(
            Dataset.from_rows([{"district": "harbour", "year": 2020, "amount": 5.0}], ctypes={"year": ColumnType.CATEGORICAL})
        )
        joined = join(extra, districts, on="district", how="left")
        assert joined.n_rows == extra.n_rows
        harbour = [row for row in joined.iter_rows() if row["district"] == "harbour"][0]
        assert is_missing_value(harbour["population"])

    def test_inner_join_drops_unmatched(self, sales, districts):
        small = districts.filter(lambda row: row["district"] == "west")
        with pytest.raises(SchemaError):
            join(sales, small, on="district")  # nothing matches -> empty -> error

    def test_join_column_collision_suffix(self, sales):
        other = Dataset.from_rows(
            [{"district": "north", "amount": 1.0}, {"district": "south", "amount": 2.0}], name="other"
        )
        joined = join(sales, other, on="district")
        assert "amount_right" in joined.column_names

    def test_join_missing_key_rejected(self, sales, districts):
        with pytest.raises(SchemaError):
            join(sales, districts, on="ghost")

    def test_join_bad_how_rejected(self, sales, districts):
        with pytest.raises(SchemaError):
            join(sales, districts, on="district", how="outer")


class TestGroupBy:
    def test_sum_and_mean(self, sales):
        grouped = group_by(sales, ["district"], {"total": ("amount", "sum"), "mean": ("amount", "mean")})
        by_district = {row["district"]: row for row in grouped.iter_rows()}
        assert by_district["north"]["total"] == pytest.approx(250.0)
        assert by_district["south"]["mean"] == pytest.approx(260.0 / 3)

    def test_count_ignores_missing(self):
        ds = Dataset.from_dict({"g": ["a", "a", "b"], "x": [1.0, None, 3.0]})
        grouped = group_by(ds, ["g"], {"n": ("x", "count")})
        by_group = {row["g"]: row["n"] for row in grouped.iter_rows()}
        assert by_group["a"] == 1.0

    @pytest.mark.parametrize("inside_reference", [False, True])
    @pytest.mark.parametrize("n_values", [3, 40])
    def test_sums_are_a_left_fold_from_zero(self, inside_reference, n_values):
        # 0 + 1e16 + 1.0 - 1e16 is 0.0 as a left fold (1e16 + 1.0 rounds back
        # to 1e16); compensated summation, builtin sum since Python 3.12, gives
        # 1.0.  A group of -0.0 sums to 0.0, as a fold from int 0 does.  Forty
        # values take the fold's numpy branch, three its Python loop.
        big = [1e16, 1.0, -1e16] + [0.0] * (n_values - 3)
        rows = [{"g": "big", "x": x} for x in big] + [{"g": "zero", "x": -0.0}] * n_values
        ds = Dataset.from_rows(rows, ctypes={"g": ColumnType.CATEGORICAL, "x": ColumnType.NUMERIC})
        with reference() if inside_reference else nullcontext():
            grouped = group_by(ds, ["g"], {"s": ("x", "sum"), "m": ("x", "mean")})
        for column in ("s", "m"):
            assert [math.copysign(1.0, v) * abs(v) for v in grouped[column].tolist()] == [0.0, 0.0]
            assert [math.copysign(1.0, v) for v in grouped[column].tolist()] == [1.0, 1.0]

    def test_median_min_max_std(self, sales):
        grouped = group_by(
            sales,
            ["district"],
            {"med": ("amount", "median"), "lo": ("amount", "min"), "hi": ("amount", "max"), "sd": ("amount", "std")},
        )
        north = [row for row in grouped.iter_rows() if row["district"] == "north"][0]
        assert north["lo"] == 100.0 and north["hi"] == 150.0


class TestColumnTransforms:
    def test_discretize_width(self, sales):
        binned = discretize(sales, "amount", bins=2)
        assert binned["amount"].ctype == ColumnType.CATEGORICAL
        assert len(binned["amount"].distinct()) <= 2

    def test_discretize_frequency(self, budget_dataset):
        binned = discretize(budget_dataset, "budgeted", bins=4, strategy="frequency")
        counts = binned["budgeted"].value_counts()
        assert len(counts) <= 4

    def test_discretize_preserves_missing(self):
        ds = Dataset.from_dict({"x": [1.0, None, 3.0, 10.0]})
        binned = discretize(ds, "x", bins=2)
        assert is_missing_value(binned["x"][1])

    def test_discretize_non_numeric_rejected(self, sales):
        with pytest.raises(SchemaError):
            discretize(sales, "district")

    def test_discretize_labels(self, sales):
        binned = discretize(sales, "amount", bins=2, labels=["low", "high"])
        assert set(binned["amount"].distinct()) <= {"low", "high"}

    def test_normalize_minmax(self, sales):
        scaled = normalize(sales, columns=["amount"], method="minmax")
        values = scaled["amount"].tolist()
        assert min(values) == pytest.approx(0.0) and max(values) == pytest.approx(1.0)

    def test_normalize_zscore(self, sales):
        scaled = normalize(sales, columns=["amount"], method="zscore")
        values = scaled["amount"].tolist()
        assert abs(sum(values) / len(values)) < 1e-9

    def test_normalize_unknown_method(self, sales):
        with pytest.raises(SchemaError):
            normalize(sales, method="rank")

    def test_derive_column(self, sales):
        derived = derive_column(sales, "amount_k", lambda row: row["amount"] / 1000)
        assert derived["amount_k"][0] == pytest.approx(0.1)

    def test_pivot_counts(self, sales):
        pivoted = pivot_counts(sales, "district", "year")
        assert pivoted.n_rows == 2
        assert any(name.startswith("year=") for name in pivoted.column_names)


class TestTrainTestIndices:
    def test_partition(self):
        train, test = train_test_indices(100, test_fraction=0.25, seed=1)
        assert len(train) + len(test) == 100
        assert not set(train) & set(test)

    def test_reproducible(self):
        assert train_test_indices(50, seed=3) == train_test_indices(50, seed=3)

    def test_invalid_fraction(self):
        with pytest.raises(SchemaError):
            train_test_indices(10, test_fraction=1.5)
