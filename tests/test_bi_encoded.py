"""Row-vs-encoded equivalence harness for the OLAP/BI aggregation layer.

Every OLAP operation has two execution paths: the vectorized encoded-core
path (group keys from the cached int64 code arrays, measures reduced over
sorted-scan segments of the float views) and the retained row-at-a-time
reference, which every operation takes inside ``repro.tiers.reference()``.
The two must be
**bit-identical**: same values (float bits included), same row order, same
column order and types.  The harness also pins the missing-value semantics of
every aggregation on both paths, the OLAP edge cases from the issue (empty
dice, single-group roll-up, all-missing measure, multi-level drill-down
ordering) and the no-mutation contract on the shared encoded views.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from parity import assert_identical_datasets, on_reference

from repro.bi import Cube, Dimension, KPI, Measure, cube_report, evaluate_kpis_by_level
from repro.exceptions import ReproError, SchemaError
from repro.tabular.dataset import Column, ColumnType, Dataset
from repro.tabular.encoded import encode_dataset
from repro.tabular.transforms import group_by
from repro.tiers import reference
import repro.tabular.transforms as transforms_module

AGGREGATIONS = ("sum", "mean", "min", "max", "count", "std", "median")


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

def _sales_dataset(n_rows: int = 240, seed: int = 5) -> Dataset:
    """A mixed-key sales table with missing cells in keys and measures."""
    rng = np.random.default_rng(seed)
    regions = ["north", "south", "east"]
    districts = ["d00", "d01", "d02", "d03", "d04", "d05", "d06"]
    rows = []
    for i in range(n_rows):
        region = regions[int(rng.integers(len(regions)))]
        district = districts[int(rng.integers(len(districts)))]
        rows.append(
            {
                "region": None if rng.random() < 0.08 else region,
                "district": None if rng.random() < 0.08 else district,
                "year": float(2019 + int(rng.integers(3))) if rng.random() > 0.05 else None,
                "flagged": bool(rng.random() < 0.4),
                "amount": None if rng.random() < 0.15 else float(np.round(rng.uniform(-50, 500), 3)),
                "rate": None if rng.random() < 0.1 else float(rng.uniform(0, 1)),
            }
        )
    return Dataset.from_rows(
        rows,
        name="sales",
        ctypes={
            "region": ColumnType.CATEGORICAL,
            "district": ColumnType.CATEGORICAL,
            "year": ColumnType.NUMERIC,
            "flagged": ColumnType.BOOLEAN,
            "amount": ColumnType.NUMERIC,
            "rate": ColumnType.NUMERIC,
        },
    )


def _sales_cube(dataset: Dataset) -> Cube:
    return Cube(
        dataset,
        dimensions=[
            Dimension("place", ("region", "district")),
            Dimension("year", ("year",)),
            Dimension("flagged", ("flagged",)),
        ],
        measures=[
            Measure("total", "amount", "sum"),
            Measure("mean_rate", "rate", "mean"),
            Measure("n", "amount", "count"),
        ],
    )


@pytest.fixture
def sales():
    return _sales_dataset()


@pytest.fixture
def cube(sales):
    return _sales_cube(sales)


# ---------------------------------------------------------------------------
# group_by equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("agg", AGGREGATIONS)
def test_group_by_every_aggregation_identical(sales, agg):
    aggs = {"out": ("amount", agg)}
    assert_identical_datasets(
        group_by(sales, ["district"], aggs),
        on_reference(group_by, sales, ["district"], aggs),
    )


@pytest.mark.parametrize(
    "keys",
    [["region"], ["district"], ["year"], ["flagged"], ["region", "district"],
     ["district", "year"], ["region", "district", "year", "flagged"], ["region", "district", "year"]],
)
def test_group_by_key_combinations_identical(sales, keys):
    aggs = {f"amount_{agg}": ("amount", agg) for agg in AGGREGATIONS}
    aggs["rate_mean"] = ("rate", "mean")
    assert_identical_datasets(
        group_by(sales, keys, aggs),
        on_reference(group_by, sales, keys, aggs),
    )


def test_group_by_missing_sentinel_collision_identical():
    # A raw cell that is literally the row path's missing sentinel must share
    # a group with the genuinely missing cells on both paths.
    ds = Dataset.from_dict(
        {"k": ["a", None, "\0<missing>", "a", None], "x": [1.0, 2.0, 3.0, 4.0, 5.0]},
        ctypes={"k": ColumnType.CATEGORICAL, "x": ColumnType.NUMERIC},
    )
    fast = group_by(ds, ["k"], {"s": ("x", "sum")})
    slow = on_reference(group_by, ds, ["k"], {"s": ("x", "sum")})
    assert_identical_datasets(fast, slow)
    assert fast.n_rows == 2  # {"a"} and {missing, literal sentinel}
    assert fast["s"].tolist() == [1.0 + 4.0, 2.0 + 3.0 + 5.0]


def test_group_by_numeric_key_nan_group_identical():
    ds = Dataset.from_dict(
        {"k": [1.0, None, 2.0, 1.0, None], "x": [10.0, 20.0, 30.0, 40.0, 50.0]}
    )
    fast = group_by(ds, ["k"], {"s": ("x", "sum")})
    slow = on_reference(group_by, ds, ["k"], {"s": ("x", "sum")})
    assert_identical_datasets(fast, slow)
    assert fast.n_rows == 3  # 1.0, the nan group, 2.0 — in first-seen order
    assert fast["s"].tolist() == [50.0, 70.0, 30.0]


@pytest.mark.parametrize(
    "columns",
    [
        {"k": [], "x": []},
        {"x": [1.0, -0.0, 0.0, None, 1.0, -0.0, None]},
        {"k": [None, None, None], "x": [1.0, 2.0, 3.0]},
        {"k": [0.0, None, -0.0, 2.0, None, 0.0], "j": ["a", "b", "a", "a", "b", None],
         "x": [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]},
    ],
    ids=["zero-rows", "single-column", "all-missing-key", "signed-zero-and-nan-keys"],
)
def test_group_by_edge_inputs_identical(columns):
    ds = Dataset.from_dict(columns, ctypes={"k": ColumnType.NUMERIC, "x": ColumnType.NUMERIC})
    keys = [name for name in columns if name != "x"] or ["x"]
    aggs = {f"x_{agg}": ("x", agg) for agg in AGGREGATIONS}
    try:
        slow = on_reference(group_by, ds, keys, aggs)
    except ReproError as exc:
        with pytest.raises(type(exc)):
            group_by(ds, keys, aggs)
        return
    assert_identical_datasets(group_by(ds, keys, aggs), slow)


@pytest.mark.parametrize("n_groups", [257, 65_537])
def test_group_by_past_the_narrow_sort_dtype_boundaries_identical(n_groups):
    # Group ids are sorted as uint8 up to 256 groups and as uint16 up to
    # 65,536; these inputs need the next width up.
    rng = np.random.default_rng(n_groups)
    keys = np.concatenate([np.arange(n_groups), rng.integers(n_groups, size=500)])
    rng.shuffle(keys)
    ds = Dataset.from_dict(
        {"k": (keys * 0.5).tolist(), "x": np.round(rng.normal(size=keys.size), 3).tolist()}
    )
    aggs = {"s": ("x", "sum"), "n": ("x", "count")}
    fast = group_by(ds, ["k"], aggs)
    assert fast.n_rows == n_groups
    assert_identical_datasets(fast, on_reference(group_by, ds, ["k"], aggs))


def test_group_by_wide_distinct_keys_overflow_the_radix_and_densify():
    # Five key columns of 8,191 distinct values each: every radix width is
    # 2**13, so the composite key reaches 2**65 and is densified on the way.
    # The last two rows differ only in the first key, by 4,096 codes, and
    # would share a wrapped int64 key without that step.
    n = 8_191
    rng = np.random.default_rng(31)
    rows = np.concatenate([np.arange(n), [5, 17, 0, 0]])
    first = np.arange(n, dtype=float)[rows]
    first[-2:] = [100.0, 4_196.0]
    columns = {"n0": first.tolist()}
    for j in range(1, 5):
        values = rng.permutation(n)[rows]
        columns[f"k{j}"] = (values * 0.25).tolist() if j % 2 == 0 else [f"L{v}" for v in values.tolist()]
    columns["x"] = np.round(rng.normal(size=rows.size), 3).tolist()
    ds = Dataset.from_dict(columns)
    keys = [name for name in columns if name != "x"]
    encoded = encode_dataset(ds)
    assert math.prod(int(encoded.group_codes_view(k).max()) + 2 for k in keys) == 2**65
    aggs = {"s": ("x", "sum"), "n": ("x", "count")}
    fast = group_by(ds, keys, aggs)
    assert fast.n_rows == n + 2
    assert_identical_datasets(fast, on_reference(group_by, ds, keys, aggs))


def test_group_by_float_summation_order_is_sequential(sales):
    # The per-group sum must replay Python's left-to-right summation, not a
    # pairwise reduction: compare against an explicit sequential loop.
    grouped = group_by(sales, ["district"], {"s": ("amount", "sum")})
    by_key = {}
    for row in sales.iter_rows():
        key = "\0<missing>" if row["district"] is None else row["district"]
        amount = row["amount"]
        if amount is not None and not (isinstance(amount, float) and np.isnan(amount)):
            by_key.setdefault(key, []).append(float(amount))
    for row in grouped.iter_rows():
        key = "\0<missing>" if row["district"] is None else row["district"]
        expected = 0.0
        for value in by_key.get(key, []):
            expected = expected + value
        if by_key.get(key):
            assert struct.pack("<d", row["s"]) == struct.pack("<d", expected)


def test_group_by_non_numeric_measure_falls_back_to_reference(monkeypatch):
    calls = {"encoded": 0, "reference": 0}
    real_encoded = transforms_module._GroupFolds._fold
    real_reference = transforms_module._grouped_rows_reference
    monkeypatch.setattr(
        transforms_module._GroupFolds,
        "_fold",
        lambda *a, **k: calls.__setitem__("encoded", calls["encoded"] + 1) or real_encoded(*a, **k),
    )
    monkeypatch.setattr(
        transforms_module,
        "_grouped_rows_reference",
        lambda *a, **k: calls.__setitem__("reference", calls["reference"] + 1)
        or real_reference(*a, **k),
    )
    # A categorical column holding float-parseable strings: only the
    # row-at-a-time reference defines aggregation over it.
    ds = Dataset.from_dict(
        {"g": ["a", "b", "a"], "x": [1.0, 2.0, 3.0], "code": ["10", "20", "30"]},
        ctypes={"g": ColumnType.CATEGORICAL, "code": ColumnType.CATEGORICAL},
    )
    group_by(ds, ["g"], {"m": ("x", "mean")})
    assert calls == {"encoded": 1, "reference": 0}
    group_by(ds, ["g"], {"m": ("code", "sum")})
    assert calls == {"encoded": 1, "reference": 1}
    on_reference(group_by, ds, ["g"], {"m": ("x", "mean")})
    assert calls == {"encoded": 1, "reference": 2}


# ---------------------------------------------------------------------------
# Cube operation equivalence
# ---------------------------------------------------------------------------

def test_cube_aggregate_and_grand_total_identical(cube):
    assert_identical_datasets(cube.aggregate(["district"]), on_reference(cube.aggregate, ["district"]))
    assert_identical_datasets(
        cube.aggregate(["region", "year"]), on_reference(cube.aggregate, ["region", "year"])
    )
    assert_identical_datasets(cube.aggregate(), on_reference(cube.aggregate))


def test_grand_total_of_a_dataset_with_an_all_column(cube):
    """A column named ``__all__`` is an ordinary column to the grand total."""
    dataset = cube.dataset.add_column(Column("__all__", ["x"] * cube.dataset.n_rows))
    clashing = Cube(dataset, cube.dimensions, cube.measures)
    total = clashing.aggregate()
    assert_identical_datasets(total, cube.aggregate())
    assert_identical_datasets(total, on_reference(clashing.aggregate))


def test_cube_rollup_and_drill_down_identical(cube):
    assert_identical_datasets(cube.rollup("place"), on_reference(cube.rollup, "place"))
    assert_identical_datasets(cube.drill_down("place"), on_reference(cube.drill_down, "place"))
    assert_identical_datasets(cube.rollup("year"), on_reference(cube.rollup, "year"))


def test_cube_pivot_identical(cube):
    assert_identical_datasets(cube.pivot("district", "year"), on_reference(cube.pivot, "district", "year"))
    assert_identical_datasets(
        cube.pivot("region", "flagged", measure_name="mean_rate"),
        on_reference(cube.pivot, "region", "flagged", measure_name="mean_rate"),
    )


def test_cube_slice_identical(cube):
    for level, value in (("district", "d03"), ("year", 2020.0), ("flagged", True)):
        fast = cube.slice(level, value)
        with reference():
            slow = cube.slice(level, value)
            slow_aggregate = slow.aggregate(["region"])
        assert_identical_datasets(fast.dataset, slow.dataset)
        assert_identical_datasets(fast.aggregate(["region"]), slow_aggregate)


def test_cube_slice_exotic_numeric_candidates_match_row_semantics(cube):
    # Decimal/Fraction compare equal to float cells through Python ==; the
    # encoded mask must keep exactly the rows the row path keeps.
    from decimal import Decimal
    from fractions import Fraction

    for value in (Decimal("2020"), Fraction(2021, 1)):
        fast = cube.slice("year", value)
        slow = on_reference(cube.slice, "year", value)
        assert_identical_datasets(fast.dataset, slow.dataset)
    diced = cube.dice({"year": [Decimal("2019"), 2021.0]})
    assert_identical_datasets(
        diced.dataset, on_reference(cube.dice, {"year": [Decimal("2019"), 2021.0]}).dataset
    )


def test_cube_slice_type_mismatch_matches_row_semantics(cube):
    # Categorical cells are strings: slicing with a non-string value matches
    # nothing on the row path (str == int is False) and must do the same on
    # the encoded path — both raise because every row is filtered out.
    with pytest.raises(SchemaError):
        on_reference(cube.slice, "district", 3)
    with pytest.raises(SchemaError):
        cube.slice("district", 3)


def test_cube_dice_identical(cube):
    selections = {"district": ["d01", "d02", "d05"], "flagged": [True], "year": [2019.0, 2021.0]}
    fast = cube.dice(selections)
    with reference():
        slow = cube.dice(selections)
        slow_aggregate = slow.aggregate(["district"])
    assert_identical_datasets(fast.dataset, slow.dataset)
    assert_identical_datasets(fast.aggregate(["district"]), slow_aggregate)


def test_cube_empty_dice_selections_identical(cube):
    # dice({}) keeps every row but must still return a *fresh* sub-cube with
    # the row path's name, on both paths.
    fast = cube.dice({})
    slow = on_reference(cube.dice, {})
    assert fast is not cube and slow.name == fast.name == f"{cube.name}_dice"
    assert_identical_datasets(fast.dataset, slow.dataset)


def test_cube_measure_summary_identical(cube):
    assert cube.measure_summary() == on_reference(cube.measure_summary)


# ---------------------------------------------------------------------------
# Missing-value semantics (pinned on both paths)
# ---------------------------------------------------------------------------

def test_aggregation_missing_semantics_pinned():
    # Group "a": values 1.0, missing, 3.0 → count ignores the missing cell,
    # mean divides by the 2 present values.  Group "b": all missing → count 0,
    # every other aggregation nan.
    ds = Dataset.from_dict(
        {
            "g": ["a", "a", "a", "b", "b"],
            "x": [1.0, None, 3.0, None, float("nan")],
        },
        ctypes={"g": ColumnType.CATEGORICAL, "x": ColumnType.NUMERIC},
    )
    aggs = {f"x_{agg}": ("x", agg) for agg in AGGREGATIONS}
    for grouped in (group_by(ds, ["g"], aggs), on_reference(group_by, ds, ["g"], aggs)):
        by_group = {row["g"]: row for row in grouped.iter_rows()}
        a, b = by_group["a"], by_group["b"]
        assert a["x_count"] == 2.0 and a["x_sum"] == 4.0 and a["x_mean"] == 2.0
        assert a["x_min"] == 1.0 and a["x_max"] == 3.0
        assert b["x_count"] == 0.0
        for agg in ("sum", "mean", "min", "max", "std", "median"):
            assert np.isnan(b[f"x_{agg}"]), f"b.{agg} should be nan on both paths"
    assert_identical_datasets(
        group_by(ds, ["g"], aggs), on_reference(group_by, ds, ["g"], aggs)
    )


def test_cube_count_and_mean_ignore_missing(cube, sales):
    grouped = cube.aggregate(["district"])
    total_count = sum(grouped["n"].tolist())
    present = [v for v in sales["amount"].tolist() if v is not None and not np.isnan(v)]
    assert total_count == float(len(present))


# ---------------------------------------------------------------------------
# OLAP edge cases (both paths)
# ---------------------------------------------------------------------------

def test_empty_dice_raises_on_both_paths(cube):
    selections = {"district": ["no-such-district"]}
    with pytest.raises(SchemaError):
        cube.dice(selections)
    with pytest.raises(SchemaError):
        on_reference(cube.dice, selections)


def test_single_group_rollup_both_paths():
    ds = Dataset.from_dict(
        {"g": ["only"] * 6, "x": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]},
        ctypes={"g": ColumnType.CATEGORICAL},
    )
    cube = Cube(ds, [Dimension("g", ("g",))], [Measure("s", "x", "sum")])
    fast = cube.rollup("g")
    slow = on_reference(cube.rollup, "g")
    assert_identical_datasets(fast, slow)
    assert fast.n_rows == 1 and fast["s"][0] == 21.0


def test_all_missing_measure_column_both_paths():
    ds = Dataset.from_dict(
        {"g": ["a", "b", "a"], "x": [None, None, None]},
        ctypes={"g": ColumnType.CATEGORICAL, "x": ColumnType.NUMERIC},
    )
    cube = Cube(
        ds,
        [Dimension("g", ("g",))],
        [Measure("s", "x", "sum"), Measure("n", "x", "count"), Measure("m", "x", "mean")],
    )
    fast = cube.aggregate(["g"])
    slow = on_reference(cube.aggregate, ["g"])
    assert_identical_datasets(fast, slow)
    assert fast["n"].tolist() == [0.0, 0.0]
    assert all(np.isnan(v) for v in fast["s"].tolist() + fast["m"].tolist())


def test_multi_level_drill_down_ordering(cube, sales):
    # Drilling the place dimension to its finest level must list the groups in
    # first-seen row order of the district column — the row path's dict order.
    drilled = cube.drill_down("place")
    expected, seen = [], set()
    for value in sales["district"].tolist():
        key = "\0<missing>" if value is None else value
        if key not in seen:
            seen.add(key)
            expected.append(None if key == "\0<missing>" else value)
    assert drilled["district"].tolist() == expected
    assert_identical_datasets(drilled, on_reference(cube.drill_down, "place"))


def test_cube_operations_do_not_mutate_shared_views(cube):
    encoded = encode_dataset(cube.dataset)
    snapshot = {}
    for name in cube.dataset.column_names:
        values, missing = encoded.numeric_view(name)
        codes, vocabulary, _ = encoded.codes_view(name)
        snapshot[name] = (values.copy(), missing.copy(), codes.copy(), list(vocabulary))
    cube.aggregate(["district"])
    cube.aggregate()
    cube.pivot("district", "year")
    cube.slice("flagged", True).aggregate(["region"])
    cube.dice({"district": ["d01", "d02"]}).aggregate(["year"])
    evaluate_kpis_by_level([KPI("rate", "rate", target=0.5)], cube, "district")
    for name, (values, missing, codes, vocabulary) in snapshot.items():
        new_values, new_missing = encoded.numeric_view(name)
        new_codes, new_vocabulary, _ = encoded.codes_view(name)
        assert np.array_equal(values, new_values, equal_nan=True), f"{name}: numeric view mutated"
        assert np.array_equal(missing, new_missing), f"{name}: missing mask mutated"
        assert np.array_equal(codes, new_codes), f"{name}: codes mutated"
        assert vocabulary == new_vocabulary, f"{name}: vocabulary mutated"


# ---------------------------------------------------------------------------
# KPI / reporting consumers
# ---------------------------------------------------------------------------

def test_evaluate_kpis_by_level_identical(cube):
    kpis = [
        KPI("mean_rate", "rate", target=0.5),
        KPI("mean_amount", "amount", target=100.0, higher_is_better=False, tolerance=0.2),
    ]
    fast = evaluate_kpis_by_level(kpis, cube, "district")
    slow = on_reference(evaluate_kpis_by_level, kpis, cube, "district")
    assert_identical_datasets(fast, slow)
    assert fast.column_names == [
        "district", "mean_rate", "mean_rate_status", "mean_amount", "mean_amount_status",
    ]
    assert set(fast["mean_rate_status"].distinct()) <= {"good", "warning", "bad"}


def test_cube_report_identical_rendering(cube):
    fast = cube_report(cube, levels=["district", "year"])
    slow = on_reference(cube_report, cube, levels=["district", "year"])
    for fmt in ("text", "markdown", "html"):
        assert fast.render(fmt) == slow.render(fmt)
    text = fast.render("text")
    assert "Grand totals" in text and "By district" in text and "By year" in text


def test_cube_report_defaults_to_finest_levels(cube):
    report = cube_report(cube)
    titles = [section.title for section in report.sections]
    assert titles == ["Grand totals", "By district", "By year", "By flagged"]


# ---------------------------------------------------------------------------
# Encoding reuse
# ---------------------------------------------------------------------------

def test_sliced_cube_reuses_parent_encoding(cube):
    sliced = cube.slice("flagged", True)
    encoded = getattr(sliced.dataset, "_encoded_cache", None)
    assert encoded is not None, "slice should pre-wire the sub-cube's encoding"
    assert encoded._parent is encode_dataset(cube.dataset)


def test_take_slices_group_codes_consistently(sales):
    # Group codes computed on a fold view must induce the same grouping as
    # encoding the fold from scratch.
    encoded = encode_dataset(sales)
    indices = np.arange(0, sales.n_rows, 2)
    fold = encoded.take(indices)
    fold_encoded = getattr(fold, "_encoded_cache")
    fresh = encode_dataset(fold.copy())
    for keys in (["district"], ["region", "year"], ["region", "district", "year"]):
        a_ids, a_n = fold_encoded.group_keys(keys)
        b_ids, b_n = fresh.group_keys(keys)
        assert a_n == b_n
        assert np.array_equal(a_ids, b_ids)
