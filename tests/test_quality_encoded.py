"""Row-vs-encoded equivalence harness for the data-quality subsystem.

Every default criterion has two execution paths: the row-at-a-time reference
``measure`` and the vectorized ``_measure_encoded`` over the shared
encoded-matrix views.  They must be **bit-identical** — same ``score`` float
and a ``details`` tree with the same keys in the same order, holding the same
plain-Python value types — on mixed-type data, injected quality problems and
every edge case.  The harness also pins the executional contracts: criteria
never mutate the shared views, and ``measure_quality`` encodes a dataset at
most once (and the advisor's profile shares that encoding with subsequent
mining).
"""

from __future__ import annotations

import numpy as np
import pytest
from parity import on_reference

from repro.core.injection import DuplicateInjector, MissingValuesInjector
from repro.datasets import make_classification_dataset
from repro.quality import (
    CompletenessCriterion,
    CorrelationCriterion,
    DuplicationCriterion,
    get_criterion,
    measure_quality,
)
from repro.quality.criteria import CriterionMeasure
from repro.quality.profile import DEFAULT_CRITERIA
from repro.tabular.dataset import Column, ColumnRole, ColumnType, Dataset
from repro.tabular.encoded import EncodedDataset, encode_dataset


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------

def _assert_same_tree(a, b, path="details"):
    """Exact structural equality: same types, same dict key order, same bits."""
    assert type(a) is type(b), f"{path}: {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        assert list(a) == list(b), f"{path}: key sets/order differ"
        for key in a:
            _assert_same_tree(a[key], b[key], f"{path}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same_tree(x, y, f"{path}[{i}]")
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def _assert_identical(row: CriterionMeasure, enc: CriterionMeasure):
    assert row.criterion == enc.criterion
    assert type(row.score) is type(enc.score)
    assert row.score == enc.score, f"{row.criterion}: {row.score!r} != {enc.score!r}"
    _assert_same_tree(row.details, enc.details, f"{row.criterion}.details")


def _assert_all_criteria_identical(dataset: Dataset):
    encoded = encode_dataset(dataset)
    for name in DEFAULT_CRITERIA:
        criterion = get_criterion(name)
        try:
            row = criterion.measure(dataset)
        except Exception as exc:  # both paths must fail the same way
            with pytest.raises(type(exc)):
                get_criterion(name).measure_encoded(encoded)
            continue
        enc = criterion._measure_encoded(encoded)
        assert enc is not None, f"{name}: encoded path did not engage"
        _assert_identical(row, enc)


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

def _mixed_dataset(n_rows: int = 200, missing: float = 0.25, seed: int = 11) -> Dataset:
    """Numeric/categorical/boolean/datetime/string columns with missing values
    and injected (near-)duplicate rows."""
    base = make_classification_dataset(n_rows=n_rows, n_numeric=3, n_categorical=2, seed=seed)
    rng = np.random.default_rng(seed + 1)
    base = base.add_column(
        Column("flag", rng.choice([True, False], size=n_rows).tolist(), ctype=ColumnType.BOOLEAN)
    )
    base = base.add_column(
        Column("day", [f"2024-0{(i % 9) + 1}-1{i % 10}" for i in range(n_rows)], ctype=ColumnType.DATETIME)
    )
    base = base.add_column(
        Column(
            "note",
            [f"Observation  #{i % 17}" if i % 3 else f"observation #{i % 17}" for i in range(n_rows)],
            ctype=ColumnType.STRING,
        )
    )
    base = DuplicateInjector(fuzzy=True).apply(base, 0.15, seed=seed + 2)
    if missing > 0:
        base = MissingValuesInjector().apply(base, missing, seed=seed + 3)
    return base


# ---------------------------------------------------------------------------
# Per-criterion equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", DEFAULT_CRITERIA)
@pytest.mark.parametrize("missing", [0.0, 0.3])
def test_criterion_row_vs_encoded_on_mixed_data(name, missing):
    dataset = _mixed_dataset(missing=missing)
    criterion = get_criterion(name)
    row = criterion.measure(dataset)
    enc = criterion._measure_encoded(encode_dataset(dataset))
    assert enc is not None, f"{name}: encoded path did not engage"
    _assert_identical(row, enc)


def test_all_missing_column():
    _assert_all_criteria_identical(
        Dataset(
            [
                Column("gone", [None, None, None, None], ctype=ColumnType.CATEGORICAL),
                Column("void", [float("nan")] * 4, ctype=ColumnType.NUMERIC),
                Column("x", [1.0, 2.0, 3.0, 4.0], ctype=ColumnType.NUMERIC),
            ],
            name="all-missing",
        )
    )


def test_constant_column():
    _assert_all_criteria_identical(
        Dataset(
            [
                Column("k", ["same"] * 6, ctype=ColumnType.CATEGORICAL),
                Column("x", [7.0] * 6, ctype=ColumnType.NUMERIC),
                Column("t", ["a", "b", "a", "b", "a", "b"], ctype=ColumnType.CATEGORICAL, role=ColumnRole.TARGET),
            ],
            name="constant",
        )
    )


def test_single_row():
    _assert_all_criteria_identical(
        Dataset(
            [
                Column("x", [1.5], ctype=ColumnType.NUMERIC),
                Column("c", ["one"], ctype=ColumnType.CATEGORICAL),
                Column("f", [True], ctype=ColumnType.BOOLEAN),
            ],
            name="single-row",
        )
    )


def test_no_numeric_columns():
    _assert_all_criteria_identical(
        Dataset(
            [
                Column("c", ["a", "b", "c", "a", "b"], ctype=ColumnType.CATEGORICAL),
                Column("s", ["v", "w", "x", "y", "z"], ctype=ColumnType.STRING),
                Column("f", [True, False, True, True, False], ctype=ColumnType.BOOLEAN),
            ],
            name="no-numeric",
        )
    )


def test_empty_dataset():
    # Zero rows: completeness divides by n_rows on both paths (same error);
    # every other criterion must produce identical measures.
    _assert_all_criteria_identical(
        Dataset(
            [
                Column("x", [], ctype=ColumnType.NUMERIC),
                Column("c", [], ctype=ColumnType.CATEGORICAL),
            ],
            name="empty",
        )
    )


def test_literal_missing_string_collides_like_row_path():
    # The row path keys missing cells as the string "<missing>", which
    # collides with a real cell holding that text in exact mode; the encoded
    # row-hash must replicate the collision.
    dataset = Dataset(
        [Column("s", ["<missing>", None, "x", None, "<missing>"], ctype=ColumnType.STRING)],
        name="collision",
    )
    for fuzzy in (True, False):
        criterion = DuplicationCriterion(fuzzy=fuzzy)
        _assert_identical(criterion.measure(dataset), criterion._measure_encoded(encode_dataset(dataset)))
    # Four rows share the "<missing>" key (3 duplicates of the first), "x" is unique.
    assert DuplicationCriterion(fuzzy=False).measure(dataset).details["n_exact_duplicates"] == 3


def test_fuzzy_duplicates_case_accents_whitespace():
    dataset = Dataset(
        [
            Column(
                "city",
                ["Málaga", "malaga", "  MALAGA ", "Sevilla", "sevilla", "Granada", None],
                ctype=ColumnType.CATEGORICAL,
            ),
            Column("x", [1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0], ctype=ColumnType.NUMERIC),
        ],
        name="fuzzy",
    )
    encoded = encode_dataset(dataset)
    for fuzzy in (True, False):
        criterion = DuplicationCriterion(fuzzy=fuzzy)
        _assert_identical(criterion.measure(dataset), criterion._measure_encoded(encoded))
    fuzzy_measure = DuplicationCriterion(fuzzy=True)._measure_encoded(encoded)
    assert fuzzy_measure.details["n_exact_duplicates"] == 0
    assert fuzzy_measure.details["n_fuzzy_duplicates"] == 3  # 2 Málaga variants + 1 Sevilla


def test_numeric_rounding_keys_match_row_path():
    # round(·, 6) merges near-equal floats; ±0.0 share one key and every nan
    # shares the missing key on both paths.
    nan = float("nan")
    dataset = Dataset(
        [Column("x", [1.0000001, 1.00000012, 1.0, -0.0, 0.0, 2.5, nan, -0.0, nan], ctype=ColumnType.NUMERIC)],
        name="rounding",
    )
    criterion = DuplicationCriterion()
    _assert_identical(criterion.measure(dataset), criterion._measure_encoded(encode_dataset(dataset)))
    assert criterion.measure(dataset).details["n_exact_duplicates"] == 5


def test_single_column():
    _assert_all_criteria_identical(
        Dataset(
            [Column("c", ["a", None, "b", "a", None, "A "], ctype=ColumnType.CATEGORICAL)],
            name="single-column",
        )
    )


def test_wide_distinct_keys_overflow_the_radix_and_densify():
    # Five key columns of 8,191 distinct values each: every radix width is
    # 2**13, so the composite row key reaches 2**65 and is densified on the
    # way.  The last two rows differ only in the first column, by 4,096
    # codes, and would share a wrapped int64 key without that step.  Rows
    # 5 and 17 come back as true duplicates.
    n = 8_191
    rng = np.random.default_rng(29)
    rows = np.concatenate([np.arange(n), [5, 17, 0, 0]])
    first = np.arange(n, dtype=float)[rows]
    first[-2:] = [100.0, 4_196.0]
    columns = [Column("n0", first.tolist(), ctype=ColumnType.NUMERIC)]
    for j in range(1, 5):
        values = rng.permutation(n)[rows]
        if j % 2:
            columns.append(Column(f"s{j}", [f"L{v}" for v in values.tolist()], ctype=ColumnType.STRING))
        else:
            columns.append(Column(f"n{j}", (values * 0.25).tolist(), ctype=ColumnType.NUMERIC))
    dataset = Dataset(columns, name="wide-distinct")
    for fuzzy in (True, False):
        criterion = DuplicationCriterion(fuzzy=fuzzy)
        row = criterion.measure(dataset)
        _assert_identical(row, criterion._measure_encoded(encode_dataset(dataset)))
        assert row.details["n_exact_duplicates"] == 2


# ---------------------------------------------------------------------------
# Correlation cap
# ---------------------------------------------------------------------------

def _wide_dataset(n_numeric=6, n_categorical=6, n_rows=40, seed=23) -> Dataset:
    rng = np.random.default_rng(seed)
    columns = [
        Column(f"n{i}", rng.normal(size=n_rows).tolist(), ctype=ColumnType.NUMERIC)
        for i in range(n_numeric)
    ]
    columns += [
        Column(f"c{i}", rng.choice(["a", "b", "c"], size=n_rows).tolist(), ctype=ColumnType.CATEGORICAL)
        for i in range(n_categorical)
    ]
    return Dataset(columns, name="wide")


@pytest.mark.parametrize("max_pairs", [5, 17, 21])
def test_correlation_cap_exits_both_loops_identically(max_pairs, monkeypatch):
    # 6 numeric -> 15 pearson pairs, 6 categorical -> 15 cramers pairs.
    # max_pairs=5 caps inside the numeric loop, 17 inside the categorical one,
    # 21 caps mid-categorical too; the cap must end the examination outright
    # (no association evaluated past it) and identically on both paths.
    dataset = _wide_dataset()
    calls = {"n": 0}

    import repro.quality.correlation as correlation_module

    real_pearson = correlation_module.pearson
    real_pearson_encoded = correlation_module._pearson_encoded
    real_cramers = correlation_module.cramers_v
    real_cramers_encoded = correlation_module._cramers_v_encoded

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls["n"] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(correlation_module, "pearson", counting(real_pearson))
    monkeypatch.setattr(correlation_module, "_pearson_encoded", counting(real_pearson_encoded))
    monkeypatch.setattr(correlation_module, "cramers_v", counting(real_cramers))
    monkeypatch.setattr(correlation_module, "_cramers_v_encoded", counting(real_cramers_encoded))

    criterion = CorrelationCriterion(max_pairs=max_pairs)
    row = criterion.measure(dataset)
    assert calls["n"] == max_pairs, "row path evaluated associations past the cap"
    calls["n"] = 0
    enc = criterion._measure_encoded(encode_dataset(dataset))
    assert calls["n"] == max_pairs, "encoded path evaluated associations past the cap"
    _assert_identical(row, enc)
    assert row.details["n_pairs"] == max_pairs


def test_cramers_v_leaves_out_a_level_seen_only_beside_missing():
    # "z" occurs only where b is missing: the reference builds its table
    # from complete pairs, so "z" gets no row on either path (a row for it
    # would raise min(levels_a, levels_b) - 1 from 1 to 2).
    a = Column("a", ["x", "y", "x", "y", "z", "x", "y", "z", "x"], ctype=ColumnType.CATEGORICAL)
    b = Column("b", ["p", "q", "r", "p", None, "q", "r", None, "r"], ctype=ColumnType.CATEGORICAL)
    dataset = Dataset([a, b], name="beside-missing")
    criterion = CorrelationCriterion()
    row = criterion.measure(dataset)
    assert row.details["mean_association"] > 0.0
    _assert_identical(row, criterion._measure_encoded(encode_dataset(dataset)))


# ---------------------------------------------------------------------------
# Executional contracts
# ---------------------------------------------------------------------------

def test_measure_quality_row_and_encoded_profiles_identical():
    dataset = _mixed_dataset(n_rows=120)
    fast = measure_quality(dataset)
    slow = on_reference(measure_quality, dataset)
    assert list(fast.as_vector()) == list(slow.as_vector())
    for name in DEFAULT_CRITERIA:
        _assert_identical(slow.measures[name], fast.measures[name])


def test_subclass_overriding_measure_keeps_its_behaviour():
    class Opinionated(CompletenessCriterion):
        def measure(self, dataset):
            return CriterionMeasure(self.name, 0.123, {"overridden": True})

    result = Opinionated().measure_encoded(encode_dataset(_mixed_dataset(n_rows=30)))
    assert result.score == 0.123
    assert result.details == {"overridden": True}


def test_measure_quality_encodes_at_most_once(monkeypatch):
    dataset = _mixed_dataset(n_rows=80)
    roots = []
    original_init = EncodedDataset.__init__

    def counting_init(self, ds, _parent=None, _parent_indices=None):
        if _parent is None:
            roots.append(ds)
        original_init(self, ds, _parent=_parent, _parent_indices=_parent_indices)

    monkeypatch.setattr(EncodedDataset, "__init__", counting_init)
    measure_quality(dataset)
    measure_quality(dataset)
    assert roots.count(dataset) <= 1, "measure_quality re-encoded a cached dataset"


def test_advisor_profile_and_cv_share_one_encoding(monkeypatch, small_knowledge_base):
    from repro.core.advisor import Advisor
    from repro.mining import CLASSIFIER_REGISTRY, cross_validate

    dataset = make_classification_dataset(n_rows=60, n_numeric=3, n_categorical=1, seed=41)
    roots = []
    original_init = EncodedDataset.__init__

    def counting_init(self, ds, _parent=None, _parent_indices=None):
        if _parent is None:
            roots.append(ds)
        original_init(self, ds, _parent=_parent, _parent_indices=_parent_indices)

    monkeypatch.setattr(EncodedDataset, "__init__", counting_init)
    recommendation = Advisor(small_knowledge_base, k=3).advise(dataset)
    cross_validate(CLASSIFIER_REGISTRY[recommendation.best_algorithm], dataset, k=3, seed=0)
    assert roots.count(dataset) == 1, "profile and CV did not share the dataset encoding"


def test_criteria_do_not_mutate_shared_views():
    dataset = _mixed_dataset(n_rows=100)
    encoded = encode_dataset(dataset)
    snapshots = {}
    for column in dataset.columns:
        values, missing = encoded.numeric_view(column.name)
        codes, vocabulary, _ = encoded.codes_view(column.name)
        snapshots[column.name] = (
            values.copy(),
            missing.copy(),
            codes.copy(),
            list(vocabulary),
        )
    reference = dataset.copy()
    measure_quality(dataset)
    assert dataset == reference
    for name, (values, missing, codes, vocabulary) in snapshots.items():
        new_values, new_missing = encoded.numeric_view(name)
        new_codes, new_vocabulary, _ = encoded.codes_view(name)
        assert np.array_equal(values, new_values, equal_nan=True), name
        assert np.array_equal(missing, new_missing), name
        assert np.array_equal(codes, new_codes), name
        assert vocabulary == new_vocabulary, name
