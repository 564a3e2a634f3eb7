"""Equivalence tests for the encoded-matrix execution core.

The vectorized batch paths (``_predict_batch`` / ``_predict_proba_batch``)
and the encoded fits must be drop-in replacements for the historical
row-at-a-time loops, which every classifier runs inside
``repro.tiers.reference()``: same labels, same probabilities, bit for bit, for
every classifier in the registry, including datasets with missing values and
mixed column types.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from parity import on_reference

from repro.core.injection import MissingValuesInjector
from repro.datasets import make_classification_dataset
from repro.mining import (
    CLASSIFIER_REGISTRY,
    BaggingClassifier,
    DecisionTreeClassifier,
    KNNClassifier,
    NaiveBayesClassifier,
    OneRClassifier,
    PrismClassifier,
    RandomSubspaceForest,
    cross_validate,
)
from repro.tabular.dataset import Column, ColumnType, Dataset
from repro.tabular.encoded import EncodedDataset, encode_dataset, merge_missing_level
from repro.tiers import reference

ALL_CLASSIFIERS = sorted(CLASSIFIER_REGISTRY)
#: Classifiers with both an encoded fit and a retained row-at-a-time fit.
DUAL_FIT_CLASSIFIERS = ("decision_tree", "one_r", "prism")


def _mixed_dataset(n_rows: int, missing: float, seed: int) -> Dataset:
    """A classification dataset with numeric, categorical, boolean and datetime
    feature columns plus injected missing values."""
    base = make_classification_dataset(n_rows=n_rows, n_numeric=2, n_categorical=2, seed=seed)
    rng = np.random.default_rng(seed + 1)
    flags = rng.choice([True, False], size=n_rows).tolist()
    days = [f"2024-01-{(i % 28) + 1:02d}" for i in range(n_rows)]
    base = base.add_column(Column("flag", flags, ctype=ColumnType.BOOLEAN))
    base = base.add_column(Column("day", days, ctype=ColumnType.DATETIME))
    if missing > 0:
        base = MissingValuesInjector().apply(base, missing, seed=seed + 2)
    return base


@pytest.mark.parametrize("name", ALL_CLASSIFIERS)
@pytest.mark.parametrize("missing", [0.0, 0.3])
def test_batch_predict_equals_row_path(name, missing):
    train = _mixed_dataset(80, missing, seed=31)
    test = _mixed_dataset(40, missing, seed=77)
    model = CLASSIFIER_REGISTRY[name]().fit(train)
    batch = model.predict(test)
    row = on_reference(model.predict, test)
    assert [str(p) for p in batch] == [str(p) for p in row]


@pytest.mark.parametrize("name", ALL_CLASSIFIERS)
@pytest.mark.parametrize("missing", [0.0, 0.3])
def test_batch_proba_equals_row_path(name, missing):
    train = _mixed_dataset(80, missing, seed=13)
    test = _mixed_dataset(40, missing, seed=59)
    factory = CLASSIFIER_REGISTRY[name]
    model = factory().fit(train)
    batch = model.predict_proba(test)
    row = on_reference(model.predict_proba, test)
    assert len(batch) == len(row) == test.n_rows
    for b, r in zip(batch, row):
        assert set(b) == set(r)
        for cls in b:
            assert b[cls] == r[cls], (cls, b[cls], r[cls])


@settings(max_examples=12, deadline=None)
@given(
    n_rows=st.integers(min_value=20, max_value=90),
    missing=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    seed=st.integers(min_value=0, max_value=1000),
    k=st.integers(min_value=1, max_value=9),
    weighted=st.booleans(),
)
def test_knn_batch_bit_identical_property(n_rows, missing, seed, k, weighted):
    """Whatever the dataset shape, missingness and k, the vectorized kNN path
    reproduces the row path bit for bit (including weighted tie handling)."""
    train = _mixed_dataset(n_rows, missing, seed=seed)
    test = _mixed_dataset(max(10, n_rows // 2), missing, seed=seed + 500)
    model = KNNClassifier(k=k, weighted=weighted).fit(train)
    assert model.predict(test) == on_reference(model.predict, test)


@settings(max_examples=12, deadline=None)
@given(
    n_rows=st.integers(min_value=20, max_value=90),
    missing=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_naive_bayes_batch_bit_identical_property(n_rows, missing, seed):
    train = _mixed_dataset(n_rows, missing, seed=seed)
    test = _mixed_dataset(max(10, n_rows // 2), missing, seed=seed + 500)
    model = NaiveBayesClassifier().fit(train)
    assert model.predict(test) == on_reference(model.predict, test)


def test_batch_handles_dropped_feature_columns():
    """A test set missing a trained feature behaves like an all-missing column,
    exactly as row.get(name) -> None does in the row path."""
    train = _mixed_dataset(60, 0.0, seed=5)
    test = _mixed_dataset(30, 0.0, seed=6).drop_columns(["num_0", "cat_0"])
    for name in ("knn", "naive_bayes"):
        model = CLASSIFIER_REGISTRY[name]().fit(train)
        assert model.predict(test) == on_reference(model.predict, test)


def test_batch_handles_unseen_categories():
    train = _mixed_dataset(60, 0.1, seed=8)
    test = _mixed_dataset(30, 0.1, seed=9).replace_column(
        Column("cat_0", ["brand_new_level"] * 30, ctype=ColumnType.CATEGORICAL)
    )
    for name in ("knn", "naive_bayes"):
        model = CLASSIFIER_REGISTRY[name]().fit(train)
        assert model.predict(test) == on_reference(model.predict, test)


class TestEncodedDataset:
    def test_encoding_is_cached_on_the_dataset(self):
        dataset = _mixed_dataset(25, 0.2, seed=3)
        assert encode_dataset(dataset) is encode_dataset(dataset)

    def test_numeric_view_marks_missing_and_unparseable(self):
        dataset = Dataset.from_dict(
            {"x": [1.5, None, 2.5], "s": ["3", "oops", None]},
            ctypes={"s": ColumnType.CATEGORICAL},
        )
        encoded = encode_dataset(dataset)
        values, missing = encoded.numeric_view("x")
        assert missing.tolist() == [False, True, False]
        values, missing = encoded.numeric_view("s")
        assert values[0] == 3.0
        assert missing.tolist() == [False, True, True]

    def test_codes_view_vocabulary_first_seen_order(self):
        dataset = Dataset.from_dict({"c": ["b", "a", None, "b", "c"]})
        codes, vocabulary, index = encode_dataset(dataset).codes_view("c")
        assert vocabulary == ["b", "a", "c"]
        assert codes.tolist() == [0, 1, -1, 0, 2]
        assert index == {"b": 0, "a": 1, "c": 2}

    def test_absent_column_is_all_missing(self):
        dataset = Dataset.from_dict({"c": ["x", "y"]})
        encoded = encode_dataset(dataset)
        values, missing = encoded.numeric_view("ghost")
        assert missing.all() and np.isnan(values).all()
        codes, vocabulary, _ = encoded.codes_view("ghost")
        assert vocabulary == [] and (codes == -1).all()

    def test_take_slices_without_reencoding_and_restricts_vocab(self):
        dataset = Dataset.from_dict({"c": ["a", "b", "c", "b", "a"], "x": [1.0, 2.0, 3.0, 4.0, 5.0]})
        encoded = encode_dataset(dataset)
        encoded.codes_view("c")
        encoded.numeric_view("x")
        subset = encoded.take([4, 1, 3])
        sub_encoded = encode_dataset(subset)
        assert isinstance(sub_encoded, EncodedDataset)
        codes, vocabulary, _ = sub_encoded.codes_view("c")
        # Levels restricted to the slice, first-seen order within the slice.
        assert vocabulary == ["a", "b"]
        assert codes.tolist() == [0, 1, 1]
        values, missing = sub_encoded.numeric_view("x")
        assert values.tolist() == [5.0, 2.0, 4.0]
        # The slice matches a from-scratch encoding of the same subset rows.
        fresh = EncodedDataset(dataset.take([4, 1, 3]))
        fresh_codes, fresh_vocab, _ = fresh.codes_view("c")
        assert fresh_vocab == vocabulary and fresh_codes.tolist() == codes.tolist()


class TestEncodedFitEquivalence:
    """The encoded (column-wise) fits must induce exactly the models the
    row-at-a-time reference fits would."""

    @pytest.mark.parametrize("missing", [0.0, 0.3, 0.5])
    @pytest.mark.parametrize("seed", [11, 47])
    def test_tree_encoded_fit_grows_identical_tree(self, missing, seed):
        train = _mixed_dataset(120, missing, seed=seed)
        encoded = DecisionTreeClassifier().fit(train)
        row = on_reference(DecisionTreeClassifier().fit, train)
        assert encoded.root_.rules() == row.root_.rules()
        assert encoded.depth() == row.depth()
        assert encoded.n_leaves() == row.n_leaves()

    @pytest.mark.parametrize("missing", [0.0, 0.4])
    def test_one_r_encoded_fit_matches_row_fit(self, missing):
        train = _mixed_dataset(110, missing, seed=23)
        encoded = OneRClassifier().fit(train)
        row = on_reference(OneRClassifier().fit, train)
        assert encoded.best_feature_ == row.best_feature_
        assert encoded.rules_ == row.rules_
        assert encoded.default_class_ == row.default_class_
        assert encoded._edges == row._edges

    @pytest.mark.parametrize("missing", [0.0, 0.4])
    def test_prism_encoded_fit_matches_row_fit(self, missing):
        train = _mixed_dataset(110, missing, seed=29)
        encoded = PrismClassifier().fit(train)
        row = on_reference(PrismClassifier().fit, train)
        assert encoded.rule_texts() == row.rule_texts()
        assert encoded.default_class_ == row.default_class_

    @pytest.mark.parametrize("name", DUAL_FIT_CLASSIFIERS + ("bagged_trees",))
    def test_cross_validation_metrics_identical_to_row_path(self, name):
        dataset = _mixed_dataset(90, 0.2, seed=41)
        fast = cross_validate(CLASSIFIER_REGISTRY[name], dataset, k=3, seed=0)
        slow = on_reference(cross_validate, CLASSIFIER_REGISTRY[name], dataset, k=3, seed=0)
        assert fast.accuracy == slow.accuracy
        assert fast.macro_f1 == slow.macro_f1
        assert fast.kappa == slow.kappa
        assert fast.fold_accuracies == slow.fold_accuracies

    def test_subclass_overriding_row_machinery_keeps_row_fit(self):
        class CustomSplitTree(DecisionTreeClassifier):
            def _best_split(self, rows, labels):
                return None  # always a stump

        model = CustomSplitTree().fit(_mixed_dataset(60, 0.0, seed=7))
        assert model.root_.is_leaf


@settings(max_examples=12, deadline=None)
@given(
    n_rows=st.integers(min_value=25, max_value=90),
    missing=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_tree_batch_bit_identical_property(n_rows, missing, seed):
    """Whatever the dataset shape and missingness, the encoded tree fit and the
    masked batch prediction reproduce the row path bit for bit."""
    train = _mixed_dataset(n_rows, missing, seed=seed)
    test = _mixed_dataset(max(10, n_rows // 2), missing, seed=seed + 500)
    model = DecisionTreeClassifier().fit(train)
    row_model = on_reference(DecisionTreeClassifier().fit, train)
    assert model.root_.rules() == row_model.root_.rules()
    assert model.predict(test) == on_reference(model.predict, test)


class TestEnsembleBatchVotes:
    """Batch vote tallies must replicate the per-row Counter loop exactly."""

    @pytest.mark.parametrize("missing", [0.0, 0.3])
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: BaggingClassifier(n_estimators=7, seed=3),
            lambda: RandomSubspaceForest(n_estimators=9, feature_fraction=0.5, seed=5),
            lambda: BaggingClassifier(base_factory=NaiveBayesClassifier, n_estimators=5, seed=1),
        ],
    )
    def test_batch_votes_equal_counter_loop(self, missing, factory):
        train = _mixed_dataset(90, missing, seed=17)
        test = _mixed_dataset(45, missing, seed=71)
        model = factory().fit(train)
        with reference():
            row_predictions = model.predict(test)
            row_proba = model.predict_proba(test)
        assert model.predict(test) == row_predictions
        batch_proba = model.predict_proba(test)
        assert batch_proba == row_proba

    def test_members_without_batch_path_fall_back_per_member(self):
        train = _mixed_dataset(70, 0.1, seed=9)
        test = _mixed_dataset(30, 0.1, seed=19)

        class RowOnlyTree(DecisionTreeClassifier):
            def _predict_row(self, row):  # a customised row path has no batch twin
                return super()._predict_row(row)

        def row_only_tree():
            return RowOnlyTree(max_depth=4)

        model = BaggingClassifier(base_factory=row_only_tree, n_estimators=5, seed=2).fit(train)
        assert model.predict(test) == on_reference(model.predict, test)


class TestVectorizedEdgeCases:
    def test_single_class_fold(self):
        """A constant target must give a single-leaf tree / default-only rules,
        with batch and row paths in agreement."""
        base = _mixed_dataset(40, 0.2, seed=13)
        target_name = base.target_column().name
        train = base.replace_column(
            Column(
                target_name,
                ["only"] * 40,
                ctype=ColumnType.CATEGORICAL,
                role=base[target_name].role,
            )
        )
        test = _mixed_dataset(20, 0.2, seed=99)
        for name in DUAL_FIT_CLASSIFIERS:
            model = CLASSIFIER_REGISTRY[name]().fit(train)
            assert model.predict(test) == ["only"] * test.n_rows
            assert model.predict(test) == on_reference(model.predict, test)
        tree = DecisionTreeClassifier().fit(train)
        assert tree.root_.is_leaf

    def test_all_missing_feature_column(self):
        train = _mixed_dataset(60, 0.0, seed=3).replace_column(
            Column("num_0", [None] * 60, ctype=ColumnType.NUMERIC)
        )
        test = _mixed_dataset(30, 0.0, seed=4).replace_column(
            Column("num_0", [None] * 30, ctype=ColumnType.NUMERIC)
        )
        for name in DUAL_FIT_CLASSIFIERS:
            encoded_model = CLASSIFIER_REGISTRY[name]().fit(train)
            row_model = on_reference(CLASSIFIER_REGISTRY[name]().fit, train)
            assert encoded_model.predict(test) == on_reference(encoded_model.predict, test)
            assert encoded_model.predict(test) == on_reference(row_model.predict, test)

    def test_prism_empty_rule_coverage_falls_back_to_default(self):
        """Test rows no induced rule covers must take the default class on both
        paths (including levels never seen at fit time)."""
        train = Dataset.from_dict(
            {
                "colour": ["red", "red", "blue", "blue", "green", "green"],
                "label": ["a", "a", "b", "b", "a", "b"],
            },
            ctypes={"colour": ColumnType.CATEGORICAL, "label": ColumnType.CATEGORICAL},
        ).set_target("label")
        model = PrismClassifier(bins=2).fit(train)
        test = Dataset.from_dict(
            {"colour": ["violet", "amber", None]},
            ctypes={"colour": ColumnType.CATEGORICAL},
        )
        batch = model.predict(test)
        row = on_reference(model.predict, test)
        assert batch == row
        assert batch[:2] == [model.default_class_] * 2

    def test_merge_missing_level_reuses_literal_level(self):
        codes = np.asarray([0, -1, 1, -1], dtype=np.int64)
        merged, levels = merge_missing_level(codes, ["<missing>", "x"])
        assert levels == ["<missing>", "x"]
        assert merged.tolist() == [0, 0, 1, 0]
        merged, levels = merge_missing_level(codes, ["a", "b"])
        assert levels == ["a", "b", "<missing>"]
        assert merged.tolist() == [0, 2, 1, 2]


class TestTabularSatellites:
    def test_concat_same_types_avoids_coercion_and_matches_semantics(self):
        a = Dataset.from_dict({"x": [1.0, None], "c": ["p", None]})
        b = Dataset.from_dict({"x": [3.0], "c": ["q"]}, ctypes={"c": a["c"].ctype})
        merged = a.concat(b)
        assert merged.n_rows == 3
        assert merged["x"].ctype == a["x"].ctype
        assert merged["c"].tolist() == ["p", None, "q"]
        assert np.isnan(merged["x"].values[1])

    def test_concat_mixed_types_still_coerces(self):
        a = Dataset.from_dict({"x": [1.0, 2.0]})
        b = Dataset.from_dict({"x": ["3", "4"]}, ctypes={"x": ColumnType.CATEGORICAL})
        merged = a.concat(b)
        assert merged["x"].ctype == ColumnType.NUMERIC
        assert merged["x"].tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_missing_mask_cached_and_consistent(self):
        column = Column("c", ["a", None, "b", None])
        first = column.missing_mask()
        assert first.tolist() == [False, True, False, True]
        assert column.missing_mask() is first  # cached object reused
        taken = column.take([1, 2])
        assert taken.missing_mask().tolist() == [True, False]
        assert column.copy().missing_mask().tolist() == first.tolist()

    def test_value_counts_counter(self):
        column = Column("c", ["a", "b", "a", None, "a"])
        counts = column.value_counts()
        assert counts == {"a": 3, "b": 1}
        assert isinstance(counts, dict)

    def test_numeric_summary_quartiles(self):
        from repro.tabular.stats import numeric_summary

        column = Column("x", [float(v) for v in range(1, 101)])
        summary = numeric_summary(column)
        assert summary["q1"] == pytest.approx(np.percentile(np.arange(1.0, 101.0), 25))
        assert summary["median"] == pytest.approx(50.5)
        assert summary["q3"] == pytest.approx(np.percentile(np.arange(1.0, 101.0), 75))
