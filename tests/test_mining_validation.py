"""Unit tests for train/test splitting, stratified k-fold and cross-validation."""

from __future__ import annotations

import struct

import pytest

from repro.datasets import service_requests
from repro.exceptions import MiningError
from repro.mining import DecisionTreeClassifier, NaiveBayesClassifier, cross_validate, stratified_kfold, train_test_split
from repro.mining.validation import EvaluationResult, holdout_evaluate
from repro.tabular.dataset import Column, Dataset


class TestTrainTestSplit:
    def test_partition_sizes(self, clean_classification):
        train, test = train_test_split(clean_classification, test_fraction=0.25, seed=0)
        assert train.n_rows + test.n_rows == clean_classification.n_rows
        assert test.n_rows == pytest.approx(0.25 * clean_classification.n_rows, abs=3)

    def test_stratification_keeps_class_shares(self, clean_classification):
        _, test = train_test_split(clean_classification, test_fraction=0.3, seed=1, stratify=True)
        counts = test["target"].value_counts()
        shares = [count / test.n_rows for count in counts.values()]
        assert max(shares) - min(shares) < 0.25

    def test_reproducible(self, clean_classification):
        a = train_test_split(clean_classification, seed=5)[1]
        b = train_test_split(clean_classification, seed=5)[1]
        assert a.to_rows() == b.to_rows()

    def test_unstratified_split(self, clean_classification):
        train, test = train_test_split(clean_classification, stratify=False, seed=2)
        assert train.n_rows + test.n_rows == clean_classification.n_rows

    def test_invalid_fraction(self, clean_classification):
        with pytest.raises(MiningError):
            train_test_split(clean_classification, test_fraction=0.0)

    def test_too_small_dataset(self):
        tiny = Dataset.from_dict({"x": [1.0, 2.0], "target": ["a", "b"]}).set_target("target")
        with pytest.raises(MiningError):
            train_test_split(tiny)


class TestStratifiedKFold:
    def test_folds_partition_every_row(self, clean_classification):
        folds = stratified_kfold(clean_classification, k=4, seed=0)
        assert len(folds) == 4
        all_test_indices = sorted(i for _, test in folds for i in test)
        assert all_test_indices == list(range(clean_classification.n_rows))

    def test_train_and_test_disjoint(self, clean_classification):
        for train, test in stratified_kfold(clean_classification, k=3):
            assert not set(train) & set(test)

    def test_validation(self, clean_classification):
        with pytest.raises(MiningError):
            stratified_kfold(clean_classification, k=1)
        with pytest.raises(MiningError):
            stratified_kfold(clean_classification.head(3), k=10)


class TestCrossValidate:
    def test_result_fields(self, clean_classification):
        result = cross_validate(DecisionTreeClassifier, clean_classification, k=3)
        assert isinstance(result, EvaluationResult)
        assert result.algorithm == "decision_tree"
        assert 0.0 <= result.accuracy <= 1.0
        assert len(result.fold_accuracies) == 3
        assert result.accuracy_std >= 0.0
        assert set(result.as_dict()) >= {"algorithm", "accuracy", "macro_f1", "kappa"}

    def test_skips_rows_with_missing_target(self, clean_classification):
        from repro.tabular.dataset import Column

        values = clean_classification["target"].tolist()
        values[0] = None
        values[1] = None
        holed = clean_classification.replace_column(
            Column("target", values, ctype="categorical", role="target")
        )
        result = cross_validate(NaiveBayesClassifier, holed, k=3)
        assert result.accuracy > 0.5

    def test_too_few_rows_rejected(self):
        tiny = Dataset.from_dict({"x": [1.0, 2.0, 3.0], "target": ["a", "b", "a"]}).set_target("target")
        with pytest.raises(MiningError):
            cross_validate(DecisionTreeClassifier, tiny, k=10)

    def test_holdout_evaluate(self, clean_classification):
        train, test = train_test_split(clean_classification, seed=3)
        result = holdout_evaluate(NaiveBayesClassifier, train, test)
        assert result.algorithm == "naive_bayes"
        assert result.accuracy > 0.7
        assert len(result.fold_accuracies) == 1

    def test_single_split_std_is_zero(self, clean_classification):
        train, test = train_test_split(clean_classification, seed=3)
        result = holdout_evaluate(NaiveBayesClassifier, train, test)
        assert result.accuracy_std == 0.0


def _bits(value: float) -> str:
    """The IEEE-754 bytes of a float, hex-encoded (bit-exact comparison)."""
    return struct.pack("<d", float(value)).hex()


@pytest.fixture(scope="module")
def holed_requests() -> Dataset:
    """Dirty service requests with every ninth target missing.

    ``resolution_days`` is dropped because it nearly determines the
    target, which would pin a run of perfect scores.
    """
    dataset = service_requests(n_rows=240, seed=5, dirty=True).drop_columns(["resolution_days"])
    values = dataset["resolved_late"].tolist()
    for i in range(0, len(values), 9):
        values[i] = None
    return dataset.replace_column(Column("resolved_late", values, ctype="categorical", role="target"))


#: ``(accuracy, macro_f1, kappa)`` and the fold accuracies as float bits.
_PINNED_CV = {
    (NaiveBayesClassifier, 3): (
        ("922449922449e33f", "82f80fd83197e23f", "23ebb1f18fe7c53f"),
        ("c3f5285c8fc2e53f", "c6925f2cf9c5e23f", "c214f9ac1b4ce13f"),
    ),
    (NaiveBayesClassifier, 5): (
        ("000000000000e23f", "adcfdf0b0ecfe13f", "baef60e80c85c33f"),
        ("333333333333e33f", "f5499ff4499fe43f", "721cc7711cc7e13f", "d2277dd2277de23f", "a38b2ebae8a2db3f"),
    ),
    (DecisionTreeClassifier, 3): (
        ("b76ddbb66ddbe43f", "ec9c1d595668e33f", "3b9df6820545cb3f"),
        ("e8b4814e1be8e43f", "a0d3063a6da0e33f", "dd608a7cd60de63f"),
    ),
    (DecisionTreeClassifier, 5): (
        ("6edbb66ddbb6e43f", "2691b09ffb9ae33f", "f38d26170ff3cc3f"),
        ("176cc1166cc1e63f", "176cc1166cc1e63f", "943ee9933ee9e33f", "721cc7711cc7e13f", "5d74d145175de43f"),
    ),
}


@pytest.mark.parametrize(
    ("factory", "k"), list(_PINNED_CV), ids=lambda p: getattr(p, "name", str(p))
)
def test_cross_validate_pinned_bits(holed_requests, factory, k):
    """Seeded CV scores stay bit-identical, with the unlabelled-row subset in play."""
    result = cross_validate(factory, holed_requests, k=k, seed=4)
    scores, folds = _PINNED_CV[(factory, k)]
    assert result.algorithm == factory.name
    assert (_bits(result.accuracy), _bits(result.macro_f1), _bits(result.kappa)) == scores
    assert tuple(_bits(a) for a in result.fold_accuracies) == folds
