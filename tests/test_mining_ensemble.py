"""Unit tests for the bagging / random-subspace ensemble classifiers."""

from __future__ import annotations

import pytest

from repro.core.injection import ClassNoiseInjector, MissingValuesInjector
from repro.datasets import make_classification_dataset, service_requests
from repro.exceptions import MiningError
from repro.mining import (
    BaggingClassifier,
    CLASSIFIER_REGISTRY,
    DecisionTreeClassifier,
    NaiveBayesClassifier,
    RandomSubspaceForest,
    cross_validate,
    train_test_split,
)


@pytest.fixture(scope="module")
def train_test():
    dataset = make_classification_dataset(n_rows=180, n_numeric=3, n_categorical=1, seed=21)
    return train_test_split(dataset, test_fraction=0.3, seed=2)


class TestBaggingClassifier:
    def test_registered(self):
        assert CLASSIFIER_REGISTRY["bagged_trees"] is BaggingClassifier

    def test_parameter_validation(self):
        with pytest.raises(MiningError):
            BaggingClassifier(n_estimators=0)
        with pytest.raises(MiningError):
            BaggingClassifier(sample_fraction=0.0)
        with pytest.raises(MiningError):
            BaggingClassifier(feature_fraction=1.5)

    def test_learns_separable_data(self, train_test):
        train, test = train_test
        model = BaggingClassifier(n_estimators=7, seed=1).fit(train)
        assert model.score(test) > 0.8
        assert len(model.estimators_) == 7

    def test_predict_before_fit_rejected(self, train_test):
        _, test = train_test
        with pytest.raises(MiningError):
            BaggingClassifier().predict(test)

    def test_predict_proba_normalised(self, train_test):
        train, test = train_test
        model = BaggingClassifier(n_estimators=5, seed=2).fit(train)
        for distribution in model.predict_proba(test.head(5)):
            assert sum(distribution.values()) == pytest.approx(1.0)
            assert set(distribution) == set(model.classes_)

    def test_reproducible_given_seed(self, train_test):
        train, test = train_test
        a = BaggingClassifier(n_estimators=5, seed=3).fit(train).predict(test)
        b = BaggingClassifier(n_estimators=5, seed=3).fit(train).predict(test)
        assert a == b

    def test_custom_base_learner(self, train_test):
        train, test = train_test
        model = BaggingClassifier(base_factory=NaiveBayesClassifier, n_estimators=5, seed=4).fit(train)
        assert model.score(test) > 0.8

    def test_describe_reports_committee_size(self, train_test):
        train, _ = train_test
        model = BaggingClassifier(n_estimators=3, seed=5).fit(train)
        description = model.describe()
        assert description["n_estimators"] == 3
        assert description["algorithm"] == "bagged_trees"

    def test_more_robust_to_label_noise_than_single_tree(self):
        dataset = make_classification_dataset(n_rows=220, n_numeric=3, n_categorical=1, seed=8)
        noisy = ClassNoiseInjector().apply(dataset, 0.25, seed=3)
        single = cross_validate(lambda: DecisionTreeClassifier(max_depth=8), noisy, k=3).accuracy
        bagged = cross_validate(lambda: BaggingClassifier(n_estimators=9, seed=0), noisy, k=3).accuracy
        assert bagged >= single - 0.03

    def test_tolerates_missing_values(self, train_test):
        train, test = train_test
        holed = MissingValuesInjector().apply(test, 0.3, seed=1)
        model = BaggingClassifier(n_estimators=5, seed=6).fit(train)
        assert len(model.predict(holed)) == holed.n_rows


class TestRandomSubspaceForest:
    def test_uses_feature_subspaces(self, train_test):
        train, test = train_test
        forest = RandomSubspaceForest(n_estimators=9, feature_fraction=0.5, seed=1).fit(train)
        assert forest.score(test) > 0.75
        total_features = len(train.feature_columns())
        assert all(len(features) < total_features for features in forest.estimator_features_)

    def test_full_fraction_keeps_all_features(self, train_test):
        train, _ = train_test
        model = BaggingClassifier(n_estimators=3, feature_fraction=1.0, seed=2).fit(train)
        total_features = len(train.feature_columns())
        assert all(len(features) == total_features for features in model.estimator_features_)


class TestPinnedSeededFits:
    """Seeded committees stay identical: each member's bootstrap and subspace
    come from one RNG stream drawn in member order."""

    @pytest.fixture(scope="class")
    def requests(self):
        # resolution_days nearly determines the target; without it the
        # committees disagree on enough rows for the pin to mean something.
        train = service_requests(n_rows=160, seed=8, dirty=True).drop_columns(["resolution_days"])
        test = service_requests(n_rows=40, seed=9).drop_columns(["resolution_days"])
        return train, test

    @staticmethod
    def _marks(predictions):
        return "".join("L" if label == "late" else "." for label in predictions)

    def test_bagging_with_subspaces(self, requests):
        train, test = requests
        model = BaggingClassifier(n_estimators=9, feature_fraction=0.7, seed=3).fit(train)
        assert self._marks(model.predict(test)) == ".L..L..............LL..L........LL.L..L."
        assert model.estimator_features_ == [
            ["district", "open_backlog", "topic", "priority"],
            ["priority", "open_backlog", "topic", "channel"],
            ["open_backlog", "district", "channel", "priority"],
            ["priority", "topic", "open_backlog", "channel"],
            ["priority", "district", "open_backlog", "channel"],
            ["district", "topic", "open_backlog", "priority"],
            ["topic", "open_backlog", "district", "channel"],
            ["channel", "topic", "open_backlog", "priority"],
            ["topic", "channel", "priority", "district"],
        ]

    def test_random_subspace_forest(self, requests):
        train, test = requests
        forest = RandomSubspaceForest(n_estimators=7, seed=5).fit(train)
        assert self._marks(forest.predict(test)) == "....L...............L..L........L.....L."
        assert forest.estimator_features_ == [
            ["priority", "topic", "channel"],
            ["open_backlog", "topic", "priority"],
            ["topic", "open_backlog", "priority"],
            ["priority", "topic", "open_backlog"],
            ["topic", "channel", "priority"],
            ["open_backlog", "priority", "district"],
            ["open_backlog", "district", "priority"],
        ]
