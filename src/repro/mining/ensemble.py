"""Ensemble classifiers: bagging and random-subspace committees of base learners.

Ensembles are the natural "extension" experiment for the framework: they trade
the interpretability the paper's non-expert users need for robustness to noisy
and incomplete data, so the knowledge base can learn *when* that trade-off is
worth recommending.

Vote aggregation runs on the encoded-matrix views: every committee member is
asked for its vectorized ``_predict_batch`` over the shared encoding of the
test dataset (falling back to that member's row loop when it has no batch
path), and the per-row vote tally is a single ``np.add.at``/``bincount``-style
accumulation instead of ``n_rows`` Counter objects.  The Counter loop is kept
as the reference path; the batch tally reproduces its majority/tie-break
semantics (alphabetically first among the most-voted labels) exactly.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Callable
from typing import Any

import numpy as np

from repro.exceptions import MiningError
from repro.mining.base import Classifier, check_fitted
from repro.mining.tree import DecisionTreeClassifier
from repro.tabular.dataset import Column, ColumnRole, Dataset, is_missing_value
from repro.tabular.encoded import EncodedDataset, encode_dataset
from repro.tiers import use_reference


class BaggingClassifier(Classifier):
    """Bootstrap-aggregated committee of base classifiers (default: decision trees).

    Parameters
    ----------
    base_factory:
        Zero-argument callable producing a fresh, unfitted base classifier.
    n_estimators:
        Number of committee members.
    sample_fraction:
        Size of each bootstrap sample relative to the training set.
    feature_fraction:
        Fraction of feature columns given to each member (random subspace);
        1.0 disables subspacing.
    seed:
        Seed controlling both the bootstraps and the subspaces.
    """

    name = "bagged_trees"

    def __init__(
        self,
        base_factory: Callable[[], Classifier] | None = None,
        n_estimators: int = 11,
        sample_fraction: float = 1.0,
        feature_fraction: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if n_estimators < 1:
            raise MiningError("n_estimators must be at least 1")
        if not 0.0 < sample_fraction <= 1.0:
            raise MiningError("sample_fraction must be in (0, 1]")
        if not 0.0 < feature_fraction <= 1.0:
            raise MiningError("feature_fraction must be in (0, 1]")
        self.base_factory = base_factory or (lambda: DecisionTreeClassifier(max_depth=8))
        self.n_estimators = n_estimators
        self.sample_fraction = sample_fraction
        self.feature_fraction = feature_fraction
        self.seed = seed
        self.estimators_: list[Classifier] = []
        self.estimator_features_: list[list[str]] = []

    def _draw_plans(
        self, labelled: list[int], feature_names: list[str]
    ) -> list[tuple[list[int], list[str] | None]]:
        """Pre-draw every member's ``(bootstrap_indices, subspace_or_None)`` plan.

        All draws happen here, on one RNG, member by member: member ``i``'s
        bootstrap, then its subspace.  That order is the seeded stream;
        changing it changes every seeded model.
        """
        rng = random.Random(self.seed)
        n_subspace = max(1, int(round(self.feature_fraction * len(feature_names))))
        n_sample = max(2, int(round(self.sample_fraction * len(labelled))))
        plans: list[tuple[list[int], list[str] | None]] = []
        for _ in range(self.n_estimators):
            indices = [labelled[rng.randrange(len(labelled))] for _ in range(n_sample)]
            chosen = rng.sample(feature_names, n_subspace) if n_subspace < len(feature_names) else None
            plans.append((indices, chosen))
        return plans

    def _fit(self, dataset: Dataset, features: list[Column], target: Column) -> None:
        labelled = [i for i, value in enumerate(target.tolist()) if not is_missing_value(value)]
        if not labelled:
            raise MiningError("no labelled rows to train on")
        feature_names = [column.name for column in features]
        plans = self._draw_plans(labelled, feature_names)
        members: list[Classifier] = []
        for indices, chosen in plans:
            subset = dataset.take(indices)
            if chosen is not None:
                kept = [c.name for c in subset.columns if c.role != ColumnRole.FEATURE or c.name in chosen]
                subset = subset.select_columns(kept)
            member = self.base_factory()
            member.fit(subset)
            members.append(member)
        self.estimators_ = members
        self.estimator_features_ = [
            chosen if chosen is not None else list(feature_names) for _, chosen in plans
        ]

    def _member_votes(self, dataset: Dataset) -> list[list[str]]:
        """Return per-row lists of member predictions (reference vote path)."""
        per_member = [member.predict(dataset) for member in self.estimators_]
        return [
            [str(per_member[m][i]) for m in range(len(self.estimators_))]
            for i in range(dataset.n_rows)
        ]

    def _predict_row(self, row: dict[str, Any]) -> str:  # pragma: no cover - unused path
        raise MiningError("BaggingClassifier predicts dataset-wise; use predict()")

    # -- vectorized vote tally -------------------------------------------------

    def _vote_matrix(self, encoded: EncodedDataset) -> tuple[np.ndarray, list[str]] | None:
        """Tally member votes into an ``(n_rows, n_labels)`` count matrix.

        Each member contributes its vectorized ``_predict_batch`` over the
        shared encoding when it has one, falling back to that member's full
        ``predict`` (the row loop) otherwise.  Labels are collected into a
        vocabulary sorted at the end so that ``argmax`` reproduces the Counter
        path's alphabetical tie-break.
        """
        if not self.estimators_ or not self._uses_base_impl(BaggingClassifier, "_member_votes"):
            return None
        n = encoded.n_rows
        label_index: dict[str, int] = {}
        member_codes: list[np.ndarray] = []
        for member in self.estimators_:
            labels = None if use_reference() else member._predict_batch(encoded)
            if labels is None:
                labels = member.predict(encoded.dataset)
            codes = np.fromiter(
                (label_index.setdefault(str(label), len(label_index)) for label in labels),
                dtype=np.int64,
                count=n,
            )
            member_codes.append(codes)
        vocabulary = sorted(label_index)
        # Remap insertion-order codes onto the sorted vocabulary.
        sorted_position = {label: i for i, label in enumerate(vocabulary)}
        remap = np.empty(len(label_index), dtype=np.int64)
        for label, code in label_index.items():
            remap[code] = sorted_position[label]
        votes = np.zeros((n, len(vocabulary)), dtype=np.int64)
        rows = np.arange(n)
        for codes in member_codes:
            np.add.at(votes, (rows, remap[codes]), 1)
        return votes, vocabulary

    def _predict_batch(self, encoded: EncodedDataset) -> list[str] | None:
        tally = self._vote_matrix(encoded)
        if tally is None:
            return None
        votes, vocabulary = tally
        # argmax picks the first maximum; the vocabulary is sorted, matching
        # the max(sorted(counts), key=counts.get) tie-break of the vote loop.
        return [vocabulary[c] for c in votes.argmax(axis=1).tolist()]

    def _predict_proba_batch(self, encoded: EncodedDataset) -> list[dict[str, float]] | None:
        tally = self._vote_matrix(encoded)
        if tally is None:
            return None
        votes, vocabulary = tally
        vocabulary_position = {label: i for i, label in enumerate(vocabulary)}
        position = {
            cls: vocabulary_position[cls] for cls in self.classes_ if cls in vocabulary_position
        }
        totals = votes.sum(axis=1)
        results = []
        for i, total in enumerate(totals.tolist()):
            total = total or 1
            row = votes[i]
            results.append(
                {
                    cls: (int(row[position[cls]]) if cls in position else 0) / total
                    for cls in self.classes_
                }
            )
        return results

    # -- public API ------------------------------------------------------------

    def predict(self, dataset: Dataset) -> list[str]:
        check_fitted(self)
        if not use_reference():
            batch = self._predict_batch(encode_dataset(dataset))
            if batch is not None:
                return batch
        predictions = []
        for votes in self._member_votes(dataset):
            counts = Counter(votes)
            predictions.append(max(sorted(counts), key=counts.get))
        return predictions

    def predict_proba(self, dataset: Dataset) -> list[dict[str, float]]:
        check_fitted(self)
        if not use_reference():
            batch = self._predict_proba_batch(encode_dataset(dataset))
            if batch is not None:
                return batch
        results = []
        for votes in self._member_votes(dataset):
            counts = Counter(votes)
            total = sum(counts.values()) or 1
            results.append({cls: counts.get(cls, 0) / total for cls in self.classes_})
        return results

    def describe(self) -> dict[str, Any]:
        description = super().describe()
        description["n_estimators"] = len(self.estimators_)
        description["feature_fraction"] = self.feature_fraction
        return description


class RandomSubspaceForest(BaggingClassifier):
    """Bagging with per-member random feature subspaces (a lightweight random forest)."""

    name = "random_subspace_forest"

    def __init__(
        self,
        n_estimators: int = 15,
        feature_fraction: float = 0.6,
        seed: int = 0,
    ) -> None:
        super().__init__(
            base_factory=lambda: DecisionTreeClassifier(max_depth=8, min_samples_split=4),
            n_estimators=n_estimators,
            sample_fraction=1.0,
            feature_fraction=feature_fraction,
            seed=seed,
        )
