"""Common estimator interfaces for the mining algorithms.

Classifiers implement a two-tier prediction protocol: the mandatory
row-at-a-time :meth:`Classifier._predict_row`, and an optional vectorized
:meth:`Classifier._predict_batch` over the cached encoded-matrix view of the
dataset (:mod:`repro.tabular.encoded`).  :meth:`Classifier.predict` tries the
batch path first and transparently falls back to the row loop, so estimators
opt into vectorization without changing the public API or its semantics.
Inside :func:`repro.tiers.reference` every batch hook and encoded fit stands
aside.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from typing import Any

from repro.exceptions import MiningError
from repro.tabular.dataset import Column, Dataset
from repro.tabular.encoded import EncodedDataset, encode_dataset
from repro.tiers import use_reference


def check_fitted(estimator: "Classifier | Clusterer | Transformer") -> None:
    """Raise :class:`~repro.exceptions.MiningError` if the estimator is unfitted."""
    if not getattr(estimator, "_fitted", False):
        raise MiningError(f"{type(estimator).__name__} must be fitted before use")


class Classifier(ABC):
    """Supervised classifier over a :class:`~repro.tabular.dataset.Dataset`.

    Subclasses implement :meth:`_fit` and :meth:`_predict_row` (or override
    :meth:`predict` wholesale).  The target column is the dataset column whose
    role is ``target`` (see :meth:`Dataset.set_target`).
    """

    #: Canonical registry name; subclasses override.
    name = "classifier"

    def __init__(self) -> None:
        self._fitted = False
        self.classes_: list[Any] = []
        self.feature_names_: list[str] = []
        self.target_name_: str | None = None

    # -- template methods -----------------------------------------------------

    @abstractmethod
    def _fit(self, dataset: Dataset, features: list[Column], target: Column) -> None:
        """Train on the prepared features and target."""

    @abstractmethod
    def _predict_row(self, row: dict[str, Any]) -> Any:
        """Predict the class label of one row (mapping feature name → value)."""

    def _predict_batch(self, encoded: EncodedDataset) -> Sequence[Any] | None:
        """Vectorized prediction over an encoded dataset view.

        Return ``None`` (the default) to fall back to the per-row path.
        Implementations must produce exactly the labels the row path would.
        """
        return None

    def _uses_base_impl(self, owner: type, *method_names: str) -> bool:
        """True when this instance inherits ``owner``'s implementation of every
        named method.

        Batch/vectorized paths replicate specific row-at-a-time reference
        methods; a subclass that overrides any of them must get its customised
        behaviour, so vectorized shortcuts guard on this before engaging.
        """
        cls = type(self)
        return all(getattr(cls, name) is getattr(owner, name) for name in method_names)

    def _predict_proba_batch(self, encoded: EncodedDataset) -> list[dict[str, float]] | None:
        """Vectorized counterpart of :meth:`predict_proba`; ``None`` → fall back."""
        return None

    # -- public API --------------------------------------------------------------

    def fit(self, dataset: Dataset) -> "Classifier":
        """Train the classifier on ``dataset`` (must have a target column)."""
        target = dataset.target_column()
        features = dataset.feature_columns()
        if not features:
            raise MiningError("dataset has no feature columns")
        labels = [v for v in target.non_missing()]
        if not labels:
            raise MiningError("target column has no labelled rows")
        self.classes_ = sorted({str(v) for v in labels})
        self.feature_names_ = [c.name for c in features]
        self.target_name_ = target.name
        self._fit(dataset, features, target)
        self._fitted = True
        return self

    def predict(self, dataset: Dataset) -> list[Any]:
        """Predict a class label for every row of ``dataset``."""
        check_fitted(self)
        if not use_reference():
            batch = self._predict_batch(encode_dataset(dataset))
            if batch is not None:
                return list(batch)
        predictions = []
        for row in dataset.iter_rows():
            features_only = {name: row.get(name) for name in self.feature_names_}
            predictions.append(self._predict_row(features_only))
        return predictions

    def predict_proba(self, dataset: Dataset) -> list[dict[str, float]]:
        """Per-class probabilities; default is a degenerate distribution."""
        check_fitted(self)
        if not use_reference():
            batch = self._predict_proba_batch(encode_dataset(dataset))
            if batch is not None:
                return batch
        predictions = self.predict(dataset)
        return [
            {cls: (1.0 if str(pred) == cls else 0.0) for cls in self.classes_}
            for pred in predictions
        ]

    def score(self, dataset: Dataset) -> float:
        """Accuracy of the classifier on a labelled dataset."""
        from repro.mining.metrics import accuracy

        truth = [str(v) for v in dataset.target_column().tolist()]
        predicted = [str(v) for v in self.predict(dataset)]
        return accuracy(truth, predicted)

    def describe(self) -> dict[str, Any]:
        """A lightweight, human-readable description of the fitted model."""
        check_fitted(self)
        return {
            "algorithm": self.name,
            "classes": list(self.classes_),
            "features": list(self.feature_names_),
            "target": self.target_name_,
        }


class Clusterer(ABC):
    """Unsupervised clusterer over the numeric view of a dataset."""

    name = "clusterer"

    def __init__(self) -> None:
        self._fitted = False
        self.labels_: list[int] = []

    @abstractmethod
    def fit(self, dataset: Dataset) -> "Clusterer":
        """Cluster the dataset; stores assignments in :attr:`labels_`."""

    def fit_predict(self, dataset: Dataset) -> list[int]:
        """Fit and return the per-row cluster labels."""
        self.fit(dataset)
        return list(self.labels_)


class Transformer(ABC):
    """A fitted transformation of a dataset (e.g. PCA, feature selection)."""

    name = "transformer"

    def __init__(self) -> None:
        self._fitted = False

    @abstractmethod
    def fit(self, dataset: Dataset) -> "Transformer":
        """Learn the transformation parameters."""

    @abstractmethod
    def transform(self, dataset: Dataset) -> Dataset:
        """Apply the transformation and return a new dataset."""

    def fit_transform(self, dataset: Dataset) -> Dataset:
        """Fit then transform in one call."""
        return self.fit(dataset).transform(dataset)
