"""Naive Bayes classifier for mixed numeric/categorical features.

Numeric features use a per-class Gaussian likelihood; categorical, boolean and
datetime features use per-class frequency estimates with Laplace smoothing.
Missing feature values are simply skipped at prediction time, which makes the
algorithm comparatively robust to low completeness — one of the behaviours the
knowledge base is expected to learn (paper, §3.1).

Fitting and scoring run on the encoded-matrix views from
:mod:`repro.tabular.encoded`: per-class Gaussian parameters come from masked
array reductions, category tables from ``bincount`` over integer codes, and
log-likelihoods are accumulated feature-by-feature over whole columns in the
same order as the per-row loop (kept as :meth:`_log_likelihood` for fallback),
so batch predictions replicate the row path exactly.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any

import numpy as np

from repro.exceptions import MiningError
from repro.mining.base import Classifier, check_fitted
from repro.tabular.dataset import Column, Dataset, is_missing_value
from repro.tabular.encoded import EncodedDataset, encode_dataset
from repro.tiers import use_reference

_MIN_VARIANCE = 1e-9


class NaiveBayesClassifier(Classifier):
    """Gaussian / multinomial naive Bayes with Laplace smoothing.

    Parameters
    ----------
    laplace:
        Additive smoothing constant for categorical likelihoods.
    """

    name = "naive_bayes"

    def __init__(self, laplace: float = 1.0) -> None:
        super().__init__()
        if laplace <= 0:
            raise MiningError("laplace smoothing constant must be positive")
        self.laplace = laplace
        self._priors: dict[str, float] = {}
        self._gaussians: dict[str, dict[str, tuple[float, float]]] = {}
        self._categorical: dict[str, dict[str, dict[str, float]]] = {}
        self._category_levels: dict[str, set[str]] = {}
        self._numeric_features: list[str] = []
        self._categorical_features: list[str] = []

    def _fit(self, dataset: Dataset, features: list[Column], target: Column) -> None:
        labels = [None if is_missing_value(v) else str(v) for v in target.tolist()]
        class_counts = Counter(label for label in labels if label is not None)
        total = sum(class_counts.values())
        self._priors = {cls: count / total for cls, count in class_counts.items()}

        self._numeric_features = [c.name for c in features if c.is_numeric()]
        self._categorical_features = [c.name for c in features if not c.is_numeric()]

        encoded = encode_dataset(dataset)
        class_order = list(class_counts)
        class_position = {cls: i for i, cls in enumerate(class_order)}
        label_codes = np.asarray(
            [-1 if label is None else class_position[label] for label in labels], dtype=np.int64
        )
        class_masks = [label_codes == i for i in range(len(class_order))]

        # Gaussian parameters per (class, numeric feature).
        self._gaussians = {cls: {} for cls in class_counts}
        for column in features:
            if not column.is_numeric():
                continue
            values, missing = encoded.numeric_view(column.name)
            present = ~missing
            for cls in class_counts:
                member = class_masks[class_position[cls]] & present
                if member.any():
                    selected = values[member]
                    mean = float(np.mean(selected))
                    var = float(np.var(selected)) + _MIN_VARIANCE
                else:
                    mean, var = 0.0, 1.0
                self._gaussians[cls][column.name] = (mean, var)

        # Frequency tables per (class, categorical feature).
        self._categorical = {cls: {} for cls in class_counts}
        self._category_levels = {}
        for column in features:
            if column.is_numeric():
                continue
            codes, vocabulary, _ = encoded.codes_view(column.name)
            levels = set(vocabulary)
            self._category_levels[column.name] = levels
            n_levels = max(len(levels), 1)
            for cls in class_counts:
                member = class_masks[class_position[cls]] & (codes >= 0)
                counts = np.bincount(codes[member], minlength=len(vocabulary))
                denom = int(counts.sum()) + self.laplace * n_levels
                self._categorical[cls][column.name] = {
                    level: (int(counts[j]) + self.laplace) / denom
                    for j, level in enumerate(vocabulary)
                }

    # -- row-at-a-time path (reference implementation / fallback) -------------

    def _log_likelihood(self, row: dict[str, Any], cls: str) -> float:
        score = math.log(self._priors.get(cls, 1e-12))
        for name in self._numeric_features:
            value = row.get(name)
            if is_missing_value(value):
                continue
            mean, var = self._gaussians[cls].get(name, (0.0, 1.0))
            try:
                x = float(value)
            except (TypeError, ValueError):
                continue
            score += -0.5 * math.log(2 * math.pi * var) - ((x - mean) ** 2) / (2 * var)
        for name in self._categorical_features:
            value = row.get(name)
            if is_missing_value(value):
                continue
            table = self._categorical[cls].get(name, {})
            levels = self._category_levels.get(name, set())
            default = self.laplace / (self.laplace * max(len(levels), 1) + 1.0)
            score += math.log(table.get(str(value), default))
        return score

    def _predict_row(self, row: dict[str, Any]) -> str:
        if not self._priors:
            raise MiningError("model has not been fitted")
        scores = {cls: self._log_likelihood(row, cls) for cls in self._priors}
        return max(sorted(scores), key=scores.get)

    # -- vectorized path -------------------------------------------------------

    def _batch_supported(self) -> bool:
        return self._uses_base_impl(NaiveBayesClassifier, "_log_likelihood", "_predict_row")

    def _log_likelihood_matrix(self, encoded: EncodedDataset, classes: list[str]) -> np.ndarray:
        """Column ``i`` holds the log-likelihood of ``classes[i]`` for every row.

        Per-feature terms are added to the score sequentially in the same
        feature order as :meth:`_log_likelihood`, with per-level log values
        precomputed via ``math.log``, so each cell equals the row path's float.
        """
        n = encoded.n_rows
        scores = np.empty((n, len(classes)))
        for ci, cls in enumerate(classes):
            score = np.full(n, math.log(self._priors.get(cls, 1e-12)))
            for name in self._numeric_features:
                values, missing = encoded.numeric_view(name)
                mean, var = self._gaussians[cls].get(name, (0.0, 1.0))
                present = ~missing
                if present.any():
                    term = (
                        -0.5 * math.log(2 * math.pi * var)
                        - ((values[present] - mean) ** 2) / (2 * var)
                    )
                    score[present] += term
            for name in self._categorical_features:
                codes, vocabulary, _ = encoded.codes_view(name)
                table = self._categorical[cls].get(name, {})
                levels = self._category_levels.get(name, set())
                default = self.laplace / (self.laplace * max(len(levels), 1) + 1.0)
                log_lookup = np.asarray(
                    [math.log(table.get(level, default)) for level in vocabulary], dtype=float
                )
                present = codes >= 0
                if present.any():
                    score[present] += log_lookup[codes[present]]
            scores[:, ci] = score
        return scores

    def _predict_batch(self, encoded: EncodedDataset) -> list[str] | None:
        if not self._batch_supported() or not self._priors:
            return None
        classes = sorted(self._priors)
        scores = self._log_likelihood_matrix(encoded, classes)
        # argmax picks the first maximum; classes are sorted, matching the
        # max(sorted(scores), key=scores.get) tie-break of the row path.
        return [classes[i] for i in scores.argmax(axis=1).tolist()]

    def _predict_proba_batch(self, encoded: EncodedDataset) -> list[dict[str, float]] | None:
        if not self._batch_supported() or not self._priors:
            return None
        class_order = list(self._priors)
        scores = self._log_likelihood_matrix(encoded, class_order)
        results = []
        for i in range(encoded.n_rows):
            log_scores = {cls: float(scores[i, ci]) for ci, cls in enumerate(class_order)}
            peak = max(log_scores.values())
            exp_scores = {cls: math.exp(score - peak) for cls, score in log_scores.items()}
            norm = sum(exp_scores.values()) or 1.0
            results.append({cls: exp_scores.get(cls, 0.0) / norm for cls in self.classes_})
        return results

    def predict_proba(self, dataset: Dataset) -> list[dict[str, float]]:
        check_fitted(self)
        if not use_reference():
            batch = self._predict_proba_batch(encode_dataset(dataset))
            if batch is not None:
                return batch
        results = []
        for row in dataset.iter_rows():
            features_only = {name: row.get(name) for name in self.feature_names_}
            log_scores = {cls: self._log_likelihood(features_only, cls) for cls in self._priors}
            peak = max(log_scores.values())
            exp_scores = {cls: math.exp(score - peak) for cls, score in log_scores.items()}
            norm = sum(exp_scores.values()) or 1.0
            probs = {cls: exp_scores.get(cls, 0.0) / norm for cls in self.classes_}
            results.append(probs)
        return results
