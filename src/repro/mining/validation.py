"""Train/test splitting, stratified cross-validation and evaluation records."""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.exceptions import MiningError
from repro.mining.metrics import classification_report
from repro.tabular.dataset import Dataset, is_missing_value
from repro.tabular.encoded import encode_dataset


def train_test_split(
    dataset: Dataset,
    test_fraction: float = 0.3,
    seed: int = 0,
    stratify: bool = True,
) -> tuple[Dataset, Dataset]:
    """Split a dataset into (train, test), optionally stratified by the target."""
    if not 0.0 < test_fraction < 1.0:
        raise MiningError("test_fraction must be in (0, 1)")
    n = dataset.n_rows
    if n < 4:
        raise MiningError("dataset too small to split")
    rng = random.Random(seed)
    if stratify and dataset.has_target():
        groups: dict[str, list[int]] = {}
        target_values = dataset.target_column().tolist()
        for i, value in enumerate(target_values):
            key = "<missing>" if is_missing_value(value) else str(value)
            groups.setdefault(key, []).append(i)
        test_indices: list[int] = []
        for indices in groups.values():
            shuffled = indices[:]
            rng.shuffle(shuffled)
            n_test = max(1, int(round(len(shuffled) * test_fraction))) if len(shuffled) > 1 else 0
            test_indices.extend(shuffled[:n_test])
    else:
        order = list(range(n))
        rng.shuffle(order)
        test_indices = order[: max(1, int(round(n * test_fraction)))]
    test_set = set(test_indices)
    train_indices = [i for i in range(n) if i not in test_set]
    if not train_indices or not test_indices:
        raise MiningError("split produced an empty partition; adjust test_fraction")
    return dataset.take(sorted(train_indices)), dataset.take(sorted(test_indices))


def stratified_kfold(dataset: Dataset, k: int = 5, seed: int = 0) -> list[tuple[list[int], list[int]]]:
    """Return ``k`` (train_indices, test_indices) folds stratified by the target."""
    if k < 2:
        raise MiningError("k must be at least 2")
    if k > dataset.n_rows:
        raise MiningError(f"cannot make {k} folds from {dataset.n_rows} rows")
    rng = random.Random(seed)
    if dataset.has_target():
        groups: dict[str, list[int]] = {}
        for i, value in enumerate(dataset.target_column().tolist()):
            key = "<missing>" if is_missing_value(value) else str(value)
            groups.setdefault(key, []).append(i)
    else:
        groups = {"all": list(range(dataset.n_rows))}
    fold_assignment: dict[int, int] = {}
    for indices in groups.values():
        shuffled = indices[:]
        rng.shuffle(shuffled)
        for position, index in enumerate(shuffled):
            fold_assignment[index] = position % k
    folds: list[tuple[list[int], list[int]]] = []
    for fold in range(k):
        test = sorted(i for i, f in fold_assignment.items() if f == fold)
        train = sorted(i for i, f in fold_assignment.items() if f != fold)
        if not test or not train:
            raise MiningError("a fold ended up empty; use a smaller k")
        folds.append((train, test))
    return folds


@dataclass
class EvaluationResult:
    """Aggregated outcome of evaluating one classifier on one dataset."""

    algorithm: str
    dataset: str
    accuracy: float
    macro_f1: float
    kappa: float
    fold_accuracies: list[float] = field(default_factory=list)
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def accuracy_std(self) -> float:
        """Standard deviation of the per-fold accuracies (0 for a single split)."""
        if len(self.fold_accuracies) < 2:
            return 0.0
        return float(np.std(self.fold_accuracies))

    def as_dict(self) -> dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "kappa": self.kappa,
            "accuracy_std": self.accuracy_std,
            **self.extras,
        }


def cross_validate(
    classifier_factory: Callable[[], Any],
    dataset: Dataset,
    k: int = 5,
    seed: int = 0,
) -> EvaluationResult:
    """Stratified k-fold cross-validation of a classifier factory.

    ``classifier_factory`` is called once per fold so every fold trains a
    fresh model.  Rows whose target is missing are excluded from evaluation.
    """
    target_name = dataset.target_column().name
    labelled = [i for i, v in enumerate(dataset[target_name].tolist()) if not is_missing_value(v)]
    if len(labelled) < k:
        raise MiningError("not enough labelled rows for the requested number of folds")

    # Encode the input dataset once (reusing its instance cache — e.g. the
    # encoding the advisor's quality profiling already built) and materialise
    # the labelled subset and every fold below by slicing the cached encoded
    # arrays with index arrays instead of re-encoding (or re-coercing)
    # columns from Python objects.
    if len(labelled) == dataset.n_rows:
        working = dataset
    else:
        working = encode_dataset(dataset).take(labelled)
    encoded = encode_dataset(working)
    truths: list[str] = []
    predictions: list[str] = []
    fold_accuracies: list[float] = []
    algorithm_name = "unknown"
    for train_idx, test_idx in stratified_kfold(working, k=k, seed=seed):
        train, test = encoded.take(train_idx), encoded.take(test_idx)
        model = classifier_factory()
        model.fit(train)
        predicted = [str(p) for p in model.predict(test)]
        truth = [str(v) for v in test[target_name].tolist()]
        correct = sum(1 for a, b in zip(truth, predicted) if a == b)
        truths.extend(truth)
        predictions.extend(predicted)
        fold_accuracies.append(correct / len(truth))
        algorithm_name = getattr(model, "name", type(model).__name__)
    report = classification_report(truths, predictions)
    return EvaluationResult(
        algorithm=algorithm_name,
        dataset=dataset.name,
        accuracy=report["accuracy"],
        macro_f1=report["macro_f1"],
        kappa=report["kappa"],
        fold_accuracies=fold_accuracies,
    )


def holdout_evaluate(
    classifier_factory: Callable[[], Any],
    train: Dataset,
    test: Dataset,
) -> EvaluationResult:
    """Train on ``train`` and evaluate on ``test`` with the standard metrics."""
    model = classifier_factory()
    model.fit(train)
    target_name = train.target_column().name
    truth = [str(v) for v in test[target_name].tolist()]
    predicted = [str(p) for p in model.predict(test)]
    report = classification_report(truth, predicted)
    return EvaluationResult(
        algorithm=getattr(model, "name", type(model).__name__),
        dataset=train.name,
        accuracy=report["accuracy"],
        macro_f1=report["macro_f1"],
        kappa=report["kappa"],
        fold_accuracies=[report["accuracy"]],
    )
