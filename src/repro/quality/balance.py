"""Class balance of the mining target."""

from __future__ import annotations

import math

import numpy as np

from repro.quality.criteria import Criterion, CriterionMeasure, register_criterion
from repro.tabular.dataset import Column, Dataset
from repro.tabular.encoded import EncodedDataset


@register_criterion
class BalanceCriterion(Criterion):
    """Normalised entropy of the target class distribution.

    A perfectly balanced target scores 1.0; a single-class target scores 0.0.
    When the dataset has no target column the criterion falls back to the
    least balanced categorical column (so it stays usable for unsupervised
    sources).
    """

    name = "balance"
    description = "How evenly the target classes are represented."

    def measure(self, dataset: Dataset) -> CriterionMeasure:
        """Count the classes of the target, or of the least balanced discrete feature, row by row."""
        if dataset.has_target():
            column = dataset.target_column()
        else:
            candidates = [c for c in dataset.feature_columns() if not c.is_numeric()]
            if not candidates:
                return CriterionMeasure(self.name, 1.0, {"note": "no discrete column to assess"})
            column = min(candidates, key=lambda c: self._normalised_entropy(c.value_counts()))
        return self._build_measure(column, {str(k): v for k, v in column.value_counts().items()})

    def delta_state(self, encoded: EncodedDataset) -> _BalanceState | None:
        """The class counts of each assessable column, read from the code views."""
        if not self._uses_reference_tiers(BalanceCriterion):
            return None
        dataset = encoded.dataset
        if dataset.has_target() and dataset.target_column().is_numeric():
            # A numeric target's value counts key on raw floats, where -0.0
            # and 0.0 share one Counter bucket but two distinct string codes;
            # the reference path keeps that corner exact.
            return None
        return _BalanceState(self, encoded)

    @staticmethod
    def _encoded_counts(encoded: EncodedDataset, name: str) -> dict[str, int]:
        """Level → frequency from the code view, in first-seen level order.

        The order matters: the entropy loop below must add per-class terms in
        the same order as the row path's insertion-ordered ``Counter``.
        """
        codes, vocabulary, _ = encoded.codes_view(name)
        if not vocabulary:
            return {}
        counts = np.bincount(codes[codes >= 0], minlength=len(vocabulary))
        return dict(zip(vocabulary, counts.tolist()))

    def _build_measure(self, column: Column, counts: dict[str, int]) -> CriterionMeasure:
        score = self._normalised_entropy(counts)
        total = sum(counts.values())
        majority = max(counts.values()) if counts else 0
        minority = min(counts.values()) if counts else 0
        return CriterionMeasure(
            criterion=self.name,
            score=score,
            details={
                "column": column.name,
                "class_counts": dict(counts),
                "majority_share": majority / total if total else 0.0,
                "imbalance_ratio": (majority / minority) if minority else float(total or 1),
            },
        )

    @staticmethod
    def _normalised_entropy(counts: dict) -> float:
        total = sum(counts.values())
        if total == 0 or len(counts) < 2:
            return 0.0
        entropy = 0.0
        for count in counts.values():
            if count == 0:
                continue
            p = count / total
            entropy -= p * math.log2(p)
        # Accumulated float noise can land a hair outside [0, 1] (e.g. a
        # near-uniform distribution over many classes summing to
        # 1.0000000000000004), which CriterionMeasure rejects; clamp.  Shared
        # by both measurement tiers, so bit-identity is preserved.
        return min(1.0, max(0.0, entropy / math.log2(len(counts))))


class _BalanceState:
    """The class counts of the target, or of every discrete feature: the balance criterion's encoded tier."""

    def __init__(self, criterion: BalanceCriterion, encoded: EncodedDataset) -> None:
        dataset = encoded.dataset
        self._criterion = criterion
        self._target = dataset.target_column().name if dataset.has_target() else None
        names = [self._target] if self._target is not None else [
            c.name for c in dataset.feature_columns() if not c.is_numeric()
        ]
        self._counts = {name: BalanceCriterion._encoded_counts(encoded, name) for name in names}

    def update(self, encoded: EncodedDataset, start: int) -> None:
        """Add the class codes of rows ``start:`` to the counts."""
        for name, counts in self._counts.items():
            codes, vocabulary, _ = encoded.codes_view(name)
            delta_codes = codes[start:]
            present = delta_codes[delta_codes >= 0]
            if present.size == 0:
                continue
            bincount = np.bincount(present, minlength=len(vocabulary))
            # New levels land at the end of the extended vocabulary, so
            # walking the nonzero codes in ascending order appends them in
            # exactly the first-seen order a fresh ``_encoded_counts`` of the
            # merged column would use.
            for code in np.flatnonzero(bincount).tolist():
                level = vocabulary[code]
                counts[level] = counts.get(level, 0) + int(bincount[code])

    def build(self, encoded: EncodedDataset) -> CriterionMeasure:
        """The measure of the target's counts, or of the least balanced column's."""
        criterion, dataset, counts = self._criterion, encoded.dataset, self._counts
        if self._target is not None:
            return criterion._build_measure(dataset[self._target], counts[self._target])
        if not counts:
            return CriterionMeasure(criterion.name, 1.0, {"note": "no discrete column to assess"})
        chosen = min(counts, key=lambda name: criterion._normalised_entropy(counts[name]))
        return criterion._build_measure(dataset[chosen], counts[chosen])
