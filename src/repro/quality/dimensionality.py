"""Dimensionality: how wide the data is relative to how many rows it has.

"High dimensionality means a great amount of attributes difficult to be
manually handled and making the KDD awkward for non-expert data miners"
(paper, §1).  LOD tabulations are the typical offender; the criterion also
reports sparsity because LOD-derived columns are often mostly empty.
"""

from __future__ import annotations

import math

from repro.quality.criteria import Criterion, CriterionMeasure, register_criterion
from repro.tabular.dataset import ColumnRole, Dataset
from repro.tabular.encoded import EncodedDataset


@register_criterion
class DimensionalityCriterion(Criterion):
    """Score decreasing with the features-per-row ratio.

    ``score = 1 / (1 + (n_features / reference_ratio) / n_rows)`` — with the
    default ``reference_ratio`` of 0.1, ten features per hundred rows yields a
    score of about 0.5, matching the usual rule of thumb that you want at
    least ten rows per feature.
    """

    name = "dimensionality"
    description = "Whether the number of attributes is small relative to the number of rows."

    def __init__(self, reference_ratio: float = 0.1) -> None:
        """Score ``reference_ratio`` features per row (default 0.1) at 0.5."""
        if reference_ratio <= 0:
            raise ValueError("reference_ratio must be positive")
        self.reference_ratio = reference_ratio

    def measure(self, dataset: Dataset) -> CriterionMeasure:
        """Count the feature columns and their missing cells, row by row."""
        features = [c for c in dataset.columns if c.role == ColumnRole.FEATURE]
        missing_cells = sum(c.n_missing() for c in features)
        return self._build_measure(dataset, len(features), missing_cells)

    def delta_state(self, encoded: EncodedDataset) -> _DimensionalityState | None:
        """The feature columns' missing-cell total, read from the encoded masks."""
        if not self._uses_reference_tiers(DimensionalityCriterion):
            return None
        return _DimensionalityState(self, encoded)

    def _build_measure(self, dataset: Dataset, n_features: int, missing_cells: int) -> CriterionMeasure:
        n_rows = dataset.n_rows
        ratio = n_features / n_rows if n_rows else float("inf")
        score = 1.0 / (1.0 + ratio / self.reference_ratio) if math.isfinite(ratio) else 0.0
        total_cells = n_features * n_rows
        sparsity = missing_cells / total_cells if total_cells else 0.0
        return CriterionMeasure(
            criterion=self.name,
            score=max(min(score, 1.0), 0.0),
            details={
                "n_features": n_features,
                "n_rows": n_rows,
                "features_per_row": ratio,
                "sparsity": sparsity,
            },
        )


class _DimensionalityState:
    """The feature columns' missing-cell total: the dimensionality criterion's encoded tier."""

    def __init__(self, criterion: DimensionalityCriterion, encoded: EncodedDataset) -> None:
        self._criterion = criterion
        self._features = [c.name for c in encoded.dataset.columns if c.role == ColumnRole.FEATURE]
        self._missing = 0
        self.update(encoded, 0)

    def update(self, encoded: EncodedDataset, start: int) -> None:
        """Add the missing feature cells of rows ``start:``."""
        self._missing += sum(int(encoded.missing_view(name)[start:].sum()) for name in self._features)

    def build(self, encoded: EncodedDataset) -> CriterionMeasure:
        """The criterion measure of the total."""
        return self._criterion._build_measure(encoded.dataset, len(self._features), self._missing)
