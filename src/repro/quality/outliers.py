"""Outliers: extreme numeric values that can dominate distance-based mining."""

from __future__ import annotations

import numpy as np

from repro.quality.criteria import Criterion, CriterionMeasure, register_criterion
from repro.tabular.dataset import ColumnRole, Dataset
from repro.tabular.encoded import EncodedDataset


@register_criterion
class OutlierCriterion(Criterion):
    """1.0 minus the fraction of numeric cells outside the Tukey fences.

    A cell is an outlier when it lies more than ``iqr_factor`` interquartile
    ranges outside the [Q1, Q3] interval of its column.
    """

    name = "outliers"
    description = "Fraction of numeric values that are not extreme outliers."

    def __init__(self, iqr_factor: float = 1.5) -> None:
        """Place the fences ``iqr_factor`` interquartile ranges out (default 1.5)."""
        if iqr_factor <= 0:
            raise ValueError("iqr_factor must be positive")
        self.iqr_factor = iqr_factor

    def measure(self, dataset: Dataset) -> CriterionMeasure:
        """Count the cells outside their column's fences, from the column values."""
        columns = self._numeric_columns(dataset)
        if not columns:
            return CriterionMeasure(self.name, 1.0, {"note": "no numeric columns"})
        present = [np.asarray([float(v) for v in column.non_missing()]) for column in columns]
        return self._build_measure([c.name for c in columns], present)

    def _measure_encoded(self, encoded: EncodedDataset) -> CriterionMeasure | None:
        if not self._uses_reference_measure(OutlierCriterion):
            return None
        columns = self._numeric_columns(encoded.dataset)
        if not columns:
            return CriterionMeasure(self.name, 1.0, {"note": "no numeric columns"})
        views = [encoded.numeric_view(column.name) for column in columns]
        # Slicing the float view by the missing mask preserves cell order, so
        # the percentile/std arithmetic below sees exactly the arrays the
        # reference path builds cell by cell.
        present = [values[~missing] for values, missing in views]
        return self._build_measure([c.name for c in columns], present)

    @staticmethod
    def _numeric_columns(dataset: Dataset) -> list:
        return [
            c
            for c in dataset.columns
            if c.is_numeric() and c.role in (ColumnRole.FEATURE, ColumnRole.TARGET)
        ]

    def _build_measure(self, names: list[str], present: list[np.ndarray]) -> CriterionMeasure:
        outliers = 0
        checked = 0
        per_column: dict[str, float] = {}
        for name, values in zip(names, present):
            if values.size < 4:
                per_column[name] = 0.0
                continue
            q1, q3 = np.percentile(values, [25, 75])
            iqr = q3 - q1
            spread = iqr if iqr > 0 else (values.std() or 1.0)
            low = q1 - self.iqr_factor * spread
            high = q3 + self.iqr_factor * spread
            column_outliers = int(((values < low) | (values > high)).sum())
            per_column[name] = column_outliers / values.size
            outliers += column_outliers
            checked += values.size
        score = 1.0 - (outliers / checked if checked else 0.0)
        return CriterionMeasure(
            criterion=self.name,
            score=max(min(score, 1.0), 0.0),
            details={"outlier_fraction_per_column": per_column, "n_outliers": outliers, "n_checked": checked},
        )
