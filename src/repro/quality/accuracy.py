"""Accuracy / noise: how much of the data looks corrupted.

Without ground truth, accuracy is estimated from internal evidence:
numeric cells far outside the robust range of their column (beyond
``iqr_factor`` interquartile ranges) and categorical values that are rare
spelling variants of a dominant level (case/whitespace variants) are counted
as suspected errors.  A clean reference :class:`~repro.tabular.schema.Schema`
can be supplied to count out-of-domain values exactly instead.
"""

from __future__ import annotations

import numpy as np

from repro.lod import linker
from repro.quality.criteria import Criterion, CriterionMeasure, register_criterion
from repro.tabular.dataset import ColumnRole, ColumnType, Dataset
from repro.tabular.encoded import EncodedDataset
from repro.tabular.schema import Schema


@register_criterion
class AccuracyCriterion(Criterion):
    """Estimated fraction of cells that are *not* suspected errors."""

    name = "accuracy"
    description = "Estimated fraction of cells free of noise/corruption."

    def __init__(self, iqr_factor: float = 3.0, schema: Schema | None = None) -> None:
        """Fence numeric cells ``iqr_factor`` IQRs out, or by ``schema``'s ranges and domains when given."""
        self.iqr_factor = iqr_factor
        self.schema = schema

    def measure(self, dataset: Dataset) -> CriterionMeasure:
        """Count the suspected errors of each feature and target column, row by row."""
        columns = [c for c in dataset.columns if c.role in (ColumnRole.FEATURE, ColumnRole.TARGET)]
        if not columns:
            columns = dataset.columns
        suspected = 0
        checked = 0
        per_column: dict[str, float] = {}
        for column in columns:
            column_suspected = 0
            values = column.non_missing()
            if not values:
                per_column[column.name] = 1.0
                continue
            spec = self.schema.spec_for(column.name) if self.schema is not None else None
            if column.is_numeric():
                array = np.asarray([float(v) for v in values])
                if spec is not None and (spec.min_value is not None or spec.max_value is not None):
                    low = spec.min_value if spec.min_value is not None else -np.inf
                    high = spec.max_value if spec.max_value is not None else np.inf
                else:
                    q1, q3 = np.percentile(array, [25, 75])
                    iqr = q3 - q1
                    spread = iqr if iqr > 0 else (array.std() or 1.0)
                    low = q1 - self.iqr_factor * spread
                    high = q3 + self.iqr_factor * spread
                column_suspected = int(((array < low) | (array > high)).sum())
            elif column.ctype in (ColumnType.CATEGORICAL, ColumnType.BOOLEAN, ColumnType.STRING):
                if spec is not None and spec.allowed_values is not None:
                    allowed = set(spec.allowed_values)
                    column_suspected = sum(1 for v in values if v not in allowed)
                else:
                    column_suspected = self._spelling_variants(values)
            checked += len(values)
            suspected += column_suspected
            per_column[column.name] = 1.0 - (column_suspected / len(values))
        score = 1.0 - (suspected / checked if checked else 0.0)
        return CriterionMeasure(
            criterion=self.name,
            score=max(min(score, 1.0), 0.0),
            details={"per_column": per_column, "n_suspected_errors": suspected, "n_checked_cells": checked},
        )

    def _measure_encoded(self, encoded: EncodedDataset) -> CriterionMeasure | None:
        if not self._uses_reference_measure(AccuracyCriterion):
            return None
        if self.schema is not None:
            # Schema domains compare raw cell values; the encoded views only
            # hold their string forms, so the reference path stays in charge.
            return None
        dataset = encoded.dataset
        columns = [c for c in dataset.columns if c.role in (ColumnRole.FEATURE, ColumnRole.TARGET)]
        if not columns:
            columns = dataset.columns
        suspected = 0
        checked = 0
        per_column: dict[str, float] = {}
        for column in columns:
            column_suspected = 0
            if column.is_numeric():
                values, missing = encoded.numeric_view(column.name)
                present = values[~missing]
                n_present = int(present.size)
                if n_present == 0:
                    per_column[column.name] = 1.0
                    continue
                q1, q3 = np.percentile(present, [25, 75])
                iqr = q3 - q1
                spread = iqr if iqr > 0 else (present.std() or 1.0)
                low = q1 - self.iqr_factor * spread
                high = q3 + self.iqr_factor * spread
                column_suspected = int(((present < low) | (present > high)).sum())
            else:
                codes, vocabulary, _ = encoded.codes_view(column.name)
                counts = np.bincount(codes[codes >= 0], minlength=len(vocabulary)) if vocabulary else np.zeros(0, dtype=np.int64)
                n_present = int(counts.sum())
                if n_present == 0:
                    per_column[column.name] = 1.0
                    continue
                if column.ctype in (ColumnType.CATEGORICAL, ColumnType.BOOLEAN, ColumnType.STRING):
                    column_suspected = self._spelling_variants_from_counts(
                        vocabulary,
                        counts.tolist(),
                        encoded.normalised_levels(column.name),
                    )
            checked += n_present
            suspected += column_suspected
            per_column[column.name] = 1.0 - (column_suspected / n_present)
        score = 1.0 - (suspected / checked if checked else 0.0)
        return CriterionMeasure(
            criterion=self.name,
            score=max(min(score, 1.0), 0.0),
            details={"per_column": per_column, "n_suspected_errors": suspected, "n_checked_cells": checked},
        )

    @staticmethod
    def _spelling_variants(values: list) -> int:
        """Count values that normalise onto a more frequent differently-spelled value."""
        counts: dict[str, int] = {}
        for value in values:
            counts[str(value)] = counts.get(str(value), 0) + 1
        return AccuracyCriterion._spelling_variants_from_counts(
            list(counts),
            list(counts.values()),
            [linker.normalise_string(raw) for raw in counts],
        )

    @staticmethod
    def _spelling_variants_from_counts(
        levels: list[str], level_counts: list[int], normalised: list[str]
    ) -> int:
        """Shared variant-counting core over a vocabulary and its frequencies.

        ``levels`` must be in first-seen order (which is exactly what both the
        row path's insertion-ordered counting dict and the encoded vocabulary
        produce), so the dominant spelling resolves ties identically on both
        paths.
        """
        counts = dict(zip(levels, level_counts))
        by_normalised: dict[str, list[str]] = {}
        for raw, key in zip(levels, normalised):
            by_normalised.setdefault(key, []).append(raw)
        suspected = 0
        for variants in by_normalised.values():
            if len(variants) < 2:
                continue
            dominant = max(variants, key=lambda v: counts[v])
            suspected += sum(counts[v] for v in variants if v != dominant)
        return suspected
