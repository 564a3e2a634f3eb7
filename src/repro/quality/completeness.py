"""Completeness: how much of the data is actually present."""

from __future__ import annotations

from repro.quality.criteria import Criterion, CriterionMeasure, register_criterion
from repro.tabular.dataset import Column, ColumnRole, Dataset
from repro.tabular.encoded import EncodedDataset


@register_criterion
class CompletenessCriterion(Criterion):
    """Fraction of non-missing cells over the feature and target columns.

    The score is 1.0 when no cell is missing.  Identifier and metadata columns
    are ignored because their absence does not affect mining.
    """

    name = "completeness"
    description = "Fraction of cells that are present (not missing)."

    def __init__(self, include_target: bool = True) -> None:
        """Assess the target column too unless ``include_target`` is false."""
        self.include_target = include_target

    def _selected_columns(self, dataset: Dataset) -> list[Column]:
        roles = {ColumnRole.FEATURE}
        if self.include_target:
            roles.add(ColumnRole.TARGET)
        columns = [c for c in dataset.columns if c.role in roles]
        return columns or dataset.columns

    def measure(self, dataset: Dataset) -> CriterionMeasure:
        """Count the missing cells of each assessed column, row by row."""
        counts = {c.name: c.n_missing() for c in self._selected_columns(dataset)}
        return self._build_measure(dataset, counts)

    def delta_state(self, encoded: EncodedDataset) -> _CompletenessState | None:
        """The missing-cell count of each assessed column, read from the encoded masks."""
        if not self._uses_reference_tiers(CompletenessCriterion):
            return None
        return _CompletenessState(self, encoded)

    def _build_measure(self, dataset: Dataset, missing_counts: dict[str, int]) -> CriterionMeasure:
        per_column = {}
        total_cells = 0
        total_missing = 0
        for name, missing in missing_counts.items():
            per_column[name] = 1.0 - missing / dataset.n_rows
            total_cells += dataset.n_rows
            total_missing += missing
        score = 1.0 - (total_missing / total_cells if total_cells else 0.0)
        worst = min(per_column.values()) if per_column else 1.0
        details = {
            "per_column": per_column,
            "worst_column_completeness": worst,
            "n_missing_cells": total_missing,
            "n_cells": total_cells,
        }
        # Datasets that came through the salvage tier carry per-cell
        # provenance; surface how many of the measured cells were repaired
        # rather than read.  Shared by both measurement tiers, so the
        # reference and encoded paths stay bit-identical.
        from repro.recovery.provenance import dataset_provenance, provenance_counts

        provenance = dataset_provenance(dataset)
        if provenance is not None:
            details["salvage"] = provenance_counts(provenance, columns=list(missing_counts))
        return CriterionMeasure(criterion=self.name, score=score, details=details)


class _CompletenessState:
    """The missing-cell count of each assessed column: the completeness criterion's encoded tier."""

    def __init__(self, criterion: CompletenessCriterion, encoded: EncodedDataset) -> None:
        self._criterion = criterion
        self._counts = dict.fromkeys((c.name for c in criterion._selected_columns(encoded.dataset)), 0)
        self.update(encoded, 0)

    def update(self, encoded: EncodedDataset, start: int) -> None:
        """Add the missing cells of rows ``start:``."""
        for name in self._counts:
            self._counts[name] += int(encoded.missing_view(name)[start:].sum())

    def build(self, encoded: EncodedDataset) -> CriterionMeasure:
        """The criterion measure of the counts."""
        return self._criterion._build_measure(encoded.dataset, self._counts)
