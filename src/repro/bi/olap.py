"""A small OLAP engine over :class:`~repro.tabular.dataset.Dataset`.

A :class:`Cube` is defined by dimensions (categorical columns, optionally with
a level hierarchy) and measures (numeric columns with an aggregation).  The
classic operations — roll-up, drill-down, slice, dice and pivot — all return
ordinary datasets so their results can be reported, mined or shared as LOD.

Execution follows the library's two-tier protocol (see
``docs/encoded-core.md``): every operation has a vectorized path over the
dataset's cached encoded views (group keys from the int64 code arrays, slice
and dice masks from code/float comparisons, measures reduced on the float
views) and a retained row-at-a-time reference path.  The two are bit-identical
— values, row order and key order — and every operation takes the reference
inside :func:`repro.tiers.reference`.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.exceptions import OLAPError, SchemaError
from repro.tabular.dataset import Dataset, is_missing_value
from repro.tabular.encoded import encode_dataset
from repro.tabular.transforms import group_by
from repro.tiers import use_reference


@dataclass(frozen=True)
class Dimension:
    """A cube dimension.

    ``levels`` orders the columns from coarsest to finest (e.g. ``["year"]``
    or ``["region", "district"]``); a single-column dimension is the common
    case.
    """

    name: str
    levels: tuple[str, ...]

    def __post_init__(self) -> None:
        """Reject dimensions without levels."""
        if not self.levels:
            raise OLAPError(f"dimension {self.name!r} needs at least one level")

    @property
    def finest_level(self) -> str:
        """The most detailed level column of this dimension."""
        return self.levels[-1]


@dataclass(frozen=True)
class Measure:
    """A cube measure: a numeric source column and an aggregation function."""

    name: str
    column: str
    aggregation: str = "sum"

    def __post_init__(self) -> None:
        """Reject aggregations :func:`~repro.tabular.transforms.group_by` cannot compute."""
        if self.aggregation not in ("sum", "mean", "min", "max", "count", "std", "median"):
            raise OLAPError(f"unsupported aggregation {self.aggregation!r} for measure {self.name!r}")


class Cube:
    """A multidimensional view over a dataset.

    All operations run on the vectorized encoded path, and on the
    row-at-a-time reference inside :func:`repro.tiers.reference`.  Both paths
    produce bit-identical datasets.
    """

    def __init__(
        self,
        dataset: Dataset,
        dimensions: Sequence[Dimension],
        measures: Sequence[Measure],
        name: str | None = None,
    ) -> None:
        """Validate that every level column exists and every measure is numeric."""
        if not dimensions:
            raise OLAPError("a cube needs at least one dimension")
        if not measures:
            raise OLAPError("a cube needs at least one measure")
        for dimension in dimensions:
            for level in dimension.levels:
                if level not in dataset:
                    raise OLAPError(f"dimension level {level!r} is not a column of {dataset.name!r}")
        for measure in measures:
            if measure.column not in dataset:
                raise OLAPError(f"measure column {measure.column!r} is not a column of {dataset.name!r}")
            if not dataset[measure.column].is_numeric():
                raise OLAPError(f"measure column {measure.column!r} must be numeric")
        self.dataset = dataset
        self.dimensions = list(dimensions)
        self.measures = list(measures)
        self.name = name or f"{dataset.name}_cube"

    # -- helpers --------------------------------------------------------------

    def dimension(self, name: str) -> Dimension:
        """Return the dimension called ``name`` or raise :class:`OLAPError`."""
        for dimension in self.dimensions:
            if dimension.name == name:
                return dimension
        raise OLAPError(f"cube {self.name!r} has no dimension {name!r}")

    def _aggregations(self) -> dict[str, tuple[str, str]]:
        """The measures as a :func:`~repro.tabular.transforms.group_by` aggregation map."""
        return {measure.name: (measure.column, measure.aggregation) for measure in self.measures}

    def _derive(self, dataset: Dataset, name: str) -> "Cube":
        """Build a sub-cube over ``dataset`` with this cube's dimensions and measures."""
        return Cube(dataset, self.dimensions, self.measures, name=name)

    def _keep_rows(self, level: str, allowed: Sequence[Any], name: str) -> "Cube":
        """Vectorized selection: keep the rows whose ``level`` cell is in ``allowed``.

        Mirrors ``dataset.filter`` exactly — same kept indices, and the same
        :class:`SchemaError` when nothing survives — but computes the mask
        from the encoded views and slices through the cached encoding so the
        sub-cube's aggregations never re-encode the surviving rows.
        """
        encoded = encode_dataset(self.dataset)
        column = self.dataset[level]
        if column.is_numeric():
            values, missing = encoded.numeric_view(level)
            mask = np.zeros(values.shape, dtype=bool)
            for candidate in allowed:
                if isinstance(candidate, (bool, int, float, np.bool_, np.integer, np.floating)):
                    # A nan candidate matches nothing, exactly like the row
                    # path's `cell == candidate`.
                    mask |= values == candidate
                elif candidate is not None:
                    # Exotic numeric types (Decimal, Fraction, ...) compare
                    # through Python ==, one distinct cell value at a time.
                    for distinct in np.unique(values[~missing]).tolist():
                        if distinct == candidate:
                            mask |= values == distinct
            mask &= ~missing
        else:
            codes, _, _ = encoded.codes_view(level)
            distinct_codes, first_rows = np.unique(codes, return_index=True)
            allowed_values = list(allowed)
            allowed_codes = [
                code
                for code, first in zip(distinct_codes.tolist(), first_rows.tolist())
                # `in` compares with Python ==, the row path's membership test.
                if code >= 0 and column[first] in allowed_values
            ]
            mask = np.isin(codes, np.asarray(allowed_codes, dtype=np.int64))
        indices = np.flatnonzero(mask)
        if indices.size == 0:
            raise SchemaError("filter removed every row")
        return self._derive(encoded.take(indices), name)

    # -- core operations ----------------------------------------------------------

    def aggregate(self, levels: Sequence[str] | None = None) -> Dataset:
        """Aggregate the measures grouped by the given dimension levels.

        With no levels, the grand total (one row) is returned.  Both
        ``group_by`` paths are bit-identical (values, row order, key order).
        """
        if levels:
            for level in levels:
                if level not in self.dataset:
                    raise OLAPError(f"unknown group-by level {level!r}")
            return group_by(self.dataset, list(levels), self._aggregations())
        return group_by(self.dataset, [], self._aggregations())

    def rollup(self, dimension_name: str, to_level: str | None = None) -> Dataset:
        """Aggregate along one dimension at a coarser level (default: coarsest)."""
        dimension = self.dimension(dimension_name)
        level = to_level or dimension.levels[0]
        if level not in dimension.levels:
            raise OLAPError(f"{level!r} is not a level of dimension {dimension_name!r}")
        return self.aggregate([level])

    def drill_down(self, dimension_name: str, to_level: str | None = None) -> Dataset:
        """Aggregate along one dimension at a finer level (default: finest)."""
        dimension = self.dimension(dimension_name)
        level = to_level or dimension.finest_level
        if level not in dimension.levels:
            raise OLAPError(f"{level!r} is not a level of dimension {dimension_name!r}")
        return self.aggregate([level])

    def slice(self, level: str, value: Any) -> "Cube":
        """Fix one dimension level to a value and return the sub-cube.

        Missing cells never match.  Encoded and row paths keep exactly the
        same rows; an empty result raises :class:`SchemaError` on both.
        """
        if level not in self.dataset:
            raise OLAPError(f"unknown level {level!r}")
        name = f"{self.name}_slice_{level}"
        if use_reference():
            filtered = self.dataset.filter(
                lambda row: not is_missing_value(row[level]) and row[level] == value
            )
            return self._derive(filtered, name)
        return self._keep_rows(level, [value], name)

    def dice(self, selections: Mapping[str, Sequence[Any]]) -> "Cube":
        """Keep only the rows whose level values are in the given sets.

        ``selections`` maps level columns to allowed values; a row survives
        when every selected level is non-missing and allowed.  Encoded and row
        paths keep exactly the same rows; an empty result raises
        :class:`SchemaError` on both.
        """
        for level in selections:
            if level not in self.dataset:
                raise OLAPError(f"unknown level {level!r}")
        name = f"{self.name}_dice"

        if use_reference():

            def keep(row: dict[str, Any]) -> bool:
                """Row predicate: every selected level non-missing and allowed."""
                for level, allowed in selections.items():
                    if is_missing_value(row[level]) or row[level] not in allowed:
                        return False
                return True

            return self._derive(self.dataset.filter(keep), name)

        cube = self
        for level, allowed in selections.items():
            cube = cube._keep_rows(level, list(allowed), name)
        if cube is self:
            # Empty selections: the row path still filters into a fresh copy.
            if self.dataset.n_rows == 0:
                raise SchemaError("filter removed every row")
            indices = np.arange(self.dataset.n_rows)
            cube = self._derive(encode_dataset(self.dataset).take(indices), name)
        return cube

    def pivot(self, row_level: str, column_level: str, measure_name: str | None = None) -> Dataset:
        """Cross-tabulate one measure over two dimension levels.

        The underlying aggregation runs through the two-tier ``group_by``;
        the cross-tabulation itself only walks the (small) grouped result, so
        encoded and row paths return bit-identical pivots.
        """
        measure = self.measures[0] if measure_name is None else next(
            (m for m in self.measures if m.name == measure_name), None
        )
        if measure is None:
            raise OLAPError(f"no measure named {measure_name!r}")
        grouped = group_by(
            self.dataset, [row_level, column_level], {measure.name: (measure.column, measure.aggregation)}
        )
        row_values = grouped[row_level].distinct()
        column_values = grouped[column_level].distinct()
        lookup = {}
        for row in grouped.iter_rows():
            lookup[(row[row_level], row[column_level])] = row[measure.name]
        out_rows = []
        for rv in row_values:
            out = {row_level: rv}
            for cv in column_values:
                out[f"{column_level}={cv}"] = lookup.get((rv, cv))
            out_rows.append(out)
        return Dataset.from_rows(out_rows, name=f"{self.name}_pivot")

    def measure_summary(self) -> dict[str, dict[str, float]]:
        """Grand-total value of every measure plus simple per-measure statistics."""
        totals = self.aggregate()
        summary: dict[str, dict[str, float]] = {}
        from repro.tabular.stats import numeric_summary

        for measure in self.measures:
            stats = numeric_summary(self.dataset[measure.column])
            summary[measure.name] = {
                "aggregated": float(totals[measure.name][0]),
                "mean": stats["mean"],
                "min": stats["min"],
                "max": stats["max"],
            }
        return summary
