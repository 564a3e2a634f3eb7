"""Delta maintenance of derived state: profiles, group-bys, cubes, KPI boards.

A feed batch of 1k rows against a 100k-row base must not trigger 100k rows of
recomputation.  :class:`IncrementalGroupBy` (and through it cube aggregates
and :class:`IncrementalKPIBoard`) and :class:`IncrementalProfile` refresh
their results in O(len(delta)).

This is the library's two-tier protocol along a new axis: the batch
recompute over base+delta is the reference tier, ``refresh(merged)`` the
delta tier, and the two are **bit-identical** by construction.  The batch
tier's fast path *is* a resumable state, seeded over the rows and read once
— ``group_by``'s per-group folds, a criterion's
:meth:`~repro.quality.criteria.Criterion.delta_state` — and the classes here
only keep that state and fold appended rows into it.  Duplication is the one
exception: its batch tier keeps a composite-key sort that is faster one
shot, and its state is held bit-identical to it by test
(:mod:`repro.quality.duplicates`).

Anything without such a state — a non-numeric aggregation source, accuracy,
consistency, correlation, outliers, a numeric-target balance, a criterion
subclass that overrides ``measure`` or ``_measure_encoded`` — falls back to
the batch recompute.  Inside :func:`repro.tiers.reference` every ``refresh``
takes the batch recompute and re-seeds its state, so a later refresh
outside the block resumes incrementally.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

from repro.bi.kpi import KPI, _level_means, _scoreboard
from repro.bi.olap import Cube
from repro.exceptions import OLAPError, SchemaError
from repro.quality.profile import DataQualityProfile, _resolve_criteria, measure_quality
from repro.tabular.dataset import Dataset
from repro.tabular.encoded import EncodedDataset, encode_dataset
from repro.tabular.transforms import _checked_keys, _foldable, _GroupFolds, group_by
from repro.tiers import use_reference


def _check_refresh_target(state_dataset: Dataset, state_rows: int, merged: Dataset) -> None:
    """Reject refresh targets that are not an append extension of the base."""
    if merged.column_names != state_dataset.column_names:
        raise SchemaError(
            f"refresh target has columns {merged.column_names}; expected {state_dataset.column_names}"
        )
    if merged.n_rows < state_rows:
        raise SchemaError(
            f"refresh target has {merged.n_rows} rows, fewer than the {state_rows} already folded in; "
            "refresh expects the base dataset plus appended rows"
        )


class IncrementalGroupBy:
    """O(len(delta)) refresh of one ``group_by`` result.

    Construction validates as :func:`~repro.tabular.transforms.group_by`
    does and seeds its encoded tier's per-group folds over the base dataset;
    :meth:`refresh` folds the appended rows in and returns the grouped
    dataset, bit-identical to ``group_by(merged, keys, aggregations)``.  An
    opened store's columns stay unmaterialised.  A non-numeric aggregation
    source (the reference coerces each cell) routes every call to the batch
    ``group_by``; :attr:`incremental` reports which tier is active.
    """

    def __init__(
        self,
        dataset: Dataset,
        keys: Sequence[str],
        aggregations: Mapping[str, tuple[str, str]],
    ) -> None:
        """Seed the per-group folds (or pin the batch tier) from ``dataset``."""
        self._keys = _checked_keys(dataset, keys, aggregations)
        self._aggregations = dict(aggregations)
        self._dataset = dataset
        self.incremental = _foldable(dataset, aggregations)
        self._folds = _GroupFolds(dataset, self._keys, self._aggregations) if self.incremental else None

    def result(self) -> Dataset:
        """The grouped dataset for the rows folded in so far."""
        if self._folds is None:
            return group_by(self._dataset, self._keys, self._aggregations)
        return self._folds.result(self._dataset)

    def refresh(self, merged: Dataset) -> Dataset:
        """Fold the appended rows of ``merged`` in and return the grouped dataset.

        ``merged`` must be the base dataset (the rows already folded in)
        followed by the appended delta — exactly what
        :meth:`Dataset.append_rows`/:meth:`Dataset.append_dataset` return.
        """
        _check_refresh_target(self._dataset, self._dataset.n_rows if self.incremental else 0, merged)
        start, self._dataset = self._dataset.n_rows, merged
        if use_reference() or self._folds is None:
            if self._folds is not None:
                self._folds = _GroupFolds(merged, self._keys, self._aggregations)
            return group_by(merged, self._keys, self._aggregations)
        self._folds.update(merged, start)
        return self.result()


def incremental_cube_aggregate(cube: Cube, levels: Sequence[str]) -> IncrementalGroupBy:
    """An :class:`IncrementalGroupBy` maintaining ``cube.aggregate(levels)``.

    ``levels`` must be non-empty: the grand total ``aggregate([])`` is one
    keyless group, with no delta structure worth maintaining — recompute
    it.
    """
    levels = list(levels)
    if not levels:
        raise OLAPError("incremental cube aggregation needs at least one level")
    return IncrementalGroupBy(cube.dataset, levels, cube._aggregations())


class IncrementalKPIBoard:
    """O(len(delta)) refresh of one per-level KPI scoreboard.

    An :class:`IncrementalGroupBy` over the per-level means, validated and
    assembled by the code of :func:`repro.bi.kpi.evaluate_kpis_by_level`, so
    :meth:`refresh` is bit-identical to it on the merged dataset.
    """

    def __init__(self, kpis: Sequence[KPI], cube: Cube, level: str) -> None:
        """Seed per-level KPI folds from ``cube``'s dataset for ``level``."""
        self._grouped = IncrementalGroupBy(cube.dataset, [level], _level_means(kpis, cube, level))
        self._kpis = list(kpis)
        self._level = level
        self._name = f"{cube.name}_kpis_by_{level}"

    def refresh(self, merged: Dataset) -> Dataset:
        """Fold the appended rows in and return the refreshed scoreboard."""
        return _scoreboard(self._kpis, self._level, self._grouped.refresh(merged), self._name)

    def result(self) -> Dataset:
        """The scoreboard for the rows folded in so far."""
        return _scoreboard(self._kpis, self._level, self._grouped.result(), self._name)


class IncrementalProfile:
    """O(len(delta)) refresh of a data quality profile.

    Construction seeds each criterion's
    :meth:`~repro.quality.criteria.Criterion.delta_state` over the base
    dataset (see :attr:`incremental_criteria`).  :meth:`refresh` folds the
    appended rows into those states, recomputes the other criteria over the
    merged views, and returns a profile bit-identical to
    ``measure_quality(merged, criteria)``.
    """

    def __init__(self, dataset: Dataset, criteria: Sequence[Any] | None = None) -> None:
        """Resolve ``criteria`` (names or instances) as :func:`measure_quality` does; seed their states."""
        self._criteria = _resolve_criteria(criteria)
        self._dataset = dataset
        self._seed()

    def _seed(self) -> None:
        encoded = encode_dataset(self._dataset)
        self._states = [criterion.delta_state(encoded) for criterion in self._criteria]

    @property
    def incremental_criteria(self) -> list[str]:
        """Names of the criteria maintained by delta state."""
        return [c.name for c, s in zip(self._criteria, self._states) if s is not None]

    @property
    def fallback_criteria(self) -> list[str]:
        """Names of the criteria recomputed over the merged views at each refresh."""
        return [c.name for c, s in zip(self._criteria, self._states) if s is None]

    def _assemble(self, encoded: EncodedDataset) -> DataQualityProfile:
        profile = DataQualityProfile(dataset_name=self._dataset.name)
        for criterion, state in zip(self._criteria, self._states):
            profile.measures[criterion.name] = (
                criterion.measure_encoded(encoded) if state is None else state.build(encoded)
            )
        return profile

    def profile(self) -> DataQualityProfile:
        """The profile of the rows folded in so far."""
        return self._assemble(encode_dataset(self._dataset))

    def refresh(self, merged: Dataset) -> DataQualityProfile:
        """Fold the appended rows of ``merged`` in and return the refreshed profile."""
        _check_refresh_target(self._dataset, self._dataset.n_rows, merged)
        start, self._dataset = self._dataset.n_rows, merged
        if use_reference():
            self._seed()
            return measure_quality(merged, self._criteria)
        encoded = encode_dataset(merged)
        for state in self._states:
            if state is not None:
                state.update(encoded, start)
        return self._assemble(encoded)
