"""Delta maintenance of derived state: profiles, group-bys, cubes, KPI boards.

A feed batch of 1k rows against a 100k-row base must not trigger 100k rows of
recomputation.  The classes here keep just enough state to refresh derived
results in O(len(delta)):

* :class:`IncrementalGroupBy` — running per-group accumulators behind
  :func:`repro.tabular.transforms.group_by` (and therefore behind cube
  aggregation);
* :class:`IncrementalProfile` — running counts behind the incrementalizable
  quality criteria of :func:`repro.quality.profile.measure_quality`;
* :class:`IncrementalKPIBoard` — an incremental group-by plus the grading
  tail of :func:`repro.bi.kpi.evaluate_kpis_by_level`.

Each follows the library's two-tier protocol, extended from *row vs encoded*
to *batch vs incremental*: the batch recompute over base+delta is the
reference tier, ``refresh(merged)`` is the delta tier, and the two must be
**bit-identical** — float summation order included.  That shapes the state:

* ``sum``/``mean`` resume the reference's left fold
  (:func:`~repro.tabular.transforms.fold_sum` over the group's values in row
  order) by carrying the running total — continuing a left fold is exactly
  restarting it partway, so the float sequence is the reference's;
* ``min``/``max`` fold exactly (ties keep the earlier value, as ``min`` does);
* ``std``/``median`` are not resumable folds, so the state keeps each
  group's values and recomputes only the groups the delta touched
  (recompute-over-merged-values);
* quality criteria keep exact integer counts (missing cells, class
  bincounts, the distinct duplicate keys) and feed them to the *same*
  ``_build_measure`` helpers the batch tiers call.

Anything that cannot be incrementalized this way — a non-numeric aggregation
source, a criterion without a maintainable state (accuracy, correlation,
outliers, a numeric-target balance, an explicit-schema consistency, any
subclassed criterion) — automatically falls back to the batch recompute.
Inside :func:`repro.tiers.reference` every ``refresh`` takes the batch
recompute and re-seeds its state, so a later refresh outside the block
resumes incrementally.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from repro.bi.kpi import KPI
from repro.bi.olap import Cube
from repro.exceptions import OLAPError, ReproError, SchemaError
from repro.quality.balance import BalanceCriterion
from repro.quality.completeness import CompletenessCriterion
from repro.quality.criteria import Criterion, CriterionMeasure
from repro.quality.dimensionality import DimensionalityCriterion
from repro.quality.duplicates import _STRING_CTYPES, DuplicationCriterion
from repro.quality.profile import DEFAULT_CRITERIA, DataQualityProfile, get_criterion, measure_quality
from repro.tabular.dataset import ColumnRole, ColumnType, Dataset
from repro.tabular.encoded import MISSING_KEY_SENTINEL, EncodedDataset, encode_dataset
from repro.tabular.transforms import _AGGREGATIONS, fold_sum, group_by, group_order
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

    Construction validates keys and aggregations exactly like
    :func:`~repro.tabular.transforms.group_by` and folds the base dataset
    into per-group accumulators, one sorted segment of the encoded views per
    group.  :meth:`refresh` folds only the appended rows in and returns the
    full grouped dataset, bit-identical to ``group_by(merged, keys,
    aggregations)``.  Both read the encoded views (codes, vocabularies and
    float views) and single key cells, never a whole object column, so an
    opened store's columns stay unmaterialised.

    When any aggregation source column is non-numeric the reference tier's
    semantics (per-cell ``float(v)`` coercion of string cells) cannot be
    maintained as a fold, so the instance routes every call to the batch
    ``group_by`` instead; :attr:`incremental` reports which tier is active.
    """

    def __init__(
        self,
        dataset: Dataset,
        keys: Sequence[str],
        aggregations: Mapping[str, tuple[str, str]],
    ) -> None:
        """Seed the per-group folds (or pin the batch tier) from ``dataset``."""
        keys = list(keys)
        for key in keys:
            if key not in dataset:
                raise SchemaError(f"unknown group-by key {key!r}")
        for out_name, (source, agg) in aggregations.items():
            if source not in dataset:
                raise SchemaError(f"aggregation {out_name!r} references unknown column {source!r}")
            if agg not in _AGGREGATIONS:
                raise SchemaError(f"unknown aggregation {agg!r}; choose from {sorted(_AGGREGATIONS)}")
        self._keys = keys
        self._aggregations = dict(aggregations)
        self._dataset = dataset
        self._n_rows = 0
        self.incremental = all(dataset[source].is_numeric() for source, _ in aggregations.values())
        if self.incremental:
            self._rebuild_state()

    def _rebuild_state(self) -> None:
        """Fold every row of the current dataset in, one segment per encoded group."""
        self._groups: dict[tuple, int] = {}
        self._key_values: list[dict[str, Any]] = []
        self._acc: dict[str, list[list[Any]]] = {out: [] for out in self._aggregations}
        encoded = encode_dataset(self._dataset)
        group_ids, n_groups = encoded.group_keys(self._keys)
        order = group_order(group_ids, n_groups)
        counts = np.bincount(group_ids, minlength=n_groups)
        first_rows = order[np.cumsum(counts) - counts]
        for row, key in zip(first_rows.tolist(), self._key_cells(encoded, first_rows)):
            self._new_group(key, row)
        self._fold(encoded, 0, group_ids, order)
        self._n_rows = self._dataset.n_rows

    def _key_cells(self, encoded: EncodedDataset, rows: np.ndarray | slice) -> list[tuple]:
        """The group key of each of ``rows``, as the reference's ``_hashable`` cells partition them.

        Numeric keys are their float values and non-numeric keys their
        vocabulary level; missing cells (and a level spelling the sentinel)
        are :data:`~repro.tabular.encoded.MISSING_KEY_SENTINEL`.
        """
        columns = []
        for key in self._keys:
            if self._dataset[key].is_numeric():
                values, missing = encoded.numeric_view(key)
                cells = values[rows].tolist()
                for i in np.flatnonzero(missing[rows]).tolist():
                    cells[i] = MISSING_KEY_SENTINEL
            else:
                codes, vocabulary, _ = encoded.codes_view(key)
                cells = [vocabulary[c] if c >= 0 else MISSING_KEY_SENTINEL for c in codes[rows].tolist()]
            columns.append(cells)
        return list(zip(*columns))

    def _new_group(self, key: tuple, row: int) -> int:
        """Register a group first seen at ``row``; its output keys are that row's raw cells."""
        group = len(self._key_values)
        self._groups[key] = group
        self._key_values.append({k: self._dataset[k][row] for k in self._keys})
        for out_name, (_source, agg) in self._aggregations.items():
            if agg in ("sum", "mean"):
                slot: list[Any] = [0.0, 0]  # running left fold, count
            elif agg in ("min", "max"):
                slot = [None]
            elif agg == "count":
                slot = [0]
            else:  # std / median keep every value, in chunks, and a cached result
                slot = [[], None]
            self._acc[out_name].append(slot)
        return group

    def _fold(self, encoded: EncodedDataset, start: int, group_ids: np.ndarray, order: np.ndarray) -> None:
        """Fold rows ``start:`` into the accumulators; row ``start + i`` is in group ``group_ids[i]``.

        ``order`` (:func:`~repro.tabular.transforms.group_order`) cuts each measure into per-group
        runs of present values in row order, and each run continues its
        group's fold.
        """
        rows = order + start
        sorted_ids = group_ids[order]
        for out_name, (source, agg) in self._aggregations.items():
            values, missing = encoded.numeric_view(source)
            keep = ~missing[rows]
            present = values[rows][keep]
            ids = sorted_ids[keep]
            if ids.size == 0:
                continue
            bounds = np.concatenate(([0], np.flatnonzero(ids[1:] != ids[:-1]) + 1, [ids.size])).tolist()
            accumulators = self._acc[out_name]
            for group, lo, hi in zip(ids[bounds[:-1]].tolist(), bounds[:-1], bounds[1:]):
                slot = accumulators[group]
                run = present[lo:hi]
                if agg in ("sum", "mean"):
                    slot[0] = fold_sum(run, slot[0])
                    slot[1] += hi - lo
                elif agg == "count":
                    slot[0] += hi - lo
                elif agg in ("min", "max"):
                    pick = min if agg == "min" else max
                    best = pick(run.tolist())
                    # pick(a, b) keeps a on a tie, as the reference keeps the earlier value.
                    slot[0] = best if slot[0] is None else pick(slot[0], best)
                else:
                    slot[0].append(run)
                    slot[1] = None  # dirty: recompute lazily at result time

    def _finalise(self, agg: str, slot: list[Any]) -> float:
        """One group's aggregate from its accumulator, reference arithmetic."""
        if agg == "count":
            return float(slot[0])
        if agg in ("sum", "mean"):
            if slot[1] == 0:
                return float("nan")
            return float(slot[0]) if agg == "sum" else float(slot[0] / slot[1])
        if agg in ("min", "max"):
            return float("nan") if slot[0] is None else float(slot[0])
        # std / median: recompute over the merged values only when dirty.
        if slot[1] is None:
            values = np.concatenate(slot[0]) if slot[0] else np.empty(0)
            slot[0] = [values]
            slot[1] = _AGGREGATIONS[agg](values) if values.size else float("nan")
        return slot[1]

    def result(self) -> Dataset:
        """The grouped dataset for the rows folded in so far."""
        if not self.incremental:
            return group_by(self._dataset, self._keys, self._aggregations)
        out_rows: list[dict[str, Any]] = []
        for group, key_values in enumerate(self._key_values):
            row = dict(key_values)
            for out_name, (_source, agg) in self._aggregations.items():
                row[out_name] = self._finalise(agg, self._acc[out_name][group])
            out_rows.append(row)
        ctypes = {k: self._dataset[k].ctype for k in self._keys}
        for out_name in self._aggregations:
            ctypes[out_name] = ColumnType.NUMERIC
        return Dataset.from_rows(out_rows, name=f"{self._dataset.name}_grouped", ctypes=ctypes)

    def refresh(self, merged: Dataset) -> Dataset:
        """Fold the appended rows of ``merged`` in and return the grouped dataset.

        ``merged`` must be the base dataset (the rows already folded in)
        followed by the appended delta — exactly what
        :meth:`Dataset.append_rows`/:meth:`Dataset.append_dataset` return.
        """
        _check_refresh_target(self._dataset, self._n_rows if self.incremental else 0, merged)
        if use_reference() or not self.incremental:
            self._dataset = merged
            if self.incremental:
                self._rebuild_state()
            return group_by(merged, self._keys, self._aggregations)
        start = self._n_rows
        self._dataset = merged
        encoded = encode_dataset(merged)
        group_ids = np.empty(merged.n_rows - start, dtype=np.intp)
        groups = self._groups
        for i, key in enumerate(self._key_cells(encoded, slice(start, None))):
            group = groups.get(key)
            group_ids[i] = self._new_group(key, start + i) if group is None else group
        self._fold(encoded, start, group_ids, group_order(group_ids, len(self._key_values)))
        self._n_rows = merged.n_rows
        return self.result()


def incremental_cube_aggregate(cube: Cube, levels: Sequence[str]) -> IncrementalGroupBy:
    """An :class:`IncrementalGroupBy` maintaining ``cube.aggregate(levels)``.

    ``levels`` must be non-empty (the grand-total pseudo-level of
    ``aggregate([])`` has no delta structure worth maintaining — recompute
    it).
    """
    levels = list(levels)
    if not levels:
        raise OLAPError("incremental cube aggregation needs at least one level")
    return IncrementalGroupBy(cube.dataset, levels, cube._aggregations())


class IncrementalKPIBoard:
    """O(len(delta)) refresh of one per-level KPI scoreboard.

    Wraps an :class:`IncrementalGroupBy` over the cube dataset's per-level
    means and replays the grading tail of
    :func:`repro.bi.kpi.evaluate_kpis_by_level`; :meth:`refresh` is
    bit-identical to rebuilding the scoreboard from a cube over the merged
    dataset.  Validation (column KPIs only, numeric sources, no column
    collisions) matches the batch evaluator's.
    """

    def __init__(self, kpis: Sequence[KPI], cube: Cube, level: str) -> None:
        """Seed per-level KPI folds from ``cube``'s dataset for ``level``."""
        if not kpis:
            raise ReproError("no KPIs to evaluate")
        aggregations: dict[str, tuple[str, str]] = {}
        out_columns = {level}
        for kpi in kpis:
            if callable(kpi.compute):
                raise ReproError(
                    f"KPI {kpi.name!r} uses a callable; per-level evaluation needs a column name"
                )
            if kpi.compute not in cube.dataset:
                raise ReproError(f"KPI {kpi.name!r} references unknown column {kpi.compute!r}")
            if not cube.dataset[kpi.compute].is_numeric():
                raise ReproError(f"KPI {kpi.name!r} references non-numeric column {kpi.compute!r}")
            for column in (kpi.name, f"{kpi.name}_status"):
                if column in out_columns:
                    raise ReproError(
                        f"KPI {kpi.name!r} collides with the {column!r} scoreboard column; "
                        "KPI names must be unique and differ from the level column"
                    )
                out_columns.add(column)
            aggregations[kpi.name] = (kpi.compute, "mean")
        self._kpis = list(kpis)
        self._name = f"{cube.name}_kpis_by_{level}"
        self._level = level
        self._grouped = IncrementalGroupBy(cube.dataset, [level], aggregations)

    def refresh(self, merged: Dataset) -> Dataset:
        """Fold the appended rows in and return the refreshed scoreboard."""
        return self._scoreboard(self._grouped.refresh(merged), merged)

    def result(self) -> Dataset:
        """The scoreboard for the rows folded in so far."""
        return self._scoreboard(self._grouped.result(), self._grouped._dataset)

    def _scoreboard(self, grouped: Dataset, dataset: Dataset) -> Dataset:
        out_rows: list[dict[str, Any]] = []
        for row in grouped.iter_rows():
            out: dict[str, Any] = {self._level: row[self._level]}
            for kpi in self._kpis:
                value = row[kpi.name]
                out[kpi.name] = value
                out[f"{kpi.name}_status"] = kpi.grade(float(value))
            out_rows.append(out)
        ctypes = {self._level: dataset[self._level].ctype}
        for kpi in self._kpis:
            ctypes[kpi.name] = ColumnType.NUMERIC
            ctypes[f"{kpi.name}_status"] = ColumnType.CATEGORICAL
        return Dataset.from_rows(out_rows, name=self._name, ctypes=ctypes)


# -- incremental quality criterion states -------------------------------------


class _CompletenessState:
    """Running per-column missing counts behind the completeness criterion."""

    def __init__(self, criterion: CompletenessCriterion, dataset: Dataset, encoded: EncodedDataset) -> None:
        """Count missing cells per assessed column over the base rows."""
        self._criterion = criterion
        self._counts = {
            c.name: int(encoded.missing_view(c.name).sum())
            for c in criterion._selected_columns(dataset)
        }

    def update(self, merged: Dataset, encoded: EncodedDataset, start: int) -> None:
        """Add the delta rows' missing cells to the running counts."""
        for name in self._counts:
            self._counts[name] += int(encoded.missing_view(name)[start:].sum())

    def build(self, merged: Dataset, encoded: EncodedDataset) -> CriterionMeasure:
        """Materialise the criterion measure from the running counts."""
        return self._criterion._build_measure(merged, dict(self._counts))


class _DimensionalityState:
    """Running missing-cell total over the feature columns."""

    def __init__(self, criterion: DimensionalityCriterion, dataset: Dataset, encoded: EncodedDataset) -> None:
        """Total the missing cells across the base rows' feature columns."""
        self._criterion = criterion
        self._features = [c.name for c in dataset.columns if c.role == ColumnRole.FEATURE]
        self._missing = sum(int(encoded.missing_view(name).sum()) for name in self._features)

    def update(self, merged: Dataset, encoded: EncodedDataset, start: int) -> None:
        """Add the delta rows' missing feature cells to the running total."""
        self._missing += sum(int(encoded.missing_view(name)[start:].sum()) for name in self._features)

    def build(self, merged: Dataset, encoded: EncodedDataset) -> CriterionMeasure:
        """Materialise the criterion measure from the running total."""
        return self._criterion._build_measure(merged, len(self._features), self._missing)


class _BalanceState:
    """Running class bincounts per assessed column behind the balance criterion."""

    def __init__(self, criterion: BalanceCriterion, dataset: Dataset, encoded: EncodedDataset) -> None:
        """Build class-count tables for every assessable column of the base."""
        self._criterion = criterion
        if dataset.has_target():
            self._candidates = None
            self._tracked = [dataset.target_column().name]
        else:
            self._candidates = [c.name for c in dataset.feature_columns() if not c.is_numeric()]
            self._tracked = list(self._candidates)
        self._counts = {
            name: BalanceCriterion._encoded_counts(encoded, name) for name in self._tracked
        }

    def update(self, merged: Dataset, encoded: EncodedDataset, start: int) -> None:
        """Fold the delta rows' class codes into the running count tables."""
        for name in self._tracked:
            codes, vocabulary, _ = encoded.codes_view(name)
            delta_codes = codes[start:]
            present = delta_codes[delta_codes >= 0]
            if present.size == 0:
                continue
            bincount = np.bincount(present, minlength=len(vocabulary))
            counts = self._counts[name]
            # New levels land at the end of the extended vocabulary, so
            # walking the nonzero codes in ascending order appends them in
            # exactly the first-seen order a fresh ``_encoded_counts`` of the
            # merged column would use.
            for code in np.flatnonzero(bincount).tolist():
                level = vocabulary[code]
                counts[level] = counts.get(level, 0) + int(bincount[code])

    def build(self, merged: Dataset, encoded: EncodedDataset) -> CriterionMeasure:
        """Choose the least-balanced column and materialise its measure."""
        criterion = self._criterion
        if self._candidates is None:
            column = merged.target_column()
            return criterion._build_measure(column, self._counts[column.name])
        if not self._candidates:
            return CriterionMeasure(criterion.name, 1.0, {"note": "no discrete column to assess"})
        chosen = min(
            self._candidates, key=lambda name: criterion._normalised_entropy(self._counts[name])
        )
        return criterion._build_measure(merged[chosen], self._counts[chosen])


#: The packed key cell of a missing numeric cell: a NaN, which no rounded
#: present value is.
_MISSING_NUMERIC_CELL = np.float64(np.nan).view(np.uint64)
#: The level every missing discrete cell is keyed under, as the row path does.
_MISSING_LEVEL = "<missing>"


class _LevelIds:
    """Ids the state owns for one key column's level values, stable as its vocabulary grows.

    Missing cells take the id of the ``"<missing>"`` level, so they share it
    with a cell holding that text, as the batch tier's ``merge_missing_level``
    does; a normalised level never spells it, so fuzzy keys keep the two
    apart, as the batch tier does.
    """

    def __init__(self) -> None:
        """Start with only the missing id (0) assigned."""
        self._ids = {_MISSING_LEVEL: 0}
        self._by_code = np.empty(0, dtype=np.uint64)

    def cells(self, codes: np.ndarray, levels: Sequence[str]) -> np.ndarray:
        """The ids of ``codes`` (``-1`` missing) over ``levels``, an extension of the last call's."""
        known = self._by_code.size
        if len(levels) > known:
            fresh = [self._ids.setdefault(level, len(self._ids)) for level in levels[known:]]
            self._by_code = np.concatenate([self._by_code, np.asarray(fresh, dtype=np.uint64)])
        return np.append(self._by_code, np.uint64(0))[codes]  # code -1 picks the missing id


def _row_hashes(cells: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each row of ``(rows, columns)`` uint64 ``cells`` (splitmix64's mixer)."""
    hashes = np.zeros(cells.shape[0], dtype=np.uint64)
    for j in range(cells.shape[1]):
        hashes ^= cells[:, j]
        hashes *= np.uint64(0x9E3779B97F4A7C15)
        hashes ^= hashes >> np.uint64(31)
        hashes *= np.uint64(0xBF58476D1CE4E5B9)
    return hashes


class _SeenKeys:
    """The distinct key rows folded in so far, with no Python object per row.

    A row's ``uint64`` cells pack into one opaque fixed-width item.  The
    items are kept sorted by a 64-bit hash of the row, so a lookup is a
    binary search over integers plus an exact comparison with the items that
    share its hash.  Items a delta brings go into a small set of ``bytes``
    first and join the sorted array once they number an eighth of it, so a
    fold copies the array only every few batches.  :attr:`duplicates` counts
    the rows whose key was already seen.
    """

    def __init__(self, cells: np.ndarray) -> None:
        """Seed from the ``(rows, columns)`` key cells of the base rows."""
        items, hashes = self._items_of(cells), _row_hashes(cells)
        order = np.argsort(hashes)
        # Only rows that tie on the hash are compared, and only the kept rows are copied.
        tied = np.flatnonzero(hashes[order[1:]] == hashes[order[:-1]])
        repeat = items[order[tied + 1]] == items[order[tied]]
        if not repeat.all():
            # Two different keys share a hash: sort by key within each hash, so equal keys sit together.
            order = np.argsort(items)
            order = order[np.argsort(hashes[order], kind="stable")]
            tied = np.flatnonzero(hashes[order[1:]] == hashes[order[:-1]])
            repeat = items[order[tied + 1]] == items[order[tied]]
        fresh = np.ones(items.size, dtype=bool)
        fresh[tied[repeat] + 1] = False
        kept = order[fresh]
        self._items, self._hashes = items[kept], hashes[kept]
        self._recent: set[bytes] = set()
        self.duplicates = items.size - kept.size

    @staticmethod
    def _items_of(cells: np.ndarray) -> np.ndarray:
        cells = np.ascontiguousarray(cells)
        return cells.view(np.dtype((np.void, cells.itemsize * cells.shape[1]))).ravel()

    def add(self, cells: np.ndarray) -> None:
        """Fold a delta's key rows in: a row whose key was seen, in the delta too, is a duplicate."""
        items, hashes = self._items_of(cells), _row_hashes(cells)
        low = np.searchsorted(self._hashes, hashes, "left")
        high = np.searchsorted(self._hashes, hashes, "right")
        seen = np.zeros(items.size, dtype=bool)
        single = high - low == 1
        seen[single] = self._items[low[single]] == items[single]
        for i in np.flatnonzero(high - low > 1).tolist():
            seen[i] = bool((self._items[low[i]:high[i]] == items[i]).any())
        duplicates = int(seen.sum())
        recent = self._recent
        for key in items[~seen].tolist():
            if key in recent:
                duplicates += 1
            else:
                recent.add(key)
        self.duplicates += duplicates
        if len(recent) * 8 > self._items.size:
            self._merge()

    def _merge(self) -> None:
        """Move the recent items into the sorted array."""
        items = np.frombuffer(b"".join(self._recent), dtype=self._items.dtype)
        hashes = _row_hashes(items.view(np.uint64).reshape(items.size, -1))
        order = np.argsort(hashes)
        positions = np.searchsorted(self._hashes, hashes[order])
        self._items = np.insert(self._items, positions, items[order])
        self._hashes = np.insert(self._hashes, positions, hashes[order])
        self._recent = set()


class _DuplicationState:
    """Seen keys and duplicate counts behind the duplication criterion, with no object per row.

    A row's key packs one ``uint64`` per key column, read from the encoded
    views one column at a time and partitioned exactly as the criterion's
    encoded tier partitions it (that tier is the reference):

    * a numeric cell is the float64 bits of ``np.round(v, 6)`` (elementwise
      identical to the row path's ``round(value, 6)``), with ``-0.0`` folded
      into ``0.0``; a missing cell is one reserved NaN pattern;
    * a discrete cell is a :class:`_LevelIds` id of its level value, and a
      fuzzy key uses the id of the normalised level for string columns.

    Ids are per value, never a dataset-relative code, so keys from earlier
    folds stay comparable as the vocabulary grows.  The exact and the fuzzy
    pass each keep a :class:`_SeenKeys`.
    """

    def __init__(self, criterion: DuplicationCriterion, dataset: Dataset, encoded: EncodedDataset) -> None:
        """Fold every base row's key into the seen keys."""
        self._criterion = criterion
        key_columns = [dataset[name] for name in criterion._key_columns(dataset)]
        self._columns = [(c.name, c.is_numeric()) for c in key_columns]
        self._exact_ids = {c.name: _LevelIds() for c in key_columns if not c.is_numeric()}
        self._fuzzy_ids = {
            c.name: _LevelIds() for c in key_columns if criterion.fuzzy and c.ctype in _STRING_CTYPES
        }
        # One pass at a time, so only one pass's cells are alive while it seeds.
        self._exact = _SeenKeys(self._cells(encoded, 0, fuzzy=False))
        self._fuzzy = _SeenKeys(self._cells(encoded, 0, fuzzy=True)) if criterion.fuzzy else None

    def _cells(self, encoded: EncodedDataset, start: int, fuzzy: bool) -> np.ndarray:
        """The ``(rows, columns)`` key cells of rows ``start:`` for the exact or the fuzzy pass."""
        cells = np.empty((encoded.n_rows - start, len(self._columns)), dtype=np.uint64)
        for j, (name, numeric) in enumerate(self._columns):
            if numeric:
                values, missing = encoded.numeric_view(name)
                column = (np.round(values[start:], 6) + 0.0).view(np.uint64)
                column[missing[start:]] = _MISSING_NUMERIC_CELL
                cells[:, j] = column
                continue
            codes, vocabulary, _ = encoded.codes_view(name)
            if fuzzy and name in self._fuzzy_ids:
                cells[:, j] = self._fuzzy_ids[name].cells(codes[start:], encoded.normalised_levels(name))
            else:
                cells[:, j] = self._exact_ids[name].cells(codes[start:], vocabulary)
        return cells

    def update(self, merged: Dataset, encoded: EncodedDataset, start: int) -> None:
        """Fold the delta rows' keys into the seen keys."""
        if start >= merged.n_rows:
            return
        self._exact.add(self._cells(encoded, start, fuzzy=False))
        if self._fuzzy is not None:
            self._fuzzy.add(self._cells(encoded, start, fuzzy=True))

    def build(self, merged: Dataset, encoded: EncodedDataset) -> CriterionMeasure:
        """Materialise the criterion measure from the duplicate counts."""
        return self._criterion._build_measure(
            merged.n_rows,
            self._exact.duplicates,
            self._fuzzy.duplicates if self._fuzzy is not None else 0,
        )


def _build_criterion_state(
    criterion: Criterion, dataset: Dataset, encoded: EncodedDataset
) -> Any | None:
    """A delta-maintainable state for ``criterion``, or ``None`` to fall back.

    Mirrors the ``_uses_reference_measure`` guard of the encoded tier: only
    the exact library classes (not subclasses, which may override
    ``measure``) with their reference implementation intact get a state, so
    the profile stays bit-identical to ``measure_quality`` in every
    configuration.
    """
    if type(criterion) is CompletenessCriterion:
        return _CompletenessState(criterion, dataset, encoded)
    if type(criterion) is DimensionalityCriterion:
        return _DimensionalityState(criterion, dataset, encoded)
    if type(criterion) is BalanceCriterion:
        if dataset.has_target() and dataset.target_column().is_numeric():
            return None  # the batch tiers route numeric targets to the row path
        return _BalanceState(criterion, dataset, encoded)
    if type(criterion) is DuplicationCriterion:
        return _DuplicationState(criterion, dataset, encoded)
    return None


class IncrementalProfile:
    """O(len(delta)) refresh of a data quality profile.

    Construction measures the base dataset once and keeps running state for
    every criterion whose mathematics permit it (completeness,
    dimensionality, duplication, and balance over discrete columns — see
    :attr:`incremental_criteria`).  :meth:`refresh` updates those states from
    the appended rows only, recomputes the rest over the merged dataset's
    (extended) encoded views, and returns a profile bit-identical to
    ``measure_quality(merged, criteria)``.
    """

    def __init__(self, dataset: Dataset, criteria: Sequence[str | Criterion] | None = None) -> None:
        """Resolve ``criteria`` and seed a running state per incrementalizable one."""
        selected: list[Criterion] = []
        for item in criteria if criteria is not None else DEFAULT_CRITERIA:
            selected.append(item if isinstance(item, Criterion) else get_criterion(str(item)))
        self._criteria = selected
        self._dataset = dataset
        self._n_rows = dataset.n_rows
        self._build_states()

    def _build_states(self) -> None:
        encoded = encode_dataset(self._dataset)
        self._states = [
            _build_criterion_state(criterion, self._dataset, encoded) for criterion in self._criteria
        ]

    @property
    def incremental_criteria(self) -> list[str]:
        """Names of the criteria maintained by delta state."""
        return [c.name for c, s in zip(self._criteria, self._states) if s is not None]

    @property
    def fallback_criteria(self) -> list[str]:
        """Names of the criteria recomputed over the merged views at each refresh."""
        return [c.name for c, s in zip(self._criteria, self._states) if s is None]

    def _assemble(self, merged: Dataset, measures: Sequence[CriterionMeasure]) -> DataQualityProfile:
        profile = DataQualityProfile(dataset_name=merged.name)
        for criterion, measure in zip(self._criteria, measures):
            profile.measures[criterion.name] = measure
        return profile

    def profile(self) -> DataQualityProfile:
        """The profile of the rows folded in so far."""
        encoded = encode_dataset(self._dataset)
        measures = [
            criterion.measure_encoded(encoded) if state is None else state.build(self._dataset, encoded)
            for criterion, state in zip(self._criteria, self._states)
        ]
        return self._assemble(self._dataset, measures)

    def refresh(self, merged: Dataset) -> DataQualityProfile:
        """Fold the appended rows of ``merged`` in and return the refreshed profile."""
        _check_refresh_target(self._dataset, self._n_rows, merged)
        if use_reference():
            self._dataset = merged
            self._n_rows = merged.n_rows
            self._build_states()
            return measure_quality(merged, self._criteria)
        start = self._n_rows
        encoded = encode_dataset(merged)
        measures: list[CriterionMeasure] = []
        for criterion, state in zip(self._criteria, self._states):
            if state is None:
                measures.append(criterion.measure_encoded(encoded))
            else:
                state.update(merged, encoded, start)
                measures.append(state.build(merged, encoded))
        self._dataset = merged
        self._n_rows = merged.n_rows
        return self._assemble(merged, measures)
