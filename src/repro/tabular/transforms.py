"""Relational-style transforms over :class:`~repro.tabular.dataset.Dataset`.

These implement the "data integration in a repository" phase of the KDD
process (paper, Figure 1): selecting, joining and aggregating heterogeneous
open data sources before data quality is measured and mining is applied.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from typing import Any

import numpy as np

from repro.exceptions import SchemaError
from repro.tabular.dataset import Column, ColumnRole, ColumnType, Dataset, is_missing_value
from repro.tabular.encoded import MISSING_KEY_SENTINEL, EncodedDataset, encode_dataset
from repro.tiers import use_reference


# ---------------------------------------------------------------------------
# Row-level relational operators
# ---------------------------------------------------------------------------

def select(dataset: Dataset, predicate: Callable[[dict[str, Any]], bool]) -> Dataset:
    """Return the rows satisfying ``predicate`` (relational selection)."""
    return dataset.filter(predicate)


def project(dataset: Dataset, columns: Sequence[str]) -> Dataset:
    """Return only the listed columns (relational projection)."""
    return dataset.select_columns(columns)


def distinct(dataset: Dataset, subset: Sequence[str] | None = None) -> Dataset:
    """Drop duplicate rows (optionally considering only ``subset`` columns)."""
    keys = list(subset) if subset is not None else dataset.column_names
    seen: set[tuple] = set()
    indices: list[int] = []
    for i, row in enumerate(dataset.iter_rows()):
        key = tuple(_hashable(row[k]) for k in keys)
        if key not in seen:
            seen.add(key)
            indices.append(i)
    return dataset.take(indices)


def sort_by(dataset: Dataset, columns: Sequence[str], descending: bool = False) -> Dataset:
    """Return the dataset sorted by the listed columns (missing values last)."""
    for name in columns:
        if name not in dataset:
            raise SchemaError(f"cannot sort by unknown column {name!r}")

    def key(index: int):
        row = dataset.row(index)
        parts = []
        for name in columns:
            value = row[name]
            missing = is_missing_value(value)
            parts.append((missing, value if not missing else ""))
        return tuple(parts)

    order = sorted(range(dataset.n_rows), key=key, reverse=descending)
    return dataset.take(order)


def _hashable(value: Any) -> Any:
    if is_missing_value(value):
        return MISSING_KEY_SENTINEL
    return value


def join(
    left: Dataset,
    right: Dataset,
    on: Sequence[str] | str,
    how: str = "inner",
    suffix: str = "_right",
) -> Dataset:
    """Join two datasets on equality of the ``on`` columns.

    Supported ``how`` values are ``inner`` and ``left``.  Columns of ``right``
    that collide with columns of ``left`` (other than the join keys) are
    renamed with ``suffix``.
    """
    if how not in ("inner", "left"):
        raise SchemaError(f"unsupported join type {how!r}")
    keys = [on] if isinstance(on, str) else list(on)
    for key in keys:
        if key not in left or key not in right:
            raise SchemaError(f"join key {key!r} missing from one of the datasets")

    right_index: dict[tuple, list[int]] = {}
    for i, row in enumerate(right.iter_rows()):
        right_index.setdefault(tuple(_hashable(row[k]) for k in keys), []).append(i)

    right_value_columns = [c for c in right.column_names if c not in keys]
    renamed = {
        name: (name + suffix if name in left.column_names else name) for name in right_value_columns
    }

    out_rows: list[dict[str, Any]] = []
    for lrow in left.iter_rows():
        key = tuple(_hashable(lrow[k]) for k in keys)
        matches = right_index.get(key, [])
        if matches:
            for ri in matches:
                rrow = right.row(ri)
                merged = dict(lrow)
                for name in right_value_columns:
                    merged[renamed[name]] = rrow[name]
                out_rows.append(merged)
        elif how == "left":
            merged = dict(lrow)
            for name in right_value_columns:
                merged[renamed[name]] = None
            out_rows.append(merged)
    if not out_rows:
        raise SchemaError("join produced no rows")
    ctypes = {c.name: c.ctype for c in left.columns}
    for name in right_value_columns:
        ctypes[renamed[name]] = right[name].ctype
    roles = {c.name: c.role for c in left.columns}
    return Dataset.from_rows(out_rows, name=f"{left.name}_join_{right.name}", ctypes=ctypes, roles=roles)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

#: Runs at most this long are added in a Python loop, which beats the call
#: overhead of ``np.add.accumulate``; the two give the same bits.
_SHORT_FOLD = 32


def fold_sum(values: np.ndarray, start: float = 0.0) -> float:
    """``start + values[0] + values[1] + ...``, added one at a time, in order.

    This left fold is the summation order of every ``sum`` and ``mean``
    aggregation: both ``group_by`` tiers sum with it, and the encoded tier
    (:class:`_GroupFolds`) resumes it from a running total when rows are
    appended.  Builtin ``sum`` is this fold on Python 3.11 and earlier but
    compensated (Neumaier) summation since 3.12, so it is spelled out here;
    ``np.add.accumulate`` adds sequentially.  ``start=0.0`` is the fold from
    int ``0``: ``0.0 + -0.0`` is ``0.0``, as ``0 + -0.0`` is.
    """
    if values.size <= _SHORT_FOLD:
        total = start
        for value in values.tolist():
            total += value
        return float(total)
    return float(np.add.accumulate(np.concatenate(([start], values)))[-1])


#: Reductions of one group's present values, a non-empty float64 array.
_AGGREGATIONS: dict[str, Callable[[np.ndarray], float]] = {
    "sum": fold_sum,
    "mean": lambda xs: fold_sum(xs) / len(xs),
    "min": lambda xs: float(min(xs.tolist())),
    "max": lambda xs: float(max(xs.tolist())),
    "count": lambda xs: float(len(xs)),
    "std": lambda xs: float(np.std(xs)),
    "median": lambda xs: float(np.median(xs)),
}


def group_by(
    dataset: Dataset,
    keys: Sequence[str],
    aggregations: Mapping[str, tuple[str, str]],
) -> Dataset:
    """Group rows by ``keys`` and compute aggregations.

    ``aggregations`` maps an output column name to a ``(source_column, agg)``
    pair, where ``agg`` is one of ``sum``, ``mean``, ``min``, ``max``,
    ``count``, ``std`` or ``median``.  Missing values are ignored inside each
    group; missing *key* cells form their own group, holding the missing value.

    This is the shared aggregation primitive of the OLAP layer, and it follows
    the library's two-tier protocol: when every aggregation source column is
    numeric, the groups are computed from the dataset's cached encoded views
    (:meth:`repro.tabular.encoded.EncodedDataset.group_keys`) and the measures
    are folded over contiguous sorted-scan segments of the float views
    (:class:`_GroupFolds`) — bit-identical to the row-at-a-time reference,
    including the float summation order, the first-seen group order and the
    first-row key values.  Inside :func:`repro.tiers.reference` it runs the
    retained row-at-a-time reference implementation.
    """
    keys = _checked_keys(dataset, keys, aggregations)
    if use_reference() or not _foldable(dataset, aggregations):
        return _grouped(dataset, keys, aggregations, _grouped_rows_reference(dataset, keys, aggregations))
    return _GroupFolds(dataset, keys, aggregations).result(dataset)


def _checked_keys(
    dataset: Dataset, keys: Sequence[str], aggregations: Mapping[str, tuple[str, str]]
) -> list[str]:
    """``keys`` as a list, once every key, source column and aggregation is known."""
    keys = list(keys)
    for key in keys:
        if key not in dataset:
            raise SchemaError(f"unknown group-by key {key!r}")
    for out_name, (source, agg) in aggregations.items():
        if source not in dataset:
            raise SchemaError(f"aggregation {out_name!r} references unknown column {source!r}")
        if agg not in _AGGREGATIONS:
            raise SchemaError(f"unknown aggregation {agg!r}; choose from {sorted(_AGGREGATIONS)}")
    return keys


def _foldable(dataset: Dataset, aggregations: Mapping[str, tuple[str, str]]) -> bool:
    """Whether the encoded tier applies: every source is numeric (the reference coerces other cells)."""
    return all(dataset[source].is_numeric() for source, _ in aggregations.values())


def _grouped(
    dataset: Dataset,
    keys: list[str],
    aggregations: Mapping[str, tuple[str, str]],
    out_rows: list[dict[str, Any]],
) -> Dataset:
    """The grouped dataset of ``out_rows``: keys typed as in ``dataset``, every measure numeric."""
    ctypes = {k: dataset[k].ctype for k in keys}
    for out_name in aggregations:
        ctypes[out_name] = ColumnType.NUMERIC
    return Dataset.from_rows(out_rows, name=f"{dataset.name}_grouped", ctypes=ctypes)


def _grouped_rows_reference(
    dataset: Dataset,
    keys: list[str],
    aggregations: Mapping[str, tuple[str, str]],
) -> list[dict[str, Any]]:
    """Row-at-a-time reference grouping: the semantics the encoded path must match."""
    groups: dict[tuple, list[int]] = {}
    for i, row in enumerate(dataset.iter_rows()):
        groups.setdefault(tuple(_hashable(row[k]) for k in keys), []).append(i)

    out_rows: list[dict[str, Any]] = []
    for _group_key, indices in groups.items():
        row: dict[str, Any] = {}
        first = dataset.row(indices[0])
        for key in keys:
            row[key] = first[key]
        for out_name, (source, agg) in aggregations.items():
            values = [dataset[source][i] for i in indices]
            numeric = [float(v) for v in values if not is_missing_value(v)]
            if agg == "count":
                row[out_name] = float(len([v for v in values if not is_missing_value(v)]))
            else:
                row[out_name] = (
                    _AGGREGATIONS[agg](np.asarray(numeric, dtype=float)) if numeric else float("nan")
                )
        out_rows.append(row)
    return out_rows


def group_order(group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    """The stable permutation that sorts rows by group id, keeping row order within each group.

    The ids are sorted as the narrowest unsigned dtype that holds every id:
    numpy's stable sort of integers up to 16 bits is a radix sort, and a
    stable sort's permutation does not depend on the dtype.
    """
    return np.argsort(group_ids.astype(np.min_scalar_type(max(n_groups - 1, 0))), kind="stable")


_NAN = float("nan")


class _GroupFolds:
    """``group_by``'s encoded tier: one fold per group and measure, resumable by appended rows.

    Seeding sorts the group ids once and folds each measure's per-group runs
    of present values in row order; :meth:`update` folds appended rows the
    same way, so it leaves the state a seed over the merged rows builds.
    ``sum``/``mean`` carry the running :func:`fold_sum` total, ``min``/``max``
    the earliest best value and ``count`` a count; ``std``/``median`` keep
    their runs and reduce them when read after a change.  Groups keep
    first-seen order and their first row's key cells, as the reference's do,
    and only views and single key cells are read.  The key → group map an
    update needs is built at the first update.
    """

    def __init__(
        self, dataset: Dataset, keys: list[str], aggregations: Mapping[str, tuple[str, str]]
    ) -> None:
        self._keys = keys
        self._aggregations = aggregations
        encoded = encode_dataset(dataset)
        group_ids, n_groups = encoded.group_keys(keys)
        order = group_order(group_ids, n_groups)
        counts = np.bincount(group_ids, minlength=n_groups)
        self._first_rows = order[counts.cumsum() - counts].tolist()
        self._key_values = [{key: dataset[key][row] for key in keys} for row in self._first_rows]
        self._groups: dict[tuple, int] | None = None
        self._acc = {
            out_name: self._empty(agg, n_groups) for out_name, (_source, agg) in aggregations.items()
        }
        self._fold(encoded, 0, group_ids, order)

    @staticmethod
    def _empty(agg: str, n_groups: int) -> tuple[list, list]:
        """The accumulators of ``n_groups`` groups that have folded no value yet."""
        if agg in ("sum", "mean"):
            return [0.0] * n_groups, [0] * n_groups  # running left fold, count
        if agg in ("std", "median"):
            return [[] for _ in range(n_groups)], [None] * n_groups  # runs, result (None: stale)
        return [0 if agg == "count" else None] * n_groups, []

    def _fold(self, encoded: EncodedDataset, start: int, group_ids: np.ndarray, order: np.ndarray) -> None:
        """Fold rows ``start:`` in: row ``start + i`` is in group ``group_ids[i]``, ``order`` sorts by it."""
        n_groups = len(self._key_values)
        sorted_ids = group_ids[order]
        for out_name, (source, agg) in self._aggregations.items():
            values, missing = encoded.numeric_view(source)
            keep = ~missing[start:][order]
            present = values[start:][order][keep]
            counts = np.bincount(sorted_ids[keep], minlength=n_groups)
            touched = counts.nonzero()[0]
            bounds = [0, *counts[touched].cumsum().tolist()]
            runs = zip(touched.tolist(), bounds[:-1], bounds[1:])
            first, second = self._acc[out_name]
            if agg in ("sum", "mean"):
                for group, lo, hi in runs:
                    first[group] = fold_sum(present[lo:hi], first[group])
                    second[group] += hi - lo
            elif agg == "count":
                for group, lo, hi in runs:
                    first[group] += hi - lo
            elif agg in ("min", "max"):
                pick = min if agg == "min" else max
                for group, lo, hi in runs:
                    best = pick(present[lo:hi].tolist())
                    first[group] = best if first[group] is None else pick(first[group], best)
            else:
                for group, lo, hi in runs:
                    first[group].append(present[lo:hi])
                    second[group] = None

    def _finalise(self, agg: str, first: list, second: list) -> list[float]:
        """Every group's aggregate from its accumulators, in the reference's arithmetic."""
        if agg == "sum":
            return [total if n else _NAN for total, n in zip(first, second)]
        if agg == "mean":
            return [total / n if n else _NAN for total, n in zip(first, second)]
        if agg == "count":
            return [float(n) for n in first]
        if agg in ("min", "max"):
            return [_NAN if best is None else best for best in first]
        for group, result in enumerate(second):
            if result is None:  # stale: reduce the merged runs once
                runs = first[group]
                values = runs[0] if len(runs) == 1 else np.concatenate(runs) if runs else np.empty(0)
                first[group] = [values]
                second[group] = _AGGREGATIONS[agg](values) if values.size else _NAN
        return list(second)

    def result(self, dataset: Dataset) -> Dataset:
        """The grouped ``dataset``, the rows folded in so far."""
        out_rows = [dict(key_values) for key_values in self._key_values]
        for out_name, (_source, agg) in self._aggregations.items():
            for row, value in zip(out_rows, self._finalise(agg, *self._acc[out_name])):
                row[out_name] = value
        return _grouped(dataset, self._keys, self._aggregations, out_rows)

    def update(self, dataset: Dataset, start: int) -> None:
        """Fold in rows ``start:`` of ``dataset``, the rows folded so far followed by appended ones."""
        encoded = encode_dataset(dataset)
        groups = self._groups
        if groups is None:
            groups = self._groups = {
                key: group
                for group, key in enumerate(self._key_cells(dataset, encoded, np.asarray(self._first_rows)))
            }
        group_ids = np.empty(dataset.n_rows - start, dtype=np.intp)
        for i, key in enumerate(self._key_cells(dataset, encoded, np.arange(start, dataset.n_rows))):
            group = groups.get(key)
            if group is None:
                group = groups[key] = len(self._key_values)
                self._first_rows.append(start + i)
                self._key_values.append({k: dataset[k][start + i] for k in self._keys})
                for out_name, (_source, agg) in self._aggregations.items():
                    for accumulators, slot in zip(self._acc[out_name], self._empty(agg, 1)):
                        accumulators += slot
            group_ids[i] = group
        self._fold(encoded, start, group_ids, group_order(group_ids, len(self._key_values)))

    def _key_cells(self, dataset: Dataset, encoded: EncodedDataset, rows: np.ndarray) -> list[tuple]:
        """The group key of each of ``rows``, as the reference's ``_hashable`` cells partition them.

        Numeric keys are their float values and non-numeric keys their
        vocabulary level; missing cells (and a level spelling the sentinel)
        are :data:`~repro.tabular.encoded.MISSING_KEY_SENTINEL`.
        """
        columns = []
        for key in self._keys:
            if dataset[key].is_numeric():
                values, missing = encoded.numeric_view(key)
                cells = values[rows].tolist()
                for i in np.flatnonzero(missing[rows]).tolist():
                    cells[i] = MISSING_KEY_SENTINEL
            else:
                codes, vocabulary, _ = encoded.codes_view(key)
                cells = [vocabulary[c] if c >= 0 else MISSING_KEY_SENTINEL for c in codes[rows].tolist()]
            columns.append(cells)
        return list(zip(*columns)) if columns else [()] * len(rows)


# ---------------------------------------------------------------------------
# Column-level transformations useful for preprocessing
# ---------------------------------------------------------------------------

def discretize(
    dataset: Dataset,
    column: str,
    bins: int = 4,
    strategy: str = "width",
    labels: Sequence[str] | None = None,
) -> Dataset:
    """Replace a numeric column by a categorical binned version.

    ``strategy`` is ``"width"`` (equal-width bins) or ``"frequency"``
    (equal-frequency / quantile bins).
    """
    col = dataset[column]
    if not col.is_numeric():
        raise SchemaError(f"column {column!r} is not numeric; cannot discretize")
    if bins < 2:
        raise SchemaError("need at least 2 bins")
    if strategy not in ("width", "frequency"):
        raise SchemaError(f"unknown discretization strategy {strategy!r}")
    values = col.values.astype(float)
    present = values[~np.isnan(values)]
    if present.size == 0:
        raise SchemaError(f"column {column!r} has no non-missing values")
    if strategy == "width":
        edges = np.linspace(present.min(), present.max(), bins + 1)
    else:
        quantiles = np.linspace(0, 100, bins + 1)
        edges = np.percentile(present, quantiles)
        edges = np.unique(edges)
        if edges.size < 2:
            edges = np.array([present.min(), present.max()])
    n_bins = len(edges) - 1
    if labels is None:
        labels = [f"{column}_bin{i}" for i in range(n_bins)]
    elif len(labels) < n_bins:
        raise SchemaError("not enough labels for the number of bins")

    def bin_of(value: float) -> str | None:
        if math.isnan(value):
            return None
        index = int(np.searchsorted(edges, value, side="right")) - 1
        index = min(max(index, 0), n_bins - 1)
        return labels[index]

    binned = [bin_of(v) for v in values]
    new_col = Column(column, binned, ctype=ColumnType.CATEGORICAL, role=col.role)
    return dataset.replace_column(new_col)


def normalize(dataset: Dataset, columns: Sequence[str] | None = None, method: str = "minmax") -> Dataset:
    """Normalise numeric columns in place (min-max to [0, 1] or z-score)."""
    if method not in ("minmax", "zscore"):
        raise SchemaError(f"unknown normalisation method {method!r}")
    if columns is None:
        columns = [c.name for c in dataset.columns if c.is_numeric() and c.role == ColumnRole.FEATURE]
    result = dataset
    for name in columns:
        col = result[name]
        if not col.is_numeric():
            raise SchemaError(f"column {name!r} is not numeric; cannot normalise")
        values = col.values.astype(float)
        present = values[~np.isnan(values)]
        if present.size == 0:
            continue
        if method == "minmax":
            low, high = float(present.min()), float(present.max())
            span = high - low
            scaled = (values - low) / span if span > 0 else np.zeros_like(values)
        else:
            mean, std = float(present.mean()), float(present.std())
            scaled = (values - mean) / std if std > 0 else np.zeros_like(values)
        scaled = np.where(np.isnan(values), np.nan, scaled)
        result = result.replace_column(Column(name, scaled.tolist(), ctype=ColumnType.NUMERIC, role=col.role))
    return result


def derive_column(
    dataset: Dataset,
    name: str,
    expression: Callable[[dict[str, Any]], Any],
    ctype: str | None = None,
    role: str = ColumnRole.FEATURE,
) -> Dataset:
    """Add a new column computed row-by-row from ``expression(row_dict)``."""
    values = [expression(row) for row in dataset.iter_rows()]
    return dataset.add_column(Column(name, values, ctype=ctype, role=role))


def pivot_counts(dataset: Dataset, row_key: str, column_key: str) -> Dataset:
    """Return a contingency table (counts) of ``row_key`` × ``column_key``."""
    for key in (row_key, column_key):
        if key not in dataset:
            raise SchemaError(f"unknown column {key!r}")
    row_values = dataset[row_key].distinct()
    col_values = dataset[column_key].distinct()
    counts = {rv: {cv: 0 for cv in col_values} for rv in row_values}
    for row in dataset.iter_rows():
        rv, cv = row[row_key], row[column_key]
        if is_missing_value(rv) or is_missing_value(cv):
            continue
        counts[rv][cv] += 1
    out_rows = []
    for rv in row_values:
        out = {row_key: rv}
        for cv in col_values:
            out[f"{column_key}={cv}"] = counts[rv][cv]
        out_rows.append(out)
    return Dataset.from_rows(out_rows, name=f"{dataset.name}_pivot")


def train_test_indices(n_rows: int, test_fraction: float = 0.3, seed: int = 0) -> tuple[list[int], list[int]]:
    """Return reproducible (train_indices, test_indices) for a dataset of ``n_rows``."""
    if not 0.0 < test_fraction < 1.0:
        raise SchemaError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_rows)
    n_test = max(1, int(round(n_rows * test_fraction)))
    test = sorted(int(i) for i in order[:n_test])
    train = sorted(int(i) for i in order[n_test:])
    return train, test
