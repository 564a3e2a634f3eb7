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
from repro.tabular.encoded import MISSING_KEY_SENTINEL, encode_dataset
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
    aggregation: both ``group_by`` tiers sum with it, and
    :class:`repro.feeds.IncrementalGroupBy` resumes it from a running total.
    Builtin ``sum`` is this fold on Python 3.11 and earlier but compensated
    (Neumaier) summation since 3.12, so it is spelled out here;
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
    are reduced over contiguous sorted-scan segments of the float views —
    bit-identical to the row-at-a-time reference, including the float
    summation order, the first-seen group order and the first-row key values.
    Inside :func:`repro.tiers.reference` it runs the retained row-at-a-time
    reference implementation.
    """
    keys = list(keys)
    for key in keys:
        if key not in dataset:
            raise SchemaError(f"unknown group-by key {key!r}")
    for out_name, (source, agg) in aggregations.items():
        if source not in dataset:
            raise SchemaError(f"aggregation {out_name!r} references unknown column {source!r}")
        if agg not in _AGGREGATIONS:
            raise SchemaError(f"unknown aggregation {agg!r}; choose from {sorted(_AGGREGATIONS)}")

    if not use_reference() and all(
        dataset[source].is_numeric() for source, _ in aggregations.values()
    ):
        out_rows = _grouped_rows_encoded(dataset, keys, aggregations)
    else:
        out_rows = _grouped_rows_reference(dataset, keys, aggregations)

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


def _grouped_rows_encoded(
    dataset: Dataset,
    keys: list[str],
    aggregations: Mapping[str, tuple[str, str]],
) -> list[dict[str, Any]]:
    """Vectorized grouping over the cached encoded views.

    Group membership comes from the composite int64 key codes (first-seen
    order, so the output row order matches the reference) and each measure is
    cut into per-group contiguous segments of its float view by one stable
    sort.  The per-group reductions then apply the *same* ``_AGGREGATIONS``
    callables to the same float sequences as the reference path, which keeps
    every float operation — summation order included — bit-identical.
    """
    encoded = encode_dataset(dataset)
    group_ids, n_groups = encoded.group_keys(keys)
    if n_groups == 0:
        return []
    order = group_order(group_ids, n_groups)
    sorted_ids = group_ids[order]
    counts = np.bincount(group_ids, minlength=n_groups)
    starts = np.zeros(n_groups, dtype=np.intp)
    np.cumsum(counts[:-1], out=starts[1:])
    first_rows = order[starts]

    out_rows: list[dict[str, Any]] = [
        {key: dataset[key][first_rows[g]] for key in keys} for g in range(n_groups)
    ]
    for out_name, (source, agg) in aggregations.items():
        values, missing = encoded.numeric_view(source)
        keep = ~missing[order]
        present = values[order][keep]
        present_counts = np.bincount(sorted_ids[keep], minlength=n_groups)
        ends = np.cumsum(present_counts)
        fn = _AGGREGATIONS[agg]
        for g in range(n_groups):
            xs = present[ends[g] - present_counts[g] : ends[g]]
            if agg == "count":
                out_rows[g][out_name] = float(len(xs))
            else:
                out_rows[g][out_name] = fn(xs) if len(xs) else float("nan")
    return out_rows


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
