"""Appendable datasets: schema-checked row/dataset appends that extend encodings.

A feed batch arriving against a 100k-row base must cost work in proportion
to the batch: no per-cell encoding of the base's columns, and no copy of
its rows.  ``append_dataset`` appends a schema-compatible delta onto a base
dataset through :meth:`~repro.tabular.dataset.Dataset.concat`: each column
keeps its codes and appends the delta's, and — when the base already
carries encoded views — the merged views extend the base's by the delta's
block, growing their per-row arrays in place (see
:func:`repro.tabular.encoded.extend_encoding`).  ``append_rows`` is the
row-dictionary front end the CLI and connectors use: it builds the raw
records into columns of the base's schema, each coded in one pass, so a
schema-incompatible delta fails loudly as a
:class:`~repro.exceptions.SchemaError` before anything is merged.
``appended_rows`` is the converse check: whether a dataset, however it was
written, is another one plus appended rows.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from repro.exceptions import SchemaError
from repro.tabular.dataset import Column, Dataset
from repro.tabular.encoded import encode_dataset


def append_dataset(base: Dataset, delta: Dataset, name: str | None = None) -> Dataset:
    """Return ``base`` with ``delta``'s rows appended, extending cached encodings.

    ``delta`` must carry exactly the base's column names (in order) with the
    same ctypes; anything else raises :class:`SchemaError` mentioning the
    mismatch.  Roles follow the base.  The merged dataset keeps the base's
    name unless ``name`` overrides it.  Appending never re-encodes base rows:
    views cached on the base are extended in O(len(delta) + new levels) and
    remain bit-identical to a cold re-encode of the merged data.  On an
    encoded base nothing is copied either, except where a buffer cannot grow
    in place (the first append out of a memory map, a regrowth, a second
    branch from one base); see :func:`repro.tabular.encoded.extend_encoding`.
    """
    if base.column_names != delta.column_names:
        raise SchemaError(
            f"schema-incompatible delta for dataset {base.name!r}: base columns "
            f"{base.column_names} != delta columns {delta.column_names}"
        )
    for column_name in base.column_names:
        base_ctype = base[column_name].ctype
        delta_ctype = delta[column_name].ctype
        if base_ctype != delta_ctype:
            raise SchemaError(
                f"schema-incompatible delta for dataset {base.name!r}: column "
                f"{column_name!r} is {base_ctype} in the base but {delta_ctype} in the delta"
            )
    return base._concat(delta, base.name if name is None else name)


def append_rows(
    base: Dataset, rows: Sequence[Mapping[str, Any]], name: str | None = None
) -> Dataset:
    """Append row dictionaries to ``base``, coercing them against its schema.

    Each row may supply any subset of the base's columns (absent keys become
    missing cells); a key outside the base's columns, or a cell that cannot
    be coerced to the column's ctype, raises :class:`SchemaError` naming the
    dataset before anything is merged.  An empty ``rows`` sequence returns
    ``base`` itself unchanged.

    Each column of the batch is a :class:`~repro.tabular.dataset.Column` of
    the base's ctype and role, coerced and coded in one pass per column.
    :func:`append_dataset` then appends it through the one concatenation,
    so the whole append costs O(len(rows) + new levels): on an encoded base
    no existing row is re-encoded or copied
    (:func:`repro.tabular.encoded.extend_encoding`).
    """
    rows = rows if isinstance(rows, list) else list(rows)
    if not rows:
        return base
    known = set(base.column_names)
    for position, row in enumerate(rows):
        if not known.issuperset(row):
            unknown = [key for key in row if key not in known]
            raise SchemaError(
                f"schema-incompatible rows for dataset {base.name!r}: row {position} has "
                f"unknown column(s) {unknown}; expected a subset of {base.column_names}"
            )
    try:
        columns = [Column(c.name, [row.get(c.name) for row in rows], ctype=c.ctype, role=c.role)
                   for c in base.columns]
        delta = Dataset(columns, name=f"{base.name}_delta")
    except (TypeError, ValueError) as exc:
        raise SchemaError(
            f"schema-incompatible rows for dataset {base.name!r}: {exc}"
        ) from exc
    return append_dataset(base, delta, name=name)


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays hold the same bytes (NaN payloads and ``-0.0`` told apart)."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    unsigned = np.dtype(f"u{a.dtype.itemsize}")
    return bool(np.array_equal(a.view(unsigned), b.view(unsigned)))


def appended_rows(base: Dataset, merged: Dataset) -> int | None:
    """How many rows ``merged`` appends to ``base``; ``None`` unless it is ``base`` plus appended rows.

    A structural check over the stored views, for any writer: the dataset
    names and the column names, order, ctypes and roles must be equal; each
    numeric column's first ``n = base.n_rows`` values byte-equal; and for
    every other column the base's vocabulary a prefix of the merged one,
    with the codes (which determine the missing mask) byte-equal over the
    first ``n`` rows.  On opened stores this reads each primary section's
    first ``n`` rows once and materialises nothing.  Equal datasets append
    ``0`` rows.
    """
    n = base.n_rows
    if merged.name != base.name or merged.n_rows < n or merged.n_columns != base.n_columns:
        return None
    base_views, merged_views = encode_dataset(base), encode_dataset(merged)
    for old, new in zip(base.columns, merged.columns):
        if (old.name, old.ctype, old.role) != (new.name, new.ctype, new.role):
            return None
        if old.is_numeric():
            if not _same_bytes(old.values, new.values[:n]):
                return None
            continue
        codes, vocabulary, _ = base_views.codes_view(old.name)
        new_codes, new_vocabulary, _ = merged_views.codes_view(new.name)
        if new_vocabulary[: len(vocabulary)] != vocabulary or not _same_bytes(codes, new_codes[:n]):
            return None
    return merged.n_rows - n
