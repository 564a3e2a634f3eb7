"""Appendable datasets: schema-checked row/dataset appends that extend encodings.

A feed batch arriving against a 100k-row base must not force the base's
columns back through per-cell encoding.  ``append_dataset`` concatenates a
schema-compatible delta onto a base dataset and — when the base already
carries encoded views — seeds the merged dataset's encoding by extending
those views with the delta's encoded block (see
:func:`repro.tabular.encoded.extend_encoding`).  ``append_rows`` is the
row-dictionary front end the CLI and connectors use: it coerces raw records
against the base's schema first, so a schema-incompatible delta fails loudly
as a :class:`~repro.exceptions.SchemaError` before anything is merged.
``appended_rows`` is the converse check: whether a dataset, however it was
written, is another one plus appended rows.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from repro.exceptions import SchemaError
from repro.tabular.dataset import Dataset
from repro.tabular.encoded import encode_dataset


def append_dataset(base: Dataset, delta: Dataset, name: str | None = None) -> Dataset:
    """Return ``base`` with ``delta``'s rows appended, extending cached encodings.

    ``delta`` must carry exactly the base's column names (in order) with the
    same ctypes; anything else raises :class:`SchemaError` mentioning the
    mismatch.  Roles follow the base.  The merged dataset keeps the base's
    name unless ``name`` overrides it.  Appending never re-encodes base rows:
    views cached on the base are extended in O(len(delta)) and remain
    bit-identical to a cold re-encode of the merged data.
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
    merged = base.concat(delta)
    if name is not None:
        merged.name = name
    return merged


def append_rows(
    base: Dataset, rows: Sequence[Mapping[str, Any]], name: str | None = None
) -> Dataset:
    """Append row dictionaries to ``base``, coercing them against its schema.

    Each row may supply any subset of the base's columns (absent keys become
    missing cells); a key outside the base's columns, or a cell that cannot
    be coerced to the column's ctype, raises :class:`SchemaError`.  An empty
    ``rows`` sequence returns ``base`` itself unchanged.  Delegates to
    :func:`append_dataset`, so cached encodings are extended, not rebuilt.
    """
    rows = [dict(row) for row in rows]
    if not rows:
        return base
    known = set(base.column_names)
    for position, row in enumerate(rows):
        unknown = [key for key in row if key not in known]
        if unknown:
            raise SchemaError(
                f"schema-incompatible rows for dataset {base.name!r}: row {position} has "
                f"unknown column(s) {unknown}; expected a subset of {base.column_names}"
            )
    ctypes = {column.name: column.ctype for column in base.columns}
    roles = {column.name: column.role for column in base.columns}
    try:
        delta = Dataset.from_rows(
            rows,
            name=f"{base.name}_delta",
            ctypes=ctypes,
            roles=roles,
            column_order=base.column_names,
        )
    except SchemaError:
        raise
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
    with the codes and the missing mask byte-equal over the first ``n``
    rows.  On opened stores this reads each primary section's first ``n``
    rows once and materialises nothing.  Equal datasets append ``0`` rows.
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
        if (
            new_vocabulary[: len(vocabulary)] != vocabulary
            or not _same_bytes(codes, new_codes[:n])
            or not _same_bytes(base_views.missing_view(old.name), merged_views.missing_view(new.name)[:n])
        ):
            return None
    return merged.n_rows - n
