"""Duplication: repeated records in the data.

The related-work section of the paper lists duplicate detection and
elimination as a classic first-phase data quality problem.  The criterion
counts exact duplicate rows and, optionally, near-duplicates whose string
cells differ only by normalisation (case, accents, whitespace).

The encoded path replaces the per-row key tuples with per-column ``int64``
key-code arrays over the shared encoded views — two cells get equal codes
exactly when their row-path keys would compare equal — combines them into one
composite ``int64`` key per row (:func:`~repro.tabular.encoded.row_keys`) and
counts the distinct keys with one sort.
"""

from __future__ import annotations

import numpy as np

from repro.lod.linker import normalise_string
from repro.quality.criteria import Criterion, CriterionMeasure, register_criterion
from repro.tabular.dataset import ColumnRole, ColumnType, Dataset, is_missing_value
from repro.tabular.encoded import EncodedDataset, count_distinct, merge_missing_level, row_keys

#: Column types whose canonical cell representation is ``str`` (the types the
#: fuzzy pass normalises; booleans stay raw ``bool`` cells on the row path).
_STRING_CTYPES = (ColumnType.CATEGORICAL, ColumnType.STRING, ColumnType.DATETIME)


@register_criterion
class DuplicationCriterion(Criterion):
    """1.0 minus the fraction of rows that duplicate an earlier row."""

    name = "duplication"
    description = "Fraction of rows that are unique (not duplicates of earlier rows)."

    def __init__(self, fuzzy: bool = True, ignore_identifier: bool = True) -> None:
        self.fuzzy = fuzzy
        self.ignore_identifier = ignore_identifier

    def _key_columns(self, dataset: Dataset) -> list[str]:
        columns = [
            c.name
            for c in dataset.columns
            if not (self.ignore_identifier and c.role == ColumnRole.IDENTIFIER)
        ]
        return columns or dataset.column_names

    def _row_key(self, row: dict, columns: list[str], fuzzy: bool) -> tuple:
        key = []
        for name in columns:
            value = row[name]
            if is_missing_value(value):
                key.append("<missing>")
            elif fuzzy and isinstance(value, str):
                key.append(normalise_string(value))
            elif isinstance(value, float):
                key.append(round(value, 6))
            else:
                key.append(value)
        return tuple(key)

    def measure(self, dataset: Dataset) -> CriterionMeasure:
        columns = self._key_columns(dataset)
        exact_seen: set[tuple] = set()
        fuzzy_seen: set[tuple] = set()
        exact_duplicates = 0
        fuzzy_duplicates = 0
        for row in dataset.iter_rows():
            exact_key = self._row_key(row, columns, fuzzy=False)
            if exact_key in exact_seen:
                exact_duplicates += 1
            else:
                exact_seen.add(exact_key)
            if self.fuzzy:
                fuzzy_key = self._row_key(row, columns, fuzzy=True)
                if fuzzy_key in fuzzy_seen:
                    fuzzy_duplicates += 1
                else:
                    fuzzy_seen.add(fuzzy_key)
        return self._build_measure(dataset.n_rows, exact_duplicates, fuzzy_duplicates)

    def _measure_encoded(self, encoded: EncodedDataset) -> CriterionMeasure | None:
        if not self._uses_reference_measure(DuplicationCriterion):
            return None
        dataset = encoded.dataset
        columns = self._key_columns(dataset)
        n = dataset.n_rows
        if n == 0:
            return self._build_measure(0, 0, 0)
        exact_codes: list[np.ndarray] = []
        fuzzy_codes: list[np.ndarray] = []
        for name in columns:
            column = dataset[name]
            if column.is_numeric():
                codes = self._numeric_key_codes(encoded, name)
                exact_codes.append(codes)
                fuzzy_codes.append(codes)
                continue
            raw_codes, vocabulary, _ = encoded.codes_view(name)
            # Exact keys label missing cells with the literal "<missing>"
            # string, which (deliberately, matching the row path) collides
            # with a real cell holding that exact text.
            merged, _ = merge_missing_level(raw_codes, vocabulary)
            exact_codes.append(merged)
            if not self.fuzzy:
                continue
            if column.ctype in _STRING_CTYPES:
                # Normalised strings never contain "<" or ">", so the fuzzy
                # "<missing>" key cannot collide with any cell: -1 is safe.
                fuzzy_codes.append(encoded.normalised_codes_view(name)[0])
            else:
                # Boolean cells are raw ``bool`` on the row path — fuzzy keys
                # equal exact keys.
                fuzzy_codes.append(merged)
        exact_duplicates = n - count_distinct(row_keys(exact_codes, n))
        fuzzy_duplicates = (n - count_distinct(row_keys(fuzzy_codes, n))) if self.fuzzy else 0
        return self._build_measure(n, exact_duplicates, fuzzy_duplicates)

    @staticmethod
    def _numeric_key_codes(encoded: EncodedDataset, name: str) -> np.ndarray:
        """Key codes for a numeric column: equal codes iff ``round(v, 6)`` keys match.

        ``np.round`` is elementwise identical to the ``round(value, 6)`` the
        row path applies to its ``np.float64`` cells, and ``np.unique``
        partitions by ``==`` (collapsing ``-0.0``/``0.0`` just like the row
        path's set of keys).  Missing cells keep ``-1``, which can never
        collide with a value code.
        """
        values, missing = encoded.numeric_view(name)
        codes = np.full(values.shape[0], -1, dtype=np.int64)
        present = ~missing
        if present.any():
            _, inverse = np.unique(np.round(values[present], 6), return_inverse=True)
            codes[present] = inverse
        return codes

    def _build_measure(self, n: int, exact_duplicates: int, fuzzy_duplicates: int) -> CriterionMeasure:
        duplicates = max(exact_duplicates, fuzzy_duplicates if self.fuzzy else 0)
        score = 1.0 - (duplicates / n if n else 0.0)
        return CriterionMeasure(
            criterion=self.name,
            score=score,
            details={
                "n_exact_duplicates": exact_duplicates,
                "n_fuzzy_duplicates": fuzzy_duplicates,
                "n_rows": n,
            },
        )
