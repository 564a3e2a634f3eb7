"""Duplication: repeated records in the data.

The related-work section of the paper lists duplicate detection and
elimination as a classic first-phase data quality problem.  The criterion
counts exact duplicate rows and, optionally, near-duplicates whose string
cells differ only by normalisation (case, accents, whitespace).

The encoded tier replaces the per-row key tuples with per-column ``int64``
key-code arrays over the shared encoded views — two cells get equal codes
exactly when their row-path keys would compare equal — combines them into one
composite ``int64`` key per row (:func:`~repro.tabular.encoded.row_keys`) and
counts the distinct keys with one sort.

This is the one criterion that keeps two encoded implementations.  Its
:meth:`~DuplicationCriterion.delta_state` is :class:`_DuplicationState`,
which packs each row's key into value-stable ``uint64`` cells and keeps the
distinct keys sorted by a hash, so appended rows fold in without re-sorting
the base.  Measured once, that state costs 1.7–2.1× the composite-key
sort (a 50k-row service-request snapshot on a 2-vCPU VM: 21.4–22.1 vs
12.0–12.1 ms at generator seed 1, 17.2–24.5 vs 9.9–11.9 ms at seed 901),
and every one-shot profile would pay it, so ``_measure_encoded`` keeps the
sort.  Both partition keys by the rules
below, and the feed tests hold them bit-identical delta by delta.
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
#: The level every missing cell is keyed under, as text.
_MISSING_LEVEL = "<missing>"
#: Numeric cells key on their value rounded to this many decimal places.
_DECIMALS = 6


@register_criterion
class DuplicationCriterion(Criterion):
    """1.0 minus the fraction of rows that duplicate an earlier row."""

    name = "duplication"
    description = "Fraction of rows that are unique (not duplicates of earlier rows)."

    def __init__(self, fuzzy: bool = True, ignore_identifier: bool = True) -> None:
        """Count near-duplicates too when ``fuzzy``; leave identifier columns out of the key when asked."""
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
                key.append(_MISSING_LEVEL)
            elif fuzzy and isinstance(value, str):
                key.append(normalise_string(value))
            elif isinstance(value, float):
                key.append(round(value, _DECIMALS))
            else:
                key.append(value)
        return tuple(key)

    def measure(self, dataset: Dataset) -> CriterionMeasure:
        """Count the rows whose key was seen on an earlier row, row by row."""
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
            merged, _ = merge_missing_level(raw_codes, vocabulary, _MISSING_LEVEL)
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

    def delta_state(self, encoded: EncodedDataset) -> _DuplicationState | None:
        """The distinct keys seen so far, packed; the module docstring says why it is not the encoded tier."""
        if not self._uses_reference_tiers(DuplicationCriterion):
            return None
        return _DuplicationState(self, encoded)

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
            _, inverse = np.unique(np.round(values[present], _DECIMALS), return_inverse=True)
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


#: The packed key cell of a missing numeric cell: a NaN, which no rounded
#: present value is.
_MISSING_NUMERIC_CELL = np.float64(np.nan).view(np.uint64)


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
    composite-key sort partitions it:

    * a numeric cell is the float64 bits of ``np.round(v, 6)`` (elementwise
      identical to the row path's ``round(value, 6)``), with ``-0.0`` folded
      into ``0.0``; a missing cell is one reserved NaN pattern;
    * a discrete cell is a :class:`_LevelIds` id of its level value, and a
      fuzzy key uses the id of the normalised level for string columns.

    Ids are per value, never a dataset-relative code, so keys from earlier
    folds stay comparable as the vocabulary grows.  The exact and the fuzzy
    pass each keep a :class:`_SeenKeys`.
    """

    def __init__(self, criterion: DuplicationCriterion, encoded: EncodedDataset) -> None:
        """Fold every row's key into the seen keys."""
        self._criterion = criterion
        dataset = encoded.dataset
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
                column = (np.round(values[start:], _DECIMALS) + 0.0).view(np.uint64)
                column[missing[start:]] = _MISSING_NUMERIC_CELL
                cells[:, j] = column
                continue
            codes, vocabulary, _ = encoded.codes_view(name)
            if fuzzy and name in self._fuzzy_ids:
                cells[:, j] = self._fuzzy_ids[name].cells(codes[start:], encoded.normalised_levels(name))
            else:
                cells[:, j] = self._exact_ids[name].cells(codes[start:], vocabulary)
        return cells

    def update(self, encoded: EncodedDataset, start: int) -> None:
        """Fold the keys of rows ``start:`` into the seen keys."""
        if start >= encoded.n_rows:
            return
        self._exact.add(self._cells(encoded, start, fuzzy=False))
        if self._fuzzy is not None:
            self._fuzzy.add(self._cells(encoded, start, fuzzy=True))

    def build(self, encoded: EncodedDataset) -> CriterionMeasure:
        """The criterion measure of the duplicate counts."""
        return self._criterion._build_measure(
            encoded.n_rows,
            self._exact.duplicates,
            self._fuzzy.duplicates if self._fuzzy is not None else 0,
        )
