"""Encoded-matrix views of a :class:`~repro.tabular.dataset.Dataset`.

This module is the performance core of the library.  A :class:`Dataset` stores
columns as numpy arrays, but most of the mining hot paths (k-NN distances,
naive Bayes likelihoods, fold slicing inside cross-validation) historically
walked those columns cell-by-cell through Python row dictionaries.  An
:class:`EncodedDataset` lazily converts each column — once — into structures
the vectorized paths can broadcast over:

``numeric view``
    A ``float64`` array with ``nan`` marking missing *or unparseable* cells,
    plus a boolean missing mask.  Any column can be viewed numerically; cells
    that cannot be interpreted as floats are treated as missing, which matches
    the per-cell ``try: float(v) except: skip`` behaviour of the row-at-a-time
    estimators exactly.

``categorical view``
    An ``int64`` code array (``-1`` marking missing) together with the
    vocabulary of distinct string values in first-seen order and its inverse
    index.  Codes compare equal exactly when the row-at-a-time estimators'
    ``str(a) == str(b)`` comparison would.

A non-numeric column holds its codes over a first-seen level table (see
:class:`~repro.tabular.dataset.Column`), so its views are read off the
codes and levels — the categorical view is the codes themselves, the
numeric view one ``float()`` try per level — and no view walks cells.

Encodings are cached on the dataset instance via :func:`encode_dataset`.  This
is safe because every ``Dataset``/``Column`` operation returns a new object;
nothing in the library mutates column arrays in place.  The dataset owns its
encoding; the encoding keeps the dataset's column map and only a weak
reference back, so reference counting frees a dropped dataset and its
encoded arrays at once, without waiting for the cyclic garbage collector.

Fold slicing is supported without re-encoding: :meth:`EncodedDataset.take`
returns a new dataset whose columns are the parent's row subsets (a coded
column's levels re-restricted to the levels present in the slice, preserving
first-seen order, so per-fold statistics remain identical to encoding the
slice from scratch) and whose numeric views slice the parent's cached arrays.
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Sequence

import numpy as np

from repro.tabular.dataset import Column, ColumnType, Dataset, first_seen_codes

#: Attribute name used to cache the encoding on a dataset instance.
_CACHE_ATTR = "_encoded_cache"

#: Sentinel the row-at-a-time relational operators hash missing cells under
#: (see ``repro.tabular.transforms._hashable``).  The encoded group-key views
#: reuse it so that a raw string cell equal to this literal collides with the
#: missing bucket on both execution paths.
MISSING_KEY_SENTINEL = "\0<missing>"


class EncodedDataset:
    """Lazy per-column numeric/categorical encodings of one dataset.

    Instances are created through :func:`encode_dataset` (which caches them on
    the dataset) or :meth:`take` (which derives fold views by index slicing).
    Views for column names absent from the dataset are materialised as
    all-missing, mirroring ``row.get(name) -> None`` in the row path.

    The encoding reads the dataset's column map, kept here, and refers to
    the dataset itself only weakly, so that an encoded dataset is not a
    reference cycle; :attr:`dataset` covers an encoding that outlives it.
    """

    __slots__ = (
        "_columns",
        "_name",
        "_owner",
        "_numeric",
        "_categorical",
        "_normalised",
        "_group_codes",
        "_group_keys",
        "_parent",
        "_parent_indices",
    )

    def __init__(
        self,
        dataset: Dataset,
        _parent: "EncodedDataset | None" = None,
        _parent_indices: np.ndarray | None = None,
    ) -> None:
        """Start with no view cached; a fold gets the parent encoding and its row indices."""
        self._columns = dataset._columns
        self._name = dataset.name
        self._owner = weakref.ref(dataset)
        self._numeric: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._categorical: dict[str, tuple[np.ndarray, list[str], dict[str, int]]] = {}
        self._normalised: dict[str, list[str]] = {}
        self._group_codes: dict[str, np.ndarray] = {}
        self._group_keys: dict[tuple[str, ...], tuple[np.ndarray, int]] = {}
        self._parent = _parent
        self._parent_indices = _parent_indices

    def __reduce__(self):
        """Refuse pickling: encoded views must never cross a process boundary.

        A pickled view would drag its (possibly memory-mapped) arrays
        through the pipe, defeating the zero-copy design.  Another process
        should reopen the backing ``.rps`` store (:meth:`Dataset.open`) and
        encode there; anything else is a bug worth failing loudly on.
        """
        raise TypeError(
            "EncodedDataset cannot be pickled: reopen the dataset's .rps store in the "
            "other process and encode it there, instead of serialising the view itself"
        )

    @property
    def dataset(self) -> Dataset:
        """The dataset this encoding belongs to.

        While that dataset is alive this is the dataset itself.  Once it is
        gone, it is a facade :class:`Dataset` over the kept columns whose
        cached encoding is this one, so ``encode_dataset(enc.dataset) is enc``
        still holds.  The facade is held weakly too, and rebuilt when needed.
        """
        dataset = self._owner()
        if dataset is None:
            dataset = Dataset.__new__(Dataset)
            dataset.name = self._name
            dataset._columns = self._columns
            setattr(dataset, _CACHE_ATTR, self)
            self._owner = weakref.ref(dataset)
        return dataset

    def owned_by(self, dataset: Dataset) -> bool:
        """Whether ``dataset`` is the live dataset this encoding belongs to."""
        return self._owner() is dataset

    @property
    def n_rows(self) -> int:
        """Number of rows of the encoded dataset."""
        return len(next(iter(self._columns.values())))

    # -- numeric view --------------------------------------------------------

    def numeric_view(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(values, missing)`` float64/bool arrays for column ``name``."""
        cached = self._numeric.get(name)
        if cached is not None:
            return cached
        column = self._columns.get(name)
        if column is None:
            n = self.n_rows
            view = (np.full(n, np.nan), np.ones(n, dtype=bool))
        elif column.is_numeric():
            values = column.values
            view = (values, np.isnan(values))
        elif self._parent is not None:
            values, missing = self._parent.numeric_view(name)
            view = _read_only(values[self._parent_indices], missing[self._parent_indices])
        else:
            view = _level_floats(column)
        self._numeric[name] = view
        return view

    # -- categorical view ----------------------------------------------------

    def codes_view(self, name: str) -> tuple[np.ndarray, list[str], dict[str, int]]:
        """Return ``(codes, vocabulary, index)`` for column ``name``.

        ``codes`` is an int64 array with ``-1`` for missing cells;
        ``vocabulary[codes[i]]`` is ``str(raw_value)`` and ``index`` inverts it.
        A non-numeric column's codes are its own and its vocabulary is
        ``str`` of its levels.
        """
        cached = self._categorical.get(name)
        if cached is not None:
            return cached
        column = self._columns.get(name)
        if column is None:
            codes, vocabulary = np.full(self.n_rows, -1, dtype=np.int64), []
        elif column.is_numeric():
            codes, vocabulary = _float_codes(column.values)
        elif column.ctype == ColumnType.BOOLEAN:
            codes, vocabulary = column._codes, [str(level) for level in column._levels]
        else:
            codes, vocabulary = column._codes, column._levels
        view = (codes, vocabulary, {level: i for i, level in enumerate(vocabulary)})
        self._categorical[name] = view
        return view

    # -- shared derived views -------------------------------------------------

    def missing_view(self, name: str) -> np.ndarray:
        """Boolean mask that is ``True`` where column ``name`` is missing.

        For numeric columns this is the nan mask of the numeric view; for
        coded columns it is the column's mask, ``codes < 0``.  Both are the
        exact masks the row-at-a-time criteria derive cell by cell, so counts
        taken from this view are bit-identical to the row path.
        """
        column = self._columns.get(name)
        if column is not None and not column.is_numeric():
            return column.missing_mask()
        return self.numeric_view(name)[1]

    def normalised_levels(self, name: str) -> list[str]:
        """``normalise_string`` of every categorical vocabulary level, cached.

        Normalisation (lower-case, accent stripping, whitespace collapsing —
        see :func:`repro.lod.linker.normalise_string`) is the costly per-string
        step of the fuzzy duplicate and spelling-variant checks; computing it
        once per distinct level instead of once per cell is what makes those
        checks scale with the vocabulary rather than with the row count.
        """
        cached = self._normalised.get(name)
        if cached is not None:
            return cached
        # Imported lazily: repro.tabular.__init__ imports this module, and the
        # lod package imports repro.tabular.dataset, so a top-level import here
        # would make package import order load-bearing.
        from repro.lod.linker import normalise_string

        _, vocabulary, _ = self.codes_view(name)
        levels = [normalise_string(level) for level in vocabulary]
        self._normalised[name] = levels
        return levels

    def normalised_codes_view(self, name: str) -> tuple[np.ndarray, list[str]]:
        """Codes of column ``name`` after string normalisation.

        Returns ``(codes, vocabulary)`` where raw levels that normalise to the
        same string share one code; the vocabulary lists the normalised forms
        in first-seen order of their raw levels and ``-1`` still marks missing.
        Two cells get equal codes exactly when the row path's
        ``normalise_string(str(value))`` keys would compare equal.
        """
        codes, vocabulary, _ = self.codes_view(name)
        if not vocabulary:
            return codes, []
        groups: dict[str, int] = {}
        remap = np.empty(len(vocabulary), dtype=np.int64)
        for i, level in enumerate(self.normalised_levels(name)):
            remap[i] = groups.setdefault(level, len(groups))
        return (
            np.where(codes >= 0, remap[np.clip(codes, 0, None)], -1),
            list(groups),
        )

    # -- group-by key views ---------------------------------------------------

    def group_codes_view(self, name: str) -> np.ndarray:
        """Per-row int64 codes whose equality matches the row path's group keys.

        Two rows receive the same code exactly when the row-at-a-time
        ``group_by`` would place them in the same group for key column
        ``name``:

        * numeric columns group by float equality (``np.unique`` on the cached
          float view; ``0.0`` and ``-0.0`` fold together like Python ``==``),
          with every ``nan`` cell sharing one dedicated ``-1`` code;
        * non-numeric columns group by their category codes, with missing
          cells folded into the :data:`MISSING_KEY_SENTINEL` level — reusing
          an existing level when a raw cell is literally that string, so the
          row path's sentinel collision is reproduced bit-for-bit.

        Absent columns (``row.get(name) -> None`` in the row path) are a
        single all-missing group.  The result is cached per column.
        """
        cached = self._group_codes.get(name)
        if cached is not None:
            return cached
        if name not in self._columns:
            codes = np.zeros(self.n_rows, dtype=np.int64)
        elif self._columns[name].is_numeric():
            values, missing = self.numeric_view(name)
            codes = np.full(values.shape, -1, dtype=np.int64)
            present = ~missing
            if present.any():
                codes[present] = np.unique(values[present], return_inverse=True)[1]
        else:
            raw_codes, vocabulary, _ = self.codes_view(name)
            codes, _ = merge_missing_level(raw_codes, vocabulary, MISSING_KEY_SENTINEL)
        self._group_codes[name] = codes
        return codes

    def group_keys(self, keys: Sequence[str]) -> tuple[np.ndarray, int]:
        """Composite group ids over ``keys`` in first-seen order.

        Returns ``(group_ids, n_groups)`` where ``group_ids[i]`` numbers the
        distinct key tuples by their first appearance down the rows — the
        iteration order of the row path's ``dict.setdefault`` grouping — so a
        result built group-by-group in id order has the same row order as the
        row-at-a-time reference.  Cached per key tuple.
        """
        key = tuple(keys)
        cached = self._group_keys.get(key)
        if cached is not None:
            return cached
        columns = [self.group_codes_view(k) for k in key]
        _, first_index, inverse = np.unique(
            row_keys(columns, self.n_rows), return_index=True, return_inverse=True
        )
        # np.unique numbers groups in sorted order; renumber by first occurrence.
        rank = np.empty(first_index.size, dtype=np.int64)
        rank[np.argsort(first_index, kind="stable")] = np.arange(first_index.size)
        result = (rank[inverse], int(first_index.size))
        self._group_keys[key] = result
        return result

    # -- fold slicing --------------------------------------------------------

    def take(self, indices: Sequence[int] | np.ndarray) -> Dataset:
        """Return ``dataset.take(indices)`` with its encoding pre-wired.

        The returned dataset carries an :class:`EncodedDataset` whose numeric
        views slice this encoding's cached arrays, and its coded columns
        carry their own codes, so repeated fold extraction (as in
        cross-validation) never re-encodes columns from Python objects.
        """
        indices = np.asarray(indices, dtype=np.intp)
        subset = self.dataset.take(indices)
        encoded = EncodedDataset(subset, _parent=self, _parent_indices=indices)
        setattr(subset, _CACHE_ATTR, encoded)
        return subset


def _level_floats(column: Column) -> tuple[np.ndarray, np.ndarray]:
    """The numeric view of a coded column: one ``float()`` try per level, gathered by code.

    A level ``float()`` rejects is missing, as is code ``-1`` (the extra
    last slot).  A BOOLEAN level is ``True``/``False`` and reads ``1.0``/``0.0``,
    as its cell does.  When no level parses, the view is all missing: two
    broadcast scalars, which read no code and hold no per-row memory.
    """
    levels = column._levels
    values = np.full(len(levels) + 1, np.nan)
    missing = np.ones(len(levels) + 1, dtype=bool)
    for i, level in enumerate(levels):
        try:
            values[i] = float(level)
        except (TypeError, ValueError):
            continue
        missing[i] = False
    if missing.all():
        return np.broadcast_to(np.nan, len(column)), np.broadcast_to(True, len(column))
    codes = np.asarray(column._codes)
    return _read_only(values[codes], missing[codes])


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays``, flagged read-only, as memory-mapped store views are."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _float_codes(values: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """The categorical view of a ``float64`` array: first-seen codes and ``str(float)`` levels.

    Cells are told apart by their bits, so ``0.0`` and ``-0.0`` get two
    levels, as their ``str`` forms differ; ``nan`` is missing.
    """
    present = ~np.isnan(values)
    codes = np.full(values.shape, -1, dtype=np.int64)
    distinct, inverse = np.unique(values[present].view(np.int64), return_inverse=True)
    codes[present] = inverse
    codes, levels = first_seen_codes(codes, distinct.view(np.float64).tolist())
    return codes, [str(level) for level in levels]


#: Exclusive upper bound of an int64 row key: ``2**63``.
_KEY_LIMIT = 1 << 63


def row_keys(code_columns: Sequence[np.ndarray], n_rows: int) -> np.ndarray:
    """One int64 key per row, equal for two rows exactly when all their codes are.

    Each column holds ``n_rows`` int64 codes ``>= -1`` (``-1`` marking a
    missing cell).  The columns are combined by mixed radix,
    ``key * width + (code + 1)`` with ``width`` one past the column's largest
    shifted code, so distinct code tuples get distinct keys.  When the next
    multiply could pass int64, the running key is first densified to its
    sort rank (``np.unique(..., return_inverse=True)``), which keeps the
    partition and bounds the key by the row count.  No columns give every
    row the key ``0``.
    """
    key = np.zeros(n_rows, dtype=np.int64)
    radix = 1  # every key so far is < radix
    for codes in code_columns:
        width = int(codes.max()) + 2 if n_rows else 1
        if radix * width > _KEY_LIMIT:
            key = np.unique(key, return_inverse=True)[1].astype(np.int64, copy=False)
            radix = int(key.max()) + 1
        key *= width
        key += codes
        key += 1
        radix *= width
    return key


def _sorted_with_starts(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``keys`` sorted, and the mask of the positions where a new value starts.

    A plain ``np.unique(keys)`` takes numpy's hash path for integers, which
    measured far slower than a sort on row-sized key arrays.
    """
    ordered = np.sort(keys)
    starts = np.empty(ordered.size, dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return ordered, starts


def count_distinct(keys: np.ndarray) -> int:
    """Number of distinct values in the 1-D array ``keys``: a sort and a count of boundaries."""
    return int(np.count_nonzero(_sorted_with_starts(keys)[1]))


def distinct_sorted(keys: np.ndarray) -> np.ndarray:
    """The distinct values of the 1-D integer array ``keys``, ascending.

    Equal to a plain ``np.unique(keys)``, computed by a sort.
    """
    ordered, starts = _sorted_with_starts(keys)
    return ordered[starts]


def map_codes_to_index(
    codes: np.ndarray,
    vocabulary: Sequence[str],
    index: dict[str, int],
    unseen_code: int = -1,
) -> np.ndarray:
    """Translate ``codes`` (against ``vocabulary``) into another vocabulary's codes.

    Levels absent from ``index`` map to ``unseen_code``; missing cells (``-1``)
    stay ``-1``.  This is the shared remapping step used when comparing a test
    dataset's categories against the vocabulary a model was fitted on.
    """
    if not vocabulary:
        return codes
    remap = np.asarray([index.get(level, unseen_code) for level in vocabulary], dtype=np.int64)
    return np.where(codes >= 0, remap[np.clip(codes, 0, None)], -1)


def merge_missing_level(
    codes: np.ndarray,
    vocabulary: Sequence[str],
    missing_label: str = "<missing>",
) -> tuple[np.ndarray, list[str]]:
    """Fold missing cells (``-1`` codes) into an explicit ``missing_label`` level.

    Returns ``(codes, levels)`` where every missing cell carries the code of
    ``missing_label`` — reusing the existing level when the vocabulary already
    contains that literal string, otherwise appending it.  This mirrors the
    row-at-a-time miners that bucket missing cells under the same dictionary
    key as a literal ``missing_label`` value (decision-tree categorical splits,
    OneR/Prism discretisation).
    """
    levels = list(vocabulary)
    try:
        missing_code = levels.index(missing_label)
    except ValueError:
        levels.append(missing_label)
        missing_code = len(levels) - 1
    return np.where(codes >= 0, codes, missing_code), levels


def encode_dataset(dataset: Dataset) -> EncodedDataset:
    """Return the cached :class:`EncodedDataset` for ``dataset``, creating it lazily."""
    encoded = getattr(dataset, _CACHE_ATTR, None)
    if encoded is not None and encoded.owned_by(dataset):
        return encoded
    encoded = EncodedDataset(dataset)
    try:
        setattr(dataset, _CACHE_ATTR, encoded)
    except AttributeError:  # pragma: no cover - datasets are plain objects
        pass
    return encoded


def extend_encoding(base: EncodedDataset, delta: EncodedDataset, merged: Dataset) -> None:
    """Seed ``merged``'s encoding with ``base``'s cached views grown by ``delta``'s.

    ``merged`` is ``base.dataset`` followed by ``delta.dataset``'s rows, as
    :meth:`Dataset.concat` builds it for an encoded base: its columns
    already carry the merged codes, so this adds only what an encoded base
    has beyond them, without re-encoding old rows —

    * numeric views grow the ``(values, missing)`` pair (a numeric
      column's view is its grown values array, as after a cold encode);
    * normalised-level caches of non-numeric columns grow by normalising
      only the levels the delta added.

    Every per-row array grows in a capacity-doubling buffer (:func:`_grow`),
    so an append costs O(len(delta) + new levels).  Views *not* cached on
    ``base`` stay lazy on the result; the per-column group-code and
    composite group-key caches are never carried over because
    ``np.unique``-based numeric group codes are not stable under append.
    Bit-identity with a cold encode of the merged rows holds by
    construction for everything that is seeded.
    """
    encoded = encode_dataset(merged)
    for name, (values, missing) in base._numeric.items():
        d_values, d_missing = delta.numeric_view(name)
        column = merged._columns.get(name)
        grown = column.values if column is not None and column.is_numeric() else _grow(values, d_values)
        encoded._numeric[name] = (grown, _grow(missing, d_missing))
    for name, levels in base._normalised.items():
        column = merged._columns.get(name)
        if column is None or column.is_numeric():
            continue
        from repro.lod.linker import normalise_string

        vocabulary = encoded.codes_view(name)[1]
        encoded._normalised[name] = levels + [normalise_string(level) for level in vocabulary[len(levels):]]


#: Growth buffers by ``id``: a weak reference to the buffer and its high-water mark.
_TAILS: dict[int, list] = {}
#: Guards the check-and-advance of a high-water mark.
_TAILS_LOCK = threading.Lock()


def _grow(head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """``head`` followed by ``tail``, as a read-only view of a capacity-doubling buffer.

    When ``head`` is a growth buffer's prefix that ends at the buffer's
    high-water mark and the buffer has room, ``tail`` is written in place
    after it and the mark advances; checking and advancing the mark is one
    step under a lock, so of two appends to the same dataset only the first
    extends its buffers.  Any other ``head`` — an earlier branch of the
    buffer, a memory map, a plain array, a full buffer — is copied, with
    ``tail``, into a fresh buffer twice the merged length.  Rows below a
    mark are never written again, so every view stays valid; the views are
    read-only, as memory-mapped store views are.
    """
    n = len(head)
    total = n + len(tail)
    buffer = head.base
    entry = _TAILS.get(id(buffer))
    with _TAILS_LOCK:
        in_place = (
            entry is not None and entry[0]() is buffer and entry[1] == n and total <= len(buffer)
            and head.dtype == buffer.dtype and head.strides == buffer.strides
        )
        if in_place:
            entry[1] = total
    if not in_place:
        buffer = np.empty(2 * total, dtype=head.dtype)
        buffer[:n] = head
        key = id(buffer)
        _TAILS[key] = [weakref.ref(buffer, lambda _, key=key: _TAILS.pop(key, None)), total]
    buffer[n:total] = tail
    view = buffer[:total]
    view.flags.writeable = False
    return view
