"""Typed, column-oriented in-memory dataset.

The :class:`Dataset` is the exchange format used across the library: open
data sources (CSV/XML/HTML/JSON or Linked Open Data) are loaded into a
``Dataset``; data quality criteria are measured on a ``Dataset``; data quality
problems are injected into a ``Dataset``; mining algorithms consume a
``Dataset``.

Missing values are represented as ``None`` for non-numeric columns and
``float('nan')`` for numeric columns; :func:`is_missing_value` abstracts over
both.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from repro.exceptions import SchemaError


class ColumnType:
    """Enumeration of logical column types.

    ``NUMERIC``
        Continuous or integer-valued measurements, stored as ``float64``.
    ``CATEGORICAL``
        Discrete labels from a (small) finite domain.
    ``BOOLEAN``
        True/False flags; treated as a two-valued categorical.
    ``STRING``
        Free text (identifiers, descriptions); not used as mining features by
        default.
    ``DATETIME``
        ISO-8601 date or datetime strings; kept as text but recognised so the
        consistency criterion can validate their format.
    """

    NUMERIC = "numeric"
    CATEGORICAL = "categorical"
    BOOLEAN = "boolean"
    STRING = "string"
    DATETIME = "datetime"

    ALL = (NUMERIC, CATEGORICAL, BOOLEAN, STRING, DATETIME)


class ColumnRole:
    """Enumeration of the role a column plays during mining."""

    FEATURE = "feature"
    TARGET = "target"
    IDENTIFIER = "identifier"
    METADATA = "metadata"

    ALL = (FEATURE, TARGET, IDENTIFIER, METADATA)


#: String tokens commonly used in open data files to denote a missing value.
MISSING_TOKENS = frozenset({"", "na", "n/a", "nan", "null", "none", "?", "-", "missing"})


def is_missing_value(value: Any) -> bool:
    """Return ``True`` when ``value`` represents a missing cell."""
    if value is None:
        return True
    if isinstance(value, float) and math.isnan(value):
        return True
    if isinstance(value, np.floating) and np.isnan(value):
        return True
    return False


def _looks_numeric(value: Any) -> bool:
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, float, np.integer, np.floating)):
        return True
    if isinstance(value, str):
        try:
            float(value)
        except ValueError:
            return False
        return True
    return False


def _looks_boolean(value: Any) -> bool:
    if isinstance(value, (bool, np.bool_)):
        return True
    if isinstance(value, str):
        return value.strip().lower() in {"true", "false", "yes", "no"}
    return False


def _looks_datetime(value: Any) -> bool:
    if not isinstance(value, str):
        return False
    text = value.strip()
    if len(text) < 8 or text.count("-") < 2:
        return False
    parts = text[:10].split("-")
    if len(parts) != 3:
        return False
    return all(part.isdigit() for part in parts)


def _infer_from_present(present: Sequence[Any], n_present: int) -> str:
    """The shared inference ladder over non-missing values.

    Every check depends only on the *distinct* values plus the total count
    of present cells, so callers may pass either the full multiset of
    present cells (``infer_column_type``) or just the distinct values with
    their summed count (``Column.from_distinct``) — the result is identical.
    """
    if not present:
        return ColumnType.STRING
    if all(_looks_boolean(v) for v in present):
        return ColumnType.BOOLEAN
    if all(_looks_numeric(v) for v in present):
        return ColumnType.NUMERIC
    if all(_looks_datetime(v) for v in present):
        return ColumnType.DATETIME
    distinct = {str(v) for v in present}
    if len(distinct) <= max(20, int(0.2 * n_present)):
        return ColumnType.CATEGORICAL
    return ColumnType.STRING


def infer_column_type(values: Iterable[Any]) -> str:
    """Infer the :class:`ColumnType` of a sequence of raw values.

    The inference looks only at non-missing values.  Order of preference is
    boolean → numeric → datetime → categorical/string (a column whose distinct
    ratio is high is considered free text rather than categorical).
    """
    present = [v for v in values if not is_missing_value(v)]
    return _infer_from_present(present, len(present))


def _coerce_value(value: Any, ctype: str) -> Any:
    """Coerce a raw cell to the canonical Python representation for ``ctype``."""
    if is_missing_value(value):
        return float("nan") if ctype == ColumnType.NUMERIC else None
    if ctype == ColumnType.NUMERIC:
        return float(value)
    if ctype == ColumnType.BOOLEAN:
        if isinstance(value, (bool, np.bool_)):
            return bool(value)
        return str(value).strip().lower() in {"true", "yes", "1"}
    return str(value) if not isinstance(value, str) else value


def code_cells(cells: Sequence[Any], ctype: str) -> tuple[np.ndarray, list]:
    """Coerce non-numeric ``cells`` to ``ctype`` and code them, in one pass.

    Returns the int64 codes (``-1`` for a missing cell) and the level table
    of the coerced cells in first-seen order.  A BOOLEAN level is a
    ``bool``; every other level is a plain ``str``, so two cells share a
    code exactly when their ``str`` forms are equal.  ``None`` cells,
    ``bool`` cells of a BOOLEAN column and ``str`` cells of any other take
    fast paths; every other cell goes through :func:`_coerce_value`.
    """
    index: dict[Any, int] = {}
    setdefault = index.setdefault

    def code(cell: Any) -> int:
        """The code of a cell no fast path takes."""
        if is_missing_value(cell):
            return -1
        level = _coerce_value(cell, ctype)
        return setdefault(level if ctype == ColumnType.BOOLEAN else str(level), len(index))

    fast = bool if ctype == ColumnType.BOOLEAN else str
    listed = [-1 if cell is None else setdefault(cell, len(index)) if type(cell) is fast else code(cell)
              for cell in cells]
    return np.array(listed, dtype=np.int64), list(index)


def first_seen_codes(codes: np.ndarray, levels: Sequence[Any]) -> tuple[np.ndarray, list]:
    """``codes`` over ``levels`` recoded over the levels they use, in first-seen order.

    The result satisfies the coded-column invariant (see :class:`Column`)
    whatever level table ``codes`` index: a row subset of a coded column,
    or codes over a table of distinct values.  ``-1`` stays ``-1``.
    """
    n = codes.shape[0]
    first_at = np.full(len(levels) + 1, n, dtype=np.intp)  # the last slot takes code -1
    np.minimum.at(first_at, codes, np.arange(n))
    used = np.flatnonzero(first_at[:-1] < n)
    ordered = used[np.argsort(first_at[used])]
    if used.size == len(levels) and np.array_equal(ordered, used):  # already dense, in order
        return codes, levels
    remap = np.full(len(levels) + 1, -1, dtype=np.int64)  # the last slot maps code -1
    remap[ordered] = np.arange(ordered.size)
    return remap[codes], [levels[code] for code in ordered.tolist()]


class Column:
    """A single named, typed column of a :class:`Dataset`.

    Parameters
    ----------
    name:
        Column name; must be unique within a dataset.
    values:
        Raw cell values.  They are coerced to the canonical representation of
        the (possibly inferred) column type.
    ctype:
        One of :class:`ColumnType`; inferred from the values when omitted.
    role:
        One of :class:`ColumnRole`; defaults to ``feature``.

    A numeric column holds its cells as a ``float64`` array.  Every other
    column holds int64 codes (``-1`` marking a missing cell) into a level
    table, coded by :func:`code_cells` in the same pass that coerces the
    cells.  Every constructor keeps one invariant: the level table holds
    exactly the levels present in the rows, in first-seen row order, so the
    codes are the column's categorical view.  The object cells every
    cell-level API reads are built from the codes on first read and cached;
    the encoded hot paths never read them.
    """

    __slots__ = ("name", "ctype", "role", "_cells", "_codes", "_levels", "_missing_cache")

    def __init__(
        self,
        name: str,
        values: Iterable[Any],
        ctype: str | None = None,
        role: str = ColumnRole.FEATURE,
    ) -> None:
        """Coerce ``values`` to ``ctype`` (inferred when ``None``), coding non-numeric cells."""
        if not name:
            raise SchemaError("column name must be a non-empty string")
        if role not in ColumnRole.ALL:
            raise SchemaError(f"unknown column role {role!r}")
        values = list(values)
        if ctype is None:
            ctype = infer_column_type(values)
        if ctype not in ColumnType.ALL:
            raise SchemaError(f"unknown column type {ctype!r}")
        self.name = name
        self.ctype = ctype
        self.role = role
        self._missing_cache: np.ndarray | None = None
        if ctype == ColumnType.NUMERIC:
            self._cells = np.array(
                [v if type(v) is float and v == v else _coerce_value(v, ctype) for v in values], dtype=float
            )
            self._codes = self._levels = None
        else:
            self._cells = None
            self._codes, self._levels = code_cells(values, ctype)

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        """Row count (read from the codes of a coded column)."""
        return int((self._cells if self._codes is None else self._codes).shape[0])

    def __iter__(self):
        """Iterate over the cells."""
        return iter(self.tolist())

    def __getitem__(self, index: int) -> Any:
        """One cell, read from its code while the cells are unbuilt; other indexes read the cells."""
        cells = self._cells
        if cells is not None:
            return cells[index]
        if isinstance(index, (int, np.integer)) and not isinstance(index, bool):
            code = int(self._codes[index])
            return None if code < 0 else self._levels[code]
        return self.values[index]

    def __eq__(self, other: object) -> bool:
        """Same name, ctype, role and cells (missing cells compare equal)."""
        if not isinstance(other, Column):
            return NotImplemented
        if (self.name, self.ctype, self.role) != (other.name, other.ctype, other.role):
            return False
        if len(self) != len(other):
            return False
        for a, b in zip(self.tolist(), other.tolist()):
            if is_missing_value(a) and is_missing_value(b):
                continue
            if a != b:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Name, type, role and length, for debugging."""
        return f"Column({self.name!r}, type={self.ctype}, role={self.role}, n={len(self)})"

    def __getstate__(self) -> tuple:
        """Pickle plain arrays: a coded column's codes and levels, its cells and mask left unbuilt."""
        if self._codes is None:
            return (self.name, self.ctype, self.role, np.array(self._cells), None, None)
        return (self.name, self.ctype, self.role, None, np.array(self._codes), list(self._levels))

    def __setstate__(self, state: tuple) -> None:
        """Rebuild from :meth:`__getstate__`'s tuple."""
        self.name, self.ctype, self.role, self._cells, self._codes, self._levels = state
        self._missing_cache = None

    # -- accessors ----------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """The cell array: ``float64`` values, or object cells built once from the codes."""
        cells = self._cells
        if cells is None:
            table = np.empty(len(self._levels) + 1, dtype=object)
            table[:-1] = self._levels
            table[-1] = None  # code -1 indexes here
            cells = self._cells = table[np.asarray(self._codes)]
        return cells

    def tolist(self) -> list[Any]:
        """Return the column as a plain Python list."""
        return self.values.tolist()

    def is_numeric(self) -> bool:
        """Whether the column is NUMERIC (held as ``float64`` values, not codes)."""
        return self.ctype == ColumnType.NUMERIC

    def missing_mask(self) -> np.ndarray:
        """Boolean mask that is ``True`` where the cell is missing.

        A coded column's mask is ``codes < 0``, computed once, cached and
        read-only (column arrays are immutable by convention: every dataset
        operation returns new columns).
        """
        if self._codes is None:
            return np.isnan(self._cells)
        if self._missing_cache is None:
            mask = np.asarray(self._codes) < 0
            mask.flags.writeable = False
            self._missing_cache = mask
        return self._missing_cache

    def n_missing(self) -> int:
        """Number of missing cells."""
        return int(self.missing_mask().sum())

    def non_missing(self) -> list[Any]:
        """Return the non-missing values, preserving order."""
        mask = self.missing_mask()
        if not mask.any():
            return self.tolist()
        return self.values[~mask].tolist()

    def distinct(self) -> list[Any]:
        """Return the distinct non-missing values in first-seen order."""
        if self._codes is not None:
            return list(self._levels)
        seen: dict[Any, None] = {}
        for value in self.non_missing():
            seen.setdefault(value, None)
        return list(seen)

    def value_counts(self) -> dict[Any, int]:
        """Return a mapping value → frequency over non-missing cells."""
        return dict(Counter(self.non_missing()))

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_distinct(
        cls,
        name: str,
        distinct_values: Sequence[Any],
        inverse: "np.ndarray",
        role: str = ColumnRole.FEATURE,
    ) -> "Column":
        """Build the column whose cells are ``distinct_values[inverse]``.

        Equivalent to ``Column(name, [distinct_values[i] for i in inverse])``
        — same inferred type, same coerced cells — but the per-value Python
        work (missing checks, type sniffing, coercion, coding) runs once per
        *distinct* value instead of once per cell.  Producers that already
        know each cell's distinct-value index (the LOD tabulation reads them
        off the interned object ids) use this to assemble columns in
        O(distinct) Python.  Every entry of ``distinct_values`` must occur in
        ``inverse``; otherwise unused entries could sway type inference.
        """
        if not name:
            raise SchemaError("column name must be a non-empty string")
        if role not in ColumnRole.ALL:
            raise SchemaError(f"unknown column role {role!r}")
        inverse = np.asarray(inverse, dtype=np.intp)
        counts = np.bincount(inverse, minlength=len(distinct_values))
        present = [value for value in distinct_values if not is_missing_value(value)]
        n_present = int(
            sum(int(counts[i]) for i, value in enumerate(distinct_values) if not is_missing_value(value))
        )
        ctype = _infer_from_present(present, n_present)
        if ctype == ColumnType.NUMERIC:
            coerced = [_coerce_value(value, ctype) for value in distinct_values]
            return cls._canonical(name, ctype, role, np.asarray(coerced, dtype=float)[inverse])
        codes, levels = code_cells(distinct_values, ctype)
        return cls._coded(name, ctype, role, *first_seen_codes(codes[inverse], levels))

    @classmethod
    def from_vocabulary(
        cls,
        name: str,
        ctype: str,
        role: str,
        codes: np.ndarray,
        vocabulary: list[str],
    ) -> "Column":
        """The coded column whose cells are ``vocabulary[code]`` as ``ctype`` holds them.

        ``vocabulary`` lists ``str(level)`` per level, as a store file saves
        a categorical view, and is trusted to keep the invariant.  A BOOLEAN
        column's levels are ``bool``, so they are ``level == "True"``; every
        other non-numeric ctype's levels are the strings themselves.
        """
        levels = [level == "True" for level in vocabulary] if ctype == ColumnType.BOOLEAN else vocabulary
        return cls._coded(name, ctype, role, codes, levels)

    @classmethod
    def _canonical(cls, name: str, ctype: str, role: str, values: np.ndarray) -> "Column":
        """The numeric column over the ``float64`` array ``values`` (no coercion, no copy)."""
        column = cls.__new__(cls)
        column.name, column.ctype, column.role = name, ctype, role
        column._cells, column._codes, column._levels, column._missing_cache = values, None, None, None
        return column

    @classmethod
    def _coded(
        cls, name: str, ctype: str, role: str, codes: np.ndarray, levels: list,
        missing: np.ndarray | None = None,
    ) -> "Column":
        """The non-numeric column over ``codes`` into ``levels``, which keep the invariant (no copy).

        ``missing`` is its missing mask (``codes < 0``) when known.
        """
        column = cls.__new__(cls)
        column.name, column.ctype, column.role = name, ctype, role
        column._cells, column._codes, column._levels, column._missing_cache = None, codes, levels, missing
        return column

    def copy(self) -> "Column":
        """A copy whose arrays may be mutated independently."""
        if self._codes is None:
            return Column._canonical(self.name, self.ctype, self.role, self._cells.copy())
        return Column._coded(self.name, self.ctype, self.role, np.array(self._codes), list(self._levels))

    def with_values(self, values: Iterable[Any]) -> "Column":
        """Return a new column with the same name/type/role and new values."""
        return Column(self.name, list(values), ctype=self.ctype, role=self.role)

    def take(self, indices: Sequence[int]) -> "Column":
        """Return a new column containing the rows at ``indices`` (in order)."""
        index_array = np.asarray(indices, dtype=int)
        if self._codes is None:
            return Column._canonical(self.name, self.ctype, self.role, self._cells[index_array])
        codes, levels = first_seen_codes(np.asarray(self._codes)[index_array], self._levels)
        return Column._coded(self.name, self.ctype, self.role, codes, levels)

    def _extended(self, other: "Column", join: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> "Column":
        """This column followed by ``other``'s cells; ``join`` concatenates two per-row arrays.

        A coded column keeps its levels and appends ``other``'s new levels
        in their first-seen order, remapping ``other``'s codes, so the
        invariant holds without reading a cell.  A column of another ctype
        is re-coerced to this column's.
        """
        if other.ctype != self.ctype:
            return Column(self.name, self.tolist() + other.tolist(), ctype=self.ctype, role=self.role)
        if self._codes is None:
            return Column._canonical(self.name, self.ctype, self.role, join(self._cells, other._cells))
        index = {level: code for code, level in enumerate(self._levels)}
        remap = np.array(
            [index.setdefault(level, len(index)) for level in other._levels] + [-1], dtype=np.int64
        )
        mask = join(self.missing_mask(), other.missing_mask())
        mask.flags.writeable = False
        return Column._coded(
            self.name, self.ctype, self.role, join(self._codes, remap[other._codes]), list(index), mask
        )


class Dataset:
    """An ordered collection of equally long :class:`Column` objects.

    The dataset is row-consistent by construction: every column must have the
    same length, and column names must be unique.
    """

    def __init__(self, columns: Iterable[Column], name: str = "dataset") -> None:
        """Check the columns are equally long and uniquely named, and keep them in order."""
        columns = list(columns)
        if not columns:
            raise SchemaError("a dataset needs at least one column")
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise SchemaError(f"columns have inconsistent lengths: {sorted(lengths)}")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            duplicated = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names: {duplicated}")
        self.name = name
        self._columns: dict[str, Column] = {c.name: c for c in columns}

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Mapping[str, Any]],
        name: str = "dataset",
        ctypes: Mapping[str, str] | None = None,
        roles: Mapping[str, str] | None = None,
        column_order: Sequence[str] | None = None,
    ) -> "Dataset":
        """Build a dataset from a sequence of row dictionaries.

        Rows may omit keys; omitted cells become missing values.  Column order
        defaults to first-seen order across the rows.
        """
        if not rows:
            raise SchemaError("cannot build a dataset from zero rows")
        if column_order is None:
            order: list[str] = []
            for row in rows:
                for key in row:
                    if key not in order:
                        order.append(key)
        else:
            order = list(column_order)
        ctypes = dict(ctypes or {})
        roles = dict(roles or {})
        columns = []
        for key in order:
            values = [row.get(key) for row in rows]
            columns.append(
                Column(
                    key,
                    values,
                    ctype=ctypes.get(key),
                    role=roles.get(key, ColumnRole.FEATURE),
                )
            )
        return cls(columns, name=name)

    @classmethod
    def from_dict(
        cls,
        data: Mapping[str, Sequence[Any]],
        name: str = "dataset",
        ctypes: Mapping[str, str] | None = None,
        roles: Mapping[str, str] | None = None,
    ) -> "Dataset":
        """Build a dataset from a mapping column name → list of values."""
        ctypes = dict(ctypes or {})
        roles = dict(roles or {})
        columns = [
            Column(key, list(values), ctype=ctypes.get(key), role=roles.get(key, ColumnRole.FEATURE))
            for key, values in data.items()
        ]
        return cls(columns, name=name)

    # -- basic protocol ------------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return len(next(iter(self._columns.values())))

    @property
    def n_columns(self) -> int:
        """Number of columns."""
        return len(self._columns)

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_rows, n_columns)``."""
        return (self.n_rows, self.n_columns)

    @property
    def column_names(self) -> list[str]:
        """Column names, in order."""
        return list(self._columns)

    @property
    def columns(self) -> list[Column]:
        """Columns, in order."""
        return list(self._columns.values())

    def __len__(self) -> int:
        """Number of rows."""
        return self.n_rows

    def __contains__(self, name: str) -> bool:
        """Whether a column is called ``name``."""
        return name in self._columns

    def __getitem__(self, name: str) -> Column:
        """The column called ``name``; :class:`SchemaError` if there is none."""
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(f"no column named {name!r} in dataset {self.name!r}") from None

    def __eq__(self, other: object) -> bool:
        """Same column names in the same order, and equal columns."""
        if not isinstance(other, Dataset):
            return NotImplemented
        if self.column_names != other.column_names:
            return False
        return all(self[n] == other[n] for n in self.column_names)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Name and shape, for debugging."""
        return f"Dataset({self.name!r}, rows={self.n_rows}, columns={self.n_columns})"

    # -- row access ----------------------------------------------------------

    def row(self, index: int) -> dict[str, Any]:
        """Return row ``index`` as a mapping column name → value."""
        if not 0 <= index < self.n_rows:
            raise SchemaError(f"row index {index} out of range for {self.n_rows} rows")
        return {name: col[index] for name, col in self._columns.items()}

    def iter_rows(self) -> Iterable[dict[str, Any]]:
        """Iterate over rows as dictionaries, reading each column's cell array once per scan."""
        columns = [(name, column.values) for name, column in self._columns.items()]
        for i in range(self.n_rows):
            yield {name: cells[i] for name, cells in columns}

    def to_rows(self) -> list[dict[str, Any]]:
        """Materialise all rows as a list of dictionaries."""
        return list(self.iter_rows())

    def to_dict(self) -> dict[str, list[Any]]:
        """Return a mapping column name → list of values."""
        return {name: col.tolist() for name, col in self._columns.items()}

    # -- column manipulation ---------------------------------------------------

    def add_column(self, column: Column) -> "Dataset":
        """Return a new dataset with ``column`` appended."""
        if column.name in self._columns:
            raise SchemaError(f"column {column.name!r} already exists")
        if len(column) != self.n_rows:
            raise SchemaError(
                f"column {column.name!r} has {len(column)} rows, dataset has {self.n_rows}"
            )
        return Dataset(self.columns + [column], name=self.name)

    def drop_columns(self, names: Iterable[str]) -> "Dataset":
        """Return a new dataset without the listed columns."""
        drop = set(names)
        missing = drop - set(self._columns)
        if missing:
            raise SchemaError(f"cannot drop unknown columns: {sorted(missing)}")
        kept = [c for c in self.columns if c.name not in drop]
        if not kept:
            raise SchemaError("dropping these columns would leave an empty dataset")
        return Dataset(kept, name=self.name)

    def select_columns(self, names: Sequence[str]) -> "Dataset":
        """Return a new dataset with only the listed columns, in that order."""
        return Dataset([self[name] for name in names], name=self.name)

    def rename_column(self, old: str, new: str) -> "Dataset":
        """Return a new dataset with column ``old`` renamed to ``new``."""
        if new in self._columns and new != old:
            raise SchemaError(f"column {new!r} already exists")
        columns = []
        for col in self.columns:
            if col.name == old:
                renamed = col.copy()
                renamed.name = new
                columns.append(renamed)
            else:
                columns.append(col)
        if old not in self._columns:
            raise SchemaError(f"no column named {old!r}")
        return Dataset(columns, name=self.name)

    def replace_column(self, column: Column) -> "Dataset":
        """Return a new dataset where the column with the same name is replaced."""
        if column.name not in self._columns:
            raise SchemaError(f"no column named {column.name!r} to replace")
        if len(column) != self.n_rows:
            raise SchemaError("replacement column has a different number of rows")
        columns = [column if c.name == column.name else c for c in self.columns]
        return Dataset(columns, name=self.name)

    def set_role(self, name: str, role: str) -> "Dataset":
        """Return a new dataset with the role of column ``name`` changed."""
        if role not in ColumnRole.ALL:
            raise SchemaError(f"unknown column role {role!r}")
        target = self[name].copy()
        target.role = role
        return self.replace_column(target)

    def set_target(self, name: str) -> "Dataset":
        """Return a new dataset where ``name`` is the (single) target column."""
        columns = []
        for col in self.columns:
            clone = col.copy()
            if clone.name == name:
                clone.role = ColumnRole.TARGET
            elif clone.role == ColumnRole.TARGET:
                clone.role = ColumnRole.FEATURE
            columns.append(clone)
        if name not in self._columns:
            raise SchemaError(f"no column named {name!r}")
        return Dataset(columns, name=self.name)

    # -- role-based access ------------------------------------------------------

    def feature_columns(self) -> list[Column]:
        """Columns whose role is ``feature``."""
        return [c for c in self.columns if c.role == ColumnRole.FEATURE]

    def feature_names(self) -> list[str]:
        """Names of the ``feature`` columns."""
        return [c.name for c in self.feature_columns()]

    def target_column(self) -> Column:
        """Return the single target column; raise if there is none or many."""
        targets = [c for c in self.columns if c.role == ColumnRole.TARGET]
        if len(targets) != 1:
            raise SchemaError(
                f"expected exactly one target column, found {len(targets)}; "
                "call Dataset.set_target() first"
            )
        return targets[0]

    def has_target(self) -> bool:
        """Whether some column is the target."""
        return any(c.role == ColumnRole.TARGET for c in self.columns)

    # -- row manipulation ---------------------------------------------------------

    def take(self, indices: Sequence[int]) -> "Dataset":
        """Return a new dataset containing the rows at ``indices`` (in order)."""
        index_array = np.asarray(list(indices) if not isinstance(indices, np.ndarray) else indices, dtype=int)
        return Dataset([c.take(index_array) for c in self.columns], name=self.name)

    def head(self, n: int = 5) -> "Dataset":
        """Return the first ``n`` rows."""
        return self.take(range(min(n, self.n_rows)))

    def filter(self, predicate: Callable[[dict[str, Any]], bool]) -> "Dataset":
        """Return the rows for which ``predicate(row_dict)`` is truthy."""
        indices = [i for i, row in enumerate(self.iter_rows()) if predicate(row)]
        if not indices:
            raise SchemaError("filter removed every row")
        return self.take(indices)

    def sample(self, n: int, seed: int = 0, replace: bool = False) -> "Dataset":
        """Return a reproducible random sample of ``n`` rows."""
        rng = random.Random(seed)
        if replace:
            indices = [rng.randrange(self.n_rows) for _ in range(n)]
        else:
            if n > self.n_rows:
                raise SchemaError(f"cannot sample {n} rows without replacement from {self.n_rows}")
            indices = rng.sample(range(self.n_rows), n)
        return self.take(indices)

    def shuffle(self, seed: int = 0) -> "Dataset":
        """Return the dataset with rows in a reproducibly shuffled order."""
        rng = random.Random(seed)
        indices = list(range(self.n_rows))
        rng.shuffle(indices)
        return self.take(indices)

    def concat(self, other: "Dataset") -> "Dataset":
        """Append the rows of ``other`` (same columns required) to this dataset.

        Each column keeps its levels and appends ``other``'s new levels in
        their first-seen order, so no cell is re-coded.  When every column
        pair shares a ctype and this dataset already carries encoded views,
        its per-row arrays grow in place where this dataset ends at their
        buffers' high-water marks, and the merged dataset's encoding is
        seeded with this one's views grown by ``other``'s
        (:func:`repro.tabular.encoded.extend_encoding`) — bit-identical to a
        cold encode of the concatenation.
        """
        return self._concat(other, self.name)

    def _concat(self, other: "Dataset", name: str) -> "Dataset":
        """:meth:`concat` named ``name``, which an extended encoding carries too."""
        if self.column_names != other.column_names:
            raise SchemaError("cannot concatenate datasets with different columns")
        from repro.tabular.encoded import _CACHE_ATTR, _grow, encode_dataset, extend_encoding

        base_encoded = getattr(self, _CACHE_ATTR, None)
        if base_encoded is None or not base_encoded.owned_by(self) or any(
            col.ctype != other[col.name].ctype for col in self.columns
        ):
            base_encoded = None
        join = _grow if base_encoded is not None else _joined
        merged = Dataset([col._extended(other[col.name], join) for col in self.columns], name=name)
        if base_encoded is not None:
            extend_encoding(base_encoded, encode_dataset(other), merged)
        return merged

    def append_rows(self, rows: Sequence[dict[str, Any]], name: str | None = None) -> "Dataset":
        """Append row dictionaries, keeping this dataset's schema and encodings.

        The rows are coded against this dataset's column types and roles in
        one pass per column (unknown keys or uncoercible cells raise
        :class:`~repro.exceptions.SchemaError`), then appended via
        :meth:`append_dataset` — so existing encoded views are extended, not
        recomputed or copied.  An empty ``rows`` returns this dataset
        unchanged.  See :func:`repro.feeds.append_rows`.
        """
        from repro.feeds import append_rows

        return append_rows(self, rows, name=name)

    def append_dataset(self, delta: "Dataset", name: str | None = None) -> "Dataset":
        """Append a schema-compatible delta dataset, extending cached encodings.

        ``delta`` must have the same column names and ctypes (roles follow
        this dataset).  Returns the merged dataset; when this dataset is
        already encoded the merged views are seeded in O(len(delta) + new
        levels) and stay bit-identical to a cold re-encode (see
        :meth:`concat`).
        """
        from repro.feeds import append_dataset

        return append_dataset(self, delta, name=name)

    def copy(self, name: str | None = None) -> "Dataset":
        """Return a deep copy (values included) of the dataset."""
        clone = Dataset([c.copy() for c in self.columns], name=name or self.name)
        return clone

    # -- numeric views -------------------------------------------------------------

    def numeric_matrix(self, columns: Sequence[str] | None = None) -> np.ndarray:
        """Return a ``(n_rows, k)`` float matrix of the selected numeric columns.

        Non-numeric columns are rejected; missing values stay as ``nan``.
        """
        if columns is None:
            columns = [c.name for c in self.columns if c.is_numeric()]
        mats = []
        for name in columns:
            col = self[name]
            if not col.is_numeric():
                raise SchemaError(f"column {name!r} is not numeric")
            mats.append(col.values.astype(float))
        if not mats:
            return np.empty((self.n_rows, 0), dtype=float)
        return np.column_stack(mats)

    # -- persistence ------------------------------------------------------------------

    def save(self, path) -> Any:
        """Write this dataset's columns to a binary store file.

        The file (format: ``docs/store-format.md``) holds each column as it
        is held in memory — ``float64`` values, or codes and a level table —
        so :meth:`open` can memory-map them back with near-zero startup
        cost.  Returns the path written.
        """
        from repro.store import save_dataset

        return save_dataset(self, path)

    @classmethod
    def open(cls, path, verify: bool = False) -> "Dataset":
        """Open a dataset store file as zero-copy memory-mapped views.

        The returned dataset's columns map the saved codes and values, so
        no cell is coerced or coded again; every encoded view is built on
        first use, as for an in-memory dataset, and every hot path is
        bit-identical to a cold in-memory encode of the same data.  The
        mapped views are read-only; mutating operations copy-on-write into
        memory.  ``verify=True`` checksums every array section up front.
        """
        from repro.store import open_dataset

        return open_dataset(path, verify=verify)

    def close(self) -> None:
        """Release the memory-mapped store file backing this dataset, if any.

        Datasets returned by :meth:`open` hold the store's memory map (and
        its file descriptor) alive for their whole lifetime; ``close()``
        releases both so the ``.rps`` file can be replaced and the
        descriptor returned to the OS.  Afterwards the dataset — and every
        zero-copy view sliced from it — must no longer be used.  For
        in-memory datasets this is a no-op.
        """
        store_file = self.__dict__.pop("_store_file", None)
        if store_file is not None:
            store_file.close()

    def __getstate__(self) -> dict[str, Any]:
        """Pickle without the encoded-view cache or the store-file handle.

        The cached :class:`~repro.tabular.encoded.EncodedDataset` refuses
        pickling outright (its views must never cross a process boundary),
        and a :class:`~repro.store.format.StoreFile` would drag a whole
        memory map through the pipe; both rebuild lazily on the other
        side, so they are dropped here.  The attribute names are owned by
        ``repro.tabular.encoded`` / ``repro.store.reader`` — this module
        cannot import them without a cycle.
        """
        state = dict(self.__dict__)
        state.pop("_encoded_cache", None)
        state.pop("_store_file", None)
        return state

    # -- misc -----------------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, Any]]:
        """Return a light-weight per-column summary (type, role, missing, distinct)."""
        out: dict[str, dict[str, Any]] = {}
        for col in self.columns:
            out[col.name] = {
                "type": col.ctype,
                "role": col.role,
                "n_missing": col.n_missing(),
                "n_distinct": len(col.distinct()),
            }
        return out

    def __deepcopy__(self, memo: dict) -> "Dataset":  # pragma: no cover - convenience
        """A deep copy, as :meth:`copy` makes it."""
        return self.copy()


def _joined(head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """``head`` followed by ``tail`` in a new array."""
    return np.concatenate([head, tail])
