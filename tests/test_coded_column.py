"""The one coded column: every constructor's codes equal the per-cell walks.

A non-numeric column holds int64 codes over a first-seen level table, and
the encoded views are read off them.  Here every way of building such a
column — the constructor, ``from_rows``, ``from_distinct``, ``take`` and a
fold, ``concat``, ``append_rows`` (a branch included), save + open and
``salvage_store`` — is held to the per-cell reference walks of
``tests/parity.py``, bit for bit, and to the invariant: the levels are
exactly the levels present, in first-seen row order.
"""

from __future__ import annotations

import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from parity import (
    bits,
    reference_codes,
    reference_missing,
    reference_normalised_levels,
    reference_numeric,
)

from repro.recovery import salvage_store
from repro.tabular.dataset import Column, ColumnRole, ColumnType, Dataset, _coerce_value
from repro.tabular.encoded import encode_dataset

CODED_CTYPES = [ColumnType.CATEGORICAL, ColumnType.BOOLEAN, ColumnType.STRING, ColumnType.DATETIME]

_NAN = float("nan")
_cells = st.one_of(
    st.none(),
    st.just(_NAN),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=False, width=32),
    st.text(max_size=4),
    st.builds(np.str_, st.text(max_size=3)),
    st.sampled_from(
        ["\0<missing>", "<missing>", "Éte", "ß", "True", "no", " yes", "1.5", "nan", "2026-01-02"]
    ),
)
_columns = st.one_of(
    st.lists(_cells, min_size=1, max_size=12),
    st.lists(st.sampled_from([None, _NAN]), min_size=1, max_size=4),  # all missing
)


def _coerced(cells, ctype):
    """The cells ``Column`` holds: coerced, and a ``str`` subclass such as ``np.str_`` as a plain ``str``."""
    coerced = [_coerce_value(cell, ctype) for cell in cells]
    return [str(cell) if isinstance(cell, str) else cell for cell in coerced]


def _check(column: Column, views, expected: list) -> None:
    """``column`` holds ``expected``'s cells, and ``views`` match the per-cell walks bit for bit."""
    cells = column.tolist()
    assert [bits(cell) for cell in cells] == [bits(cell) for cell in expected]
    name = column.name
    codes, vocabulary, index = views.codes_view(name)
    ref_codes, ref_vocabulary, ref_index = reference_codes(expected)
    assert codes.dtype == np.int64 and codes.tobytes() == ref_codes.tobytes()
    assert (vocabulary, index) == (ref_vocabulary, ref_index)
    missing = views.missing_view(name)
    assert missing.dtype == bool and missing.tobytes() == reference_missing(expected).tobytes()
    values, value_missing = views.numeric_view(name)
    ref_values, ref_value_missing = reference_numeric(expected)
    assert values.tobytes() == ref_values.tobytes()
    assert value_missing.tobytes() == ref_value_missing.tobytes()
    assert views.normalised_levels(name) == reference_normalised_levels(expected)
    if not column.is_numeric():  # the invariant: the codes are the categorical view
        assert not any(view.flags.writeable for view in (missing, values, value_missing))  # as mapped views
        assert np.asarray(column._codes).tobytes() == ref_codes.tobytes()
        assert [str(level) for level in column._levels] == ref_vocabulary
        level_type = bool if column.ctype == ColumnType.BOOLEAN else str
        assert all(type(level) is level_type for level in column._levels)


def _dataset(cells, ctype) -> Dataset:
    return Dataset([Column("x", cells, ctype=ctype), Column("n", [float(i) for i in range(len(cells))])])


def _warm(dataset: Dataset) -> Dataset:
    """Cache every view an encoded base may hold, so an append extends them."""
    encoded = encode_dataset(dataset)
    encoded.codes_view("x")
    encoded.numeric_view("x")
    encoded.normalised_levels("x")
    encoded.numeric_view("n")
    return dataset


@given(
    cells=_columns,
    more=_columns,
    ctype=st.sampled_from(CODED_CTYPES),
    picks=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=10),
)
@settings(max_examples=60, deadline=None)
def test_every_constructor_codes_like_the_cell_walk(cells, more, ctype, picks):
    expected, expected_more = _coerced(cells, ctype), _coerced(more, ctype)

    column = Column("x", cells, ctype=ctype)
    dataset = _dataset(cells, ctype)
    _check(column, encode_dataset(Dataset([column])), expected)
    _check(dataset["x"], encode_dataset(dataset), expected)

    rows = Dataset.from_rows([{"x": cell} for cell in cells], ctypes={"x": ctype})
    _check(rows["x"], encode_dataset(rows), expected)

    distinct = list(dict.fromkeys(cells))  # merges equal cells such as 0 and False
    inverse = np.asarray([distinct.index(cell) for cell in cells])
    built = Column.from_distinct("x", distinct, inverse)
    cold = Column("x", [distinct[i] for i in inverse])
    assert built.ctype == cold.ctype
    _check(built, encode_dataset(Dataset([built])), _coerced([distinct[i] for i in inverse], cold.ctype))

    indices = [pick % len(cells) for pick in picks]
    subset = dataset.take(indices)
    _check(subset["x"], encode_dataset(subset), [expected[i] for i in indices])
    fold = encode_dataset(_warm(_dataset(cells, ctype))).take(indices)
    _check(fold["x"], encode_dataset(fold), [expected[i] for i in indices])

    for base in (_dataset(cells, ctype), _warm(_dataset(cells, ctype))):
        merged = base.concat(_dataset(more, ctype))
        _check(merged["x"], encode_dataset(merged), expected + expected_more)

    base = _warm(_dataset(cells, ctype))
    batch = [{"x": cell, "n": 0.0} for cell in more]
    first = base.append_rows(batch)
    branch = base.append_rows(batch[::-1])  # a second append to one base copies its buffers
    grown = first.append_rows(batch)  # grows the first append's buffers in place
    _check(first["x"], encode_dataset(first), expected + expected_more)
    _check(branch["x"], encode_dataset(branch), expected + expected_more[::-1])
    _check(grown["x"], encode_dataset(grown), expected + expected_more + expected_more)

    with tempfile.TemporaryDirectory() as tmp:
        path = dataset.save(Path(tmp) / "coded.rps")
        opened = Dataset.open(path)
        try:
            assert opened["x"]._cells is None
            _check(opened["x"], encode_dataset(opened), expected)
        finally:
            opened.close()
        salvaged = salvage_store(path).payload
        _check(salvaged["x"], encode_dataset(salvaged), expected)


def test_a_single_row_read_builds_no_cells(tmp_path):
    dataset = _dataset(["a", None, "b", "a"], ColumnType.CATEGORICAL)
    opened = Dataset.open(dataset.save(tmp_path / "lazy.rps"))
    try:
        assert opened.row(2) == {"x": "b", "n": 2.0}
        assert opened["x"]._cells is None
        assert list(opened.iter_rows()) == list(dataset.iter_rows())
    finally:
        opened.close()


def test_pickling_keeps_the_cells_lazy():
    column = Column("flag", [True, None, "no", "yes"], ctype=ColumnType.BOOLEAN, role=ColumnRole.TARGET)
    clone = pickle.loads(pickle.dumps(column))
    assert clone._cells is None and clone == column
    assert (clone._levels, clone.missing_mask().tolist()) == ([True, False], [False, True, False, False])


@pytest.mark.parametrize("ctype", CODED_CTYPES)
def test_distinct_values_are_the_levels(ctype):
    column = Column("x", ["b", None, "a", "b", "A"], ctype=ctype)
    assert column.distinct() == column._levels
    assert column.value_counts() == dict(zip(column._levels, np.bincount(column._codes[column._codes >= 0])))
