"""Bit-identity checks shared by the tier parity suites."""

from __future__ import annotations

import struct

import numpy as np

from repro.lod.linker import normalise_string
from repro.tabular.dataset import is_missing_value
from repro.tiers import reference


def bits(value):
    """A bit-exact comparison key: the cell's type, and a float's IEEE-754 bytes (NaN included)."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


def assert_identical_datasets(a, b):
    """Column names and order, row count, ctypes, roles, and every cell's type and bits."""
    assert a.column_names == b.column_names, f"column order {a.column_names} != {b.column_names}"
    assert a.n_rows == b.n_rows, f"row count {a.n_rows} != {b.n_rows}"
    for name in a.column_names:
        ca, cb = a[name], b[name]
        assert ca.ctype == cb.ctype, f"{name}: ctype {ca.ctype} != {cb.ctype}"
        assert ca.role == cb.role, f"{name}: role {ca.role} != {cb.role}"
        for i, (x, y) in enumerate(zip(ca.tolist(), cb.tolist())):
            assert bits(x) == bits(y), f"{name}[{i}]: {x!r} != {y!r}"


def assert_identical_bindings(fast, slow):
    """Same bindings, same row order, same dict key order, same term objects."""
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert list(a) == list(b)  # key insertion order
        assert a == b


def on_reference(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` run inside :func:`repro.tiers.reference`."""
    with reference():
        return fn(*args, **kwargs)


# -- the per-cell walks the encoded views must equal -------------------------

def reference_missing(cells):
    """The missing mask of ``cells``, one ``is_missing_value`` per cell."""
    return np.asarray([is_missing_value(value) for value in cells], dtype=bool)


def reference_codes(cells):
    """``(codes, vocabulary, index)``: ``str`` of each present cell coded in first-seen order, ``-1`` missing."""
    missing = reference_missing(cells)
    codes = np.full(len(cells), -1, dtype=np.int64)
    index: dict[str, int] = {}
    for i, value in enumerate(cells):
        if not missing[i]:
            codes[i] = index.setdefault(str(value), len(index))
    return codes, list(index), index


def reference_numeric(cells):
    """``(values, missing)``: ``float()`` of each present cell; a cell it rejects is missing."""
    missing = reference_missing(cells)
    values = np.full(len(cells), np.nan)
    for i, value in enumerate(cells):
        if missing[i]:
            continue
        try:
            values[i] = float(value)
        except (TypeError, ValueError):
            missing[i] = True
    return values, missing


def reference_normalised_levels(cells):
    """``normalise_string`` of every level of :func:`reference_codes`'s vocabulary."""
    return [normalise_string(level) for level in reference_codes(cells)[1]]
