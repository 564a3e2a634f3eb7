"""Bit-identity checks shared by the tier parity suites."""

from __future__ import annotations

import struct

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
