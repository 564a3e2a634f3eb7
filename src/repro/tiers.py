"""The one switch between the fast tiers and their references.

The fast tiers (vectorized, blocked, columnar, incremental) run by default
and are bit-identical to their references (``docs/encoded-core.md``).
Inside ``with reference():`` every dispatch site takes its reference; no
other code chooses a tier.  The switch is per thread: a thread started
inside a block runs the fast tiers.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from contextlib import contextmanager


class _Switch(threading.local):
    on = False


_SWITCH = _Switch()


def use_reference() -> bool:
    """True inside a :func:`reference` block on this thread: take the reference tier."""
    return _SWITCH.on


@contextmanager
def reference() -> Iterator[None]:
    """Run the block on every hot path's reference tier.

    On exit, even by an exception, the previous setting comes back, so blocks
    nest.
    """
    previous = _SWITCH.on
    _SWITCH.on = True
    try:
        yield
    finally:
        _SWITCH.on = previous
