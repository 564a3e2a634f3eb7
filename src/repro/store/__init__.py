"""The persistence tier: a memory-mapped on-disk format for encoded data.

``repro.store`` serializes a dataset's columns (``float64`` values, or
int64 codes and a level table) or a graph's columnar snapshot
(:class:`~repro.lod.triples.ColumnarTriples`: its term table and three
index orders) into a single ``.rps`` file — magic, versioned header,
checksummed section directory, 64-byte-aligned little-endian payloads — and
reopens it as zero-copy read-only ``np.memmap`` views.  Opening therefore
codes no cell and costs O(metadata), not O(cells); the views can exceed
RAM.  Every derived view is built on first use, as for an in-memory
payload.

The tier follows the library-wide two-tier protocol: everything computed on
a reopened (memmap) payload is bit-identical to a cold in-memory encode of
the same data, which is this tier's reference.  Corrupt or truncated
files fail with :class:`~repro.exceptions.StoreCorruptionError` naming the
offending section; salvageable damage can be routed through
:func:`repro.recovery.salvage_store`.

The byte-level layout is a normative, versioned contract — see
``docs/store-format.md``.
"""

from repro.store.format import FORMAT_VERSION, MAGIC, StoreFile
from repro.store.reader import (
    StoredTripleStore,
    inspect_store,
    open_dataset,
    open_graph,
)
from repro.store.writer import save_dataset, save_graph

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "StoreFile",
    "StoredTripleStore",
    "inspect_store",
    "open_dataset",
    "open_graph",
    "save_dataset",
    "save_graph",
]
