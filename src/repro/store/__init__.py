"""The persistence tier: a memory-mapped on-disk format for encoded data.

``repro.store`` serializes a dataset together with its encoded views
(:class:`~repro.tabular.encoded.EncodedDataset`) or a graph together with
its columnar snapshot (:class:`~repro.lod.triples.ColumnarTriples`) into a
single ``.rps`` file — magic, versioned header, checksummed section
directory, 64-byte-aligned little-endian payloads — and reopens it as
zero-copy read-only ``np.memmap`` views wired straight into the instance
caches the execution core consumes.  Opening therefore skips encoding
entirely and costs O(metadata), not O(cells); the views can exceed RAM.

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
