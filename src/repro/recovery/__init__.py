"""Tolerant salvage tier for partially corrupt open-data files.

The strict readers (:func:`repro.tabular.io_csv.read_csv`,
:func:`repro.lod.serialization.parse_ntriples`) are the reference tier: they
raise on the first defect.  This package adds the recovery tier the paper's
open-data setting demands — files fetched from portals are routinely ragged,
mis-encoded or truncated, and discarding a 100k-row file over one bad byte
wastes the other 99 999 rows.  The salvage readers repair what is repairable,
drop only what is not, and account for every intervention with per-cell
provenance flags and a structured report.  On clean input they are
bit-identical to the strict tier (verified by the equivalence test suite).
Each salvage reader takes ``strict=True`` to read through its strict tier
instead, which fails on the first defect (``repro salvage --strict``).

The :mod:`~repro.recovery.corrupt` module provides the matching seeded,
severity-parameterised file corruptors so the inject → salvage → profile
round trip can be tested and benchmarked end to end.

:func:`~repro.recovery.salvage_store.salvage_store` extends the tier to the
binary persistence format (:mod:`repro.store`): damaged *derived* sections
are rebuilt from primaries, columns with damaged primaries are dropped and
reported, and only header/directory/term-table/SPO damage is fatal.
"""

from repro.recovery.corrupt import (
    CORRUPTOR_REGISTRY,
    FileCorruptor,
    apply_corruptions,
    get_corruptor,
)
from repro.recovery.provenance import (
    COERCED_MISSING,
    ENCODING_REPLACED,
    OK,
    PADDED,
    PROVENANCE_CODES,
    PROVENANCE_NAMES,
    QUOTE_REPAIRED,
    REJOINED,
    TRUNCATED,
    NtSalvageReport,
    SalvageReport,
    attach_provenance,
    dataset_provenance,
    provenance_counts,
)
from repro.recovery.salvage_csv import SalvageResult, salvage_csv, salvage_csv_text
from repro.recovery.salvage_ntriples import NtSalvageResult, salvage_ntriples
from repro.recovery.salvage_store import (
    StoreSalvageReport,
    StoreSalvageResult,
    salvage_store,
)

__all__ = [
    "CORRUPTOR_REGISTRY",
    "FileCorruptor",
    "apply_corruptions",
    "get_corruptor",
    "OK",
    "PADDED",
    "TRUNCATED",
    "ENCODING_REPLACED",
    "COERCED_MISSING",
    "QUOTE_REPAIRED",
    "REJOINED",
    "PROVENANCE_NAMES",
    "PROVENANCE_CODES",
    "SalvageReport",
    "NtSalvageReport",
    "attach_provenance",
    "dataset_provenance",
    "provenance_counts",
    "SalvageResult",
    "salvage_csv",
    "salvage_csv_text",
    "NtSalvageResult",
    "salvage_ntriples",
    "StoreSalvageReport",
    "StoreSalvageResult",
    "salvage_store",
]
