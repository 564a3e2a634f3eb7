"""Tolerant opener for damaged binary store files.

The strict opener (:func:`repro.store.open_dataset` /
:func:`repro.store.open_graph`) is the reference tier: it raises a
:class:`~repro.exceptions.StoreCorruptionError` naming the first section
that fails bounds or checksum validation.  This module is the matching
salvage tier: it CRC-walks *every* section of the file, then recovers
whatever the surviving sections determine:

* **derived sections** (a graph's POS/OSP orderings; in version-1 files
  also missing masks, numeric views, normalised level tables and block
  tables — every section flagged ``FLAG_DERIVED`` in the directory) are
  rebuilt from the primaries they were derived from; damage there costs
  recompute time, never data;
* **primary dataset sections** (a column's value/code/level payloads) that
  are damaged drop that column — the rest of the dataset survives, and the
  report names every dropped column;
* **primary graph sections** (the term table, the SPO arrays, the metadata)
  are the data itself: damage there is unrecoverable and raises.

The salvaged payload is rebuilt *in memory* — a file that failed its
checksums is not a sound backing store for memory maps — so derived views
regenerate lazily through the ordinary encoding paths.  Like the other
salvage readers, the result comes with a structured report accounting for
every intervention.

Unlike the strict opener, salvage guarantees the recovered *data* (the
triple set, the surviving columns' cells), not scan order: a salvaged graph
is rebuilt by inserting triples in SPO order, so POS/OSP iteration order
may differ from the store that was saved.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Union

import numpy as np

from repro.exceptions import StoreError
from repro.lod.graph import Graph
from repro.lod.triples import TripleStore
from repro.lod.terms import Triple
from repro.store.format import KIND_DATASET, KIND_NAMES, StoreFile
from repro.store.reader import _decode_terms, open_dataset, open_graph
from repro.tabular.dataset import Column, ColumnType, Dataset


class StoreSalvageReport:
    """Account of what :func:`salvage_store` did to a damaged store file."""

    def __init__(self, path: Path | str, payload: str) -> None:
        """Start an empty report for the store at ``path``."""
        self.path = str(path)
        #: ``"dataset"`` or ``"graph"``.
        self.payload = payload
        #: ``{section_name: reason}`` for every section that failed validation.
        self.damaged_sections: dict[str, str] = {}
        #: Columns dropped because a primary section of theirs was damaged.
        self.dropped_columns: list[str] = []
        #: Damaged sections flagged derived: recomputation replaces them, so they cost no data.
        self.rebuilt_sections: list[str] = []

    @property
    def is_clean(self) -> bool:
        """Whether the file validated end to end (nothing dropped or rebuilt)."""
        return not self.damaged_sections

    def summary(self) -> str:
        """A short human-readable account, one finding per line."""
        lines = [f"store salvage of {self.path} ({self.payload})"]
        if self.is_clean:
            lines.append("file is clean: every section passed validation")
            return "\n".join(lines)
        lines.append(f"{len(self.damaged_sections)} damaged section(s): "
                     + ", ".join(sorted(self.damaged_sections)))
        if self.rebuilt_sections:
            lines.append(f"rebuilt from primaries: {', '.join(sorted(self.rebuilt_sections))}")
        if self.dropped_columns:
            lines.append(f"dropped columns (primary data lost): {', '.join(self.dropped_columns)}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        """The report as a JSON-serialisable dictionary."""
        return {
            "path": self.path,
            "payload": self.payload,
            "is_clean": self.is_clean,
            "damaged_sections": dict(self.damaged_sections),
            "dropped_columns": list(self.dropped_columns),
            "rebuilt_sections": sorted(self.rebuilt_sections),
        }


class StoreSalvageResult(NamedTuple):
    """A salvaged payload together with the account of what was done to it."""

    payload: Union[Dataset, Graph]
    report: StoreSalvageReport


def salvage_store(path: Path | str, strict: bool = False) -> StoreSalvageResult:
    """Recover as much as possible from a damaged store file.

    Raises :class:`~repro.exceptions.StoreError` when nothing can be
    recovered: an unreadable header or directory, damaged metadata, a
    damaged graph term table or SPO ordering, or a dataset whose every
    column lost a primary section.

    With ``strict=True`` the file is read through the verifying strict
    opener instead: the payload is its memory-mapped one, and any defect
    raises its :class:`~repro.exceptions.StoreCorruptionError`, which names
    the section.
    """
    if strict:
        with StoreFile(path) as probe:
            kind = probe.kind
        opener = open_dataset if kind == KIND_DATASET else open_graph
        return StoreSalvageResult(opener(path, verify=True), StoreSalvageReport(path, KIND_NAMES[kind]))
    # The payload is rebuilt fully in memory, so the store file (and its
    # file descriptor) is released as soon as salvage finishes.
    with StoreFile(path, tolerant=True) as store_file:
        damage = store_file.verify()
        report = StoreSalvageReport(path, KIND_NAMES[store_file.kind])
        report.damaged_sections = dict(damage)
        # Pseudo-sections such as "header" have no directory entry.
        report.rebuilt_sections = [
            name for name in damage if name in store_file.sections and store_file.sections[name].derived
        ]
        if store_file.kind == KIND_DATASET:
            payload = _salvage_dataset(store_file, damage, report)
        else:
            payload = _salvage_graph(store_file, damage, report)
    return StoreSalvageResult(payload, report)


def _salvage_dataset(store_file: StoreFile, damage: dict, report: StoreSalvageReport) -> Dataset:
    """Rebuild an in-memory dataset from the surviving column sections."""
    meta = store_file.json("meta")  # damaged meta is unrecoverable: propagate
    columns: list[Column] = []
    for described in meta["columns"]:
        name, ctype, role, prefix = described["name"], described["ctype"], described["role"], described["prefix"]
        if ctype == ColumnType.NUMERIC:
            primaries = [f"{prefix}.val"]
        else:
            primaries = [f"{prefix}.cod", f"{prefix}.lev"]
        if any(section in damage for section in primaries):
            report.dropped_columns.append(name)
            continue
        # Copies of the sections: the salvaged dataset outlives the store file.
        if ctype == ColumnType.NUMERIC:
            columns.append(Column._canonical(name, ctype, role, np.array(store_file.array(f"{prefix}.val"))))
        else:
            codes = np.array(store_file.array(f"{prefix}.cod"))
            vocabulary = store_file.strings(f"{prefix}.lev")
            columns.append(Column.from_vocabulary(name, ctype, role, codes, vocabulary))
    if not columns:
        raise StoreError(
            f"store {store_file.path}: unsalvageable dataset — every column lost a primary section"
        )
    return Dataset(columns, name=meta["name"])


def _salvage_graph(store_file: StoreFile, damage: dict, report: StoreSalvageReport) -> Graph:
    """Rebuild an in-memory graph from the term table and SPO arrays."""
    meta = store_file.json("meta")  # damaged meta is unrecoverable: propagate
    vital = ["term.knd", "term.txt", "term.vtg", "term.dty", "term.lng",
             "dty.tab", "lng.tab", "spo.s", "spo.p", "spo.o"]
    lost = [name for name in vital if name in damage]
    if lost:
        raise StoreError(
            f"store {store_file.path}: unsalvageable graph — primary section(s) damaged: {', '.join(lost)}"
        )
    terms = _decode_terms(store_file)
    s_ids = store_file.array("spo.s")
    p_ids = store_file.array("spo.p")
    o_ids = store_file.array("spo.o")
    store = TripleStore()
    for s, p, o in zip(s_ids.tolist(), p_ids.tolist(), o_ids.tolist()):
        store.add(Triple(terms[s], terms[p], terms[o]))
    graph = Graph(meta["identifier"])
    graph.store = store
    for prefix, namespace in meta["prefixes"].items():
        graph.bind(prefix, namespace)
    graph._bnode_counter = int(meta.get("bnode_counter", 0))
    return graph
