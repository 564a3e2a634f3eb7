"""Open ``.rps`` store files as memory-mapped datasets and graphs.

Opening does no per-cell work: array sections become zero-copy read-only
:class:`numpy.memmap` views of the primaries, a dataset's columns and a
graph's index orders (:class:`~repro.lod.triples.ColumnarTriples`), so a
reopened payload starts in microseconds regardless of size.  Every derived
view — missing masks, numeric views, normalised levels, block tables — is
built on first use by the code an in-memory payload runs, so every hot path
is bit-identical to a cold in-memory encode of the same data.  Version-1
files also hold derived copies of those views; they are not read.

Two lazy types bridge the gap to the object tiers:

* the coded :class:`~repro.tabular.dataset.Column` — every non-numeric
  column holds int64 codes into a level table, so an opened column wraps
  the mapped code section and builds its Python object cells only when
  something actually asks for them;
* :class:`StoredTripleStore` — a :class:`~repro.lod.triples.TripleStore`
  whose three dict indexes are replayed from the saved order arrays on
  first access, so reference-tier scans see the exact iteration order the
  live store had at save time.

The reference of this tier is a cold in-memory encode of the same data; the
round-trip test suite holds the two bit-identical.
"""

from __future__ import annotations

import weakref
from pathlib import Path

from repro.exceptions import StoreError
from repro.lod.graph import Graph
from repro.lod.terms import BNode, IRI, Literal
from repro.lod.triples import ColumnarTriples, TripleStore
from repro.store.format import KIND_DATASET, KIND_GRAPH, KIND_NAMES, StoreFile
from repro.store.writer import (
    TERM_BNODE,
    TERM_IRI,
    TERM_LITERAL,
    VTAG_BOOL,
    VTAG_FLOAT,
    VTAG_INT,
    VTAG_STR,
)
from repro.tabular.dataset import Column, ColumnType, Dataset
from repro.tabular.encoded import encode_dataset


class StoredTripleStore(TripleStore):
    """A triple store whose dict indexes replay from saved order arrays.

    ``TripleStore`` keeps its three indexes as insertion-ordered nested
    dicts; this subclass starts with none of them built and replays each —
    independently, from its own saved ``(s, p, o)`` id arrays — on first
    access.  Replaying per index matters: the three indexes first see keys
    in different orders during live mutation, so rebuilding all three from
    the SPO arrays would change POS/OSP iteration order and break
    bit-identicality of reference-tier scans.

    Mutations force all three indexes to materialise first (a partially
    replayed store must not later replay an index from arrays that no
    longer reflect the dicts), then delegate to the plain implementation.
    """

    def __init__(self, terms: list, orders: dict, n_triples: int) -> None:
        """Wrap the decoded term table and the saved per-index id arrays."""
        self._terms = terms
        self._saved_orders = orders
        self._spo_index: dict | None = None
        self._pos_index: dict | None = None
        self._osp_index: dict | None = None
        self._size = n_triples
        self._columnar = None

    @property
    def _spo(self) -> dict:
        """The SPO dict index, replayed from the saved SPO arrays on first use."""
        if self._spo_index is None:
            self._spo_index = self._replay("spo")
        return self._spo_index

    @property
    def _pos(self) -> dict:
        """The POS dict index, replayed from the saved POS arrays on first use."""
        if self._pos_index is None:
            self._pos_index = self._replay("pos")
        return self._pos_index

    @property
    def _osp(self) -> dict:
        """The OSP dict index, replayed from the saved OSP arrays on first use."""
        if self._osp_index is None:
            self._osp_index = self._replay("osp")
        return self._osp_index

    def _replay(self, index: str) -> dict:
        """Insert the saved ``index`` rows into fresh nested dicts, in order."""
        terms = self._terms
        s_ids, p_ids, o_ids = self._saved_orders[index]
        if index == "spo":
            first, second, third = s_ids, p_ids, o_ids
        elif index == "pos":
            first, second, third = p_ids, o_ids, s_ids
        else:
            first, second, third = o_ids, s_ids, p_ids
        nested: dict = {}
        for a, b, c in zip(first.tolist(), second.tolist(), third.tolist()):
            nested.setdefault(terms[a], {}).setdefault(terms[b], {})[terms[c]] = None
        return nested

    def _materialize(self) -> None:
        """Force all three dict indexes before the first mutation."""
        if self._spo_index is None:
            self._spo_index = self._replay("spo")
        if self._pos_index is None:
            self._pos_index = self._replay("pos")
        if self._osp_index is None:
            self._osp_index = self._replay("osp")

    def add(self, triple) -> bool:
        """Add a triple (materialising the dict indexes first)."""
        self._materialize()
        return super().add(triple)

    def discard(self, triple) -> bool:
        """Remove a triple (materialising the dict indexes first)."""
        self._materialize()
        return super().discard(triple)


def _open_store(path: Path | str, expected_kind: int) -> StoreFile:
    """Open ``path`` and check its payload kind."""
    store_file = StoreFile(path)
    if store_file.kind != expected_kind:
        store_file.close()
        raise StoreError(
            f"store {path} holds a {KIND_NAMES[store_file.kind]} payload, "
            f"not a {KIND_NAMES[expected_kind]}"
        )
    return store_file


def open_dataset(path: Path | str, verify: bool = False) -> Dataset:
    """Open a dataset store file; see :meth:`repro.tabular.dataset.Dataset.open`.

    Numeric columns alias the mapped ``float64`` sections directly; other
    columns are coded columns over the mapped codes and their saved level
    tables, which the file is trusted to keep in first-seen order (its
    writer saved a categorical view).  Nothing else is read: every encoded
    view is built on first use, as for an in-memory dataset.
    ``verify=True`` additionally checksums every array section (metadata
    sections are always checked).
    """
    store_file = _open_store(path, KIND_DATASET)
    meta = store_file.json("meta")
    columns: list[Column] = []
    for described in meta["columns"]:
        name, ctype, role, prefix = described["name"], described["ctype"], described["role"], described["prefix"]
        if ctype == ColumnType.NUMERIC:
            column = Column._canonical(name, ctype, role, store_file.array(f"{prefix}.val"))
        else:
            column = Column.from_vocabulary(
                name, ctype, role, store_file.array(f"{prefix}.cod"), store_file.strings(f"{prefix}.lev")
            )
        columns.append(column)
    dataset = Dataset(columns, name=meta["name"])
    # An encoded dataset is what Dataset.concat grows in place; without an
    # encoding, every append onto an opened store would copy every column.
    encode_dataset(dataset)
    if verify:
        store_file.verify()
    dataset._store_file = store_file  # keeps the map alive; provenance for tools
    return dataset


def _decode_terms(store_file: StoreFile) -> list:
    """Decode the interned term table back into RDF term objects.

    Terms were validated when first constructed, before saving, so decoding
    bypasses ``__post_init__`` validation with ``object.__new__`` — opening
    must not re-pay per-term regex checks.
    """
    kinds = store_file.array("term.knd")
    texts = store_file.strings("term.txt")
    vtags = store_file.array("term.vtg")
    datatype_ids = store_file.array("term.dty")
    language_ids = store_file.array("term.lng")
    datatypes = [_new_iri(value) for value in store_file.strings("dty.tab")]
    languages = store_file.strings("lng.tab")
    terms: list = []
    for kind, text, vtag, datatype_id, language_id in zip(
        kinds.tolist(), texts, vtags.tolist(), datatype_ids.tolist(), language_ids.tolist()
    ):
        if kind == TERM_IRI:
            terms.append(_new_iri(text))
        elif kind == TERM_BNODE:
            term = object.__new__(BNode)
            object.__setattr__(term, "identifier", text)
            terms.append(term)
        elif kind == TERM_LITERAL:
            if vtag == VTAG_STR:
                value = text
            elif vtag == VTAG_INT:
                value = int(text)
            elif vtag == VTAG_FLOAT:
                value = float(text)
            elif vtag == VTAG_BOOL:
                value = text == "true"
            else:
                raise StoreError(f"store {store_file.path}: unknown literal value tag {vtag}")
            term = object.__new__(Literal)
            object.__setattr__(term, "value", value)
            object.__setattr__(term, "datatype", datatypes[datatype_id] if datatype_id >= 0 else None)
            object.__setattr__(term, "language", languages[language_id] if language_id >= 0 else None)
            terms.append(term)
        else:
            raise StoreError(f"store {store_file.path}: unknown term kind {kind}")
    return terms


def _new_iri(value: str) -> IRI:
    """Construct an :class:`IRI` without re-running its validation regex."""
    iri = object.__new__(IRI)
    object.__setattr__(iri, "value", value)
    return iri


def open_graph(path: Path | str, verify: bool = False) -> Graph:
    """Open a graph store file; see :meth:`repro.lod.graph.Graph.open`.

    The columnar snapshot is rebuilt directly from the mapped id arrays (no
    interning pass); its block tables are built from them on first use, and
    the dict indexes stay unbuilt until a reference-tier scan or a mutation
    needs them — so the vectorized query path runs on a just-opened
    multi-million-triple graph without any per-triple Python.
    """
    store_file = _open_store(path, KIND_GRAPH)
    meta = store_file.json("meta")
    terms = _decode_terms(store_file)
    term_ids: dict = {}
    for i, term in enumerate(terms):
        term_ids.setdefault(term, i)
    orders = {
        index: tuple(store_file.array(f"{index}.{position}") for position in "spo")
        for index in ("spo", "pos", "osp")
    }
    store = StoredTripleStore(terms, orders, int(meta["n_triples"]))
    snapshot = ColumnarTriples.__new__(ColumnarTriples)
    snapshot.terms = terms
    snapshot.term_ids = term_ids
    snapshot._store = weakref.ref(store)
    snapshot._orders = orders
    snapshot._blocks = {}
    store._columnar = snapshot
    graph = Graph(meta["identifier"])
    graph.store = store
    for prefix, namespace in meta["prefixes"].items():
        graph.bind(prefix, namespace)
    graph._bnode_counter = int(meta.get("bnode_counter", 0))
    if verify:
        store_file.verify()
    graph._store_file = store_file  # keeps the map alive; provenance for tools
    return graph


def inspect_store(path: Path | str, verify: bool = False) -> dict:
    """Structural summary of a store file, as a JSON-serialisable dict.

    Returns the header fields plus one entry per section (kind, dtype,
    flags, offset, length, element count, checksum).  With ``verify=True``
    every payload is CRC-checked and per-section ``"status"`` fields report
    ``"ok"`` or the failure reason; structural damage below the
    header/directory level is reported the same way instead of raising.

    Inspection is self-contained: the store file is closed (its descriptor
    released) before the summary is returned.
    """
    with StoreFile(path, tolerant=True) as store_file:
        damage = dict(store_file.damage)
        if verify:
            damage = store_file.verify()
    sections = []
    for name, section in store_file.sections.items():
        sections.append(
            {
                "name": name,
                "kind": section.kind,
                "dtype": section.dtype,
                "derived": section.derived,
                "offset": section.offset,
                "length": section.length,
                "count": section.count,
                "crc32": section.crc,
                "status": damage.get(name, "ok" if verify else "not checked"),
            }
        )
    return {
        "path": str(store_file.path),
        "format_version": store_file.version,
        "payload": KIND_NAMES[store_file.kind],
        "file_length": store_file.file_length,
        "n_sections": len(store_file.sections),
        "damaged": sorted(damage),
        "sections": sections,
    }
