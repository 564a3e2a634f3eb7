"""Serialize datasets and graphs into ``.rps`` store files.

The writer saves only primaries: a dataset's columns as they are held in
memory (``float64`` values, or int64 codes and a level table) and a graph's
term table with its three index orders.  Every other view is a function of
those, which reopening (:mod:`repro.store.reader`) leaves to the code an
unsaved payload runs, so a reopened payload is bit-identical to a cold
encode because there is one derivation.  See ``docs/store-format.md`` for
the byte layout and :mod:`repro.store.format` for the framing primitives.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.exceptions import StoreError
from repro.lod.graph import Graph
from repro.lod.terms import BNode, IRI, Literal
from repro.store.format import (
    DTYPE_F8,
    DTYPE_I8,
    DTYPE_NONE,
    DTYPE_U1,
    FLAG_DERIVED,
    KIND_DATASET,
    KIND_GRAPH,
    SECTION_ARRAY,
    SECTION_JSON,
    SECTION_STRINGS,
    encode_string_table,
    write_store,
)
from repro.tabular.dataset import Dataset
from repro.tabular.encoded import encode_dataset

#: Literal value-type tags (the ``term.vtg`` array).
VTAG_NONE = 0
VTAG_STR = 1
VTAG_INT = 2
VTAG_FLOAT = 3
VTAG_BOOL = 4

#: Term kind codes (the ``term.knd`` array).
TERM_IRI = 0
TERM_BNODE = 1
TERM_LITERAL = 2


def _array_payload(values: np.ndarray, dtype: str) -> bytes:
    """Little-endian contiguous bytes of ``values`` as ``dtype``."""
    return np.ascontiguousarray(values, dtype=dtype).tobytes()


def _json_section(document: dict) -> tuple[str, int, int, int, bytes, int]:
    """The ``meta`` JSON section tuple for :func:`~repro.store.format.write_store`."""
    payload = json.dumps(document, ensure_ascii=False, sort_keys=True).encode("utf-8")
    return ("meta", SECTION_JSON, DTYPE_NONE, 0, payload, 0)


def save_dataset(dataset: Dataset, path: Path | str) -> Path:
    """Write ``dataset``'s columns to a store file at ``path``.

    A numeric column writes its ``float64`` values; any other column writes
    its int64 codes and the ``str`` of each level, its categorical view.
    Nothing derived is written: the missing mask, the numeric view and the
    normalised levels of a reopened column are built on first use, from the
    same codes, by the code that builds them for an unsaved one.
    """
    encoded = encode_dataset(dataset)
    sections: list[tuple[str, int, int, int, bytes, int]] = []
    columns_meta: list[dict] = []
    for i, column in enumerate(dataset.columns):
        prefix = f"c{i}"
        columns_meta.append({"name": column.name, "ctype": column.ctype, "role": column.role, "prefix": prefix})
        if column.is_numeric():
            values = column.values
            sections.append((f"{prefix}.val", SECTION_ARRAY, DTYPE_F8, 0, _array_payload(values, "<f8"), len(values)))
            continue
        codes, vocabulary, _ = encoded.codes_view(column.name)
        sections += [
            (f"{prefix}.cod", SECTION_ARRAY, DTYPE_I8, 0, _array_payload(codes, "<i8"), len(codes)),
            (f"{prefix}.lev", SECTION_STRINGS, DTYPE_NONE, 0, encode_string_table(vocabulary), len(vocabulary)),
        ]
    meta = {
        "payload": "dataset",
        "name": dataset.name,
        "n_rows": dataset.n_rows,
        "columns": columns_meta,
    }
    sections.insert(0, _json_section(meta))
    return write_store(path, KIND_DATASET, sections)


def _encode_terms(terms: list) -> tuple[list[tuple], list[str], list[str]]:
    """Encode the interned term table into parallel columns.

    Returns ``(sections, datatype_table, language_table)`` where sections
    are the five ``term.*`` section tuples.  Literal values are written as
    text with a value-type tag: ints as their decimal form, floats via
    ``repr`` (which round-trips every finite and non-finite value exactly),
    bools as ``true``/``false``.
    """
    n = len(terms)
    kinds = np.zeros(n, dtype=np.uint8)
    vtags = np.zeros(n, dtype=np.uint8)
    datatype_ids = np.full(n, -1, dtype=np.int64)
    language_ids = np.full(n, -1, dtype=np.int64)
    texts: list[str] = []
    datatype_table: list[str] = []
    datatype_index: dict[str, int] = {}
    language_table: list[str] = []
    language_index: dict[str, int] = {}
    for i, term in enumerate(terms):
        if isinstance(term, IRI):
            kinds[i] = TERM_IRI
            texts.append(term.value)
        elif isinstance(term, BNode):
            kinds[i] = TERM_BNODE
            texts.append(term.identifier)
        elif isinstance(term, Literal):
            kinds[i] = TERM_LITERAL
            value = term.value
            if isinstance(value, (bool, np.bool_)):
                vtags[i] = VTAG_BOOL
                texts.append("true" if value else "false")
            elif isinstance(value, (int, np.integer)):
                vtags[i] = VTAG_INT
                texts.append(str(int(value)))
            elif isinstance(value, (float, np.floating)):
                vtags[i] = VTAG_FLOAT
                texts.append(repr(float(value)))
            else:
                vtags[i] = VTAG_STR
                texts.append(value if isinstance(value, str) else str(value))
            if term.datatype is not None:
                code = datatype_index.get(term.datatype.value)
                if code is None:
                    code = len(datatype_table)
                    datatype_index[term.datatype.value] = code
                    datatype_table.append(term.datatype.value)
                datatype_ids[i] = code
            if term.language is not None:
                code = language_index.get(term.language)
                if code is None:
                    code = len(language_table)
                    language_index[term.language] = code
                    language_table.append(term.language)
                language_ids[i] = code
        else:
            raise StoreError(f"cannot serialize term of type {type(term).__name__}")
    sections = [
        ("term.knd", SECTION_ARRAY, DTYPE_U1, 0, kinds.tobytes(), n),
        ("term.txt", SECTION_STRINGS, DTYPE_NONE, 0, encode_string_table(texts), n),
        ("term.vtg", SECTION_ARRAY, DTYPE_U1, 0, vtags.tobytes(), n),
        ("term.dty", SECTION_ARRAY, DTYPE_I8, 0, _array_payload(datatype_ids, "<i8"), n),
        ("term.lng", SECTION_ARRAY, DTYPE_I8, 0, _array_payload(language_ids, "<i8"), n),
    ]
    return sections, datatype_table, language_table


def save_graph(graph: Graph, path: Path | str) -> Path:
    """Write ``graph``'s term table and three index orders to a store file at ``path``.

    The snapshot's three orderings are forced before writing, so the file
    captures the exact row orders of the live store's dict indexes;
    reopening replays those arrays into identical dict indexes, keeping the
    reference tier (and therefore every query result order) bit-identical
    across the save/open boundary.  The POS/OSP orderings are flagged
    derived: the salvage tier can rebuild a working store from the SPO
    arrays alone.  The block tables are not written; a reopened snapshot
    builds them from the orders on first use, as an unsaved one does.
    """
    columnar = graph.store.columnar()
    sections: list[tuple[str, int, int, int, bytes, int]] = []
    term_sections, datatype_table, language_table = _encode_terms(columnar.terms)
    sections += term_sections
    sections += [
        ("dty.tab", SECTION_STRINGS, DTYPE_NONE, 0, encode_string_table(datatype_table), len(datatype_table)),
        ("lng.tab", SECTION_STRINGS, DTYPE_NONE, 0, encode_string_table(language_table), len(language_table)),
    ]
    for index in ("spo", "pos", "osp"):
        flags = 0 if index == "spo" else FLAG_DERIVED
        for position, ids in zip("spo", columnar.order(index)):
            sections.append(
                (f"{index}.{position}", SECTION_ARRAY, DTYPE_I8, flags, _array_payload(ids, "<i8"), len(ids))
            )
    meta = {
        "payload": "graph",
        "identifier": graph.identifier,
        "prefixes": {prefix: namespace.prefix for prefix, namespace in graph.prefixes.items()},
        "n_triples": columnar.n_triples,
        "n_terms": len(columnar.terms),
        "bnode_counter": graph._bnode_counter,
    }
    sections.insert(0, _json_section(meta))
    return write_store(path, KIND_GRAPH, sections)
