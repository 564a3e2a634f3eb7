"""Pivot a LOD graph into a tabular dataset ready for mining.

This is the bridge between the LOD substrate and the KDD pipeline: every
instance of a chosen class becomes a row, every predicate used on those
instances becomes a column.  Because LOD describes entities with many loosely
structured properties, the resulting dataset is naturally *high-dimensional*
and *sparse* — exactly the situation the paper identifies as the hard case for
non-expert data miners (§1).

Assembly follows the two-tier protocol (``docs/encoded-core.md``):

* the **reference tier** builds row dictionaries cell by cell through the
  store's dict indexes and hands them to ``Dataset.from_rows``
  (:func:`_tabulate_rows_reference`);
* the **columnar tier** (default) cuts each property column directly out of
  the interned id arrays of :class:`~repro.lod.triples.ColumnarTriples`,
  converts and codes each *distinct* object term once, and gathers every
  column's codes from the per-cell distinct indices, so the downstream
  pipeline (quality profile → advisor → mining → cube) reads the codes the
  tabulation built instead of coding cells again.

Both tiers produce bit-identical datasets (cells, column order, ctypes,
roles); inside :func:`repro.tiers.reference` ``tabulate_entities`` runs the
reference tier.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import LODError
from repro.lod.graph import Graph
from repro.lod.terms import IRI, BNode, Literal, Object
from repro.lod.vocabulary import OWL, RDF, RDFS
from repro.tabular.dataset import Column, ColumnRole, Dataset
from repro.tabular.encoded import distinct_sorted
from repro.tiers import use_reference


#: Predicates that never become property columns (hoisted: every Namespace
#: attribute access constructs and validates a fresh IRI).
_STRUCTURAL_PREDICATES = (RDF.type, RDFS.label, OWL.sameAs)


def _object_to_cell(obj: Object):
    """Convert an RDF object term to a tabular cell value."""
    if isinstance(obj, Literal):
        return obj.python_value()
    if isinstance(obj, IRI):
        return obj.local_name()
    if isinstance(obj, BNode):
        return str(obj)
    return None


def _column_name(predicate: IRI, graph: Graph) -> str:
    """Column name for a predicate: its label when present, else its local name."""
    label = graph.label(predicate)
    if label:
        return label.strip().replace(" ", "_").lower()
    return predicate.local_name()


def tabulate_entities(
    graph: Graph,
    rdf_type: IRI,
    properties: Sequence[IRI] | None = None,
    include_subject: bool = True,
    multivalued: str = "first",
    follow_same_as: bool = True,
    min_property_coverage: float = 0.0,
) -> Dataset:
    """Build a :class:`~repro.tabular.dataset.Dataset` from the instances of a class.

    Parameters
    ----------
    graph:
        The LOD graph to pivot.
    rdf_type:
        Class whose instances become rows.
    properties:
        Predicates to use as columns; default is every predicate observed on
        the instances (excluding ``rdf:type`` and ``rdfs:label``).
    include_subject:
        When ``True`` (default), a ``subject`` identifier column is included
        with the :class:`~repro.tabular.dataset.ColumnRole.IDENTIFIER` role.
    multivalued:
        ``"first"`` keeps one value per (row, column); ``"count"`` stores the
        number of values instead.
    follow_same_as:
        When ``True``, properties of ``owl:sameAs``-linked resources are merged
        into the row of the canonical resource (data integration step).
    min_property_coverage:
        Drop auto-discovered property columns present on fewer than this
        fraction of rows (mitigates extreme sparsity); explicit ``properties``
        are never dropped.

    Property discovery and assembly run on the columnar tier, or on the
    row-at-a-time reference tier inside :func:`repro.tiers.reference`; the
    result is bit-identical either way.
    """
    if multivalued not in ("first", "count"):
        raise LODError(f"unknown multivalued policy {multivalued!r}")
    subjects = graph.subjects_of_type(rdf_type)
    if not subjects:
        raise LODError(f"no instances of {rdf_type} in the graph")

    # Merge owl:sameAs equivalents into their canonical (first-listed) subject.
    merged_from: dict = {s: [s] for s in subjects}
    same_as = _STRUCTURAL_PREDICATES[2]
    if follow_same_as and graph.store.predicate_in_use(same_as):
        canonical = set(subjects)
        for subject in subjects:
            for obj in graph.store.objects(subject, same_as):
                if isinstance(obj, (IRI, BNode)) and obj not in canonical:
                    merged_from[subject].append(obj)

    reference = use_reference()
    if properties is None:
        if reference:
            properties = _discover_properties_rows(graph, subjects, merged_from, min_property_coverage)
        else:
            properties = _discover_properties_columnar(graph, subjects, merged_from, min_property_coverage)
    if not properties:
        raise LODError("no properties found to tabulate")

    names: dict[IRI, str] = {}
    for predicate in properties:
        base = _column_name(predicate, graph)
        name = base
        suffix = 2
        while name in names.values():
            name = f"{base}_{suffix}"
            suffix += 1
        names[predicate] = name

    # The reference tier lets a property column literally named "subject" or
    # "label" collide with the built-in row keys; keep that (odd) semantics
    # by routing such tabulations through the reference.
    collision = any(name in ("subject", "label") for name in names.values())
    if reference or collision:
        return _tabulate_rows_reference(
            graph, subjects, merged_from, properties, names, include_subject, multivalued, rdf_type
        )
    return _tabulate_encoded(
        graph, subjects, merged_from, properties, names, include_subject, multivalued, rdf_type
    )


def _coverage_filter(
    discovered: dict[IRI, int], n_subjects: int, min_property_coverage: float
) -> list[IRI]:
    """Order discovered predicates by (-coverage, IRI) and apply the floor."""
    return [
        p
        for p, covered in sorted(discovered.items(), key=lambda kv: (-kv[1], str(kv[0])))
        if covered / n_subjects >= min_property_coverage
    ]


def _discover_properties_rows(
    graph: Graph, subjects: Sequence, merged_from: dict, min_property_coverage: float
) -> list[IRI]:
    """Reference discovery: count predicate coverage source by source."""
    discovered: dict[IRI, int] = {}
    for subject in subjects:
        for source in merged_from[subject]:
            for predicate in graph.store.predicates(source):
                if predicate in _STRUCTURAL_PREDICATES:
                    continue
                discovered[predicate] = discovered.get(predicate, 0) + 1
    return _coverage_filter(discovered, len(subjects), min_property_coverage)


def _discover_properties_columnar(
    graph: Graph, subjects: Sequence, merged_from: dict, min_property_coverage: float
) -> list[IRI]:
    """Columnar discovery: coverage counts from the interned (subject, predicate) pairs.

    Produces exactly the list of :func:`_discover_properties_rows` — the
    count of a predicate is the number of (row, source) occurrences whose
    source uses it, and the final ``sorted`` by ``(-count, str)`` is a total
    order, so the two tiers cannot disagree on order.
    """
    columnar = graph.store.columnar()
    n_terms = len(columnar.terms)
    s_arr, p_arr, _ = columnar.order("spo")
    if s_arr.size == 0:
        return []
    source_occurrences = np.zeros(n_terms, dtype=np.int64)
    for subject in subjects:
        for source in merged_from[subject]:
            source_occurrences[columnar.term_id(source)] += 1
    pairs = distinct_sorted(s_arr * np.int64(n_terms) + p_arr)
    pair_subjects = pairs // n_terms
    pair_predicates = pairs % n_terms
    counts = np.bincount(
        pair_predicates, weights=source_occurrences[pair_subjects], minlength=n_terms
    ).astype(np.int64)
    structural = {columnar.term_id(p) for p in _STRUCTURAL_PREDICATES}
    discovered = {
        columnar.terms[pid]: int(counts[pid])
        for pid in np.flatnonzero(counts).tolist()
        if pid not in structural
    }
    return _coverage_filter(discovered, len(subjects), min_property_coverage)


def _tabulate_rows_reference(
    graph: Graph,
    subjects: Sequence,
    merged_from: dict,
    properties: Sequence[IRI],
    names: dict[IRI, str],
    include_subject: bool,
    multivalued: str,
    rdf_type: IRI,
) -> Dataset:
    """Reference tier: build row dictionaries cell by cell via the dict indexes."""
    rows = []
    for subject in subjects:
        row: dict = {}
        if include_subject:
            row["subject"] = str(subject)
        label = graph.label(subject)
        if label is not None:
            row["label"] = label
        for predicate in properties:
            values: list = []
            for source in merged_from[subject]:
                values.extend(graph.store.objects(source, predicate))
            if not values:
                row[names[predicate]] = None
            elif multivalued == "count":
                row[names[predicate]] = float(len(values))
            else:
                row[names[predicate]] = _object_to_cell(values[0])
        rows.append(row)

    roles = {"subject": ColumnRole.IDENTIFIER} if include_subject else {}
    return Dataset.from_rows(rows, name=rdf_type.local_name(), roles=roles)


def _tabulate_encoded(
    graph: Graph,
    subjects: Sequence,
    merged_from: dict,
    properties: Sequence[IRI],
    names: dict[IRI, str],
    include_subject: bool,
    multivalued: str,
    rdf_type: IRI,
) -> Dataset:
    """Columnar tier: cut property columns out of the interned id arrays.

    For each property the SPO-ordered id columns yield, per subject, the
    first object and the object count in exactly the order the reference
    tier's ``objects()`` calls observe; ``owl:sameAs`` sources are resolved
    through one flattened (row, source) table.  Distinct object terms are
    converted to cells — and coerced and coded by :meth:`Column.from_distinct`
    — once per distinct value, so each column comes out holding its codes.
    """
    columnar = graph.store.columnar()
    terms = columnar.terms
    n_rows = len(subjects)
    n_terms = len(terms)
    s_arr, p_arr, o_arr = columnar.order("spo")

    # Flatten the merged sources into (source id, owning row) arrays; rows
    # keep their sources in merged_from order so "first value wins" matches.
    flat_src: list[int] = []
    flat_row: list[int] = []
    for row, subject in enumerate(subjects):
        for source in merged_from[subject]:
            flat_src.append(columnar.term_id(source))
            flat_row.append(row)
    src_ids = np.asarray(flat_src, dtype=np.int64)
    src_row = np.asarray(flat_row, dtype=np.intp)

    labels = [graph.label(subject) for subject in subjects]
    has_any_label = any(label is not None for label in labels)

    # Replicate Dataset.from_rows' first-seen column order: "label" sits
    # right after "subject" when the first row carries one, and only appears
    # after the property columns otherwise.  Each column is either a plain
    # cell list or a ("distinct", cells, inverse) spec for Column.from_distinct.
    column_specs: dict[str, tuple] = {}
    if include_subject:
        column_specs["subject"] = ("values", [str(subject) for subject in subjects])
    if labels[0] is not None:
        column_specs["label"] = ("values", labels)

    for predicate in properties:
        name = names[predicate]
        pid = columnar.term_id(predicate)
        if pid < 0:  # predicate never used in the graph: an all-missing column
            column_specs[name] = ("distinct", [None], np.zeros(n_rows, dtype=np.intp))
            continue
        selector = p_arr == pid
        sub_s = s_arr[selector]
        sub_o = o_arr[selector]
        # Rows for one (subject, predicate) are contiguous in SPO order, so
        # first occurrence/count per subject mirror objects(source, predicate).
        present, first_at, n_objects = np.unique(sub_s, return_index=True, return_counts=True)
        count_of = np.zeros(n_terms, dtype=np.int64)
        count_of[present] = n_objects
        first_of = np.zeros(n_terms, dtype=np.int64)
        first_of[present] = first_at
        src_counts = count_of[src_ids]
        if multivalued == "count":
            totals = np.bincount(src_row, weights=src_counts, minlength=n_rows).astype(np.int64)
            distinct_totals, inverse = np.unique(totals, return_inverse=True)
            cells = [None if total == 0 else float(total) for total in distinct_totals.tolist()]
            column_specs[name] = ("distinct", cells, inverse.reshape(-1))
            continue
        # First source (in merged order) holding any value wins; assigning in
        # reverse makes the earliest flattened position the survivor.
        holders = np.flatnonzero(src_counts > 0)
        first_holder = np.full(n_rows, -1, dtype=np.int64)
        first_holder[src_row[holders[::-1]]] = holders[::-1]
        value_ids = np.full(n_rows, -1, dtype=np.int64)
        filled = np.flatnonzero(first_holder >= 0)
        if filled.size:
            value_ids[filled] = sub_o[first_of[src_ids[first_holder[filled]]]]
        distinct_ids, inverse = np.unique(value_ids, return_inverse=True)
        inverse = inverse.reshape(-1)
        cells = [
            None if oid < 0 else _object_to_cell(terms[oid]) for oid in distinct_ids.tolist()
        ]
        column_specs[name] = ("distinct", cells, inverse)

    if has_any_label and labels[0] is None:
        column_specs["label"] = ("values", labels)

    roles = {"subject": ColumnRole.IDENTIFIER} if include_subject else {}
    columns = []
    for name, spec in column_specs.items():
        role = roles.get(name, ColumnRole.FEATURE)
        if spec[0] == "distinct":
            columns.append(Column.from_distinct(name, spec[1], spec[2], role=role))
        else:
            columns.append(Column(name, spec[1], role=role))
    return Dataset(columns, name=rdf_type.local_name())


def dimensionality_report(graph: Graph, rdf_type: IRI) -> dict[str, float]:
    """Summarise how high-dimensional and sparse the tabulation of a class would be."""
    subjects = graph.subjects_of_type(rdf_type)
    if not subjects:
        raise LODError(f"no instances of {rdf_type} in the graph")
    predicates: dict[IRI, int] = {}
    total_cells = 0
    structural = set(_STRUCTURAL_PREDICATES)
    for subject in subjects:
        used = set(graph.store.predicates(subject)) - structural
        total_cells += len(used)
        for predicate in used:
            predicates[predicate] = predicates.get(predicate, 0) + 1
    n_rows = len(subjects)
    n_cols = len(predicates)
    density = total_cells / (n_rows * n_cols) if n_rows and n_cols else 0.0
    return {
        "n_entities": float(n_rows),
        "n_properties": float(n_cols),
        "density": float(density),
        "sparsity": float(1.0 - density),
    }
