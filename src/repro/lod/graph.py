"""A named LOD graph: a triple store plus namespace bindings and helpers."""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Any

from repro.lod.terms import IRI, BNode, Literal, Object, Subject, Triple, coerce_object
from repro.lod.triples import TripleStore
from repro.lod.vocabulary import DEFAULT_PREFIXES, Namespace, RDF, RDFS

#: Hoisted structural IRIs: every ``RDF.type`` / ``RDFS.label`` attribute
#: access constructs and validates a fresh IRI, which adds up on per-subject
#: helpers like :meth:`Graph.label`.
_RDF_TYPE = RDF.type
_RDFS_LABEL = RDFS.label


class Graph:
    """A Linked Open Data graph.

    Wraps a :class:`~repro.lod.triples.TripleStore` with:

    * a graph identifier (IRI string) so provenance can be tracked when
      multiple open data sources are integrated;
    * namespace prefix bindings used during Turtle serialisation;
    * convenience methods to describe resources (`add_resource`) and read
      back property values.
    """

    def __init__(self, identifier: str = "http://openbi.example.org/graph/default") -> None:
        """Create an empty graph named by ``identifier``."""
        self.identifier = identifier
        self.store = TripleStore()
        self._prefixes: dict[str, Namespace] = dict(DEFAULT_PREFIXES)
        self._bnode_counter = 0

    # -- namespaces ------------------------------------------------------------

    def bind(self, prefix: str, namespace: Namespace | str) -> None:
        """Bind a prefix to a namespace for serialisation."""
        if isinstance(namespace, str):
            namespace = Namespace(namespace)
        self._prefixes[prefix] = namespace

    @property
    def prefixes(self) -> dict[str, Namespace]:
        """A copy of the prefix → namespace bindings."""
        return dict(self._prefixes)

    # -- mutation ----------------------------------------------------------------

    def add(self, subject: Subject, predicate: IRI, obj: Any) -> Triple:
        """Add one triple; ``obj`` is coerced to an RDF term."""
        triple = Triple(subject, predicate, coerce_object(obj))
        self.store.add(triple)
        return triple

    def add_triple(self, triple: Triple) -> None:
        """Add an already-constructed triple."""
        self.store.add(triple)

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add many triples; return how many were new."""
        return self.store.update(triples)

    def remove(self, triple: Triple) -> bool:
        """Remove a triple if present; return whether something was removed."""
        return self.store.discard(triple)

    def new_bnode(self) -> BNode:
        """Return a fresh blank node unique within this graph."""
        self._bnode_counter += 1
        return BNode(f"b{self._bnode_counter}")

    def add_resource(
        self,
        subject: Subject,
        rdf_type: IRI | None = None,
        properties: Mapping[IRI, Any] | None = None,
        label: str | None = None,
    ) -> Subject:
        """Describe a resource: type, label and a set of property values.

        Property values may be single values or lists of values; each value is
        coerced to an RDF term.
        """
        if rdf_type is not None:
            self.add(subject, _RDF_TYPE, rdf_type)
        if label is not None:
            self.add(subject, _RDFS_LABEL, Literal(label))
        for predicate, value in (properties or {}).items():
            values = value if isinstance(value, (list, tuple, set)) else [value]
            for item in values:
                if item is None:
                    continue
                self.add(subject, predicate, item)
        return subject

    def merge(self, other: "Graph") -> int:
        """Merge another graph's triples (and prefixes) into this one."""
        for prefix, namespace in other.prefixes.items():
            self._prefixes.setdefault(prefix, namespace)
        return self.store.update(iter(other.store))

    # -- read access -----------------------------------------------------------------

    def __len__(self) -> int:
        """Number of triples in the graph."""
        return len(self.store)

    def __iter__(self):
        """Iterate over all triples."""
        return iter(self.store)

    def __contains__(self, triple: Triple) -> bool:
        """Whether the graph holds ``triple``."""
        return triple in self.store

    def triples(self, subject=None, predicate=None, obj=None):
        """Yield matching triples (``None`` positions are wildcards)."""
        return self.store.match(subject, predicate, obj)

    def subjects_of_type(self, rdf_type: IRI) -> list[Subject]:
        """All subjects declared with ``rdf:type rdf_type``."""
        return self.store.subjects(_RDF_TYPE, rdf_type)

    def properties_of(self, subject: Subject) -> dict[IRI, list[Object]]:
        """All (predicate → objects) pairs describing ``subject``."""
        result: dict[IRI, list[Object]] = {}
        for triple in self.store.match(subject, None, None):
            result.setdefault(triple.predicate, []).append(triple.object)
        return result

    def value(self, subject: Subject, predicate: IRI, default=None):
        """One object value for (subject, predicate), unwrapping literals."""
        obj = self.store.value(subject, predicate)
        if obj is None:
            return default
        return obj.python_value() if isinstance(obj, Literal) else obj

    def label(self, subject: Subject) -> str | None:
        """The ``rdfs:label`` of a subject, if any."""
        value = self.value(subject, _RDFS_LABEL)
        return str(value) if value is not None else None

    def types(self) -> dict[IRI, int]:
        """Histogram of rdf:type → number of instances in the graph."""
        counts: dict[IRI, int] = {}
        for triple in self.store.match(None, _RDF_TYPE, None):
            if isinstance(triple.object, IRI):
                counts[triple.object] = counts.get(triple.object, 0) + 1
        return counts

    def predicates_histogram(self) -> dict[IRI, int]:
        """Histogram of predicate → usage count (a proxy for dimensionality)."""
        counts: dict[IRI, int] = {}
        for triple in self.store:
            counts[triple.predicate] = counts.get(triple.predicate, 0) + 1
        return counts

    def copy(self, identifier: str | None = None) -> "Graph":
        """Return an independent copy (optionally under a new identifier)."""
        clone = Graph(identifier or self.identifier)
        clone._prefixes = dict(self._prefixes)
        clone.store = self.store.copy()
        clone._bnode_counter = self._bnode_counter
        return clone

    # -- persistence -----------------------------------------------------------------

    def save(self, path):
        """Write this graph and its columnar snapshot to a binary store file.

        The file (format: ``docs/store-format.md``) captures the interned
        term table and all three index orderings, so :meth:`open` can
        memory-map the snapshot back without re-interning; the block tables
        are built from the orderings on first use.  Returns the path written.
        """
        from repro.store import save_graph

        return save_graph(self, path)

    @classmethod
    def open(cls, path, verify: bool = False) -> "Graph":
        """Open a graph store file as zero-copy memory-mapped views.

        The returned graph carries a pre-wired
        :class:`~repro.lod.triples.ColumnarTriples` snapshot, so vectorized
        queries run without any per-triple Python; the reference-tier dict
        indexes replay lazily from the saved arrays in their exact original
        iteration order, keeping every result bit-identical to the graph
        that was saved.  ``verify=True`` checksums every array section up
        front.
        """
        from repro.store import open_graph

        return open_graph(path, verify=verify)

    def close(self) -> None:
        """Release the memory-mapped store file backing this graph, if any.

        Graphs returned by :meth:`open` keep the store's memory map (and
        its file descriptor) alive; ``close()`` releases both so the
        ``.rps`` file can be replaced and the descriptor returned to the
        OS.  Afterwards the graph — and every zero-copy view sliced from
        its columnar snapshot — must no longer be used.  For in-memory
        graphs this is a no-op.
        """
        store_file = self.__dict__.pop("_store_file", None)
        if store_file is not None:
            store_file.close()
