"""Indexed in-memory triple store with a lazily interned columnar tier.

The store maintains three hash indexes (SPO, POS, OSP) so that any triple
pattern with at least one bound position is answered without a full scan.
This is the storage layer underneath :class:`repro.lod.graph.Graph`.

On top of the dict indexes — which remain the reference tier — the store can
materialise a :class:`ColumnarTriples` snapshot: every distinct RDF term is
interned into an ``int64`` id and the triples become three parallel id
arrays, laid out in the exact iteration order of each dict index.  The
vectorized query join (:mod:`repro.lod.query`) and the direct-to-encoded
tabulation (:mod:`repro.lod.tabulate`) run over these arrays.  The snapshot
is built lazily on first use and invalidated whenever a mutation actually
changes the store, so reads between mutations share one build.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable, Iterator

import numpy as np

from repro.exceptions import LODError
from repro.lod.terms import Object, Predicate, Subject, Triple


class ColumnarTriples:
    """An interned, columnar snapshot of one :class:`TripleStore` state.

    ``terms`` lists every distinct term in first-interned order and
    ``term_ids`` inverts it; a term's id is its position in ``terms``.  For
    each dict index of the store (``"spo"``, ``"pos"``, ``"osp"``) the
    snapshot holds three parallel ``int64`` arrays ``(s_ids, p_ids, o_ids)``
    whose row order is **exactly** the iteration order of that index's nested
    dicts.  This is what lets the vectorized query join reproduce
    the row order of the reference binding-at-a-time matcher bit for bit:
    filtering the arrays of the index the reference would have consulted
    yields matches in the same sequence the reference yields them.

    Within each ordering the rows sharing the primary key (subject for SPO,
    predicate for POS, object for OSP) are contiguous, so per-key candidate
    ranges are resolved with one :func:`numpy.searchsorted` over the block
    table instead of per-binding dict lookups.

    The SPO ordering (which also interns the terms) is built eagerly; the
    POS and OSP orderings are materialised on first use, so consumers that
    only scan in SPO order (tabulation, full scans) never pay for them.
    The owning store drops its cached snapshot on every mutation, so code
    that re-fetches ``store.columnar()`` per operation (as the query engine
    and tabulation do) always sees fresh data; a snapshot *held across* a
    mutation is stale, and materialising one of its remaining orderings
    then raises :class:`~repro.exceptions.LODError` rather than silently
    mixing the frozen term table with the mutated dict indexes.  Callers
    must not modify the returned arrays.

    The store owns its snapshot; the snapshot refers back to the store only
    weakly, so a dropped store and its arrays are freed by reference
    counting rather than by the cyclic garbage collector.  A snapshot that
    outlives its store keeps serving the orderings it already holds, and
    materialising a missing one raises the stale-snapshot error.
    """

    __slots__ = ("terms", "term_ids", "_store", "_orders", "_blocks")

    #: Which of the three id columns is the contiguous primary key per ordering.
    _PRIMARY = {"spo": 0, "pos": 1, "osp": 2}

    def __init__(self, store: "TripleStore") -> None:
        """Intern every term of ``store`` and lay its triples out columnar."""
        term_ids: dict[Object, int] = {}
        s_col: list[int] = []
        p_col: list[int] = []
        o_col: list[int] = []
        for s, by_predicate in store._spo.items():
            s_code = term_ids.setdefault(s, len(term_ids))
            for p, objects in by_predicate.items():
                p_code = term_ids.setdefault(p, len(term_ids))
                o_codes = [term_ids.setdefault(o, len(term_ids)) for o in objects]
                s_col += [s_code] * len(o_codes)
                p_col += [p_code] * len(o_codes)
                o_col += o_codes
        spo = tuple(np.asarray(col, dtype=np.int64) for col in (s_col, p_col, o_col))

        self.terms = list(term_ids)
        self.term_ids = term_ids
        self._store = weakref.ref(store)
        self._orders: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {"spo": spo}
        self._blocks: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    @property
    def n_triples(self) -> int:
        """Number of triples in the snapshot."""
        return int(self._orders["spo"][0].shape[0])

    def order(self, index: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(s_ids, p_ids, o_ids)`` in the iteration order of dict index ``index``."""
        cached = self._orders.get(index)
        if cached is None:
            cached = self._build_order(index)
            self._orders[index] = cached
        return cached

    def _build_order(self, index: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Materialise the POS or OSP ordering from the store's dict indexes."""
        store = self._store()
        if store is None or store._columnar is not self:
            raise LODError(
                "stale ColumnarTriples snapshot: the store was mutated or dropped after "
                "this snapshot was taken; call store.columnar() again for a fresh one"
            )
        term_ids = self.term_ids
        s_col: list[int] = []
        p_col: list[int] = []
        o_col: list[int] = []
        if index == "pos":
            for p, by_object in store._pos.items():
                p_code = term_ids[p]
                for o, subjects in by_object.items():
                    s_codes = [term_ids[s] for s in subjects]
                    s_col += s_codes
                    p_col += [p_code] * len(s_codes)
                    o_col += [term_ids[o]] * len(s_codes)
        elif index == "osp":
            for o, by_subject in store._osp.items():
                o_code = term_ids[o]
                for s, predicates in by_subject.items():
                    p_codes = [term_ids[p] for p in predicates]
                    s_col += [term_ids[s]] * len(p_codes)
                    p_col += p_codes
                    o_col += [o_code] * len(p_codes)
        else:
            raise KeyError(index)
        return tuple(np.asarray(col, dtype=np.int64) for col in (s_col, p_col, o_col))

    def term_id(self, term) -> int:
        """The interned id of ``term``, or ``-1`` when it is not in the store."""
        return self.term_ids.get(term, -1)

    def _block_table(self, index: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(keys, starts, ends)`` of the primary-key runs, sorted by key id."""
        cached = self._blocks.get(index)
        if cached is None:
            primary = self._orders[index][self._PRIMARY[index]]
            if primary.size == 0:
                empty = np.empty(0, dtype=np.int64)
                cached = (empty, empty, empty)
            else:
                boundaries = np.flatnonzero(primary[1:] != primary[:-1]) + 1
                starts = np.concatenate(([0], boundaries))
                ends = np.concatenate((boundaries, [primary.size]))
                keys = primary[starts]
                by_key = np.argsort(keys)  # primary runs are unique per key
                cached = (keys[by_key], starts[by_key], ends[by_key])
            self._blocks[index] = cached
        return cached

    def block_ranges(self, index: str, key_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-key ``(lo, hi)`` candidate ranges in the ``index`` ordering.

        Keys absent from the primary column (including ``-1`` for terms not in
        the store) resolve to the empty range ``(0, 0)``.
        """
        keys, starts, ends = self._block_table(index)
        key_ids = np.asarray(key_ids, dtype=np.int64)
        if keys.size == 0:
            zeros = np.zeros(key_ids.shape, dtype=np.int64)
            return zeros, zeros.copy()
        found_at = np.minimum(np.searchsorted(keys, key_ids), keys.size - 1)
        found = keys[found_at] == key_ids
        return np.where(found, starts[found_at], 0), np.where(found, ends[found_at], 0)


class TripleStore:
    """A set of triples with SPO / POS / OSP indexes.

    The store behaves like a set: adding the same triple twice keeps one copy.
    Every level of the three indexes is an insertion-ordered dict (the leaves
    are ``dict[X, None]``), so iteration order — and therefore the row order
    of every reference-tier scan and of the columnar snapshot built from it —
    is a deterministic function of the store's mutation history.  That
    determinism is what lets the on-disk store (:mod:`repro.store`) replay a
    saved snapshot's arrays back into identical dict indexes on reopen.
    """

    def __init__(self, triples: Iterable[Triple] | None = None) -> None:
        """Create a store, optionally filled from an iterable of triples."""
        self._spo: dict[Subject, dict[Predicate, dict[Object, None]]] = {}
        self._pos: dict[Predicate, dict[Object, dict[Subject, None]]] = {}
        self._osp: dict[Object, dict[Subject, dict[Predicate, None]]] = {}
        self._size = 0
        self._columnar: ColumnarTriples | None = None
        if triples:
            for triple in triples:
                self.add(triple)

    # -- mutation ------------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        """Add a triple; return ``True`` if it was not present before."""
        if not isinstance(triple, Triple):
            raise LODError("TripleStore.add expects a Triple")
        s, p, o = triple.as_tuple()
        bucket = self._spo.setdefault(s, {}).setdefault(p, {})
        if o in bucket:
            return False
        bucket[o] = None
        self._pos.setdefault(p, {}).setdefault(o, {})[s] = None
        self._osp.setdefault(o, {}).setdefault(s, {})[p] = None
        self._size += 1
        self._columnar = None
        return True

    def discard(self, triple: Triple) -> bool:
        """Remove a triple if present; return ``True`` when something was removed."""
        s, p, o = triple.as_tuple()
        bucket = self._spo.get(s, {}).get(p)
        if not bucket or o not in bucket:
            return False
        del bucket[o]
        if not bucket:
            del self._spo[s][p]
            if not self._spo[s]:
                del self._spo[s]
        del self._pos[p][o][s]
        if not self._pos[p][o]:
            del self._pos[p][o]
            if not self._pos[p]:
                del self._pos[p]
        del self._osp[o][s][p]
        if not self._osp[o][s]:
            del self._osp[o][s]
            if not self._osp[o]:
                del self._osp[o]
        self._size -= 1
        self._columnar = None
        return True

    def update(self, triples: Iterable[Triple]) -> int:
        """Add many triples; return how many were new."""
        return sum(1 for t in triples if self.add(t))

    # -- inspection ------------------------------------------------------------

    def __len__(self) -> int:
        """Number of stored triples."""
        return self._size

    def __contains__(self, triple: Triple) -> bool:
        """Whether the store holds ``triple``."""
        s, p, o = triple.as_tuple()
        return o in self._spo.get(s, {}).get(p, ())

    def __iter__(self) -> Iterator[Triple]:
        """Iterate over all triples in SPO index order."""
        for s, by_predicate in self._spo.items():
            for p, objects in by_predicate.items():
                for o in objects:
                    yield Triple(s, p, o)

    def match(
        self,
        subject: Subject | None = None,
        predicate: Predicate | None = None,
        object: Object | None = None,
    ) -> Iterator[Triple]:
        """Yield every triple matching the pattern; ``None`` is a wildcard.

        The most selective index available for the bound positions is used.
        """
        s, p, o = subject, predicate, object
        if s is not None:
            by_predicate = self._spo.get(s, {})
            predicates = [p] if p is not None else list(by_predicate)
            for pred in predicates:
                for obj in by_predicate.get(pred, ()):
                    if o is None or obj == o:
                        yield Triple(s, pred, obj)
            return
        if p is not None:
            by_object = self._pos.get(p, {})
            objects = [o] if o is not None else list(by_object)
            for obj in objects:
                for subj in by_object.get(obj, ()):
                    yield Triple(subj, p, obj)
            return
        if o is not None:
            by_subject = self._osp.get(o, {})
            for subj, predicates in by_subject.items():
                for pred in predicates:
                    yield Triple(subj, pred, o)
            return
        yield from iter(self)

    def subjects(self, predicate: Predicate | None = None, object: Object | None = None) -> list[Subject]:
        """Distinct subjects of triples matching the (predicate, object) pattern."""
        if predicate is not None and object is not None:
            # Fast path: the POS bucket lists exactly these subjects, in the
            # same insertion order the match() scan would visit them.
            return list(self._pos.get(predicate, {}).get(object, ()))
        seen: dict[Subject, None] = {}
        for triple in self.match(None, predicate, object):
            seen.setdefault(triple.subject, None)
        return list(seen)

    def predicates(self, subject: Subject | None = None) -> list[Predicate]:
        """Distinct predicates used (optionally restricted to one subject)."""
        if subject is not None:
            # Fast path: the SPO bucket's keys are the distinct predicates in
            # match() order, without materialising a Triple per cell.
            return list(self._spo.get(subject, ()))
        seen: dict[Predicate, None] = {}
        for triple in self.match(subject, None, None):
            seen.setdefault(triple.predicate, None)
        return list(seen)

    def objects(self, subject: Subject | None = None, predicate: Predicate | None = None) -> list[Object]:
        """Distinct objects of triples matching the (subject, predicate) pattern."""
        if subject is not None and predicate is not None:
            # Fast path: the SPO bucket holds exactly these objects, in the
            # same insertion order the match() scan would yield them.
            return list(self._spo.get(subject, {}).get(predicate, ()))
        seen: dict[Object, None] = {}
        for triple in self.match(subject, predicate, None):
            seen.setdefault(triple.object, None)
        return list(seen)

    def value(self, subject: Subject, predicate: Predicate, default=None):
        """Return one object for (subject, predicate), or ``default`` when absent."""
        for obj in self._spo.get(subject, {}).get(predicate, ()):
            return obj
        return default

    def predicate_in_use(self, predicate: Predicate) -> bool:
        """Whether any triple uses ``predicate`` (one dict probe, no scan)."""
        return predicate in self._pos

    def columnar(self) -> ColumnarTriples:
        """The interned columnar snapshot of the current store state.

        Built lazily on first use and cached until the next mutation; see
        :class:`ColumnarTriples` for the layout guarantees.
        """
        if self._columnar is None:
            self._columnar = ColumnarTriples(self)
        return self._columnar

    def copy(self) -> "TripleStore":
        """Return an independent store holding the same triples."""
        return TripleStore(iter(self))
