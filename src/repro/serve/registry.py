"""Immutable snapshots of opened stores, swapped atomically.

The serving tier never computes on mutable state.  A :class:`Snapshot`
couples one opened store payload (a memory-mapped ``Dataset`` or
``Graph``) with its content fingerprint; the payload is treated as
immutable for the snapshot's whole life (memmap views are read-only, and
nothing in the read paths mutates a dataset or graph).  The
:class:`SnapshotRegistry` maps names to current snapshots and supports
exactly one mutation, :meth:`SnapshotRegistry.swap`, with
**publish-then-retire** semantics:

1. the replacement store is opened and fingerprinted *first* (failures
   leave the registry untouched — the old snapshot keeps serving);
2. the name is rebound to the new snapshot in one dictionary assignment
   under the registry lock, so a request either sees the old snapshot or
   the new one, never a half-open in-between;
3. the old snapshot is *retired*: its backing store file is closed only
   once the last in-flight request holding a lease on it finishes, so a
   swap can never tear a response out from under a reader.

Between steps 1 and 2, holding a lease on the retiring snapshot, a swap of
a dataset name runs the structural append check
(:func:`repro.feeds.appended_rows`): a replacement that starts with the
retiring rows byte for byte records how many rows it appends, which the
server uses to advance its recurring queries instead of recomputing them
(docs/serving.md, "Appended snapshots").  A swap never changes a name's
kind: a store of the other kind is refused with the old snapshot still
serving.

Requests access snapshots through :meth:`SnapshotRegistry.lease`, which
pins the snapshot (and its open memory map) for the duration of the
request.  Cache correctness across swaps needs no locking at all: result
caches are keyed by fingerprint (:mod:`repro.serve.cache`), and a request
uses the fingerprint of the snapshot it leased, so post-swap requests
look up under the new fingerprint and retired results are unreachable.
"""

from __future__ import annotations

import contextlib
import threading
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.exceptions import ServeError
from repro.feeds.append import appended_rows
from repro.serve.fingerprint import fingerprint_payload
from repro.store import open_dataset, open_graph
from repro.store.format import KIND_DATASET, StoreFile


def open_snapshot_payload(path: Path | str) -> tuple[Any, str]:
    """Open the store at ``path`` as a payload; return ``(payload, kind)``.

    The payload kind is probed from the store header (the probe's map is
    released immediately), then the matching open routine memory-maps the
    real payload.  ``kind`` is ``"dataset"`` or ``"graph"``.
    """
    with StoreFile(path) as probe:
        kind = probe.kind
    if kind == KIND_DATASET:
        return open_dataset(path), "dataset"
    return open_graph(path), "graph"


class Snapshot:
    """One immutable opened store: payload + fingerprint + lease count.

    Snapshots are created by the registry and handed to requests through
    leases.  ``generation`` is a per-name counter (1 for the first
    snapshot published under a name, +1 per swap) and ``appended_rows`` the
    number of rows this snapshot appends to the one it replaced (``None``
    when it is not such an append) — diagnostics for the ``/snapshots``
    endpoint, never part of any cache key.
    """

    def __init__(self, name: str, path: Path, payload: Any, kind: str,
                 fingerprint: str, generation: int) -> None:
        """Record the snapshot's identity; starts unretired with no leases."""
        self.name = name
        self.path = path
        self.payload = payload
        self.kind = kind
        self.fingerprint = fingerprint
        self.generation = generation
        self.appended_rows: int | None = None
        self._lock = threading.Lock()
        self._leases = 0
        self._retired = False
        self._closed = False

    @property
    def closed(self) -> bool:
        """Whether the backing store file has been released."""
        with self._lock:
            return self._closed

    def acquire(self) -> "Snapshot":
        """Pin the snapshot for an in-flight request; returns ``self``."""
        with self._lock:
            if self._closed:
                raise ServeError(f"snapshot {self.name!r} ({self.fingerprint}) is closed")
            self._leases += 1
        return self

    def release(self) -> None:
        """Drop one lease; a retired snapshot closes when the last one drops."""
        with self._lock:
            self._leases -= 1
            should_close = self._retired and self._leases <= 0 and not self._closed
            if should_close:
                self._closed = True
        if should_close:
            self.payload.close()

    def retire(self) -> None:
        """Mark the snapshot replaced; close now if no request holds it."""
        with self._lock:
            self._retired = True
            should_close = self._leases <= 0 and not self._closed
            if should_close:
                self._closed = True
        if should_close:
            self.payload.close()

    def describe(self) -> dict[str, Any]:
        """JSON-serialisable summary for the ``/snapshots`` endpoint."""
        size = (
            {"n_rows": self.payload.n_rows, "n_columns": self.payload.n_columns}
            if self.kind == "dataset"
            else {"n_triples": len(self.payload)}
        )
        return {
            "name": self.name,
            "kind": self.kind,
            "path": str(self.path),
            "fingerprint": self.fingerprint,
            "generation": self.generation,
            "appended_rows": self.appended_rows,
            **size,
        }


class SnapshotRegistry:
    """Name → current :class:`Snapshot`, with atomic publish-then-retire swaps."""

    def __init__(self) -> None:
        """Create an empty registry."""
        self._lock = threading.Lock()
        self._snapshots: dict[str, Snapshot] = {}
        #: Bumped whenever a name is added or removed: the only changes
        #: that can alter which snapshot a query that names none resolves
        #: to (:meth:`default_name`), since a swap never changes a kind.
        self.layout = 0

    def publish(self, name: str, path: Path | str) -> Snapshot:
        """Open the store at ``path`` and bind it under ``name``.

        Publishing over an existing name is a :meth:`swap`; publishing a
        fresh name installs generation 1.  The open happens *before* the
        registry changes, so a corrupt file never disturbs what is being
        served.
        """
        return self._install(name, Path(path))

    def swap(self, name: str, path: Path | str | None = None,
             before_publish: Callable[[Snapshot, Snapshot], None] | None = None) -> Snapshot:
        """Atomically replace ``name``'s snapshot; return the new one.

        With no ``path`` the snapshot's current file is reopened (picking
        up an in-place rewrite); with a ``path`` the name is repointed at
        a different store file.  The old snapshot is retired — closed as
        soon as the last in-flight lease on it drains.  A store of the
        other kind raises :class:`ServeError` and leaves the old snapshot
        serving.  ``before_publish(old, new)``, when given, runs after the
        append check and before the new snapshot is published, while the
        old one is leased; if it raises, nothing is published.
        """
        current = self.get(name)
        return self._install(name, Path(path) if path is not None else current.path, before_publish)

    def _install(self, name: str, path: Path,
                 before_publish: Callable[[Snapshot, Snapshot], None] | None = None) -> Snapshot:
        """Open ``path``, fingerprint it, check it against ``name``'s snapshot, and rebind ``name``."""
        payload, kind = open_snapshot_payload(path)
        try:
            with self._lock:
                old = self._snapshots.get(name)
            if old is not None and old.kind != kind:
                raise ServeError(
                    f"cannot swap {name!r} to {path}: it serves a {old.kind} snapshot, "
                    f"and that store holds a {kind}"
                )
            generation = old.generation + 1 if old is not None else 1
            snapshot = Snapshot(name, path, payload, kind, fingerprint_payload(payload), generation)
            if old is not None:
                # The lease keeps a concurrent swap from closing ``old`` mid-compare.
                old.acquire()
                try:
                    if kind == "dataset" and snapshot.fingerprint != old.fingerprint:
                        snapshot.appended_rows = appended_rows(old.payload, payload)
                    if before_publish is not None:
                        before_publish(old, snapshot)
                finally:
                    old.release()
        except BaseException:
            payload.close()
            raise
        with self._lock:
            old = self._snapshots.get(name)
            self._snapshots[name] = snapshot
            if old is None:
                self.layout += 1
        if old is not None:
            old.retire()
        return snapshot

    def get(self, name: str) -> Snapshot:
        """The current snapshot bound to ``name`` (404 material if absent)."""
        with self._lock:
            snapshot = self._snapshots.get(name)
        if snapshot is None:
            raise ServeError(
                f"no snapshot named {name!r} is registered (have: {self.names() or 'none'})"
            )
        return snapshot

    def binds(self, name: str, fingerprint: str, layout: int) -> bool:
        """Whether ``name`` still serves ``fingerprint`` under the same :attr:`layout`.

        The validity test of the result cache's exact-request aliases: an
        alias answers only while this holds for the snapshot it was made
        from.
        """
        with self._lock:
            snapshot = self._snapshots.get(name)
            return (
                layout == self.layout
                and snapshot is not None
                and snapshot.fingerprint == fingerprint
            )

    def default_name(self, kind: str) -> str:
        """The single registered name of ``kind``, when it is unambiguous.

        Lets queries against a one-dataset (or one-graph) server omit the
        snapshot name; with zero or several candidates the query must name
        one, so this raises :class:`ServeError`.
        """
        with self._lock:
            names = [n for n, s in self._snapshots.items() if s.kind == kind]
        if len(names) == 1:
            return names[0]
        if not names:
            raise ServeError(f"no {kind} snapshot is registered")
        raise ServeError(
            f"several {kind} snapshots are registered ({sorted(names)}); "
            f"name one with the {kind!r} query parameter"
        )

    @contextlib.contextmanager
    def lease(self, name: str) -> Iterator[Snapshot]:
        """Pin ``name``'s current snapshot for the duration of the block.

        The leased snapshot — payload, fingerprint, open memory map —
        stays valid for the whole block even if a swap rebinds the name
        concurrently; the retired store closes only when the last lease
        drains.
        """
        while True:
            snapshot = self.get(name)
            try:
                snapshot.acquire()
            except ServeError:
                # Lost the race with a swap that already closed this
                # snapshot: re-read the registry and lease the successor.
                continue
            break
        try:
            yield snapshot
        finally:
            snapshot.release()

    def names(self) -> list[str]:
        """Registered snapshot names, sorted."""
        with self._lock:
            return sorted(self._snapshots)

    def fingerprints(self) -> set[str]:
        """The fingerprints currently being served (for cache pruning)."""
        with self._lock:
            return {s.fingerprint for s in self._snapshots.values()}

    def describe(self) -> list[dict[str, Any]]:
        """Summaries of every registered snapshot, in name order."""
        with self._lock:
            snapshots = [self._snapshots[n] for n in sorted(self._snapshots)]
        return [s.describe() for s in snapshots]

    def close_all(self) -> None:
        """Retire and release every snapshot (server shutdown)."""
        with self._lock:
            snapshots = list(self._snapshots.values())
            self._snapshots.clear()
            self.layout += 1
        for snapshot in snapshots:
            snapshot.retire()
