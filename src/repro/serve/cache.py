"""A bounded, thread-safe, fingerprint-keyed LRU cache for query results.

Entries are keyed on ``(fingerprint, endpoint, canonical-query)``:

* the **fingerprint** (:mod:`repro.serve.fingerprint`) names the exact
  snapshot content a result was computed from, so a snapshot swap makes
  every old entry structurally unreachable — requests against the new
  snapshot look up under the new fingerprint and can never be handed a
  result computed on retired data;
* the **endpoint** is the request path (``/profile``, ``/cube/pivot``…);
* the **canonical query** is the request parameters re-serialized by
  :func:`canonical_query`, so two requests that spell the same query
  differently (key order, whitespace, GET vs POST) share one entry.

Values are the fully serialized response bodies (bytes), not Python
objects: a cache hit re-sends the exact bytes the first computation
produced, which is what makes hot responses *bit-identical* to cold ones
by construction rather than by re-serialization discipline.

In front of those entries sit **exact-request aliases**: when a request's
canonical lookup hits, its exact ``(method, target, body)`` is mapped to
an :class:`Alias` holding the snapshot name and fingerprint, the encoded
response header block and the cached body object itself.  A byte-identical
repeat is then answered without parsing or canonicalising anything, but
only while the caller's validity test still holds (the server's: the
registry still binds that name to that fingerprint).  Aliases live in the
same LRU as the entries, so they share its bound, its lock, its counters
(an alias hit is a hit) and :meth:`ResultCache.prune`.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from typing import Any, Callable, NamedTuple

from repro.exceptions import ServeError

#: Default maximum number of cached responses per server.
DEFAULT_MAX_ENTRIES = 256


def canonical_query(params: dict[str, Any]) -> str:
    """Serialize request parameters into their canonical cache-key form.

    Compact JSON with sorted keys: insertion order, whitespace and unicode
    spelling differences all collapse to one key.  Parameters must be
    JSON-serialisable (they arrived as JSON in the first place); anything
    else is a programming error surfaced as :class:`ServeError`.
    """
    try:
        return json.dumps(params, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    except (TypeError, ValueError) as exc:
        raise ServeError(f"query parameters are not JSON-serialisable: {exc}") from exc


class Alias(NamedTuple):
    """What an exact request that hit the cache is answered with on a repeat."""

    name: str
    fingerprint: str
    layout: int
    head: bytes
    body: bytes


class ResultCache:
    """Bounded LRU mapping ``(fingerprint, endpoint, canonical-query)`` → bytes.

    All operations take one internal lock, so the cache is safe under the
    serving tier's thread-per-connection concurrency; hits move the entry
    to the most-recently-used end, and inserts beyond ``max_entries`` evict
    from the least-recently-used end.  Counters (:attr:`hits`,
    :attr:`misses`, :attr:`evictions`) feed the ``/cache/stats`` endpoint.

    The same LRU holds the exact-request aliases (:meth:`replay`,
    :meth:`alias`).  Their keys, ``(method, target, body-bytes)``, can never
    equal an entry key, whose last item is a ``str``.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        """Create an empty cache holding at most ``max_entries`` responses and aliases."""
        if max_entries < 1:
            raise ServeError(f"cache needs max_entries >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[tuple[str, str, Any], bytes | Alias] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, fingerprint: str, endpoint: str, query: str) -> bytes | None:
        """The cached response bytes, or ``None`` on a miss."""
        key = (fingerprint, endpoint, query)
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, fingerprint: str, endpoint: str, query: str, body: bytes) -> None:
        """Insert (or refresh) a response, evicting the LRU tail if full."""
        self._insert((fingerprint, endpoint, query), body)

    def replay(self, request: tuple[str, str, bytes],
               live: Callable[[str, str, int], bool]) -> Alias | None:
        """The alias of an exact ``(method, target, body)`` request, counted as a hit.

        ``live(name, fingerprint, layout)`` is asked under the cache lock;
        an alias it rejects is dropped and ``None`` returned, as it is when
        there is no alias.  Neither case counts as a miss: the caller falls
        back to the canonical lookup, which counts its own hit or miss.
        """
        with self._lock:
            alias = self._entries.get(request)
            if alias is None:
                return None
            if not live(alias.name, alias.fingerprint, alias.layout):
                del self._entries[request]
                return None
            self._entries.move_to_end(request)
            self.hits += 1
            return alias

    def alias(self, request: tuple[str, str, bytes], alias: Alias) -> None:
        """Map an exact request whose canonical lookup hit to ``alias``."""
        self._insert(request, alias)

    def queries(self, fingerprint: str) -> list[tuple[str, str]]:
        """The ``(endpoint, canonical query)`` of each entry cached under ``fingerprint``, oldest first.

        Aliases are not listed, and nothing is counted or reordered.
        """
        with self._lock:
            return [
                (key[1], key[2]) for key, value in self._entries.items()
                if key[0] == fingerprint and not isinstance(value, Alias)
            ]

    def _insert(self, key: tuple[str, str, Any], value: bytes | Alias) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def prune(self, live_fingerprints: set[str]) -> int:
        """Drop every entry and alias whose fingerprint is not in ``live_fingerprints``.

        Called after a snapshot swap: retired-fingerprint entries are
        already unreachable (lookups use the new fingerprint, and aliases
        fail their validity test), so pruning is purely a memory courtesy
        — it returns the number dropped.
        """
        with self._lock:
            dead = [
                key for key, value in self._entries.items()
                if (value.fingerprint if isinstance(value, Alias) else key[0])
                not in live_fingerprints
            ]
            for key in dead:
                del self._entries[key]
            return len(dead)

    def clear(self) -> None:
        """Drop every entry and alias (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        """Number of cached responses and aliases."""
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Counters and occupancy (aliases included), as served by ``/cache/stats``."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
