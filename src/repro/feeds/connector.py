"""Offline feed connector: cursor-based delta queries against fixture feeds.

Production open-data sources are feeds, not files: a registry endpoint is
polled with "give me everything after cursor X" queries, pages of a bounded
size come back, and the client throttles itself between pages and retries
transient failures.  This module reproduces that access pattern offline —
the shape follows the MaStR bulk-download clients (a ``--datum-ab``-style
delta query plus ``--limit`` page size and ``--sleep`` throttling) — so the
incremental-ingestion pipeline can be exercised and tested hermetically:

* :class:`FixtureFeed` serves records from a JSONL file, or a directory of
  JSONL batch files consumed in sorted filename order, filtered by a cursor
  field (records whose cursor sorts *after* the requested value, found by
  bisecting a cursor index built at load);
* :class:`FeedConnector` drives a feed page by page with retry/sleep
  throttling and assembles the fetched records into datasets ready for
  :func:`repro.feeds.append.append_rows`.
"""

from __future__ import annotations

import bisect
import json
import time
from collections.abc import Iterator, Mapping, Sequence
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.exceptions import FeedError, FeedTransientError, SchemaError
from repro.feeds.readers import _normalise_record_cell
from repro.tabular.dataset import Dataset, is_missing_value


class FixtureFeed:
    """A paged feed backed by JSONL fixtures on disk.

    ``root`` may be a single ``.jsonl`` file or a directory of batch files
    (consumed in sorted filename order, the order a feed would have
    published them).  Records are flat JSON objects; string cells pass
    through the same missing-token normalisation as the file readers.

    ``page(offset, limit, since=...)`` returns one page of the records whose
    ``cursor_field`` value, as a string, sorts lexicographically *after*
    ``since`` (ISO timestamps sort correctly this way), in publication order.
    Records whose cursor is absent or missing (JSON ``null``, a missing
    token such as ``""`` or ``"n/a"``, NaN) are only served by unfiltered
    queries.

    The records are indexed by cursor once, when they load.  When the
    cursors never decrease along the publication order — a feed appends
    newer records — a delta query bisects straight to its first record, so
    a page costs O(log n + page) and :meth:`FeedConnector.records` O(n)
    over a whole backlog.  A feed whose cursor goes backwards keeps the
    exact answer: each query sorts its matched positions once and reuses
    them for its later pages.
    """

    def __init__(self, root: str | Path, cursor_field: str = "datum") -> None:
        """Index the fixture file (or directory of batch files) under ``root``."""
        self.root = Path(root)
        self.cursor_field = cursor_field
        if self.root.is_file():
            self._batch_paths = [self.root]
        elif self.root.is_dir():
            self._batch_paths = sorted(self.root.glob("*.jsonl"))
            if not self._batch_paths:
                raise FeedError(f"feed fixture {self.root} contains no .jsonl batch files")
        else:
            raise FeedError(f"feed fixture {self.root} does not exist")
        self._records: list[dict[str, Any]] | None = None
        #: ``str`` of every present cursor, in publication order.
        self._keys: list[str] = []
        #: Publication position of each key (int64), or ``None`` when every record has one.
        self._positions: np.ndarray | None = None
        #: Key indices in ascending key order (int64), or ``None`` when the keys never decrease.
        self._order: np.ndarray | None = None
        #: The last unsorted query: ``(since, matched publication positions)``.
        self._query: tuple[str, np.ndarray] | None = None

    @property
    def batch_paths(self) -> list[Path]:
        """The fixture files this feed serves, in publication order."""
        return list(self._batch_paths)

    def _load(self) -> list[dict[str, Any]]:
        if self._records is not None:
            return self._records
        records: list[dict[str, Any]] = []
        for path in self._batch_paths:
            with open(path, "r", encoding="utf-8") as handle:
                for line_number, line in enumerate(handle, start=1):
                    if not line.strip():
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise FeedError(
                            f"feed fixture {path}: malformed JSON on line {line_number}: {exc}"
                        ) from exc
                    if not isinstance(record, dict):
                        raise FeedError(
                            f"feed fixture {path}: line {line_number} holds a JSON "
                            f"{type(record).__name__}, not an object"
                        )
                    records.append(
                        {
                            key: _normalise_record_cell(value, line_number, key)
                            for key, value in record.items()
                        }
                    )
        cursors = [record.get(self.cursor_field) for record in records]
        present = [not is_missing_value(cursor) for cursor in cursors]
        keys = [str(cursor) for cursor, kept in zip(cursors, present) if kept]
        if len(keys) < len(records):
            self._positions = np.flatnonzero(present)
        if any(later < earlier for earlier, later in zip(keys, keys[1:])):
            self._order = np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.int64)
        self._keys = keys
        self._records = records
        return records

    def _matched(self, since: str) -> range | np.ndarray:
        """Publication positions of the records whose cursor sorts after ``since``, in order."""
        keys = self._keys
        if self._order is None:
            first = bisect.bisect_right(keys, since)
            return range(first, len(keys)) if self._positions is None else self._positions[first:]
        query = self._query
        if query is None or query[0] != since:
            first = bisect.bisect_right(self._order, since, key=keys.__getitem__)
            matched = np.sort(self._order[first:])
            query = (since, matched if self._positions is None else self._positions[matched])
            self._query = query
        return query[1]

    def page(self, offset: int, limit: int, since: str | None = None) -> list[dict[str, Any]]:
        """Return up to ``limit`` records starting at ``offset`` of the delta after ``since``."""
        records = self._load()
        if since is None:
            return records[offset : offset + limit]
        selected = self._matched(since)[offset : offset + limit]
        if isinstance(selected, range):
            return records[selected.start : selected.stop]
        return [records[position] for position in selected.tolist()]


class FeedConnector:
    """Page-by-page feed client with retry and sleep throttling.

    The connector repeatedly asks the feed for the next page of ``page_size``
    records (stopping at the first short or empty page), sleeps ``throttle``
    seconds between pages, and retries a page up to ``max_retries`` times
    when the feed raises :class:`FeedTransientError` (waiting ``retry_wait``
    seconds between attempts) before giving up with :class:`FeedError`.
    ``_sleep`` is injectable so tests can count waits instead of waiting.
    """

    def __init__(
        self,
        feed: FixtureFeed,
        page_size: int = 2000,
        throttle: float = 0.0,
        max_retries: int = 3,
        retry_wait: float = 0.5,
        _sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        """Wrap ``feed`` with paging, throttling and transient-error retries."""
        if page_size < 1:
            raise FeedError(f"page_size must be >= 1, got {page_size}")
        if max_retries < 0:
            raise FeedError(f"max_retries must be >= 0, got {max_retries}")
        self.feed = feed
        self.page_size = page_size
        self.throttle = throttle
        self.max_retries = max_retries
        self.retry_wait = retry_wait
        self._sleep = _sleep

    def pages(self, since: str | None = None) -> Iterator[list[dict[str, Any]]]:
        """Yield pages of records newer than ``since`` until the feed runs dry."""
        offset = 0
        first = True
        while True:
            if not first and self.throttle > 0:
                self._sleep(self.throttle)
            first = False
            page = self._page_with_retries(offset, since)
            if not page:
                return
            yield page
            if len(page) < self.page_size:
                return
            offset += len(page)

    def _page_with_retries(self, offset: int, since: str | None) -> list[dict[str, Any]]:
        attempt = 0
        while True:
            try:
                return self.feed.page(offset, self.page_size, since=since)
            except FeedTransientError as exc:
                attempt += 1
                if attempt > self.max_retries:
                    raise FeedError(
                        f"feed page at offset {offset} still failing after "
                        f"{self.max_retries} retries: {exc}"
                    ) from exc
                self._sleep(self.retry_wait)

    def records(self, since: str | None = None) -> list[dict[str, Any]]:
        """Fetch and flatten every page of records newer than ``since``."""
        fetched: list[dict[str, Any]] = []
        for page in self.pages(since=since):
            fetched.extend(page)
        return fetched

    def fetch_dataset(
        self,
        since: str | None = None,
        name: str = "feed",
        ctypes: Mapping[str, str] | None = None,
        roles: Mapping[str, str] | None = None,
        column_order: Sequence[str] | None = None,
    ) -> Dataset | None:
        """Fetch the delta after ``since`` as one dataset, or ``None`` when empty."""
        rows = self.records(since=since)
        if not rows:
            return None
        try:
            return Dataset.from_rows(
                rows, name=name, ctypes=ctypes, roles=roles, column_order=column_order
            )
        except SchemaError:
            raise
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"feed records do not fit the requested schema: {exc}") from exc
