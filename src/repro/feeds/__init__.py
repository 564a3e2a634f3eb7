"""Incremental ingestion: feeds, appends, and O(|delta|) refresh of derived state.

Production open-data sources are feeds, not files: batches keep arriving, and
recomputing every profile, cube and index from scratch per batch is O(n) work
for an O(|delta|) change.  This subpackage closes that gap end to end:

* :mod:`repro.feeds.readers` — chunked CSV/JSONL readers that stream a file
  as fixed-size dataset blocks;
* :mod:`repro.feeds.connector` — an offline, cursor-based feed connector
  (fixture-backed and cursor-indexed, with paging, retry and sleep
  throttling);
* :mod:`repro.feeds.append` — schema-checked appends whose merged datasets
  extend the base's encoded views in place instead of re-encoding or
  copying them (:func:`repro.tabular.encoded.extend_encoding`), and the
  structural check of whether one dataset is another plus appended rows;
* :mod:`repro.feeds.incremental` — incremental refresh of quality profiles,
  group-by/cube aggregates and KPI scoreboards.  The batch tier's fast path
  *is* a resumable state, seeded over the rows and read once; a refresh
  folds the appended rows into the same state, so it is bit-identical to
  the batch recompute (the reference tier inside
  :func:`repro.tiers.reference`), and falls back to it where there is no
  state.  Duplication alone keeps a faster one-shot sort beside its state.

The ``repro ingest`` CLI ties these to the persistence and serving tiers:
append a feed batch to a ``.rps`` store and ``POST /reload`` a running
server, so the pipeline is feed → append → refresh → snapshot → reload.
The server advances its recurring dashboard queries through the same
incremental classes when the reloaded store is an append.
"""

from repro.feeds.append import append_dataset, append_rows, appended_rows
from repro.feeds.connector import FeedConnector, FixtureFeed
from repro.feeds.incremental import (
    IncrementalGroupBy,
    IncrementalKPIBoard,
    IncrementalProfile,
    incremental_cube_aggregate,
)
from repro.feeds.readers import read_csv_chunks, read_jsonl, read_jsonl_chunks

__all__ = [
    "append_dataset",
    "append_rows",
    "appended_rows",
    "FeedConnector",
    "FixtureFeed",
    "IncrementalGroupBy",
    "IncrementalKPIBoard",
    "IncrementalProfile",
    "incremental_cube_aggregate",
    "read_csv_chunks",
    "read_jsonl",
    "read_jsonl_chunks",
]
