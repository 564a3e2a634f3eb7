"""Tolerant CSV ingestion: recover every cell that is recoverable.

The strict reader (:func:`repro.tabular.io_csv.read_csv_text`) is the
**reference tier**: it raises on the first ragged row, broken encoding or
duplicate header.  This module is the salvage tier of the same two-tier
protocol the encoded core uses everywhere else — on clean input it produces a
bit-identical :class:`~repro.tabular.dataset.Dataset` (verified by the
equivalence tests and the ``bench_perf_recovery`` guard), and on corrupt
input it degrades in a principled way:

* **encoding detection** — UTF-8 first, a latin-1 fallback when the byte
  stream is plausible latin-1, and a lossy UTF-8 decode with replacement
  characters as the last resort (affected cells flagged
  :data:`~repro.recovery.provenance.ENCODING_REPLACED`);
* **ragged-row repair** — short rows are padded
  (:data:`~repro.recovery.provenance.PADDED`), long rows truncated with the
  dropped cells itemised in the report
  (:data:`~repro.recovery.provenance.TRUNCATED`);
* **unbalanced-quote healing** — a stray quote that swallows following lines
  into one field is detected (ragged multi-line record with an odd quote
  count) and the affected physical lines are re-parsed individually
  (:data:`~repro.recovery.provenance.QUOTE_REPAIRED`);
* **embedded-newline healing** — two adjacent short fragments whose cell
  counts sum to one row are re-joined
  (:data:`~repro.recovery.provenance.REJOINED`);
* **duplicate/empty-header disambiguation** — repaired with ``name__2`` /
  ``column_3`` style names instead of raising;
* **coercion-failure → missing** — cells that cannot satisfy an explicitly
  requested numeric column type become missing
  (:data:`~repro.recovery.provenance.COERCED_MISSING`) instead of raising.

Pass ``strict=True`` to read through the strict reference reader instead,
which raises on the first defect.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Mapping
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.exceptions import SchemaError
from repro.recovery.provenance import (
    COERCED_MISSING,
    ENCODING_REPLACED,
    OK,
    PADDED,
    QUOTE_REPAIRED,
    REJOINED,
    TRUNCATED,
    SalvageReport,
    attach_provenance,
    dataset_provenance,
    provenance_counts,
)
from repro.tabular.dataset import ColumnType, Dataset
from repro.tabular.io_csv import _normalise_cell, read_csv_text
from repro.tabular.sniff import sniff_delimiter


class SalvageResult(NamedTuple):
    """A salvaged dataset together with the account of what was done to it."""

    dataset: Dataset
    report: SalvageReport


class _RecordingLines:
    """Line iterator over CSV text that remembers the lines each record consumed.

    Feeding this to :class:`csv.reader` reproduces the strict reader's record
    assembly exactly (the strict tier iterates the same ``io.StringIO``), while
    letting the salvage tier map every logical record back to its physical
    lines for quote healing and report line numbers.
    """

    def __init__(self, text: str) -> None:
        self._iterator = iter(io.StringIO(text))
        self.line_no = 0
        self._buffer: list[str] = []

    def __iter__(self) -> "_RecordingLines":
        return self

    def __next__(self) -> str:
        line = next(self._iterator)
        self.line_no += 1
        self._buffer.append(line)
        return line

    def take(self) -> list[str]:
        """Return (and forget) the physical lines consumed since the last call."""
        lines, self._buffer = self._buffer, []
        return lines


def _decode_bytes(data: bytes, encoding: str) -> tuple[str, str, int]:
    """Decode ``data``, falling back from strict to latin-1 to lossy replace.

    Returns ``(text, encoding_used, n_replaced_characters)``.  The latin-1
    fallback only engages when the resulting text contains no C1 control
    characters (0x80–0x9F) — corrupted UTF-8 decoded as latin-1 produces
    those, and a lossy decode with explicit U+FFFD markers is more honest.
    """
    try:
        return data.decode(encoding), encoding, 0
    except (UnicodeDecodeError, LookupError):
        pass
    latin = data.decode("latin-1")
    if not any(0x80 <= ord(char) <= 0x9F for char in latin):
        return latin, "latin-1", 0
    replaced = data.decode(encoding, errors="replace")
    return replaced, f"{encoding}+replace", replaced.count("�")


def _is_blank(cells: list[str]) -> bool:
    """The strict reader's blank-record test, shared verbatim."""
    return not cells or all(not cell.strip() for cell in cells)


def _parse_single_line(line: str, delimiter: str) -> list[str]:
    """Parse one physical line as its own CSV record.

    Stray carriage returns inside the line (old-Mac endings, bytes mangled
    into 0x0D) would make :class:`csv.reader` raise, so they are dropped;
    a line it still cannot parse falls back to a naive delimiter split.
    """
    text = line.rstrip("\r\n").replace("\r", "")
    try:
        parsed = next(csv.reader([text], delimiter=delimiter), [])
    except csv.Error:
        return text.replace('"', "").split(delimiter)
    return list(parsed)


def _heal_quote_line(line: str, delimiter: str, n_columns: int) -> list[str]:
    """Re-parse one physical line from a quote-broken record.

    Lines with balanced quotes parse as-is.  For an odd quote count two
    repairs are tried — dropping every quote character, and closing the open
    quote at end of line — preferring whichever restores the expected cell
    count (ties go to the quote-stripped variant, which recovers swallowed
    delimiters).
    """
    text = line.rstrip("\r\n")
    if text.count('"') % 2 == 0:
        return _parse_single_line(text, delimiter)
    candidates = [
        _parse_single_line(text.replace('"', ""), delimiter),
        _parse_single_line(text + '"', delimiter),
    ]
    for candidate in candidates:
        if len(candidate) == n_columns:
            return candidate
    return min(candidates, key=lambda cells: abs(len(cells) - n_columns))


def _repair_header(raw_header: list[str], header_line: int, report: SalvageReport) -> list[str]:
    """Strip, fill in empty names and disambiguate duplicates."""
    names: list[str] = []
    chosen: set[str] = set()
    for index, cell in enumerate(raw_header):
        name = cell.strip()
        original = name
        if not name:
            name = f"column_{index + 1}"
        if name in chosen:
            suffix = 2
            while f"{name}__{suffix}" in chosen:
                suffix += 1
            name = f"{name}__{suffix}"
        if name != original:
            report.add_event(header_line, "header_repaired", f"{original!r} -> {name!r}")
        chosen.add(name)
        names.append(name)
    return names


def _elide(text: str, limit: int = 80) -> str:
    """Clip report detail strings so events stay readable."""
    return text if len(text) <= limit else text[: limit - 1] + "…"


def salvage_csv_text(
    text: str,
    name: str = "csv",
    delimiter: str | None = None,
    ctypes: Mapping[str, str] | None = None,
    roles: Mapping[str, str] | None = None,
    heal_newlines: bool = True,
    flag_replacement_chars: bool = False,
    strict: bool = False,
) -> SalvageResult:
    """Tolerantly parse CSV content into a dataset plus a salvage report.

    ``flag_replacement_chars`` marks cells containing U+FFFD as
    :data:`~repro.recovery.provenance.ENCODING_REPLACED`; :func:`salvage_csv`
    enables it only when its decode was actually lossy, so text that
    legitimately contains the replacement character is not flagged.

    On clean input the result is bit-identical to
    :func:`~repro.tabular.io_csv.read_csv_text` and the report
    :attr:`~repro.recovery.provenance.SalvageReport.is_clean`.  Inputs with
    nothing recoverable (empty content, a lone header) raise the same
    :class:`~repro.exceptions.SchemaError` as the strict tier.  When the
    report is not clean, the per-cell provenance is also attached to the
    dataset instance so the data quality layer can surface it.
    """
    report = SalvageReport(source=name)
    if strict:
        dataset = read_csv_text(text, name=name, delimiter=delimiter, ctypes=ctypes, roles=roles)
        report.n_physical_lines = len(text.splitlines())
        report.n_rows, report.n_columns = dataset.shape
        return SalvageResult(dataset, report)

    if not text.strip():
        raise SchemaError("empty CSV content")
    if delimiter is None:
        delimiter = sniff_delimiter(text)

    stream = _RecordingLines(text)
    reader = csv.reader(stream, delimiter=delimiter)
    records: list[tuple[list[str], list[str], int]] = []
    while True:
        try:
            cells = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            # The reader choked (e.g. a stray carriage return inside an
            # unquoted field); recover every physical line it consumed by
            # parsing each one as its own record.
            lines = stream.take()
            start_line = stream.line_no - len(lines) + 1
            report.add_event(start_line, "reader_error_recovered", _elide(str(exc)))
            for offset, line in enumerate(lines):
                records.append(
                    ([*_parse_single_line(line, delimiter)], [line], start_line + offset)
                )
            continue
        lines = stream.take()
        start_line = stream.line_no - len(lines) + 1
        records.append((list(cells), lines, start_line))
    report.n_physical_lines = stream.line_no

    header_index = next((i for i, (cells, _, _) in enumerate(records) if not _is_blank(cells)), None)
    if header_index is None:
        raise SchemaError("empty CSV content")
    if header_index:
        report.add_event(1, "leading_blank_records_skipped", f"{header_index} before the header")
    header_cells, _, header_line = records[header_index]
    header = _repair_header([cell for cell in header_cells], header_line, report)
    n_columns = len(header)
    data_records = records[header_index + 1 :]
    report.n_input_records = len(data_records)
    if not data_records:
        raise SchemaError("CSV must contain a header row and at least one data row")

    # Phase 1: one candidate row per surviving record fragment.  Each entry is
    # (cells, start_line, base_flag) where base_flag marks structurally
    # repaired rows (quote healing) before cell-level flags are assigned.
    candidates: list[tuple[list[str], int, np.int8]] = []
    for cells, lines, start_line in data_records:
        if _is_blank(cells):
            continue
        record_text = "".join(lines)
        if len(cells) != n_columns and len(lines) > 1 and record_text.count('"') % 2 == 1:
            # An unbalanced quote swallowed the following physical lines into
            # one field; heal and re-parse each line on its own.
            report.add_event(
                start_line,
                "unbalanced_quote_healed",
                f"record of {len(lines)} lines re-parsed line by line",
            )
            for offset, line in enumerate(lines):
                healed = _heal_quote_line(line, delimiter, n_columns)
                if _is_blank(healed):
                    continue
                candidates.append((healed, start_line + offset, QUOTE_REPAIRED))
        else:
            candidates.append((cells, start_line, OK))

    # Phase 2: embedded-newline healing — re-join adjacent short fragments
    # whose cell counts sum to exactly one full row.
    if heal_newlines:
        rejoined: list[tuple[list[str], int, np.int8, int]] = []
        index = 0
        while index < len(candidates):
            cells, start_line, base_flag = candidates[index]
            if index + 1 < len(candidates) and 0 < len(cells) < n_columns:
                next_cells, next_line, next_flag = candidates[index + 1]
                if 0 < len(next_cells) <= n_columns and len(cells) + len(next_cells) - 1 == n_columns:
                    joined = cells[:-1] + [cells[-1] + next_cells[0]] + next_cells[1:]
                    report.add_event(
                        start_line,
                        "embedded_newline_rejoined",
                        f"lines {start_line} and {next_line} merged into one row",
                    )
                    rejoined.append((joined, start_line, max(base_flag, next_flag), len(cells) - 1))
                    index += 2
                    continue
            rejoined.append((cells, start_line, base_flag, -1))
            index += 1
    else:
        rejoined = [(cells, line, flag, -1) for cells, line, flag in candidates]

    # Phase 3: pad/truncate to the header width, normalise missing tokens,
    # flag lossy-decode cells and coerce explicit numeric types.
    numeric_requested = {
        key for key, ctype in (ctypes or {}).items() if ctype == ColumnType.NUMERIC
    }
    rows: list[dict[str, str | None]] = []
    flag_rows: list[np.ndarray] = []
    for cells, start_line, base_flag, joined_at in rejoined:
        flags = np.full(n_columns, base_flag, dtype=np.int8)
        if 0 <= joined_at < n_columns:
            flags[joined_at] = REJOINED
        if len(cells) > n_columns:
            dropped = cells[n_columns:]
            report.add_event(
                start_line,
                "row_truncated",
                f"{len(dropped)} extra cells dropped: {_elide(repr(dropped))}",
            )
            cells = cells[:n_columns]
            flags[n_columns - 1] = TRUNCATED
        if len(cells) < n_columns:
            report.add_event(
                start_line,
                "row_padded",
                f"{n_columns - len(cells)} missing cells padded",
            )
            flags[len(cells) :] = PADDED
            cells = cells + [None] * (n_columns - len(cells))
        row: dict[str, str | None] = {}
        for column_index, (column_name, cell) in enumerate(zip(header, cells)):
            if flag_replacement_chars and isinstance(cell, str) and "�" in cell:
                flags[column_index] = ENCODING_REPLACED
            value = _normalise_cell(cell)
            if value is not None and column_name in numeric_requested:
                try:
                    float(value)
                except ValueError:
                    report.add_event(
                        start_line,
                        "coerced_to_missing",
                        f"{column_name}: {_elide(repr(value))} is not numeric",
                    )
                    flags[column_index] = COERCED_MISSING
                    value = None
            row[column_name] = value
        rows.append(row)
        flag_rows.append(flags)

    if not rows:
        raise SchemaError("CSV contains a header but no data rows")

    dataset = Dataset.from_rows(rows, name=name, ctypes=ctypes, roles=roles, column_order=header)
    flag_matrix = np.vstack(flag_rows)
    provenance = {column_name: flag_matrix[:, j].copy() for j, column_name in enumerate(header)}
    report.provenance = provenance
    report.flag_counts = provenance_counts(provenance)
    report.n_rows, report.n_columns = dataset.shape
    if not report.is_clean:
        attach_provenance(dataset, provenance)
    return SalvageResult(dataset, report)


def salvage_csv(
    source: str | Path | bytes,
    name: str | None = None,
    delimiter: str | None = None,
    ctypes: Mapping[str, str] | None = None,
    roles: Mapping[str, str] | None = None,
    encoding: str = "utf-8",
    heal_newlines: bool = True,
    strict: bool = False,
) -> SalvageResult:
    """Salvage a CSV file (path) or raw byte payload into a dataset + report.

    Unlike :func:`~repro.tabular.io_csv.read_csv`, decoding never raises:
    UTF-8 is tried first, then latin-1 when plausible, then a lossy decode
    whose replacement characters are flagged per cell.
    """
    if isinstance(source, bytes):
        data = source
        inferred_name = name or "csv"
    else:
        path = Path(source)
        data = path.read_bytes()
        inferred_name = name or path.stem
    text, used_encoding, n_replaced = _decode_bytes(data, encoding)
    result = salvage_csv_text(
        text,
        name=inferred_name,
        delimiter=delimiter,
        ctypes=ctypes,
        roles=roles,
        heal_newlines=heal_newlines,
        flag_replacement_chars=n_replaced > 0,
        strict=strict,
    )
    report = result.report
    report.requested_encoding = encoding
    report.encoding = used_encoding
    report.n_replaced_characters = n_replaced
    if not report.is_clean and report.provenance and dataset_provenance(result.dataset) is None:
        attach_provenance(result.dataset, report.provenance)
    return result
