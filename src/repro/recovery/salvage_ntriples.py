"""Line-level N-Triples salvage: keep the parseable lines, account for the rest.

N-Triples is deliberately line-oriented, which makes principled degradation
easy: every line is an independent triple, so a corrupt line costs exactly
one triple.  The strict parser
(:func:`repro.lod.serialization.parse_ntriples`) is the reference tier and
raises on the first malformed line; this tier re-uses the identical per-line
machinery (:func:`repro.lod.serialization.parse_ntriples_line`) and instead

* **repairs** lines that lost their terminal ``.`` (a classic
  concatenation/truncation artefact) or carry trailing garbage after the
  statement, and
* **skips** lines that stay unparseable after repair, recording a per-line
  diagnostic (line number, action, offending text) in the report.

On clean input the resulting :class:`~repro.lod.graph.Graph` is bit-identical
to the strict parse (same triples in the same insertion order, same default
identifier) and the report :attr:`~NtSalvageReport.is_clean`.  Pass
``strict=True`` to read through the strict parser instead, which raises on
the first defect.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from repro.exceptions import LODError
from repro.lod.graph import Graph
from repro.lod.serialization import parse_ntriples, parse_ntriples_line
from repro.lod.terms import Triple
from repro.recovery.provenance import NtSalvageReport


class NtSalvageResult(NamedTuple):
    """A salvaged graph together with the account of what was done to it."""

    graph: Graph
    report: NtSalvageReport


def _read_source(source: str | Path) -> str:
    """Resolve a path-or-content argument exactly like the strict parser."""
    if isinstance(source, Path) or (
        isinstance(source, str) and "\n" not in source and source.endswith(".nt")
    ):
        return Path(source).read_text(encoding="utf-8", errors="replace")
    return str(source)


def _attempt_repairs(line: str) -> tuple[Triple, str] | None:
    """Try the known line repairs; return ``(triple, action)`` or ``None``.

    Repairs, in order of confidence: re-append a missing terminal ``.``;
    truncate trailing garbage after the last `` .`` statement terminator.
    """
    stripped = line.strip()
    if not stripped.endswith("."):
        try:
            return parse_ntriples_line(stripped + " ."), "repaired_missing_dot"
        except LODError:
            pass
    terminator = stripped.rfind(" .")
    if 0 < terminator < len(stripped) - 2:
        try:
            return parse_ntriples_line(stripped[: terminator + 2]), "repaired_trailing_garbage"
        except LODError:
            pass
    return None


def salvage_ntriples(
    source: str | Path,
    identifier: str | None = None,
    strict: bool = False,
) -> NtSalvageResult:
    """Tolerantly parse N-Triples content into a partial graph plus a report.

    Accepts the same path-or-content argument as the strict parser.  Every
    line either contributes a triple (parsed strictly, or after one of the
    known repairs) or is skipped with a per-line diagnostic; the function
    itself never raises on malformed content.
    """
    report = NtSalvageReport(source=str(identifier or "ntriples"))
    if strict:
        graph = parse_ntriples(source, identifier=identifier)
        report.n_lines = len(_read_source(source).splitlines())
        report.n_triples = len(graph)
        return NtSalvageResult(graph, report)

    text = _read_source(source)
    graph = Graph(identifier or "http://openbi.example.org/graph/parsed")
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        report.n_lines += 1
        try:
            triple = parse_ntriples_line(raw_line)
        except LODError as exc:
            repaired = _attempt_repairs(raw_line)
            if repaired is not None:
                triple, action = repaired
                report.n_repaired += 1
                report.add_event(line_number, action, raw_line.strip()[:120])
            else:
                report.n_skipped += 1
                report.add_event(line_number, "skipped", f"{exc}: {raw_line.strip()[:120]}")
                continue
        if triple is not None:
            graph.add_triple(triple)
            report.n_triples += 1
    return NtSalvageResult(graph, report)
