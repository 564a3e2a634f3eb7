"""Report generation: plain-text / Markdown / HTML documents for citizens.

Besides free-form :class:`Report` building, :func:`cube_report` turns an OLAP
:class:`~repro.bi.olap.Cube` into a ready-made report; its tables come from
the cube's vectorized encoded-path aggregations (or the row-at-a-time
reference inside :func:`repro.tiers.reference` — the rendered output is
identical either way because the aggregated datasets are bit-identical).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.bi.olap import Cube
from repro.exceptions import ReproError
from repro.tabular.dataset import Dataset, is_missing_value


def _format_cell(value: Any) -> str:
    """Render one table cell: blank for missing, trimmed precision for floats."""
    if is_missing_value(value):
        return ""
    if isinstance(value, float):
        return f"{int(value)}" if value.is_integer() else f"{value:.4g}"
    return str(value)


def dataset_to_table_text(dataset: Dataset, max_rows: int | None = 25, fmt: str = "text") -> str:
    """Render a dataset as an aligned text table, a Markdown table or HTML."""
    if fmt not in ("text", "markdown", "html"):
        raise ReproError(f"unknown table format {fmt!r}")
    rows = dataset.to_rows()
    truncated = False
    if max_rows is not None and len(rows) > max_rows:
        rows = rows[:max_rows]
        truncated = True
    header = dataset.column_names
    rendered = [[_format_cell(row[name]) for name in header] for row in rows]

    if fmt == "html":
        lines = ["<table>", "  <tr>" + "".join(f"<th>{h}</th>" for h in header) + "</tr>"]
        for cells in rendered:
            lines.append("  <tr>" + "".join(f"<td>{c}</td>" for c in cells) + "</tr>")
        lines.append("</table>")
        if truncated:
            lines.append(f"<p>... {dataset.n_rows - max_rows} more rows</p>")
        return "\n".join(lines)

    if fmt == "markdown":
        lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
        lines.extend("| " + " | ".join(cells) + " |" for cells in rendered)
        if truncated:
            lines.append(f"| ... {dataset.n_rows - max_rows} more rows |" + " |" * (len(header) - 1))
        return "\n".join(lines)

    widths = [len(h) for h in header]
    for cells in rendered:
        for i, cell in enumerate(cells):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
        "  ".join("-" * widths[i] for i in range(len(header))),
    ]
    lines.extend("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)) for cells in rendered)
    if truncated:
        lines.append(f"... {dataset.n_rows - max_rows} more rows")
    return "\n".join(lines)


@dataclass
class _Section:
    """One report section: a title plus a text, table or key/value body."""

    title: str
    kind: str  # "text" | "table" | "keyvalue"
    body: Any


@dataclass
class Report:
    """A titled sequence of text, table and key/value sections."""

    title: str
    sections: list[_Section] = field(default_factory=list)

    def add_text(self, title: str, text: str) -> "Report":
        """Append a prose section."""
        self.sections.append(_Section(title, "text", text))
        return self

    def add_table(self, title: str, dataset: Dataset, max_rows: int | None = 25) -> "Report":
        """Append a tabular section."""
        self.sections.append(_Section(title, "table", (dataset, max_rows)))
        return self

    def add_key_values(self, title: str, values: Mapping[str, Any]) -> "Report":
        """Append a key/value (metrics, KPI) section."""
        self.sections.append(_Section(title, "keyvalue", dict(values)))
        return self

    def render(self, fmt: str = "text") -> str:
        """Render the report as ``text``, ``markdown`` or ``html``."""
        if fmt not in ("text", "markdown", "html"):
            raise ReproError(f"unknown report format {fmt!r}")
        lines: list[str] = []
        if fmt == "markdown":
            lines.append(f"# {self.title}")
        elif fmt == "html":
            lines.append(f"<h1>{self.title}</h1>")
        else:
            lines.extend([self.title, "=" * len(self.title)])
        for section in self.sections:
            lines.append("")
            if fmt == "markdown":
                lines.append(f"## {section.title}")
            elif fmt == "html":
                lines.append(f"<h2>{section.title}</h2>")
            else:
                lines.extend([section.title, "-" * len(section.title)])
            if section.kind == "text":
                text = str(section.body)
                lines.append(f"<p>{text}</p>" if fmt == "html" else text)
            elif section.kind == "table":
                dataset, max_rows = section.body
                table_fmt = fmt if fmt != "text" else "text"
                lines.append(dataset_to_table_text(dataset, max_rows=max_rows, fmt=table_fmt))
            else:
                items = section.body
                if fmt == "html":
                    lines.append("<ul>")
                    lines.extend(f"  <li><b>{k}</b>: {_format_cell(v)}</li>" for k, v in items.items())
                    lines.append("</ul>")
                elif fmt == "markdown":
                    lines.extend(f"* **{k}**: {_format_cell(v)}" for k, v in items.items())
                else:
                    width = max((len(str(k)) for k in items), default=0)
                    lines.extend(f"{str(k).ljust(width)} : {_format_cell(v)}" for k, v in items.items())
        return "\n".join(lines)


def cube_report(
    cube: Cube,
    levels: Sequence[str] | None = None,
    max_rows: int | None = 25,
) -> Report:
    """Build a :class:`Report` from an OLAP cube.

    The report opens with a "Grand totals" key/value section (one entry per
    measure) followed by one aggregate table per requested level.  ``levels``
    defaults to the finest level of every cube dimension.  All numbers come
    from :meth:`~repro.bi.olap.Cube.aggregate`, i.e. from the cube's two-tier
    encoded/row execution.
    """
    levels = list(levels) if levels is not None else [d.finest_level for d in cube.dimensions]
    totals = cube.aggregate()
    report = Report(cube.name)
    report.add_key_values(
        "Grand totals", {measure.name: totals[measure.name][0] for measure in cube.measures}
    )
    for level in levels:
        report.add_table(f"By {level}", cube.aggregate([level]), max_rows=max_rows)
    return report
