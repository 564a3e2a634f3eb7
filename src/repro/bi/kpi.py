"""Key performance indicators for dashboards.

A :class:`KPI` evaluates to a single number for a whole dataset
(:meth:`KPI.value`) or to one number per group of an OLAP cube level
(:func:`evaluate_kpis_by_level`).  The per-level evaluation rides on the
two-tier :func:`~repro.tabular.transforms.group_by`: it runs vectorized over
the cube dataset's cached encoded views, and on the row-at-a-time reference
path inside :func:`repro.tiers.reference`, with bit-identical results either
way.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.bi.olap import Cube
from repro.exceptions import ReproError
from repro.tabular.dataset import ColumnType, Dataset
from repro.tabular.stats import numeric_summary
from repro.tabular.transforms import group_by


@dataclass(frozen=True)
class KPI:
    """A named indicator computed from a dataset.

    ``compute`` is either the name of a numeric column (its mean is used) or a
    callable ``dataset → float``.  The status is ``good`` when the value is on
    the right side of ``target`` (per ``higher_is_better``), ``warning`` when
    within ``tolerance`` of it, ``bad`` otherwise.
    """

    name: str
    compute: str | Callable[[Dataset], float]
    target: float
    higher_is_better: bool = True
    tolerance: float = 0.1
    description: str = ""

    def value(self, dataset: Dataset) -> float:
        """Evaluate the indicator over the whole dataset.

        Column KPIs use the column mean from
        :func:`~repro.tabular.stats.numeric_summary` (computed on the column's
        array, missing cells excluded); callable KPIs call ``compute`` with
        the dataset.
        """
        if callable(self.compute):
            return float(self.compute(dataset))
        if self.compute not in dataset:
            raise ReproError(f"KPI {self.name!r} references unknown column {self.compute!r}")
        return float(numeric_summary(dataset[self.compute])["mean"])

    def grade(self, value: float) -> str:
        """Return the traffic-light label (``good``/``warning``/``bad``) for ``value``."""
        if self.higher_is_better:
            good = value >= self.target
            warning = value >= self.target * (1.0 - self.tolerance)
        else:
            good = value <= self.target
            warning = value <= self.target * (1.0 + self.tolerance)
        return "good" if good else ("warning" if warning else "bad")

    def status(self, dataset: Dataset) -> dict[str, Any]:
        """Evaluate the KPI and return value, target and traffic-light status."""
        value = self.value(dataset)
        return {
            "kpi": self.name,
            "value": value,
            "target": self.target,
            "status": self.grade(value),
            "higher_is_better": self.higher_is_better,
            "description": self.description,
        }


def evaluate_kpis(kpis: Sequence[KPI], dataset: Dataset) -> list[dict[str, Any]]:
    """Evaluate a list of KPIs against one dataset (whole-dataset values)."""
    if not kpis:
        raise ReproError("no KPIs to evaluate")
    return [kpi.status(dataset) for kpi in kpis]


def evaluate_kpis_by_level(kpis: Sequence[KPI], cube: Cube, level: str) -> Dataset:
    """Evaluate column KPIs per group of one cube dimension level.

    Returns a dataset with one row per distinct ``level`` value (in first-seen
    order), holding each KPI's per-group mean and its traffic-light status
    column (``<name>_status``).  The group means come from the two-tier
    ``group_by``, so both of its paths produce bit-identical scoreboards.

    Only column KPIs are supported here: a callable ``compute`` cannot be
    pushed into the grouped aggregation and raises :class:`ReproError`.
    """
    grouped = group_by(cube.dataset, [level], _level_means(kpis, cube, level))
    return _scoreboard(kpis, level, grouped, f"{cube.name}_kpis_by_{level}")


def _level_means(kpis: Sequence[KPI], cube: Cube, level: str) -> dict[str, tuple[str, str]]:
    """Each KPI's column mean as a ``group_by`` aggregation, once the scoreboard is known to be valid."""
    if not kpis:
        raise ReproError("no KPIs to evaluate")
    aggregations: dict[str, tuple[str, str]] = {}
    out_columns = {level}
    for kpi in kpis:
        if callable(kpi.compute):
            raise ReproError(
                f"KPI {kpi.name!r} uses a callable; per-level evaluation needs a column name"
            )
        if kpi.compute not in cube.dataset:
            raise ReproError(f"KPI {kpi.name!r} references unknown column {kpi.compute!r}")
        if not cube.dataset[kpi.compute].is_numeric():
            raise ReproError(f"KPI {kpi.name!r} references non-numeric column {kpi.compute!r}")
        for column in (kpi.name, f"{kpi.name}_status"):
            if column in out_columns:
                raise ReproError(
                    f"KPI {kpi.name!r} collides with the {column!r} scoreboard column; "
                    "KPI names must be unique and differ from the level column"
                )
            out_columns.add(column)
        aggregations[kpi.name] = (kpi.compute, "mean")
    return aggregations


def _scoreboard(kpis: Sequence[KPI], level: str, grouped: Dataset, name: str) -> Dataset:
    """The scoreboard over ``grouped``, the per-level means: each mean and its grade."""
    out_rows: list[dict[str, Any]] = []
    for row in grouped.iter_rows():
        out: dict[str, Any] = {level: row[level]}
        for kpi in kpis:
            value = row[kpi.name]
            out[kpi.name] = value
            out[f"{kpi.name}_status"] = kpi.grade(float(value))
        out_rows.append(out)
    ctypes = {level: grouped[level].ctype}
    for kpi in kpis:
        ctypes[kpi.name] = ColumnType.NUMERIC
        ctypes[f"{kpi.name}_status"] = ColumnType.CATEGORICAL
    return Dataset.from_rows(out_rows, name=name, ctypes=ctypes)
