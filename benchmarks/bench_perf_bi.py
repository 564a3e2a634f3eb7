"""BENCH-PERF-BI — encoded-core OLAP/BI aggregation vs the row path.

Times the BI front end's hot aggregations over a municipal-budget-style fact
table at 100k rows, for both execution paths: the vectorized encoded-core
path (group keys from the cached int64 code arrays, measures reduced over
sorted-scan segments of the float views) and the retained row-at-a-time
reference (the same workload inside ``repro.tiers.reference()``).  Three
workloads are timed:

``rollup``
    ``Cube.rollup`` to the district level (three measures).
``pivot``
    ``Cube.pivot`` of one measure over district × year.  Not guarded: its
    cross-tabulation tail is shared by both paths, diluting the ratio.
``kpi``
    :func:`repro.bi.kpi.evaluate_kpis_by_level` — a per-district scoreboard
    of two KPIs.

Encoded timings include encoding the dataset from scratch (the instance
cache is dropped before every run), so the speedup is what a cold dashboard
render actually sees.  Identity covers the aggregated datasets' values, row
order and key order.  ``benchmarks/_harness.py`` runs it, records
``BENCH_perf_bi.json`` and guards it with ``--quick``.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.bi import Cube, Dimension, KPI, Measure, evaluate_kpis_by_level
from repro.tabular.dataset import ColumnType, Dataset
from repro.tiers import reference

try:
    from benchmarks import _harness
except ModuleNotFoundError:  # run as a script
    import _harness

FULL = {"100000": dict(n_rows=100_000)}
QUICK = {"5000": dict(n_rows=5_000, repeats=3)}
GUARDED = ("rollup", "kpi")

DISTRICTS = [f"district_{i:02d}" for i in range(20)]
CATEGORIES = ["transport", "health", "education", "culture", "housing", "parks", "safety", "it"]
KPIS = [
    KPI("avg_rate", "rate", target=0.6),
    KPI("avg_amount", "amount", target=300_000.0, higher_is_better=False, tolerance=0.2),
]


def fact_table(n_rows: int) -> Dataset:
    """A budget-style fact table with ~5% missing cells in a key and a measure."""
    rng = np.random.default_rng(0)
    district = [
        None if gap else DISTRICTS[i]
        for gap, i in zip(rng.random(n_rows) < 0.05, rng.integers(len(DISTRICTS), size=n_rows))
    ]
    category = [CATEGORIES[i] for i in rng.integers(len(CATEGORIES), size=n_rows)]
    year = (2019.0 + rng.integers(5, size=n_rows)).astype(float)
    amount = np.round(rng.uniform(1_000, 500_000, size=n_rows), 2)
    amount[rng.random(n_rows) < 0.05] = np.nan
    rate = np.round(rng.uniform(0.0, 1.2, size=n_rows), 4)
    return Dataset.from_dict(
        {
            "district": district,
            "category": category,
            "year": year.tolist(),
            "amount": amount.tolist(),
            "rate": rate.tolist(),
        },
        name="budget_facts",
        ctypes={
            "district": ColumnType.CATEGORICAL,
            "category": ColumnType.CATEGORICAL,
            "year": ColumnType.NUMERIC,
            "amount": ColumnType.NUMERIC,
            "rate": ColumnType.NUMERIC,
        },
    )


def cube(dataset: Dataset) -> Cube:
    """The district × category × year cube over the fact table."""
    return Cube(
        dataset,
        dimensions=[
            Dimension("district", ("district",)),
            Dimension("category", ("category",)),
            Dimension("year", ("year",)),
        ],
        measures=[
            Measure("total", "amount", "sum"),
            Measure("mean_rate", "rate", "mean"),
            Measure("n", "amount", "count"),
        ],
    )


#: workload name → callable(cube) -> Dataset.
_WORKLOADS = {
    "rollup": lambda c: c.rollup("district"),
    "pivot": lambda c: c.pivot("district", "year"),
    "kpi": lambda c: evaluate_kpis_by_level(KPIS, c, "district"),
}


def cases(n_rows: int, repeats: int = 1) -> dict:
    """Time every workload on the encoded vs the row path."""
    dataset = fact_table(n_rows)
    results = {}
    for name, workload in _WORKLOADS.items():
        def encoded_run():
            _harness.drop_caches(dataset)
            return workload(cube(dataset))

        results[name] = _harness.compare(encoded_run, reference()(lambda: workload(cube(dataset))), repeats)
    return results


def check(sizes: dict) -> None:
    """The encoded roll-up at 100k rows must beat the row path ≥5×."""
    rollup = sizes["100000"]["rollup"]["speedup"]
    assert rollup >= 5.0, f"cube roll-up speedup at 100k rows is {rollup:.1f}x, below the 5x bar"


if __name__ == "__main__":
    sys.exit(_harness.main(sys.modules[__name__]))
