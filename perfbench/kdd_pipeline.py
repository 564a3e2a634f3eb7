"""``kdd_pipeline``: the paper's Fig. 1 flow, source after source, in process.

One in-process caller works through a fixed pool of dirty civic sources,
cycled in order.  Each source is a byte-corrupted CSV export of one of the
four :mod:`repro.datasets.civic` generators plus an N-Triples companion
graph of air-quality readings, joined on ``district``.  One op runs the ten
steps of :func:`_run_op`: salvage, parse, tabulate + group, join, profile,
advise, cross-validate the advised miner, cube + per-district KPIs, save and
reopen.  Every fifth source is ``large_factor`` times larger, so the tail
percentile lands inside the large class.

Set-up is building the DQ4DM knowledge base over the four clean
generators; with that knowledge base the advisor picks naive Bayes for three
generators and a decision tree for ``air_quality``.
"""

from __future__ import annotations

import gc
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from repro.bi import KPI, Cube, Dimension, Measure, evaluate_kpis_by_level
from repro.core import Advisor, ExperimentPlan, ExperimentRunner, KnowledgeBase, UserProfile
from repro.datasets.civic import CIVIC, CIVIC_GENERATORS, air_quality, civic_lod_graph
from repro.lod import parse_ntriples, to_ntriples
from repro.lod.tabulate import tabulate_entities
from repro.mining import CLASSIFIER_REGISTRY
from repro.mining.validation import cross_validate
from repro.quality import measure_quality
from repro.recovery import apply_corruptions, salvage_csv
from repro.store import open_dataset, save_dataset
from repro.tabular import write_csv_text
from repro.tabular.dataset import ColumnRole
from repro.tabular.transforms import group_by, join

from perfbench.harness import NULL_TRACER, Phase, layer_ms, own_peak_rss_mb, profile_bytes, root_medians

#: Generator per pool slot; slot ``LARGE_EVERY - 1`` of every ``LARGE_EVERY`` is large.
#: The small sources are all naive-Bayes picks, so the median op falls well
#: inside their class; the large one is the decision-tree pick.
POOL_GENERATORS = ("municipal_budget", "service_requests", "census_income", "municipal_budget", "air_quality")
LARGE_EVERY = 5
#: Byte-level damage applied to each CSV export, so the salvage tier repairs cells.
CORRUPTIONS = {"ragged_rows": 0.02}
#: Measured column, KPI target and direction of the per-district scoreboard, per generator.
BI_SPECS = {
    "municipal_budget": ("executed", 1_000_000.0, False),
    "air_quality": ("no2", 40.0, False),
    "census_income": ("age", 45.0, True),
    "service_requests": ("resolution_days", 14.0, False),
}
KB_ALGORITHMS = ("naive_bayes", "decision_tree")
#: Seconds one pool cycle takes on the reference host; only used to turn
#: ``--seconds`` into a fixed cycle count, never measured at run time.
NOMINAL_CYCLE_S = 0.68


@dataclass(frozen=True)
class Sizes:
    """Input sizes and repeat counts (the benchmark's; tests pass smaller ones)."""

    small_rows: int = 600
    large_factor: int = 4
    #: CSV rows per companion entity.  At one entity per ten rows parsing the
    #: companion costs about as much as salvaging the CSV; one per row would
    #: make it about ten times as much (README.md, "Layer shares").
    companion_divisor: int = 10
    kb_rows: int = 200
    setup_repeats: int = 5
    min_cycles: int = 28


@dataclass(frozen=True)
class Source:
    """One pool entry: the CSV bytes a portal publishes plus its companion graph."""

    index: int
    name: str
    generator: str
    csv: bytes
    ntriples: str
    ctypes: dict
    roles: dict


@dataclass
class Inputs:
    """Everything generated from the seed before set-up starts."""

    pool: list[Source]
    kb_samples: list
    cycles: int
    sizes: Sizes
    workdir: Path


def knowledge_base_samples(rows: int) -> list:
    """Clean samples of the four civic generators (fixed, not seeded by the run)."""
    return [generator(n_rows=rows, seed=100 + i) for i, generator in enumerate(CIVIC_GENERATORS.values())]


def build_knowledge_base(samples: list) -> KnowledgeBase:
    """The DQ4DM knowledge base the advisor answers from."""
    plan = ExperimentPlan(
        criteria=("completeness", "accuracy", "balance", "duplication"),
        simple_severities=(0.0, 0.2, 0.4),
        mixed_combinations=({"completeness": 0.25, "accuracy": 0.25},),
    )
    profile = UserProfile(name="perfbench", algorithms=KB_ALGORITHMS, cv_folds=3)
    return ExperimentRunner(profile=profile, plan=plan).run(samples)


def make_pool(seed: int, sizes: Sizes) -> list[Source]:
    """The fixed pool of dirty sources for ``seed``."""
    pool = []
    for index, generator in enumerate(POOL_GENERATORS):
        large = (index + 1) % LARGE_EVERY == 0
        rows = sizes.small_rows * (sizes.large_factor if large else 1)
        source_seed = seed * 1000 + index
        dataset = CIVIC_GENERATORS[generator](n_rows=rows, seed=source_seed, dirty=True)
        csv = apply_corruptions(write_csv_text(dataset).encode("utf-8"), CORRUPTIONS, seed=source_seed)
        readings = air_quality(n_rows=max(rows // sizes.companion_divisor, 12), seed=source_seed + 500)
        pool.append(
            Source(
                index=index,
                name=f"{generator}_{index}",
                generator=generator,
                csv=csv,
                ntriples=to_ntriples(civic_lod_graph(readings, entity_class="AirQualityReading")),
                ctypes={c.name: c.ctype for c in dataset.columns},
                roles={c.name: c.role for c in dataset.columns if c.role != ColumnRole.FEATURE},
            )
        )
    return pool


def prepare(seed: int, seconds: int, workdir: Path, sizes: Sizes = Sizes()) -> Inputs:
    """Generate the inputs; the cycle count follows from ``seconds`` alone."""
    cycles = max(sizes.min_cycles, round(seconds / NOMINAL_CYCLE_S))
    return Inputs(make_pool(seed, sizes), knowledge_base_samples(sizes.kb_rows), cycles, sizes, workdir)


@dataclass
class _OpResult:
    """What one op produced, kept for the work record and the output check."""

    algorithm: str
    profile: object
    shape: tuple[int, int]
    flagged_cells: int
    cells: int
    cv_accuracy: float
    store_bytes: int


def _run_op(source: Source, advisor: Advisor, store_path: Path, tracer, op: int) -> _OpResult:
    """One source through the whole pipeline, one span per layer call."""
    measured, target, higher_is_better = BI_SPECS[source.generator]
    with tracer.span("op", op=op):
        with tracer.span("recovery.salvage"):
            salvaged = salvage_csv(source.csv, name=source.name, ctypes=source.ctypes, roles=source.roles)
        with tracer.span("lod.parse"):
            graph = parse_ntriples(source.ntriples)
        with tracer.span("lod.tabulate"):
            readings = tabulate_entities(graph, CIVIC.AirQualityReading)
            readings = readings.select_columns(["district", "no2", "pm10"])
            pollution = group_by(
                readings, ["district"], {"mean_no2": ("no2", "mean"), "mean_pm10": ("pm10", "mean")}
            )
        with tracer.span("tabular.join"):
            integrated = join(salvaged.dataset, pollution, on="district", how="left")
        with tracer.span("quality.profile"):
            profile = measure_quality(integrated)
        with tracer.span("core.advise"):
            algorithm = advisor.advise_profile(profile).best_algorithm
        with tracer.span("mining.cv"):
            evaluation = cross_validate(CLASSIFIER_REGISTRY[algorithm], integrated, k=3, seed=0)
        with tracer.span("bi.cube_kpi"):
            cube = Cube(
                integrated,
                dimensions=[Dimension("district", ("district",))],
                measures=[Measure("mean", measured, "mean"), Measure("n", measured, "count")],
            )
            cube.aggregate(["district"])
            kpi = KPI("kpi", measured, target=target, higher_is_better=higher_is_better)
            evaluate_kpis_by_level([kpi], cube, "district")
        with tracer.span("store.save"):
            save_dataset(integrated, store_path)
        with tracer.span("store.open"):
            open_dataset(store_path).close()
    report = salvaged.report
    return _OpResult(
        algorithm, profile, (integrated.n_rows, integrated.n_columns), report.n_flagged_cells,
        report.n_cells, evaluation.accuracy, store_path.stat().st_size,
    )


def _work_entry(source: Source, result: _OpResult) -> dict:
    return {
        "source": source.name,
        "algorithm": result.algorithm,
        "shape": list(result.shape),
        "flagged_cells": result.flagged_cells,
        "cells": result.cells,
        "cv_accuracy": repr(result.cv_accuracy),
        "csv_bytes": len(source.csv),
        "store_bytes": result.store_bytes,
    }


def run_phase(inputs: Inputs, tracer=NULL_TRACER) -> Phase:
    """Set up, warm up, run the timed cycles, then check every source's store."""
    phase = Phase()
    for _ in range(inputs.sizes.setup_repeats):
        with tracer.span("core.kb_build"):
            start = time.perf_counter()
            knowledge_base = build_knowledge_base(inputs.kb_samples)
            phase.setup.append(time.perf_counter() - start)
    advisor = Advisor(knowledge_base, k=5)
    stores = [inputs.workdir / f"source_{source.index}.rps" for source in inputs.pool]

    expected: dict[int, dict] = {}
    last: dict[int, _OpResult] = {}
    for source in inputs.pool:  # one warm-up cycle, which also fixes the expected work
        result = _run_op(source, advisor, stores[source.index], NULL_TRACER, -1)
        expected[source.index] = _work_entry(source, result)

    # What exists now (imports, the pool, the knowledge base) lives as long as
    # the run; frozen, it is not rescanned by every full collection an op triggers.
    gc.collect()
    gc.freeze()
    phase_start = time.perf_counter()
    for cycle in range(inputs.cycles):
        for source in inputs.pool:
            op = cycle * len(inputs.pool) + source.index
            phase.attempted += 1
            start = time.perf_counter()
            try:
                result = _run_op(source, advisor, stores[source.index], tracer, op)
            except Exception:  # one failing op must not end the run
                phase.failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            phase.latencies.append(time.perf_counter() - start)
            last[source.index] = result
            entry = _work_entry(source, result)
            if expected[source.index] != entry:
                phase.mismatches.append(f"{source.name}: op {op} did different work than the warm-up")
    phase.elapsed = time.perf_counter() - phase_start
    gc.unfreeze()
    phase.peak_rss_mb = own_peak_rss_mb()

    for source in inputs.pool:
        if source.index not in last:
            phase.mismatches.append(f"{source.name}: no op completed")
            continue
        reopened = open_dataset(stores[source.index])
        try:
            if profile_bytes(measure_quality(reopened)) != profile_bytes(last[source.index].profile):
                phase.mismatches.append(f"{source.name}: reopened .rps profile differs from in-memory")
        finally:
            reopened.close()

    entries = [expected[index] for index in sorted(expected)]
    phase.work = {"cycles": inputs.cycles, "sources": entries}
    if tracer.enabled:
        phase.spans = tracer.spans
        phase.layers = _layer_metrics(tracer.spans, entries)
    return phase


def _layer_metrics(spans, entries: list[dict]) -> dict[str, float]:
    """The kdd_pipeline per-layer metrics from a traced phase."""
    layers = layer_ms(spans)
    layers["core.kb_build_s"] = root_medians(spans)["core.kb_build"]
    layers["recovery.repaired_cell_share"] = (
        sum(e["flagged_cells"] for e in entries) / sum(e["cells"] for e in entries)
    )
    layers["store.bytes_per_input_byte"] = (
        sum(e["store_bytes"] for e in entries) / sum(e["csv_bytes"] for e in entries)
    )
    for algorithm in KB_ALGORITHMS:
        layers[f"mining.advised.{algorithm}"] = float(sum(e["algorithm"] == algorithm for e in entries))
    return layers
