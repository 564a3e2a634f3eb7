"""BENCH-PERF-RECOVERY — salvage tier vs the strict readers on clean input.

The recovery tier (:mod:`repro.recovery`) promises two things: on **clean**
input it produces the bit-identical dataset/graph of the strict reference
readers at a modest constant-factor overhead, and on **corrupt** input it
recovers a predictable fraction of the payload instead of raising.  The
fast tier here is the *tolerant* one, so each case's ``speedup`` is
``strict_s / salvage_s`` — the inverse of the salvage overhead, under 1
when salvage costs more:

``clean_csv``
    ``salvage_csv_text`` vs ``read_csv_text`` on a clean 10k-row CSV, plus
    the cell recovery rates of the seeded corruption sweep (severities
    0.1 / 0.3 / 0.6): every corrupt → salvage → profile round trip must
    profile without raising.
``clean_ntriples``
    ``salvage_ntriples`` vs ``parse_ntriples`` on clean N-Triples describing
    1k entities, plus the sweep's line recovery rates.

The sweep is deterministic (seeded corruption, deterministic salvage), so
the quick guard requires the recorded ``recovery_rates`` exactly.
``benchmarks/_harness.py`` runs it, records ``BENCH_perf_recovery.json``
and guards it with ``--quick``.
"""

from __future__ import annotations

import sys

from repro.datasets import make_classification_dataset
from repro.lod.publish import publish_dataset
from repro.lod.serialization import parse_ntriples, to_ntriples
from repro.quality import measure_quality
from repro.recovery import apply_corruptions, salvage_csv, salvage_csv_text, salvage_ntriples
from repro.tabular.io_csv import read_csv_text, write_csv_text

try:
    from benchmarks import _harness
except ModuleNotFoundError:  # run as a script
    import _harness

FULL = {"csv=10000,nt=1000": dict(csv_rows=10_000, nt_rows=1_000)}
QUICK = {"csv=2000,nt=300": dict(csv_rows=2_000, nt_rows=300, repeats=3)}
GUARDED = ("clean_csv", "clean_ntriples")
EXACT_FIELDS = ("recovery_rates",)
#: Severities of the seeded corruption sweep.
SWEEP_SEVERITIES = (0.1, 0.3, 0.6)
SWEEP_SEED = 0


def _csv_rate(csv_text: str, severity: float) -> float:
    """Corrupt → salvage → profile the CSV payload at one severity."""
    corrupted = apply_corruptions(
        csv_text.encode(),
        {
            "ragged_rows": severity,
            "quotes": severity * 0.5,
            "newlines": severity * 0.5,
            "encoding": severity * 0.5,
        },
        seed=SWEEP_SEED,
    )
    dataset, report = salvage_csv(corrupted)
    measure_quality(dataset)  # the round trip must always profile cleanly
    return report.cell_recovery_rate


def _nt_rate(nt_text: str, severity: float) -> float:
    """Corrupt → salvage the N-Triples payload at one severity."""
    corrupted = apply_corruptions(
        nt_text.encode(), {"nt_dots": severity, "nt_garbage": severity * 0.5}, seed=SWEEP_SEED
    )
    return salvage_ntriples(corrupted.decode("utf-8", errors="replace"))[1].line_recovery_rate


def cases(csv_rows: int, nt_rows: int, repeats: int = 1) -> dict:
    """Time salvage vs strict on clean payloads, then sweep the corruptions."""
    csv_text = write_csv_text(
        make_classification_dataset(n_rows=csv_rows, n_numeric=4, n_categorical=2, seed=0)
    )
    nt_text = to_ntriples(
        publish_dataset(make_classification_dataset(n_rows=nt_rows, n_numeric=2, n_categorical=1, seed=0))
    )
    strict_ds, strict_csv_s = _harness.timed(lambda: read_csv_text(csv_text), repeats)
    salvaged, salvage_csv_s = _harness.timed(lambda: salvage_csv_text(csv_text), repeats)
    strict_graph, strict_nt_s = _harness.timed(lambda: parse_ntriples(nt_text), repeats)
    nt_result, salvage_nt_s = _harness.timed(lambda: salvage_ntriples(nt_text), repeats)
    return {
        "clean_csv": _harness.case(
            salvage_csv_s,
            strict_csv_s,
            salvaged.dataset == strict_ds and salvaged.report.is_clean,
            recovery_rates=[_csv_rate(csv_text, severity) for severity in SWEEP_SEVERITIES],
        ),
        "clean_ntriples": _harness.case(
            salvage_nt_s,
            strict_nt_s,
            to_ntriples(nt_result.graph) == to_ntriples(strict_graph) and nt_result.report.is_clean,
            recovery_rates=[_nt_rate(nt_text, severity) for severity in SWEEP_SEVERITIES],
        ),
    }


def check(sizes: dict) -> None:
    """Clean salvage costs at most 5× the strict reader; recovery rates keep their floors."""
    for name, floor in (("clean_csv", 0.5), ("clean_ntriples", 0.3)):
        stats = sizes["csv=10000,nt=1000"][name]
        assert stats["speedup"] >= 0.2, f"{name} salvage overhead is {1 / stats['speedup']:.1f}x, above 5x"
        assert min(stats["recovery_rates"]) > floor, f"{name} recovery rates {stats['recovery_rates']}"


if __name__ == "__main__":
    sys.exit(_harness.main(sys.modules[__name__]))
