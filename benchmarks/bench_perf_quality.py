"""BENCH-PERF-QUALITY — encoded-core data-quality profiling vs the row path.

Times ``measure_quality`` — the profiling stage the advisor runs on every
incoming dataset — over a mixed-type dataset (numeric, categorical, boolean,
datetime and free-text columns, with injected missing values and fuzzy
near-duplicates) at 10k rows, for both execution paths: the vectorized
``_measure_encoded`` criteria over the shared encoded views, and the retained
row-at-a-time reference path (inside ``repro.tiers.reference()``).  The
``profile`` case's encoded timing includes encoding the dataset from scratch
(the instance cache is dropped before every run), so its speedup is what a
cold ``advise`` call actually sees; one case per criterion, over a warm
encoding, attributes regressions.  Identity covers the profile vector and
its JSON form, and each criterion's measure.  ``benchmarks/_harness.py``
runs it, records ``BENCH_perf_quality.json`` and guards it with ``--quick``.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core.injection import DuplicateInjector, MissingValuesInjector
from repro.datasets import make_classification_dataset
from repro.quality import get_criterion, measure_quality
from repro.quality.profile import DEFAULT_CRITERIA
from repro.tabular.dataset import Column, ColumnType, Dataset
from repro.tabular.encoded import encode_dataset
from repro.tiers import reference

try:
    from benchmarks import _harness
except ModuleNotFoundError:  # run as a script
    import _harness

FULL = {"10000": dict(n_rows=10_000)}
QUICK = {"2000": dict(n_rows=2_000, repeats=3)}
GUARDED = ("profile",)


def _dataset(n_rows: int) -> Dataset:
    """A dirty mixed-type source of ``n_rows`` rows."""
    base = make_classification_dataset(n_rows=n_rows, n_numeric=4, n_categorical=2, seed=0)
    rng = np.random.default_rng(1)
    base = base.add_column(
        Column("flag", rng.choice([True, False], size=n_rows).tolist(), ctype=ColumnType.BOOLEAN)
    )
    base = base.add_column(
        Column("day", [f"2024-0{(i % 9) + 1}-1{i % 10}" for i in range(n_rows)], ctype=ColumnType.DATETIME)
    )
    base = base.add_column(
        Column(
            "note",
            [f"Observation  #{i % 211}" if i % 3 else f"observation #{i % 211}" for i in range(n_rows)],
            ctype=ColumnType.STRING,
        )
    )
    base = DuplicateInjector(fuzzy=True).apply(base, 0.1, seed=2)
    return MissingValuesInjector().apply(base, 0.1, seed=3)


def _same_profile(fast, slow) -> bool:
    return (
        list(fast.as_vector(DEFAULT_CRITERIA)) == list(slow.as_vector(DEFAULT_CRITERIA))
        and fast.to_json_dict() == slow.to_json_dict()
    )


def cases(n_rows: int, repeats: int = 1) -> dict:
    """Time the whole profile, then each criterion, encoded vs row."""
    dataset = _dataset(n_rows)

    def encoded_run():
        _harness.drop_caches(dataset)
        return measure_quality(dataset)

    results = {
        "profile": _harness.compare(
            encoded_run, reference()(lambda: measure_quality(dataset)), repeats, same=_same_profile
        )
    }
    encoded = encode_dataset(dataset)
    for name in DEFAULT_CRITERIA:
        results[name] = _harness.compare(
            lambda: get_criterion(name).measure_encoded(encoded),
            lambda: get_criterion(name).measure(dataset),
            repeats,
            same=lambda a, b: _harness.bits(a.score) == _harness.bits(b.score) and a == b,
        )
    return results


def check(sizes: dict) -> None:
    """The encoded profile at 10k rows must beat the row path ≥5×."""
    speedup = sizes["10000"]["profile"]["speedup"]
    assert speedup >= 5.0, f"profiling speedup at 10k rows is {speedup:.1f}x, below the 5x bar"


if __name__ == "__main__":
    sys.exit(_harness.main(sys.modules[__name__]))
