"""Shared fixtures and helpers for the paper benchmarks.

Every paper benchmark regenerates one artefact of the paper (a figure's
pipeline or one of the §3.1 experiment tables) and prints the resulting
rows/series; ``pytest benchmarks/bench_<name>.py -s`` reproduces one of them.
The files are named ``bench_*.py``, so pytest collects them only when named
on the command line.
"""

from __future__ import annotations

import pytest

from benchmarks._harness import print_table  # noqa: F401 - shared with the paper benchmarks
from repro.core import ExperimentPlan, ExperimentRunner, UserProfile
from repro.datasets import make_classification_dataset, municipal_budget

#: Algorithms compared across all experiment benchmarks.
BENCH_ALGORITHMS = ("decision_tree", "naive_bayes", "knn", "logistic_regression", "one_r", "prism")

#: Smaller subset used where the full set would make the benchmark too slow.
FAST_ALGORITHMS = ("decision_tree", "naive_bayes", "knn", "one_r")


def reference_dataset(n_rows: int = 150, seed: int = 0):
    """The clean reference sample every Phase-1/Phase-2 experiment starts from."""
    return make_classification_dataset(n_rows=n_rows, n_numeric=4, n_categorical=2, seed=seed)


@pytest.fixture(scope="session")
def bench_knowledge_base():
    """A knowledge base shared by the Figure-2 / advisor / ablation benchmarks."""
    runner = ExperimentRunner(
        profile=UserProfile(name="bench", algorithms=FAST_ALGORITHMS, cv_folds=3),
        plan=ExperimentPlan(
            criteria=("completeness", "accuracy", "balance", "correlation", "dimensionality"),
            simple_severities=(0.0, 0.2, 0.4),
            mixed_severity=0.25,
        ),
    )
    datasets = [reference_dataset(seed=0), municipal_budget(n_rows=150, seed=1)]
    return runner.run(datasets)
