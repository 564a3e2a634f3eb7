"""BENCH-PERF-CORE — encoded-matrix cross-validation vs the row path.

Times 3-fold cross-validation of every registry classifier with a
vectorized path (kNN, naive Bayes, decision tree, OneR, PRISM and the
bagged-tree ensemble) at n ∈ {500, 2000} rows, for both the vectorized
batch path and the retained row-at-a-time reference path (the same call
inside ``repro.tiers.reference()``, where the batch hooks and the encoded
fits stand aside).  The row numbers are *not*
pure seed timings: the row loops still benefit from the encoded fold slicing
and vectorized metrics of the current code, so ``speedup`` isolates
batch-vs-row execution and slightly understates the end-to-end gain over the
original seed implementation (the seed's full kNN CV at 2000 rows measured
~22.8s).  Identity covers accuracy, macro-F1, kappa and every fold's
accuracy.  ``benchmarks/_harness.py`` runs it, records
``BENCH_perf_core.json`` and guards it with ``--quick``.
"""

from __future__ import annotations

import sys

from repro.datasets import make_classification_dataset
from repro.mining import CLASSIFIER_REGISTRY, cross_validate
from repro.tiers import reference

try:
    from benchmarks import _harness
except ModuleNotFoundError:  # run as a script
    import _harness

CV_FOLDS = 3
#: Registry classifiers with a vectorized path, timed batch-vs-row.
CLASSIFIERS = ("knn", "naive_bayes", "decision_tree", "one_r", "prism", "bagged_trees")
GUARDED = ("knn", "naive_bayes", "decision_tree")
FULL = {str(n): dict(n_rows=n) for n in (500, 2000)}
QUICK = {"400": dict(n_rows=400, classifiers=GUARDED, repeats=3)}


def _same_scores(fast, slow) -> bool:
    return (
        fast.accuracy == slow.accuracy
        and fast.macro_f1 == slow.macro_f1
        and fast.kappa == slow.kappa
        and fast.fold_accuracies == slow.fold_accuracies
    )


def cases(n_rows: int, classifiers: tuple[str, ...] = CLASSIFIERS, repeats: int = 1) -> dict:
    """Time batch vs row cross-validation of each classifier."""
    dataset = make_classification_dataset(n_rows=n_rows, n_numeric=4, n_categorical=2, seed=0)
    results = {}
    for name in classifiers:
        def run():
            return cross_validate(CLASSIFIER_REGISTRY[name], dataset, k=CV_FOLDS, seed=0)

        results[name] = _harness.compare(run, reference()(run), repeats, same=_same_scores)
    return results


def check(sizes: dict) -> None:
    """kNN and tree cross-validation at 2000 rows must beat the row path ≥5×."""
    for name in ("knn", "decision_tree"):
        speedup = sizes["2000"][name]["speedup"]
        assert speedup >= 5.0, f"{name} CV speedup at 2000 rows is {speedup:.1f}x, below the 5x bar"


if __name__ == "__main__":
    sys.exit(_harness.main(sys.modules[__name__]))
