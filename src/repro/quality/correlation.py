"""Correlation / redundancy among the attributes.

The paper's running example: "if some attributes are selected as input for a
classification algorithm (being some of them strongly correlated), the
resulting knowledge pattern, though correct, will not provide the useful
expected value" (§3.1).  The criterion therefore scores how *non-redundant*
the feature set is.

The encoded path computes Pearson directly on the cached float views (no
per-cell list round-trips) and Cramér's V from one ``bincount`` over the
shifted code pairs of all rows, whose missing row and column are dropped and
whose remaining levels are laid out in sorted-string order; both replicate
the reference arithmetic of :mod:`repro.tabular.stats` operation for
operation, so the scores are bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

from repro.quality.criteria import Criterion, CriterionMeasure, register_criterion
from repro.tabular.dataset import Column, ColumnType, Dataset
from repro.tabular.encoded import EncodedDataset
from repro.tabular.stats import cramers_v, pearson


@register_criterion
class CorrelationCriterion(Criterion):
    """1.0 minus the share of feature pairs that are strongly associated.

    Numeric pairs use |Pearson| and categorical pairs use Cramér's V; a pair
    counts as redundant when its association exceeds ``threshold``.  The score
    also reports the mean absolute association in the details so degradation
    is visible before any pair crosses the threshold.  At most ``max_pairs``
    pairs are examined (numeric pairs first); the cap ends the examination
    outright on both execution paths.
    """

    name = "correlation"
    description = "Degree to which features are not redundant with each other."

    def __init__(self, threshold: float = 0.9, max_pairs: int = 2000) -> None:
        """Count pairs associated above ``threshold``, examining at most ``max_pairs``."""
        self.threshold = threshold
        self.max_pairs = max_pairs

    @staticmethod
    def _split_features(dataset: Dataset) -> tuple[list[Column], list[Column]]:
        features = dataset.feature_columns()
        numeric = [c for c in features if c.is_numeric()]
        categorical = [c for c in features if c.ctype in (ColumnType.CATEGORICAL, ColumnType.BOOLEAN)]
        return numeric, categorical

    def measure(self, dataset: Dataset) -> CriterionMeasure:
        """Measure each feature pair's association from the column values."""
        numeric, categorical = self._split_features(dataset)
        return self._measure_pairs(
            numeric,
            categorical,
            lambda a, b: pearson(a.values, b.values),
            cramers_v,
        )

    def _measure_encoded(self, encoded: EncodedDataset) -> CriterionMeasure | None:
        if not self._uses_reference_measure(CorrelationCriterion):
            return None
        numeric, categorical = self._split_features(encoded.dataset)
        return self._measure_pairs(
            numeric,
            categorical,
            lambda a, b: _pearson_encoded(encoded, a.name, b.name),
            lambda a, b: _cramers_v_encoded(encoded, a.name, b.name),
        )

    def _measure_pairs(self, numeric, categorical, numeric_assoc, categorical_assoc) -> CriterionMeasure:
        associations: list[float] = []
        redundant_pairs: list[tuple[str, str, float]] = []

        def consider(name_a: str, name_b: str, value: float) -> None:
            if math.isnan(value):
                return
            associations.append(abs(value))
            if abs(value) >= self.threshold:
                redundant_pairs.append((name_a, name_b, float(value)))

        pairs_examined = 0
        capped = False
        for columns, assoc in ((numeric, numeric_assoc), (categorical, categorical_assoc)):
            for i in range(len(columns)):
                for j in range(i + 1, len(columns)):
                    if pairs_examined >= self.max_pairs:
                        capped = True
                        break
                    consider(columns[i].name, columns[j].name, assoc(columns[i], columns[j]))
                    pairs_examined += 1
                if capped:
                    break
            if capped:
                break

        if not associations:
            return CriterionMeasure(self.name, 1.0, {"n_pairs": 0, "redundant_pairs": []})

        n_pairs = len(associations)
        redundant_share = len(redundant_pairs) / n_pairs
        mean_association = float(np.mean(associations))
        # Blend: crossing the threshold dominates, pervasive moderate
        # correlation still lowers the score.
        score = 1.0 - (0.7 * redundant_share + 0.3 * mean_association)
        return CriterionMeasure(
            criterion=self.name,
            score=max(min(score, 1.0), 0.0),
            details={
                "n_pairs": n_pairs,
                "mean_association": mean_association,
                "max_association": float(np.max(associations)),
                "redundant_pairs": [
                    {"a": a, "b": b, "association": value} for a, b, value in redundant_pairs
                ],
            },
        )


def _pearson_encoded(encoded: EncodedDataset, name_a: str, name_b: str) -> float:
    """:func:`repro.tabular.stats.pearson` over the cached float views.

    Same masking, same ``np.corrcoef`` call on the same float64 arrays as the
    reference — only the per-cell ``list``/``asarray`` round-trip is skipped.
    """
    xa, _ = encoded.numeric_view(name_a)
    ya, _ = encoded.numeric_view(name_b)
    mask = ~(np.isnan(xa) | np.isnan(ya))
    xa, ya = xa[mask], ya[mask]
    if xa.size < 2:
        return float("nan")
    if xa.std() == 0 or ya.std() == 0:
        return 0.0
    return float(np.corrcoef(xa, ya)[0, 1])


def _cramers_v_encoded(encoded: EncodedDataset, name_a: str, name_b: str) -> float:
    """:func:`repro.tabular.stats.cramers_v` from one bincount over code pairs.

    Codes shift by one, so pairs with a missing cell land in row or column 0
    of the count table, which are dropped.  The levels kept are those with a
    nonzero margin in what remains — the reference's
    ``sorted({str(x) for x, _ in pairs})`` over the complete pairs — laid out
    in sorted-string order exactly like the reference, because the float
    reductions over the table (``sum``, ``nansum``) are order-sensitive in
    the last bit.
    """
    codes_a, vocab_a, _ = encoded.codes_view(name_a)
    codes_b, vocab_b, _ = encoded.codes_view(name_b)
    width = len(vocab_b) + 1
    counts = np.bincount((codes_a + 1) * width + (codes_b + 1), minlength=(len(vocab_a) + 1) * width)
    counts = counts.reshape(len(vocab_a) + 1, width)[1:, 1:]
    rows = _levels_by_string(counts.sum(axis=1), vocab_a)
    cols = _levels_by_string(counts.sum(axis=0), vocab_b)
    n_a, n_b = len(rows), len(cols)
    if n_a < 2 or n_b < 2:
        return 0.0
    table = counts[np.ix_(rows, cols)].astype(float)
    n = table.sum()
    row_sums = table.sum(axis=1, keepdims=True)
    col_sums = table.sum(axis=0, keepdims=True)
    expected = row_sums @ col_sums / n
    with np.errstate(divide="ignore", invalid="ignore"):
        chi2 = np.nansum(np.where(expected > 0, (table - expected) ** 2 / expected, 0.0))
    phi2 = chi2 / n
    return float(math.sqrt(phi2 / min(n_a - 1, n_b - 1)))


def _levels_by_string(margin: np.ndarray, vocabulary: list[str]) -> list[int]:
    """Codes of the levels with a nonzero ``margin``, ordered by level string."""
    return sorted(np.flatnonzero(margin).tolist(), key=vocabulary.__getitem__)
