"""Aggregating criterion measures into a data quality profile.

The :class:`DataQualityProfile` is the numeric fingerprint of a source's
quality.  It is what gets attached to the CWM-like common representation
(§3.2.2), stored alongside experiment results in the knowledge base, and
compared by the advisor when matching a new source against past experiments.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.exceptions import DataQualityError
from repro.quality.criteria import CRITERIA_REGISTRY, Criterion, CriterionMeasure, get_criterion
from repro.tabular.dataset import Dataset
from repro.tabular.encoded import encode_dataset

#: Criteria measured by default, in a stable order (this is also the order of
#: :meth:`DataQualityProfile.as_vector`).
DEFAULT_CRITERIA: tuple[str, ...] = (
    "completeness",
    "accuracy",
    "consistency",
    "duplication",
    "correlation",
    "balance",
    "dimensionality",
    "outliers",
)


@dataclass
class DataQualityProfile:
    """Measured data quality criteria of one dataset."""

    dataset_name: str
    measures: dict[str, CriterionMeasure] = field(default_factory=dict)

    # -- access -----------------------------------------------------------------

    def score(self, criterion: str) -> float:
        """The [0, 1] score of one criterion (1.0 = perfect)."""
        try:
            return self.measures[criterion].score
        except KeyError:
            raise DataQualityError(f"criterion {criterion!r} was not measured") from None

    def criteria(self) -> list[str]:
        """The measured criteria, in measurement order."""
        return list(self.measures)

    def as_dict(self) -> dict[str, float]:
        """Mapping criterion → score."""
        return {name: measure.score for name, measure in self.measures.items()}

    def as_vector(self, criteria: Sequence[str] | None = None) -> np.ndarray:
        """Scores as a vector in a stable criterion order (for distance computations)."""
        names = list(criteria) if criteria is not None else [c for c in DEFAULT_CRITERIA if c in self.measures]
        return np.asarray([self.score(name) for name in names], dtype=float)

    def details(self, criterion: str) -> dict[str, Any]:
        """Criterion-specific breakdown recorded during measurement."""
        try:
            return dict(self.measures[criterion].details)
        except KeyError:
            raise DataQualityError(f"criterion {criterion!r} was not measured") from None

    def overall(self, weights: Mapping[str, float] | None = None) -> float:
        """Weighted mean quality over all measured criteria."""
        if not self.measures:
            raise DataQualityError("profile has no measures")
        if weights is None:
            return float(np.mean([m.score for m in self.measures.values()]))
        total = 0.0
        weight_sum = 0.0
        for name, measure in self.measures.items():
            weight = float(weights.get(name, 0.0))
            total += weight * measure.score
            weight_sum += weight
        if weight_sum == 0:
            raise DataQualityError("weights sum to zero over the measured criteria")
        return total / weight_sum

    def worst_criteria(self, k: int = 3) -> list[tuple[str, float]]:
        """The ``k`` criteria with the lowest scores (the main quality problems)."""
        ranked = sorted(self.as_dict().items(), key=lambda kv: kv[1])
        return ranked[:k]

    def distance(self, other: "DataQualityProfile", criteria: Sequence[str] | None = None, weights: Mapping[str, float] | None = None) -> float:
        """Weighted Euclidean distance between two profiles over shared criteria."""
        if criteria is None:
            criteria = [c for c in DEFAULT_CRITERIA if c in self.measures and c in other.measures]
            if not criteria:
                criteria = sorted(set(self.measures) & set(other.measures))
        if not criteria:
            raise DataQualityError("profiles share no criteria to compare")
        total = 0.0
        for name in criteria:
            weight = float(weights.get(name, 1.0)) if weights else 1.0
            diff = self.score(name) - other.score(name)
            total += weight * diff * diff
        return float(np.sqrt(total))

    # -- serialisation ---------------------------------------------------------------

    def to_json_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation (scores and details)."""
        return {
            "dataset": self.dataset_name,
            "measures": {
                name: {"score": measure.score, "details": _jsonable(measure.details)}
                for name, measure in self.measures.items()
            },
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "DataQualityProfile":
        """Rebuild a profile from :meth:`to_json_dict`'s representation."""
        measures = {
            name: CriterionMeasure(criterion=name, score=float(entry["score"]), details=dict(entry.get("details", {})))
            for name, entry in payload.get("measures", {}).items()
        }
        return cls(dataset_name=str(payload.get("dataset", "unknown")), measures=measures)


def _jsonable(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    return value


def measure_quality(
    dataset: Dataset,
    criteria: Sequence[str | Criterion] | None = None,
    **criterion_kwargs: Mapping[str, Any],
) -> DataQualityProfile:
    """Measure a dataset against a set of criteria and return its profile.

    ``criteria`` may mix registered criterion names and already constructed
    :class:`~repro.quality.criteria.Criterion` instances; per-criterion
    keyword arguments can be passed as ``criterion_kwargs[name] = {...}``;
    a keyword that names no registered criterion is a ``TypeError``.

    The dataset is encoded **once** (via the instance cache of
    :func:`~repro.tabular.encoded.encode_dataset`) and the same
    :class:`~repro.tabular.encoded.EncodedDataset` views are shared by every
    criterion — and by whatever mining runs on the same dataset instance
    afterwards, e.g. the cross-validation following the advisor's advice.
    Inside :func:`repro.tiers.reference` every criterion takes its
    row-at-a-time reference path; both paths are bit-identical.
    """
    unknown = sorted(set(criterion_kwargs) - set(CRITERIA_REGISTRY))
    if unknown:
        raise TypeError(f"measure_quality() got unexpected keyword arguments {unknown}")
    encoded = encode_dataset(dataset)
    profile = DataQualityProfile(dataset_name=dataset.name)
    for criterion in _resolve_criteria(criteria, criterion_kwargs):
        profile.measures[criterion.name] = criterion.measure_encoded(encoded)
    return profile


def _resolve_criteria(
    criteria: Sequence[str | Criterion] | None, criterion_kwargs: Mapping[str, Any] | None = None
) -> list[Criterion]:
    """Instances for ``criteria`` (default :data:`DEFAULT_CRITERIA`), names built with their kwargs."""
    selected: list[Criterion] = []
    for item in criteria if criteria is not None else DEFAULT_CRITERIA:
        if isinstance(item, Criterion):
            selected.append(item)
        else:
            kwargs = dict(criterion_kwargs.get(item, {})) if criterion_kwargs else {}
            selected.append(get_criterion(str(item), **kwargs))
    return selected
