"""Criterion base class, measurement record and global registry."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Protocol

from repro.exceptions import DataQualityError
from repro.tabular.dataset import Dataset
from repro.tabular.encoded import EncodedDataset
from repro.tiers import use_reference


@dataclass(frozen=True)
class CriterionMeasure:
    """The outcome of measuring one criterion on one dataset.

    ``score`` is in ``[0, 1]`` with 1.0 meaning perfect quality; ``details``
    holds criterion-specific breakdowns (e.g. per-column completeness).
    """

    criterion: str
    score: float
    details: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Reject a score outside ``[0, 1]``."""
        if not 0.0 <= self.score <= 1.0:
            raise DataQualityError(
                f"criterion {self.criterion!r} produced a score outside [0, 1]: {self.score}"
            )


class CriterionState(Protocol):
    """A criterion's running counts over a dataset's rows, which appended rows extend."""

    def update(self, encoded: EncodedDataset, start: int) -> None:
        """Fold in rows ``start:`` of ``encoded``, the rows folded so far followed by appended ones."""

    def build(self, encoded: EncodedDataset) -> CriterionMeasure:
        """The measure of the rows folded so far, whose encoding is ``encoded``."""


class Criterion(ABC):
    """A measurable data quality criterion.

    Subclasses define :attr:`name`, a short :attr:`description` and implement
    :meth:`measure`.  Construction arguments configure thresholds; measurement
    never mutates the dataset.

    Criteria follow the same two-tier execution protocol as the classifiers in
    :mod:`repro.mining.base`: :meth:`measure` is the mandatory row-at-a-time
    **reference implementation**, and :meth:`_measure_encoded` is an optional
    vectorized implementation over the cached encoded-matrix views of the
    dataset (:mod:`repro.tabular.encoded`).  :meth:`measure_encoded` — the
    entry point used by :func:`repro.quality.profile.measure_quality` — tries
    the encoded path first and transparently falls back to :meth:`measure`, so
    criteria opt into vectorization without changing the public API.  Inside
    :func:`repro.tiers.reference` it calls :meth:`measure` directly.

    A criterion measured from running counts implements :meth:`delta_state`
    instead: its encoded tier *is* that state, seeded and built, and
    :class:`repro.feeds.IncrementalProfile` folds appended rows into it.
    """

    #: Registry key; subclasses override.
    name: str = "criterion"
    #: One-line human readable description used in reports.
    description: str = ""

    @abstractmethod
    def measure(self, dataset: Dataset) -> CriterionMeasure:
        """Measure this criterion on ``dataset`` (row-at-a-time reference)."""

    def delta_state(self, encoded: EncodedDataset) -> CriterionState | None:
        """This criterion's running state, seeded over the rows of ``encoded``; ``None`` if it has none.

        The state carries the encoded tier's bit-identity contract, and after
        ``update(merged, start)`` builds what a state seeded over ``merged``
        builds.  Implementations guard with :meth:`_uses_reference_tiers`: a
        subclass overriding :meth:`measure` or :meth:`_measure_encoded` gets
        no state, so one rule decides both tiers.
        """
        return None

    def _measure_encoded(self, encoded: EncodedDataset) -> CriterionMeasure | None:
        """Vectorized measurement over an encoded dataset view.

        The default seeds :meth:`delta_state` and builds it, or returns
        ``None`` without a state, to fall back to :meth:`measure`.
        Implementations must be **bit-identical** to the reference path: the
        same ``score`` float and an equal ``details`` dict (same keys, same
        key order, same plain-Python value types), which in practice means
        replicating the reference float arithmetic operation for operation —
        same summation order, same ``math`` vs ``numpy`` calls — rather than
        merely computing the same quantity.  Implementations must not mutate
        the shared encoded views, and must start by guarding with
        :meth:`_uses_reference_measure` so subclasses that override
        :meth:`measure` keep their customised behaviour.
        """
        state = self.delta_state(encoded)
        return None if state is None else state.build(encoded)

    def _uses_reference_measure(self, owner: type) -> bool:
        """True when this instance inherits ``owner``'s :meth:`measure`.

        An encoded path replicates one specific reference implementation; a
        subclass that overrides :meth:`measure` must get its own behaviour, so
        every :meth:`_measure_encoded` guards on this before engaging (the
        quality-side analogue of ``Classifier._uses_base_impl``).
        """
        return type(self).measure is owner.measure

    def _uses_reference_tiers(self, owner: type) -> bool:
        """True when this instance inherits ``owner``'s :meth:`measure` and :meth:`_measure_encoded`."""
        return self._uses_reference_measure(owner) and type(self)._measure_encoded is owner._measure_encoded

    def measure_encoded(self, encoded: EncodedDataset) -> CriterionMeasure:
        """Measure against ``encoded``, preferring the vectorized path.

        This is how :func:`~repro.quality.profile.measure_quality` invokes
        criteria: the profile encodes the dataset once and hands the same
        :class:`~repro.tabular.encoded.EncodedDataset` to every criterion, so
        column encodings are shared across criteria (and with any mining that
        runs on the dataset afterwards, e.g. the advisor's cross-validation).
        """
        if not use_reference():
            result = self._measure_encoded(encoded)
            if result is not None:
                return result
        return self.measure(encoded.dataset)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """The class name, as a call."""
        return f"{type(self).__name__}()"


#: Global registry criterion name → criterion class.
CRITERIA_REGISTRY: dict[str, type[Criterion]] = {}


def register_criterion(cls: type[Criterion]) -> type[Criterion]:
    """Class decorator adding a criterion to :data:`CRITERIA_REGISTRY`."""
    if not issubclass(cls, Criterion):
        raise DataQualityError(f"{cls!r} is not a Criterion subclass")
    if not cls.name or cls.name == "criterion":
        raise DataQualityError(f"{cls.__name__} must define a unique name")
    CRITERIA_REGISTRY[cls.name] = cls
    return cls


def get_criterion(name: str, **kwargs: Any) -> Criterion:
    """Instantiate a registered criterion by name."""
    try:
        cls = CRITERIA_REGISTRY[name]
    except KeyError:
        raise DataQualityError(
            f"unknown data quality criterion {name!r}; known: {sorted(CRITERIA_REGISTRY)}"
        ) from None
    return cls(**kwargs)
