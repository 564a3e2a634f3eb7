"""Rule-induction classifiers: OneR and PRISM.

Both algorithms produce explicit IF/THEN rules, which is the most readable
model family for the non-expert users OpenBI targets.  Numeric features are
discretised into equal-width bins internally; missing values form their own
``"<missing>"`` category so incompleteness directly shows up in the rules.

Induction and prediction run on the encoded-matrix views from
:mod:`repro.tabular.encoded`: discretisation becomes a ``searchsorted`` over
the bin edges, contingency tables come from ``bincount`` over integer codes,
and the coverage/accuracy of every candidate PRISM condition is a boolean-mask
reduction over the code matrix.  The historical row-at-a-time implementations
are retained as the reference paths; candidate values are visited in sorted
order on both paths (the precision/coverage comparisons and tie-breaks are the
same scalar operations), so the encoded fits induce *identical* rules and the
batch predictions return exactly the labels the row loops would.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.exceptions import MiningError
from repro.mining.base import Classifier
from repro.tabular.dataset import Column, Dataset, is_missing_value
from repro.tabular.encoded import EncodedDataset, encode_dataset, merge_missing_level
from repro.tiers import use_reference

_MISSING = "<missing>"


def _bin_edges(values: list[float], bins: int) -> list[float]:
    low, high = min(values), max(values)
    if high <= low:
        return [low]
    return list(np.linspace(low, high, bins + 1))[1:-1]


def _discretise_value(value: Any, edges: list[float]) -> str:
    if is_missing_value(value):
        return _MISSING
    try:
        x = float(value)
    except (TypeError, ValueError):
        return _MISSING
    index = 0
    for edge in edges:
        if x > edge:
            index += 1
        else:
            break
    return f"bin{index}"


class _DiscretisingClassifier(Classifier):
    """Shared machinery: fit-time discretisation of numeric features."""

    def __init__(self, bins: int = 4) -> None:
        super().__init__()
        if bins < 2:
            raise MiningError("bins must be at least 2")
        self.bins = bins
        self._edges: dict[str, list[float]] = {}
        self._numeric: set[str] = set()

    # -- row-at-a-time path (reference implementation / fallback) -------------

    def _prepare_rows(self, dataset: Dataset, features: list[Column], target: Column, fit: bool):
        if fit:
            self._numeric = {c.name for c in features if c.is_numeric()}
            self._edges = {}
            for column in features:
                if not column.is_numeric():
                    continue
                present = [float(v) for v in column.non_missing()]
                self._edges[column.name] = _bin_edges(present, self.bins) if present else []
        rows = []
        labels = []
        target_values = target.tolist() if target is not None else [None] * dataset.n_rows
        feature_names = [c.name for c in features]
        for i, raw in enumerate(dataset.iter_rows()):
            row = {}
            for name in feature_names:
                value = raw.get(name)
                if name in self._numeric:
                    row[name] = _discretise_value(value, self._edges.get(name, []))
                else:
                    row[name] = _MISSING if is_missing_value(value) else str(value)
            rows.append(row)
            label = target_values[i]
            labels.append(None if label is None or is_missing_value(label) else str(label))
        return rows, labels

    def _discretise_row(self, row: dict[str, Any]) -> dict[str, str]:
        out = {}
        for name in self.feature_names_:
            value = row.get(name)
            if name in self._numeric:
                out[name] = _discretise_value(value, self._edges.get(name, []))
            else:
                out[name] = _MISSING if is_missing_value(value) else str(value)
        return out

    # -- encoded (vectorized) machinery ----------------------------------------

    def _fit_discretisation(self, features: list[Column], encoded: EncodedDataset) -> None:
        """Learn the numeric bin edges from the encoded numeric views.

        Float-identical to the ``fit=True`` branch of :meth:`_prepare_rows`:
        the edges depend only on the min/max of the present values.
        """
        self._numeric = {c.name for c in features if c.is_numeric()}
        self._edges = {}
        for column in features:
            if not column.is_numeric():
                continue
            values, missing = encoded.numeric_view(column.name)
            present = values[~missing]
            if present.size:
                low, high = float(present.min()), float(present.max())
                self._edges[column.name] = _bin_edges([low, high], self.bins)
            else:
                self._edges[column.name] = []

    def _discretised_codes(
        self, encoded: EncodedDataset, name: str
    ) -> tuple[np.ndarray, list[str]]:
        """Column ``name`` as ``(codes, levels)`` where ``levels[codes[i]]`` is
        exactly the string :meth:`_discretise_row` would produce for row ``i``."""
        if name in self._numeric:
            edges = self._edges.get(name, [])
            values, missing = encoded.numeric_view(name)
            # _discretise_value walks the (non-decreasing) edges and counts the
            # leading run of edges strictly below x — which is searchsorted.
            bins = np.searchsorted(np.asarray(edges, dtype=float), values, side="left")
            levels = [f"bin{i}" for i in range(len(edges) + 1)] + [_MISSING]
            codes = np.where(missing, len(levels) - 1, bins).astype(np.int64)
            return codes, levels
        codes, vocabulary, _ = encoded.codes_view(name)
        return merge_missing_level(codes, vocabulary, _MISSING)


class OneRClassifier(_DiscretisingClassifier):
    """Holte's 1R: a single-attribute rule set chosen to minimise training error."""

    name = "one_r"

    def __init__(self, bins: int = 4) -> None:
        super().__init__(bins=bins)
        self.best_feature_: str | None = None
        self.rules_: dict[str, str] = {}
        self.default_class_: str | None = None

    def _fit(self, dataset: Dataset, features: list[Column], target: Column) -> None:
        if self._encoded_fit_supported():
            self._fit_encoded(dataset, features, target)
        else:
            self._fit_rows(dataset, features, target)

    def _encoded_fit_supported(self) -> bool:
        return not use_reference() and self._uses_base_impl(
            OneRClassifier, "_fit_rows"
        ) and self._uses_base_impl(_DiscretisingClassifier, "_prepare_rows")

    def _fit_rows(self, dataset: Dataset, features: list[Column], target: Column) -> None:
        rows, labels = self._prepare_rows(dataset, features, target, fit=True)
        pairs = [(row, label) for row, label in zip(rows, labels) if label is not None]
        if not pairs:
            raise MiningError("no labelled rows to train on")
        overall = Counter(label for _, label in pairs)
        self.default_class_ = max(sorted(overall), key=overall.get)

        best_error = math.inf
        for name in (c.name for c in features):
            table: dict[str, Counter] = defaultdict(Counter)
            for row, label in pairs:
                table[row[name]][label] += 1
            rules = {value: max(sorted(counts), key=counts.get) for value, counts in table.items()}
            errors = sum(
                sum(counts.values()) - counts[rules[value]] for value, counts in table.items()
            )
            if errors < best_error:
                best_error = errors
                self.best_feature_ = name
                self.rules_ = rules

    def _fit_encoded(self, dataset: Dataset, features: list[Column], target: Column) -> None:
        """Contingency tables via bincount over the discretised code matrix;
        induces exactly the rules :meth:`_fit_rows` would."""
        encoded = encode_dataset(dataset)
        self._fit_discretisation(features, encoded)
        target_values = target.tolist()
        keep = np.asarray(
            [i for i, v in enumerate(target_values) if not is_missing_value(v)], dtype=np.intp
        )
        if keep.size == 0:
            raise MiningError("no labelled rows to train on")
        classes = list(self.classes_)
        class_index = {cls: i for i, cls in enumerate(classes)}
        y = np.asarray(
            [class_index[str(target_values[i])] for i in keep.tolist()], dtype=np.int64
        )
        n_classes = len(classes)
        self.default_class_ = classes[int(np.bincount(y, minlength=n_classes).argmax())]

        best_error = math.inf
        for column in features:
            codes, levels = self._discretised_codes(encoded, column.name)
            codes = codes[keep]
            table = np.bincount(
                codes * n_classes + y, minlength=len(levels) * n_classes
            ).reshape(len(levels), n_classes)
            totals = table.sum(axis=1)
            winners = table.argmax(axis=1)
            errors = int(totals.sum() - table.max(axis=1).sum())
            if errors < best_error:
                best_error = errors
                self.best_feature_ = column.name
                self.rules_ = {
                    levels[v]: classes[int(winners[v])]
                    for v in np.flatnonzero(totals).tolist()
                }

    def _predict_row(self, row: dict[str, Any]) -> str:
        if self.best_feature_ is None:
            raise MiningError("model has not been fitted")
        value = self._discretise_row(row).get(self.best_feature_, _MISSING)
        return self.rules_.get(value, self.default_class_)

    def _predict_batch(self, encoded: EncodedDataset) -> list[str] | None:
        if self.best_feature_ is None or not (
            self._uses_base_impl(OneRClassifier, "_predict_row")
            and self._uses_base_impl(_DiscretisingClassifier, "_discretise_row")
        ):
            return None
        codes, levels = self._discretised_codes(encoded, self.best_feature_)
        lookup = [self.rules_.get(level, self.default_class_) for level in levels]
        return [lookup[c] for c in codes.tolist()]

    def describe(self) -> dict[str, Any]:
        description = super().describe()
        description["selected_feature"] = self.best_feature_
        description["rules"] = dict(self.rules_)
        return description


@dataclass
class _PrismRule:
    """A conjunctive rule covering one class."""

    target_class: str
    conditions: dict[str, str] = field(default_factory=dict)

    def matches(self, row: dict[str, str]) -> bool:
        return all(row.get(name) == value for name, value in self.conditions.items())

    def as_text(self) -> str:
        if not self.conditions:
            return f"IF TRUE THEN class = {self.target_class}"
        clause = " AND ".join(f"{name} = {value}" for name, value in self.conditions.items())
        return f"IF {clause} THEN class = {self.target_class}"


class PrismClassifier(_DiscretisingClassifier):
    """Cendrowska's PRISM: per-class, maximally precise conjunctive rules.

    Parameters
    ----------
    bins:
        Equal-width bins used to discretise numeric features.
    max_conditions:
        Cap on conditions per rule (keeps induction fast on wide data).
    max_rules_per_class:
        Cap on rules per class.
    """

    name = "prism"

    def __init__(self, bins: int = 4, max_conditions: int = 4, max_rules_per_class: int = 30) -> None:
        super().__init__(bins=bins)
        self.max_conditions = max_conditions
        self.max_rules_per_class = max_rules_per_class
        self.rules_: list[_PrismRule] = []
        self.default_class_: str | None = None

    def _fit(self, dataset: Dataset, features: list[Column], target: Column) -> None:
        if self._encoded_fit_supported():
            self._fit_encoded(dataset, features, target)
        else:
            self._fit_rows(dataset, features, target)

    def _encoded_fit_supported(self) -> bool:
        return not use_reference() and self._uses_base_impl(
            PrismClassifier, "_fit_rows", "_induce_rule"
        ) and self._uses_base_impl(_DiscretisingClassifier, "_prepare_rows")

    def _fit_rows(self, dataset: Dataset, features: list[Column], target: Column) -> None:
        rows, labels = self._prepare_rows(dataset, features, target, fit=True)
        pairs = [(row, label) for row, label in zip(rows, labels) if label is not None]
        if not pairs:
            raise MiningError("no labelled rows to train on")
        overall = Counter(label for _, label in pairs)
        self.default_class_ = max(sorted(overall), key=overall.get)
        feature_names = [c.name for c in features]
        self.rules_ = []
        for target_class in sorted(overall):
            remaining = [(row, label) for row, label in pairs]
            rules_made = 0
            while (
                any(label == target_class for _, label in remaining)
                and rules_made < self.max_rules_per_class
            ):
                rule = self._induce_rule(remaining, target_class, feature_names)
                if rule is None:
                    break
                self.rules_.append(rule)
                rules_made += 1
                remaining = [
                    (row, label) for row, label in remaining if not (rule.matches(row) and label == target_class)
                ]

    def _induce_rule(self, pairs, target_class: str, feature_names: list[str]) -> _PrismRule | None:
        rule = _PrismRule(target_class=target_class)
        covered = list(pairs)
        available = list(feature_names)
        while len(rule.conditions) < self.max_conditions:
            positives = sum(1 for _, label in covered if label == target_class)
            if positives == 0:
                return None
            if positives == len(covered):
                break  # rule is already perfectly precise
            best_precision = -1.0
            best_coverage = 0
            best_condition: tuple[str, str] | None = None
            for name in available:
                # Sorted candidate order keeps tie-breaking deterministic and
                # lets the encoded path replicate the selection exactly.
                values = sorted({row[name] for row, _ in covered})
                for value in values:
                    subset = [(row, label) for row, label in covered if row[name] == value]
                    pos = sum(1 for _, label in subset if label == target_class)
                    if pos == 0:
                        continue
                    precision = pos / len(subset)
                    if precision > best_precision or (
                        precision == best_precision and pos > best_coverage
                    ):
                        best_precision = precision
                        best_coverage = pos
                        best_condition = (name, value)
            if best_condition is None:
                break
            name, value = best_condition
            rule.conditions[name] = value
            available.remove(name)
            covered = [(row, label) for row, label in covered if row[name] == value]
            if not available:
                break
        positives = sum(1 for _, label in covered if label == target_class)
        if positives == 0:
            return None
        return rule

    # -- encoded (vectorized) fitting ------------------------------------------

    def _fit_encoded(self, dataset: Dataset, features: list[Column], target: Column) -> None:
        """Boolean-mask PRISM over the discretised code matrix; induces exactly
        the rules :meth:`_fit_rows` would."""
        encoded = encode_dataset(dataset)
        self._fit_discretisation(features, encoded)
        target_values = target.tolist()
        keep = np.asarray(
            [i for i, v in enumerate(target_values) if not is_missing_value(v)], dtype=np.intp
        )
        if keep.size == 0:
            raise MiningError("no labelled rows to train on")
        classes = list(self.classes_)
        class_index = {cls: i for i, cls in enumerate(classes)}
        y = np.asarray(
            [class_index[str(target_values[i])] for i in keep.tolist()], dtype=np.int64
        )
        counts = np.bincount(y, minlength=len(classes))
        self.default_class_ = classes[int(counts.argmax())]

        feature_names = [c.name for c in features]
        matrix = {
            name: self._discretised_codes(encoded, name) for name in feature_names
        }
        matrix = {name: (codes[keep], levels) for name, (codes, levels) in matrix.items()}

        self.rules_ = []
        for target_code, target_class in enumerate(classes):
            target_mask = y == target_code
            remaining = np.ones(keep.size, dtype=bool)
            rules_made = 0
            while (
                bool((remaining & target_mask).any())
                and rules_made < self.max_rules_per_class
            ):
                induced = self._induce_rule_encoded(
                    matrix, target_mask, remaining, target_class, feature_names
                )
                if induced is None:
                    break
                rule, condition_codes = induced
                self.rules_.append(rule)
                rules_made += 1
                match = np.ones(keep.size, dtype=bool)
                for name, code in condition_codes:
                    match &= matrix[name][0] == code
                remaining &= ~(match & target_mask)

    def _induce_rule_encoded(
        self,
        matrix: dict[str, tuple[np.ndarray, list[str]]],
        target_mask: np.ndarray,
        remaining: np.ndarray,
        target_class: str,
        feature_names: list[str],
    ) -> tuple[_PrismRule, list[tuple[str, int]]] | None:
        rule = _PrismRule(target_class=target_class)
        condition_codes: list[tuple[str, int]] = []
        covered = remaining.copy()
        available = list(feature_names)
        while len(rule.conditions) < self.max_conditions:
            positives = int((covered & target_mask).sum())
            if positives == 0:
                return None
            if positives == int(covered.sum()):
                break  # rule is already perfectly precise
            best_precision = -1.0
            best_coverage = 0
            best_condition: tuple[str, int] | None = None
            for name in available:
                codes, levels = matrix[name]
                sizes = np.bincount(codes[covered], minlength=len(levels))
                positives_per_value = np.bincount(
                    codes[covered & target_mask], minlength=len(levels)
                )
                candidates = sorted(
                    np.flatnonzero(sizes).tolist(), key=levels.__getitem__
                )
                for value in candidates:
                    pos = int(positives_per_value[value])
                    if pos == 0:
                        continue
                    precision = pos / int(sizes[value])
                    if precision > best_precision or (
                        precision == best_precision and pos > best_coverage
                    ):
                        best_precision = precision
                        best_coverage = pos
                        best_condition = (name, value)
            if best_condition is None:
                break
            name, value = best_condition
            rule.conditions[name] = matrix[name][1][value]
            condition_codes.append((name, value))
            available.remove(name)
            covered &= matrix[name][0] == value
            if not available:
                break
        if int((covered & target_mask).sum()) == 0:
            return None
        return rule, condition_codes

    # -- prediction -------------------------------------------------------------

    def _predict_row(self, row: dict[str, Any]) -> str:
        if self.default_class_ is None:
            raise MiningError("model has not been fitted")
        discretised = self._discretise_row(row)
        for rule in self.rules_:
            if rule.matches(discretised):
                return rule.target_class
        return self.default_class_

    def _predict_batch(self, encoded: EncodedDataset) -> list[str] | None:
        if self.default_class_ is None or not (
            self._uses_base_impl(PrismClassifier, "_predict_row")
            and self._uses_base_impl(_DiscretisingClassifier, "_discretise_row")
        ):
            return None
        n = encoded.n_rows
        columns: dict[str, tuple[np.ndarray, list[str]]] = {}

        def column_codes(name: str) -> tuple[np.ndarray, list[str]]:
            if name not in columns:
                columns[name] = self._discretised_codes(encoded, name)
            return columns[name]

        out = np.full(n, self.default_class_, dtype=object)
        unassigned = np.ones(n, dtype=bool)
        for rule in self.rules_:
            if not unassigned.any():
                break
            match = unassigned.copy()
            for name, value in rule.conditions.items():
                codes, levels = column_codes(name)
                try:
                    code = levels.index(value)
                except ValueError:
                    match[:] = False
                    break
                match &= codes == code
            if match.any():
                out[match] = rule.target_class
                unassigned &= ~match
        return out.tolist()

    def rule_texts(self) -> list[str]:
        """The induced rules as human-readable strings."""
        return [rule.as_text() for rule in self.rules_]

    def describe(self) -> dict[str, Any]:
        description = super().describe()
        description["n_rules"] = len(self.rules_)
        description["rules"] = self.rule_texts()
        return description
