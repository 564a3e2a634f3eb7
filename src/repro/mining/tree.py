"""C4.5-style decision tree classifier.

Handles numeric and categorical features natively (multiway splits on
categorical attributes, binary threshold splits on numeric attributes), uses
gain ratio as the default split criterion and routes missing values down the
majority branch.  The fitted tree can be exported as human-readable rules,
which is what the OpenBI reporting layer shows to non-expert users.

Induction and prediction run on the encoded-matrix views from
:mod:`repro.tabular.encoded`: split gains are computed column-wise (numeric
thresholds via a single sorted scan with prefix class counts, categorical
splits via code bincounts) and prediction routes whole index masks through the
tree instead of walking it row by row.  The historical row-at-a-time
implementation is retained as the reference path (used by the equivalence
tests and the perf benchmarks); all gain/entropy arithmetic is performed with
the same scalar operations in the same order on both paths, so the encoded
fit grows the *bit-identical* tree and the batch prediction returns exactly
the labels and leaf distributions the row path would.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.exceptions import MiningError
from repro.mining.base import Classifier
from repro.tabular.dataset import Column, Dataset, is_missing_value
from repro.tabular.encoded import EncodedDataset, encode_dataset, merge_missing_level
from repro.tiers import use_reference

_MISSING_BRANCH = "<missing>"


def _entropy(counts: Counter) -> float:
    """Shannon entropy of a label Counter.

    Keys are visited in sorted order so the float accumulation order is
    canonical: the encoded fit path (which iterates class codes in ascending
    order, i.e. the same sorted-label order) reproduces the sum bit for bit.
    """
    total = sum(counts.values())
    if total == 0:
        return 0.0
    result = 0.0
    for key in sorted(counts):
        count = counts[key]
        if count == 0:
            continue
        p = count / total
        result -= p * math.log2(p)
    return result


def _entropy_counts(counts: list[int], total: int) -> float:
    """Entropy from per-class counts in ascending class-code order.

    Float-identical to :func:`_entropy` over the same label multiset because
    class codes are assigned in sorted-label order.
    """
    if total == 0:
        return 0.0
    result = 0.0
    for count in counts:
        if count == 0:
            continue
        p = count / total
        result -= p * math.log2(p)
    return result


@dataclass
class _Node:
    """A node of the fitted tree."""

    is_leaf: bool
    prediction: str | None = None
    distribution: dict[str, int] = field(default_factory=dict)
    feature: str | None = None
    feature_kind: str | None = None  # "numeric" | "categorical"
    threshold: float | None = None
    children: dict[Any, "_Node"] = field(default_factory=dict)
    majority_branch: Any = None
    depth: int = 0

    def predict(self, row: dict[str, Any]) -> str:
        node = self
        while not node.is_leaf:
            value = row.get(node.feature)
            if is_missing_value(value):
                branch = node.majority_branch
            elif node.feature_kind == "numeric":
                try:
                    branch = "le" if float(value) <= node.threshold else "gt"
                except (TypeError, ValueError):
                    branch = node.majority_branch
            else:
                branch = str(value)
                if branch not in node.children:
                    branch = node.majority_branch
            child = node.children.get(branch)
            if child is None:
                break
            node = child
        return node.prediction if node.prediction is not None else ""

    def rules(self, prefix: list[str] | None = None) -> list[tuple[list[str], str, dict[str, int]]]:
        """Flatten the tree into (conditions, predicted class, distribution) rules."""
        prefix = prefix or []
        if self.is_leaf:
            return [(list(prefix), self.prediction or "", dict(self.distribution))]
        rules = []
        for branch, child in self.children.items():
            if self.feature_kind == "numeric":
                condition = (
                    f"{self.feature} <= {self.threshold:.4g}"
                    if branch == "le"
                    else f"{self.feature} > {self.threshold:.4g}"
                )
            else:
                condition = f"{self.feature} = {branch}"
            rules.extend(child.rules(prefix + [condition]))
        return rules


class _TrainingMatrix:
    """Per-feature array views of the labelled training rows, in row order."""

    __slots__ = ("classes", "y", "numeric", "categorical")

    def __init__(self, classes: list[str]) -> None:
        self.classes = classes
        self.y: np.ndarray | None = None
        #: name -> (float64 values, bool present) over the labelled rows.
        self.numeric: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        #: name -> (int64 codes with missing folded in, branch-key levels).
        self.categorical: dict[str, tuple[np.ndarray, list[str]]] = {}


class DecisionTreeClassifier(Classifier):
    """Top-down induction of a decision tree (C4.5-like).

    Parameters
    ----------
    max_depth:
        Maximum tree depth; leaves are forced beyond it.
    min_samples_split:
        Minimum number of rows required to attempt a split.
    min_gain:
        Minimum information gain (not gain ratio) required to accept a split.
    criterion:
        ``"gain_ratio"`` (default) or ``"information_gain"``.
    max_thresholds:
        Maximum number of candidate thresholds evaluated per numeric feature
        (quantile-spaced), keeping induction fast on large data.
    """

    name = "decision_tree"

    def __init__(
        self,
        max_depth: int = 10,
        min_samples_split: int = 5,
        min_gain: float = 1e-3,
        criterion: str = "gain_ratio",
        max_thresholds: int = 24,
    ) -> None:
        super().__init__()
        if criterion not in ("gain_ratio", "information_gain"):
            raise MiningError(f"unknown split criterion {criterion!r}")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_gain = min_gain
        self.criterion = criterion
        self.max_thresholds = max_thresholds
        self.root_: _Node | None = None
        self._feature_kinds: dict[str, str] = {}

    # -- fitting ---------------------------------------------------------------

    def _fit(self, dataset: Dataset, features: list[Column], target: Column) -> None:
        self._feature_kinds = {
            c.name: ("numeric" if c.is_numeric() else "categorical") for c in features
        }
        if self._encoded_fit_supported():
            self._fit_encoded(dataset, features, target)
        else:
            self._fit_rows(dataset, features, target)

    def _encoded_fit_supported(self) -> bool:
        """The encoded fit replicates the row-path induction; bypass it when a
        subclass customised that machinery, or inside :func:`repro.tiers.reference`."""
        return not use_reference() and self._uses_base_impl(
            DecisionTreeClassifier,
            "_fit_rows",
            "_build",
            "_best_split",
            "_numeric_split",
            "_categorical_split",
            "_majority",
        )

    def _fit_rows(self, dataset: Dataset, features: list[Column], target: Column) -> None:
        """Row-at-a-time reference induction over per-row feature dicts."""
        rows = []
        labels = []
        feature_names = [c.name for c in features]
        target_values = target.tolist()
        for i, row in enumerate(dataset.iter_rows()):
            label = target_values[i]
            if is_missing_value(label):
                continue
            rows.append({name: row[name] for name in feature_names})
            labels.append(str(label))
        if not rows:
            raise MiningError("no labelled rows to train on")
        self.root_ = self._build(rows, labels, depth=0)

    def _majority(self, labels: list[str]) -> tuple[str, dict[str, int]]:
        counts = Counter(labels)
        prediction = max(sorted(counts), key=counts.get)
        return prediction, dict(counts)

    def _build(self, rows: list[dict[str, Any]], labels: list[str], depth: int) -> _Node:
        prediction, distribution = self._majority(labels)
        if (
            depth >= self.max_depth
            or len(rows) < self.min_samples_split
            or len(set(labels)) == 1
        ):
            return _Node(is_leaf=True, prediction=prediction, distribution=distribution, depth=depth)

        best = self._best_split(rows, labels)
        if best is None:
            return _Node(is_leaf=True, prediction=prediction, distribution=distribution, depth=depth)
        feature, kind, threshold, partitions = best

        node = _Node(
            is_leaf=False,
            prediction=prediction,
            distribution=distribution,
            feature=feature,
            feature_kind=kind,
            threshold=threshold,
            depth=depth,
        )
        largest_branch = None
        largest_size = -1
        for branch, indices in partitions.items():
            child_rows = [rows[i] for i in indices]
            child_labels = [labels[i] for i in indices]
            node.children[branch] = self._build(child_rows, child_labels, depth + 1)
            if len(indices) > largest_size:
                largest_size = len(indices)
                largest_branch = branch
        node.majority_branch = largest_branch
        return node

    def _best_split(self, rows: list[dict[str, Any]], labels: list[str]):
        base_entropy = _entropy(Counter(labels))
        best_score = -math.inf
        best = None
        n = len(rows)
        for feature, kind in self._feature_kinds.items():
            if kind == "numeric":
                candidate = self._numeric_split(rows, labels, feature, base_entropy, n)
            else:
                candidate = self._categorical_split(rows, labels, feature, base_entropy, n)
            if candidate is None:
                continue
            score, gain, threshold, partitions = candidate
            if gain < self.min_gain:
                continue
            if score > best_score:
                best_score = score
                best = (feature, kind, threshold, partitions)
        return best

    def _score(self, gain: float, split_entropy: float) -> float:
        if self.criterion == "information_gain":
            return gain
        if split_entropy <= 0:
            return 0.0
        return gain / split_entropy

    def _categorical_split(self, rows, labels, feature, base_entropy, n):
        partitions: dict[Any, list[int]] = {}
        for i, row in enumerate(rows):
            value = row.get(feature)
            key = _MISSING_BRANCH if is_missing_value(value) else str(value)
            partitions.setdefault(key, []).append(i)
        if len(partitions) < 2:
            return None
        weighted = 0.0
        split_entropy = 0.0
        for indices in partitions.values():
            weight = len(indices) / n
            weighted += weight * _entropy(Counter(labels[i] for i in indices))
            split_entropy -= weight * math.log2(weight)
        gain = base_entropy - weighted
        return self._score(gain, split_entropy), gain, None, partitions

    def _numeric_split(self, rows, labels, feature, base_entropy, n):
        pairs = []
        missing_indices = []
        for i, row in enumerate(rows):
            value = row.get(feature)
            if is_missing_value(value):
                missing_indices.append(i)
                continue
            try:
                pairs.append((float(value), i))
            except (TypeError, ValueError):
                missing_indices.append(i)
        if len(pairs) < 2:
            return None
        values = sorted({v for v, _ in pairs})
        if len(values) < 2:
            return None
        if len(values) - 1 > self.max_thresholds:
            positions = np.linspace(0, len(values) - 2, self.max_thresholds).astype(int)
            candidate_edges = [(values[p] + values[p + 1]) / 2.0 for p in positions]
        else:
            candidate_edges = [(a + b) / 2.0 for a, b in zip(values, values[1:])]
        best_gain = -math.inf
        best_threshold = None
        best_partitions = None
        for threshold in candidate_edges:
            left = [i for v, i in pairs if v <= threshold]
            right = [i for v, i in pairs if v > threshold]
            if not left or not right:
                continue
            # Missing rows follow the larger side (majority branch behaviour).
            if missing_indices:
                (left if len(left) >= len(right) else right).extend(missing_indices)
            weighted = 0.0
            split_entropy = 0.0
            for indices in (left, right):
                weight = len(indices) / n
                if weight == 0:
                    continue
                weighted += weight * _entropy(Counter(labels[i] for i in indices))
                split_entropy -= weight * math.log2(weight)
            gain = base_entropy - weighted
            if gain > best_gain:
                best_gain = gain
                best_threshold = threshold
                best_partitions = {"le": left, "gt": right}
        if best_partitions is None:
            return None
        split_entropy = 0.0
        for indices in best_partitions.values():
            weight = len(indices) / n
            if weight > 0:
                split_entropy -= weight * math.log2(weight)
        return self._score(best_gain, split_entropy), best_gain, best_threshold, best_partitions

    # -- encoded (vectorized) fitting ------------------------------------------

    def _fit_encoded(self, dataset: Dataset, features: list[Column], target: Column) -> None:
        """Column-wise induction over the encoded views; bit-identical to
        :meth:`_fit_rows` (same splits, same floats, same tree)."""
        encoded = encode_dataset(dataset)
        target_values = target.tolist()
        keep = np.asarray(
            [i for i, v in enumerate(target_values) if not is_missing_value(v)], dtype=np.intp
        )
        if keep.size == 0:
            raise MiningError("no labelled rows to train on")

        data = _TrainingMatrix(list(self.classes_))
        class_index = {cls: i for i, cls in enumerate(data.classes)}
        data.y = np.asarray(
            [class_index[str(target_values[i])] for i in keep.tolist()], dtype=np.int64
        )
        for column in features:
            name = column.name
            if self._feature_kinds[name] == "numeric":
                values, missing = encoded.numeric_view(name)
                data.numeric[name] = (values[keep], ~missing[keep])
            else:
                codes, vocabulary, _ = encoded.codes_view(name)
                merged, levels = merge_missing_level(codes[keep], vocabulary, _MISSING_BRANCH)
                data.categorical[name] = (merged, levels)
        self.root_ = self._build_encoded(data, np.arange(keep.size, dtype=np.intp), depth=0)

    def _build_encoded(self, data: _TrainingMatrix, idx: np.ndarray, depth: int) -> _Node:
        counts = np.bincount(data.y[idx], minlength=len(data.classes)).tolist()
        prediction = data.classes[max(range(len(counts)), key=counts.__getitem__)]
        distribution = {data.classes[c]: count for c, count in enumerate(counts) if count}
        n_present_classes = sum(1 for count in counts if count)
        if (
            depth >= self.max_depth
            or idx.size < self.min_samples_split
            or n_present_classes == 1
        ):
            return _Node(is_leaf=True, prediction=prediction, distribution=distribution, depth=depth)

        best = self._best_split_encoded(data, idx, counts)
        if best is None:
            return _Node(is_leaf=True, prediction=prediction, distribution=distribution, depth=depth)
        feature, kind, threshold, partitions = best

        node = _Node(
            is_leaf=False,
            prediction=prediction,
            distribution=distribution,
            feature=feature,
            feature_kind=kind,
            threshold=threshold,
            depth=depth,
        )
        largest_branch = None
        largest_size = -1
        for branch, indices in partitions.items():
            node.children[branch] = self._build_encoded(data, indices, depth + 1)
            if indices.size > largest_size:
                largest_size = indices.size
                largest_branch = branch
        node.majority_branch = largest_branch
        return node

    def _best_split_encoded(self, data: _TrainingMatrix, idx: np.ndarray, counts: list[int]):
        base_entropy = _entropy_counts(counts, idx.size)
        best_score = -math.inf
        best = None
        n = idx.size
        for feature, kind in self._feature_kinds.items():
            if kind == "numeric":
                candidate = self._numeric_split_encoded(data, idx, feature, base_entropy, n)
            else:
                candidate = self._categorical_split_encoded(data, idx, feature, base_entropy, n)
            if candidate is None:
                continue
            score, gain, threshold, partitions = candidate
            if gain < self.min_gain:
                continue
            if score > best_score:
                best_score = score
                best = (feature, kind, threshold, partitions)
        return best

    def _categorical_split_encoded(self, data, idx, feature, base_entropy, n):
        codes_all, levels = data.categorical[feature]
        codes = codes_all[idx]
        # Partitions in first-seen order, like the row path's dict insertion.
        unique, first_position = np.unique(codes, return_index=True)
        if unique.size < 2:
            return None
        seen = unique[np.argsort(first_position, kind="stable")].tolist()
        sizes = np.bincount(codes, minlength=len(levels))
        table = np.zeros((len(levels), len(data.classes)), dtype=np.int64)
        np.add.at(table, (codes, data.y[idx]), 1)
        weighted = 0.0
        split_entropy = 0.0
        for code in seen:
            size = int(sizes[code])
            weight = size / n
            weighted += weight * _entropy_counts(table[code].tolist(), size)
            split_entropy -= weight * math.log2(weight)
        gain = base_entropy - weighted
        partitions = {levels[code]: idx[codes == code] for code in seen}
        return self._score(gain, split_entropy), gain, None, partitions

    def _numeric_split_encoded(self, data, idx, feature, base_entropy, n):
        values_all, present_all = data.numeric[feature]
        values = values_all[idx]
        present = present_all[idx]
        pairs_idx = idx[present]
        if pairs_idx.size < 2:
            return None
        pair_values = values[present]
        order = np.argsort(pair_values, kind="stable")
        sorted_values = pair_values[order]
        distinct = sorted_values[
            np.concatenate(([True], sorted_values[1:] != sorted_values[:-1]))
        ]
        if distinct.size < 2:
            return None
        distinct_values = distinct.tolist()
        if distinct.size - 1 > self.max_thresholds:
            positions = np.linspace(0, distinct.size - 2, self.max_thresholds).astype(int)
            candidate_edges = [
                (distinct_values[p] + distinct_values[p + 1]) / 2.0 for p in positions.tolist()
            ]
        else:
            candidate_edges = [(a + b) / 2.0 for a, b in zip(distinct_values, distinct_values[1:])]

        sorted_y = data.y[pairs_idx[order]]
        n_classes = len(data.classes)
        prefix = np.zeros((sorted_y.size + 1, n_classes), dtype=np.int64)
        np.cumsum(sorted_y[:, None] == np.arange(n_classes)[None, :], axis=0, out=prefix[1:])
        present_counts = prefix[-1].tolist()
        n_present = sorted_values.size

        missing_idx = idx[~present]
        n_missing = missing_idx.size
        missing_counts = (
            np.bincount(data.y[missing_idx], minlength=n_classes).tolist() if n_missing else None
        )

        left_sizes = np.searchsorted(sorted_values, np.asarray(candidate_edges), side="right")
        left_count_rows = prefix[left_sizes].tolist()
        best_gain = -math.inf
        best_threshold = None
        for threshold, n_left, left_counts in zip(
            candidate_edges, left_sizes.tolist(), left_count_rows
        ):
            n_right = n_present - n_left
            if n_left == 0 or n_right == 0:
                continue
            right_counts = [p - q for p, q in zip(present_counts, left_counts)]
            left_total, right_total = n_left, n_right
            if n_missing:
                # Missing rows follow the larger side (majority branch behaviour).
                if n_left >= n_right:
                    left_counts = [a + b for a, b in zip(left_counts, missing_counts)]
                    left_total += n_missing
                else:
                    right_counts = [a + b for a, b in zip(right_counts, missing_counts)]
                    right_total += n_missing
            weighted = 0.0
            for side_counts, size in ((left_counts, left_total), (right_counts, right_total)):
                weight = size / n
                weighted += weight * _entropy_counts(side_counts, size)
            gain = base_entropy - weighted
            if gain > best_gain:
                best_gain = gain
                best_threshold = threshold
        if best_threshold is None:
            return None

        left_mask = pair_values <= best_threshold
        left = pairs_idx[left_mask]
        right = pairs_idx[~left_mask]
        if n_missing:
            if left.size >= right.size:
                left = np.concatenate([left, missing_idx])
            else:
                right = np.concatenate([right, missing_idx])
        partitions = {"le": left, "gt": right}
        split_entropy = 0.0
        for indices in partitions.values():
            weight = indices.size / n
            if weight > 0:
                split_entropy -= weight * math.log2(weight)
        return self._score(best_gain, split_entropy), best_gain, best_threshold, partitions

    # -- prediction -------------------------------------------------------------

    def _predict_row(self, row: dict[str, Any]) -> str:
        if self.root_ is None:
            raise MiningError("tree has not been fitted")
        return self.root_.predict(row)

    def _batch_supported(self) -> bool:
        return self.root_ is not None and self._uses_base_impl(
            DecisionTreeClassifier, "_predict_row"
        )

    def _leaf_assignments(self, encoded: EncodedDataset):
        """Yield ``(node, row_indices)`` pairs routing every row to the node it
        stops at — the masked equivalent of :meth:`_Node.predict`'s walk."""
        stack: list[tuple[_Node, np.ndarray]] = [
            (self.root_, np.arange(encoded.n_rows, dtype=np.intp))
        ]
        while stack:
            node, idx = stack.pop()
            if node.is_leaf:
                yield node, idx
                continue
            if node.feature_kind == "numeric":
                values, missing = encoded.numeric_view(node.feature)
                v = values[idx]
                m = missing[idx]
                masks = {"le": (v <= node.threshold) & ~m, "gt": (v > node.threshold) & ~m}
                if node.majority_branch in masks:
                    masks[node.majority_branch] = masks[node.majority_branch] | m
                elif m.any():
                    # Trees grown by _build/_build_encoded always have a "le"/"gt"
                    # majority branch; for hand-built nodes without one, missing
                    # rows stop here — like children.get(None) in _Node.predict.
                    yield node, idx[m]
                for branch, mask in masks.items():
                    sub = idx[mask]
                    if sub.size == 0:
                        continue
                    child = node.children.get(branch)
                    if child is None:
                        yield node, sub
                    else:
                        stack.append((child, sub))
            else:
                codes, vocabulary, _ = encoded.codes_view(node.feature)
                codes = codes[idx]
                branches = list(node.children)
                position = {branch: j for j, branch in enumerate(branches)}
                majority = position.get(node.majority_branch, -1)
                # Destination per level; the extra trailing slot serves the
                # missing code -1 via negative indexing.
                lut = np.empty(len(vocabulary) + 1, dtype=np.int64)
                lut[-1] = majority
                for j, level in enumerate(vocabulary):
                    lut[j] = position.get(level, majority)
                destination = lut[codes]
                for j, branch in enumerate(branches):
                    sub = idx[destination == j]
                    if sub.size:
                        stack.append((node.children[branch], sub))
                stopped = idx[destination == -1]
                if stopped.size:
                    yield node, stopped

    def _predict_batch(self, encoded: EncodedDataset) -> list[str] | None:
        if not self._batch_supported():
            return None
        out = np.empty(encoded.n_rows, dtype=object)
        for node, idx in self._leaf_assignments(encoded):
            out[idx] = node.prediction if node.prediction is not None else ""
        return out.tolist()

    def _predict_proba_batch(self, encoded: EncodedDataset) -> list[dict[str, float]] | None:
        if not self._batch_supported():
            return None
        results: list[dict[str, float] | None] = [None] * encoded.n_rows
        for node, idx in self._leaf_assignments(encoded):
            distribution = node.distribution
            total = sum(distribution.values()) or 1
            proto = {cls: distribution.get(cls, 0) / total for cls in self.classes_}
            for i in idx.tolist():
                results[i] = dict(proto)
        return results

    # -- introspection -------------------------------------------------------------

    def depth(self) -> int:
        """Depth of the fitted tree (0 for a single leaf)."""
        if self.root_ is None:
            raise MiningError("tree has not been fitted")

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return node.depth
            return max(walk(child) for child in node.children.values())

        return walk(self.root_)

    def n_leaves(self) -> int:
        """Number of leaves of the fitted tree."""
        if self.root_ is None:
            raise MiningError("tree has not been fitted")

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 1
            return sum(walk(child) for child in node.children.values())

        return walk(self.root_)

    def extract_rules(self) -> list[dict[str, Any]]:
        """Export the tree as a list of IF/THEN rules for reporting."""
        if self.root_ is None:
            raise MiningError("tree has not been fitted")
        rules = []
        for conditions, prediction, distribution in self.root_.rules():
            total = sum(distribution.values())
            correct = distribution.get(prediction, 0)
            rules.append(
                {
                    "conditions": conditions,
                    "prediction": prediction,
                    "coverage": total,
                    "confidence": correct / total if total else 0.0,
                }
            )
        return rules

    def predict_proba(self, dataset: Dataset) -> list[dict[str, float]]:
        """Class distribution of the leaf each row falls into."""
        from repro.mining.base import check_fitted

        check_fitted(self)
        if not use_reference():
            batch = self._predict_proba_batch(encode_dataset(dataset))
            if batch is not None:
                return batch
        results = []
        for row in dataset.iter_rows():
            node = self.root_
            features_only = {name: row.get(name) for name in self.feature_names_}
            while node is not None and not node.is_leaf:
                value = features_only.get(node.feature)
                if is_missing_value(value):
                    branch = node.majority_branch
                elif node.feature_kind == "numeric":
                    try:
                        branch = "le" if float(value) <= node.threshold else "gt"
                    except (TypeError, ValueError):
                        branch = node.majority_branch
                else:
                    branch = str(value)
                    if branch not in node.children:
                        branch = node.majority_branch
                next_node = node.children.get(branch)
                if next_node is None:
                    break
                node = next_node
            distribution = node.distribution if node is not None else {}
            total = sum(distribution.values()) or 1
            results.append({cls: distribution.get(cls, 0) / total for cls in self.classes_})
        return results
