"""k-nearest-neighbours classifier with a heterogeneous distance function.

Distances follow HEOM (Heterogeneous Euclidean-Overlap Metric): numeric
attributes contribute a range-normalised absolute difference, categorical
attributes contribute 0/1 overlap, and any comparison involving a missing
value contributes the maximum distance of 1.  This makes k-NN's sensitivity to
missing data, noise and added irrelevant dimensions directly observable in the
experiments.

Prediction runs through the vectorized encoded-matrix path
(:mod:`repro.tabular.encoded`): squared HEOM distances are accumulated
feature-by-feature over broadcast ``(n_test, n_train)`` blocks in exactly the
order the per-cell loop adds them, neighbours are ranked with a stable sort,
and votes are tallied in ascending-distance order, so the predictions are
bit-identical to the historical row-at-a-time implementation (which remains as
:meth:`KNNClassifier._predict_row` for subclasses and fallback).
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from typing import Any

import numpy as np

from repro.exceptions import MiningError
from repro.mining.base import Classifier, check_fitted
from repro.tabular.dataset import Column, Dataset, is_missing_value
from repro.tabular.encoded import EncodedDataset, encode_dataset, map_codes_to_index
from repro.tiers import use_reference

#: Test-rows-per-chunk budget for the pairwise distance blocks (~8M cells).
_CHUNK_CELLS = 8_000_000


class KNNClassifier(Classifier):
    """k-NN with HEOM distance over mixed-type rows.

    Parameters
    ----------
    k:
        Number of neighbours.
    weighted:
        When ``True`` votes are weighted by 1/(distance + eps).
    """

    name = "knn"

    def __init__(self, k: int = 5, weighted: bool = False) -> None:
        super().__init__()
        if k < 1:
            raise MiningError("k must be at least 1")
        self.k = k
        self.weighted = weighted
        self._labels: list[str] = []
        self._ranges: dict[str, tuple[float, float]] = {}
        self._numeric: set[str] = set()
        self._rows_cache: list[dict[str, Any]] | None = None
        self._train_dataset: Dataset | None = None
        self._train_indices: np.ndarray | None = None
        self._train_num: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._train_cat: dict[str, tuple[np.ndarray, dict[str, int]]] = {}

    def _fit(self, dataset: Dataset, features: list[Column], target: Column) -> None:
        self._numeric = {c.name for c in features if c.is_numeric()}
        self._ranges = {}
        for column in features:
            if not column.is_numeric():
                continue
            present = [float(v) for v in column.non_missing()]
            if present:
                low, high = min(present), max(present)
            else:
                low, high = 0.0, 1.0
            self._ranges[column.name] = (low, high if high > low else low + 1.0)

        target_values = target.tolist()
        keep = [i for i, v in enumerate(target_values) if not is_missing_value(v)]
        if not keep:
            raise MiningError("no labelled rows to train on")
        self._labels = [str(target_values[i]) for i in keep]
        self._rows_cache = None
        self._train_dataset = dataset
        self._train_indices = np.asarray(keep, dtype=np.intp)

        encoded = encode_dataset(dataset)
        self._train_num = {}
        self._train_cat = {}
        for column in features:
            name = column.name
            if name in self._numeric:
                values, missing = encoded.numeric_view(name)
                self._train_num[name] = (values[self._train_indices], missing[self._train_indices])
            else:
                codes, _, index = encoded.codes_view(name)
                self._train_cat[name] = (codes[self._train_indices], index)

    # -- row-at-a-time path (reference implementation / fallback) -------------

    @property
    def _rows(self) -> list[dict[str, Any]]:
        """Training rows as feature dicts, materialised lazily for the row path."""
        if self._rows_cache is None:
            if self._train_dataset is None:
                return []
            rows = []
            for i in self._train_indices.tolist():
                row = self._train_dataset.row(i)
                rows.append({name: row.get(name) for name in self.feature_names_})
            self._rows_cache = rows
        return self._rows_cache

    def _distance(self, a: dict[str, Any], b: dict[str, Any]) -> float:
        total = 0.0
        for name in self.feature_names_:
            va, vb = a.get(name), b.get(name)
            if is_missing_value(va) or is_missing_value(vb):
                contribution = 1.0
            elif name in self._numeric:
                low, high = self._ranges.get(name, (0.0, 1.0))
                span = high - low
                try:
                    contribution = min(abs(float(va) - float(vb)) / span, 1.0) if span > 0 else 0.0
                except (TypeError, ValueError):
                    contribution = 1.0
            else:
                contribution = 0.0 if str(va) == str(vb) else 1.0
            total += contribution * contribution
        return math.sqrt(total)

    def _predict_row(self, row: dict[str, Any]) -> str:
        if not self._rows:
            raise MiningError("model has not been fitted")
        k = min(self.k, len(self._rows))
        neighbours = heapq.nsmallest(
            k,
            ((self._distance(row, train_row), label) for train_row, label in zip(self._rows, self._labels)),
            key=lambda pair: pair[0],
        )
        if self.weighted:
            votes: dict[str, float] = {}
            for distance, label in neighbours:
                votes[label] = votes.get(label, 0.0) + 1.0 / (distance + 1e-9)
        else:
            votes = dict(Counter(label for _, label in neighbours))
        return max(sorted(votes), key=votes.get)

    # -- vectorized path -------------------------------------------------------

    def _batch_supported(self) -> bool:
        """The batch path replicates the base row loop; bypass it if a subclass
        customised the per-row machinery."""
        return self._uses_base_impl(KNNClassifier, "_distance", "_predict_row")

    def _squared_distances(self, encoded: EncodedDataset, test_slice: slice) -> np.ndarray:
        """Squared HEOM distances between a chunk of test rows and all training rows.

        Contributions are accumulated feature-by-feature in ``feature_names_``
        order — the same summation order as :meth:`_distance` — so the floats
        (and therefore neighbour ranking and weighted votes) match the row path
        bit for bit.
        """
        n_train = len(self._labels)
        d2: np.ndarray | None = None
        for name in self.feature_names_:
            if name in self._numeric:
                values, missing = encoded.numeric_view(name)
                values, missing = values[test_slice], missing[test_slice]
                train_values, train_missing = self._train_num[name]
                low, high = self._ranges.get(name, (0.0, 1.0))
                span = high - low
                if span > 0:
                    contribution = np.abs(values[:, None] - train_values[None, :]) / span
                    np.minimum(contribution, 1.0, out=contribution)
                    contribution *= contribution
                else:
                    contribution = np.zeros((values.shape[0], n_train))
                either_missing = missing[:, None] | train_missing[None, :]
                contribution[either_missing] = 1.0
            else:
                codes, vocabulary, _ = encoded.codes_view(name)
                train_codes, train_index = self._train_cat.get(name, (np.full(n_train, -1, dtype=np.int64), {}))
                # Levels unseen at fit time get the sentinel -2: distinct from
                # every train code and from the missing marker -1, so they
                # mismatch all non-missing training values, like str inequality.
                mapped = map_codes_to_index(codes[test_slice], vocabulary, train_index, unseen_code=-2)
                test_col = mapped[:, None]
                train_col = train_codes[None, :]
                contribution = ((test_col < 0) | (train_col < 0) | (test_col != train_col)).astype(float)
            d2 = contribution if d2 is None else d2 + contribution
        if d2 is None:
            rows = len(range(*test_slice.indices(encoded.n_rows)))
            d2 = np.zeros((rows, n_train))
        return d2

    def _neighbour_codes(
        self, encoded: EncodedDataset, label_codes: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(neighbour label codes, neighbour distances)`` of shape (n, k).

        Neighbours are ordered by ascending distance with ties broken by
        training-row order, exactly like ``heapq.nsmallest`` over the row pairs.
        """
        n = encoded.n_rows
        n_train = len(self._labels)
        chunk = max(1, _CHUNK_CELLS // max(n_train, 1))
        codes_out = np.empty((n, k), dtype=np.int64)
        dist_out = np.empty((n, k))
        for start in range(0, n, chunk):
            block = slice(start, min(start + chunk, n))
            d2 = self._squared_distances(encoded, block)
            order = np.argsort(d2, axis=1, kind="stable")[:, :k]
            codes_out[block] = label_codes[order]
            dist_out[block] = np.sqrt(np.take_along_axis(d2, order, axis=1))
        return codes_out, dist_out

    def _label_codes(self) -> tuple[list[str], np.ndarray]:
        classes = list(self.classes_)
        index = {cls: i for i, cls in enumerate(classes)}
        return classes, np.asarray([index[label] for label in self._labels], dtype=np.int64)

    def _predict_batch(self, encoded: EncodedDataset) -> list[str] | None:
        if not self._batch_supported() or not self._labels:
            return None
        if encoded.n_rows == 0:
            return []
        classes, label_codes = self._label_codes()
        k = min(self.k, len(self._labels))
        neighbour_codes, neighbour_dist = self._neighbour_codes(encoded, label_codes, k)
        n = encoded.n_rows
        votes = np.zeros((n, len(classes)))
        row_index = np.repeat(np.arange(n), k)
        if self.weighted:
            # np.add.at accumulates repeated indices in element order, i.e. in
            # ascending-distance order per row — the same float summation order
            # as the per-row vote dictionary.
            weights = (1.0 / (neighbour_dist + 1e-9)).ravel()
            np.add.at(votes, (row_index, neighbour_codes.ravel()), weights)
        else:
            np.add.at(votes, (row_index, neighbour_codes.ravel()), 1.0)
        # argmax returns the first maximum; classes_ is sorted, matching the
        # alphabetical tie-break of max(sorted(votes), key=votes.get).
        winners = votes.argmax(axis=1)
        return [classes[c] for c in winners.tolist()]

    def _predict_proba_batch(self, encoded: EncodedDataset) -> list[dict[str, float]] | None:
        if not self._batch_supported() or not self._labels:
            return None
        if encoded.n_rows == 0:
            return []
        classes, label_codes = self._label_codes()
        k = min(self.k, len(self._labels))
        neighbour_codes, _ = self._neighbour_codes(encoded, label_codes, k)
        n = encoded.n_rows
        counts = np.zeros((n, len(classes)), dtype=np.int64)
        np.add.at(counts, (np.repeat(np.arange(n), k), neighbour_codes.ravel()), 1)
        total = k or 1
        return [
            {cls: int(counts[i, j]) / total for j, cls in enumerate(classes)}
            for i in range(n)
        ]

    def predict_proba(self, dataset: Dataset) -> list[dict[str, float]]:
        check_fitted(self)
        if not use_reference():
            batch = self._predict_proba_batch(encode_dataset(dataset))
            if batch is not None:
                return batch
        results = []
        k = min(self.k, len(self._rows))
        for row in dataset.iter_rows():
            features_only = {name: row.get(name) for name in self.feature_names_}
            neighbours = heapq.nsmallest(
                k,
                (
                    (self._distance(features_only, train_row), label)
                    for train_row, label in zip(self._rows, self._labels)
                ),
                key=lambda pair: pair[0],
            )
            counts = Counter(label for _, label in neighbours)
            total = sum(counts.values()) or 1
            results.append({cls: counts.get(cls, 0) / total for cls in self.classes_})
        return results
