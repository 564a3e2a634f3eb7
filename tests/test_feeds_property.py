"""Property-based tests (hypothesis) for the incremental ingestion tier.

The property under test is the batch-vs-incremental contract: for *any*
sequence of appended batches — mixed sizes, new category levels, all-missing
blocks, empty deltas — the incrementally refreshed profile, group-by, KPI
scoreboard and LOD index state must be bit-identical to a one-shot rebuild
over the concatenation of all the batches.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings, strategies as st
from parity import assert_identical_datasets

from repro.bi import KPI, Cube, Dimension, Measure, evaluate_kpis_by_level
from repro.feeds import IncrementalGroupBy, IncrementalKPIBoard, IncrementalProfile, append_rows
from repro.quality import measure_quality
from repro.tabular.dataset import ColumnType, Dataset
from repro.tabular.encoded import _CACHE_ATTR, encode_dataset
from repro.tabular.transforms import group_by

# -- strategies --------------------------------------------------------------

_CATEGORIES = ["alpha", "beta", "gamma", "delta", "NEW-1", "NEW-2"]

_row = st.fixed_dictionaries(
    {
        "group": st.one_of(st.none(), st.sampled_from(_CATEGORIES)),
        "value": st.one_of(
            st.none(),
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
        ),
    }
)

_batches = st.lists(st.lists(_row, min_size=0, max_size=12), min_size=1, max_size=5)

_CTYPES = {"group": ColumnType.CATEGORICAL, "value": ColumnType.NUMERIC}


def _dataset(rows, name="prop"):
    padded = rows if rows else [{"group": "alpha", "value": 0.0}]
    return Dataset.from_rows(padded, name=name, ctypes=_CTYPES, column_order=["group", "value"])


# -- properties ---------------------------------------------------------------


#: Cells of every kind a row may hold, so the batch coder's fast paths
#: (``float``, ``str``, ``bool``, ``None``) and its ``_coerce_value`` path both run.
_wide_row = st.fixed_dictionaries(
    {
        "group": st.one_of(st.none(), st.sampled_from(_CATEGORIES), st.integers(-2, 2)),
        "value": st.one_of(
            st.none(),
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
            st.just(float("nan")),
            st.integers(-5, 5),
            st.booleans(),
            st.sampled_from(["2.5", "-0.0", "nan"]),
        ),
        "flag": st.one_of(
            st.none(), st.booleans(), st.integers(-2, 3), st.sampled_from(["yes", "no", "1", "0", "True"])
        ),
        "label": st.one_of(
            st.none(), st.text(max_size=4), st.sampled_from(["1.5", "-0", "NaN"]),
            st.integers(-3, 3), st.floats(allow_nan=True, allow_infinity=True),
        ),
    }
)

_WIDE_CTYPES = {**_CTYPES, "flag": ColumnType.BOOLEAN, "label": ColumnType.STRING}


def _wide(rows):
    return Dataset.from_rows(rows, name="prop", ctypes=_WIDE_CTYPES, column_order=list(_WIDE_CTYPES))


@given(
    base=st.lists(_wide_row, min_size=1, max_size=20),
    batches=st.lists(st.lists(_wide_row, min_size=0, max_size=12), min_size=1, max_size=5),
    branch=st.lists(_wide_row, min_size=0, max_size=12),
    at=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=30, deadline=None)
def test_appended_encoding_matches_cold_encode(base, batches, branch, at):
    """Extended encoded views equal a cold encode of the concatenated rows, on every branch."""
    merged = _wide(base)
    encoded = encode_dataset(merged)
    for name in _WIDE_CTYPES:
        encoded.numeric_view(name)
        if _WIDE_CTYPES[name] != ColumnType.NUMERIC:
            encoded.codes_view(name)
    all_rows = list(merged.iter_rows())
    for i, batch in enumerate(batches):
        if i == at % len(batches):
            intermediate, intermediate_rows = merged, list(all_rows)
        merged = append_rows(merged, batch)
        all_rows.extend(batch)
    # A second batch onto the same intermediate: a branch that must not see the first.
    branched = append_rows(intermediate, branch)
    for result, rows in ((merged, all_rows), (branched, intermediate_rows + branch)):
        cold_dataset = _wide(rows)
        cold = encode_dataset(cold_dataset)
        seeded = getattr(result, _CACHE_ATTR)
        assert seeded.dataset is result
        assert_identical_datasets(result, cold_dataset)
        for name, ctype in _WIDE_CTYPES.items():
            if ctype != ColumnType.NUMERIC:
                codes, vocabulary, _ = seeded.codes_view(name)
                c_codes, c_vocab, _ = cold.codes_view(name)
                assert vocabulary == c_vocab
                assert np.array_equal(codes, c_codes)
            values, missing = seeded.numeric_view(name)
            c_values, c_missing = cold.numeric_view(name)
            assert np.array_equal(values, c_values, equal_nan=True)
            assert np.array_equal(missing, c_missing)


@given(base=st.lists(_row, min_size=1, max_size=20), batches=_batches)
@settings(max_examples=30, deadline=None)
def test_incremental_group_by_matches_one_shot_rebuild(base, batches):
    aggregations = {f"v_{agg}": ("value", agg) for agg in ("sum", "mean", "min", "max", "count", "std", "median")}
    merged = _dataset(base)
    board = IncrementalGroupBy(merged, ["group"], aggregations)
    all_rows = list(merged.iter_rows())
    result = board.result()
    for batch in batches:
        merged = append_rows(merged, batch)
        all_rows.extend(batch)
        result = board.refresh(merged)
    assert_identical_datasets(result, group_by(_dataset(all_rows), ["group"], aggregations))


@given(base=st.lists(_row, min_size=1, max_size=20), batches=_batches)
@settings(max_examples=20, deadline=None)
def test_incremental_profile_matches_one_shot_rebuild(base, batches):
    criteria = ["completeness", "duplication", "balance", "dimensionality", "consistency"]
    merged = _dataset(base)
    profile = IncrementalProfile(merged, criteria=criteria)
    all_rows = list(merged.iter_rows())
    refreshed = profile.profile()
    for batch in batches:
        merged = append_rows(merged, batch)
        all_rows.extend(batch)
        refreshed = profile.refresh(merged)
    rebuilt = measure_quality(_dataset(all_rows), criteria)
    assert json.dumps(refreshed.to_json_dict(), sort_keys=True) == json.dumps(
        rebuilt.to_json_dict(), sort_keys=True
    )


@given(base=st.lists(_row, min_size=2, max_size=20), batches=_batches)
@settings(max_examples=20, deadline=None)
def test_incremental_kpi_board_matches_one_shot_rebuild(base, batches):
    kpis = [KPI("spend", "value", target=10.0, higher_is_better=False)]

    def _cube(dataset):
        return Cube(dataset, [Dimension("g", ("group",))], [Measure("total", "value", "sum")], name="prop")

    merged = _dataset(base)
    board = IncrementalKPIBoard(kpis, _cube(merged), "group")
    all_rows = list(merged.iter_rows())
    result = board.result()
    for batch in batches:
        merged = append_rows(merged, batch)
        all_rows.extend(batch)
        result = board.refresh(merged)
    assert_identical_datasets(result, evaluate_kpis_by_level(kpis, _cube(_dataset(all_rows)), "group"))
