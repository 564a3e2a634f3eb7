"""Shared fixtures for the test suite.

Expensive artefacts (experiment campaigns, knowledge bases) are built once per
session on deliberately small datasets so the whole suite stays fast while
still exercising the real code paths.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.core import ExperimentPlan, ExperimentRunner, UserProfile
from repro.datasets import (
    air_quality,
    census_income,
    make_classification_dataset,
    make_clustered_dataset,
    make_transactions_dataset,
    municipal_budget,
    service_requests,
)
from repro.datasets.civic import civic_lod_graph
from repro.lod.graph import Graph
from repro.lod.terms import Literal
from repro.lod.vocabulary import Namespace, RDF
from repro.tabular.dataset import Column, ColumnRole, ColumnType, Dataset

#: Store files a version-1 writer made of :func:`tiny_store_dataset` and :func:`tiny_store_graph`.
STORE_V1 = Path(__file__).parent / "data"


def tiny_store_dataset() -> Dataset:
    """The two-column, three-row dataset of docs/store-format.md §6."""
    return Dataset(
        [
            Column("price", [1.5, None, 4.0], ctype=ColumnType.NUMERIC),
            Column("city", ["oslo", "bonn", None], ctype=ColumnType.CATEGORICAL),
        ],
        name="tiny",
    )


def tiny_store_graph() -> Graph:
    """A six-triple graph whose POS and OSP orders differ from its SPO order."""
    ex = Namespace("http://example.org/")
    graph = Graph("http://example.org/tiny")
    graph.bind("ex", ex)
    graph.add(ex.oslo, ex.name, Literal("Oslo", language="no"))
    graph.add(ex.bonn, RDF.type, ex.City)
    graph.add(ex.oslo, RDF.type, ex.City)
    graph.add(ex.bonn, ex.population, 331_885)
    graph.add(ex.oslo, ex.area, 454.0)
    graph.add(ex.bonn, ex.capital, False)
    return graph


@pytest.fixture
def tiny_store_v1(tmp_path):
    """:func:`tiny_store_dataset` and a copy of its 1,248-byte version-1 file."""
    return tiny_store_dataset(), Path(shutil.copy(STORE_V1 / "tiny_v1.rps", tmp_path))


@pytest.fixture
def tiny_graph_store_v1(tmp_path):
    """:func:`tiny_store_graph` and a copy of its version-1 file, which holds block tables."""
    return tiny_store_graph(), Path(shutil.copy(STORE_V1 / "tiny_graph_v1.rps", tmp_path))


@pytest.fixture
def tiny_dataset() -> Dataset:
    """A small hand-written mixed-type dataset with known values."""
    return Dataset(
        [
            Column("id", ["r1", "r2", "r3", "r4", "r5"], ctype=ColumnType.STRING, role=ColumnRole.IDENTIFIER),
            Column("amount", [10.0, 20.0, None, 40.0, 50.0], ctype=ColumnType.NUMERIC),
            Column("district", ["north", "south", "north", None, "south"], ctype=ColumnType.CATEGORICAL),
            Column("active", [True, False, True, True, False], ctype=ColumnType.BOOLEAN),
            Column("label", ["a", "b", "a", "b", "a"], ctype=ColumnType.CATEGORICAL, role=ColumnRole.TARGET),
        ],
        name="tiny",
    )


@pytest.fixture
def clean_classification() -> Dataset:
    """A clean, well-separated classification dataset (no quality problems)."""
    return make_classification_dataset(n_rows=120, n_numeric=3, n_categorical=1, seed=7)


@pytest.fixture
def clustered_dataset() -> Dataset:
    return make_clustered_dataset(n_rows=90, n_clusters=3, seed=5)


@pytest.fixture
def transactions_dataset() -> Dataset:
    return make_transactions_dataset(n_rows=200, seed=5)


@pytest.fixture
def budget_dataset() -> Dataset:
    return municipal_budget(n_rows=120, seed=0)


@pytest.fixture
def dirty_budget_dataset() -> Dataset:
    return municipal_budget(n_rows=120, seed=0, dirty=True)


@pytest.fixture
def air_quality_dataset() -> Dataset:
    return air_quality(n_rows=120, seed=1)


@pytest.fixture
def census_dataset() -> Dataset:
    return census_income(n_rows=150, seed=2)


@pytest.fixture
def requests_dataset() -> Dataset:
    return service_requests(n_rows=120, seed=3)


@pytest.fixture
def civic_graph(air_quality_dataset):
    """A LOD graph published from the air-quality dataset."""
    return civic_lod_graph(air_quality_dataset, entity_class="AirQualityReading")


@pytest.fixture(scope="session")
def small_knowledge_base():
    """A small but real DQ4DM knowledge base shared by advisor/rules/bench tests."""
    runner = ExperimentRunner(
        profile=UserProfile(
            name="test",
            algorithms=("decision_tree", "naive_bayes", "knn", "one_r"),
            cv_folds=3,
        ),
        plan=ExperimentPlan(
            criteria=("completeness", "accuracy", "balance"),
            simple_severities=(0.0, 0.2, 0.4),
            mixed_severity=0.25,
        ),
    )
    dataset = make_classification_dataset(n_rows=120, n_numeric=3, n_categorical=1, seed=3)
    return runner.run([dataset])
