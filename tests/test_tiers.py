"""The tier switch: its semantics, and one routing table over every dispatch site.

Each hot path picks its tier by asking :func:`repro.tiers.use_reference`.  A
row of the table names a dispatch site, the function its fast tier runs and
the function its reference runs; spies on both show that the fast one runs
outside ``reference()`` and the reference one inside it.
"""

from __future__ import annotations

import threading
from functools import partial

import pytest

import repro.feeds.incremental as incremental_module
import repro.lod.query as query_module
import repro.lod.tabulate as tabulate_module
import repro.quality.completeness as completeness_module
import repro.tabular.transforms as transforms_module
from repro.bi import KPI, Cube, Dimension, Measure, evaluate_kpis_by_level
from repro.datasets import make_classification_dataset
from repro.feeds import IncrementalGroupBy, IncrementalKPIBoard, IncrementalProfile, append_rows
from repro.lod.graph import Graph
from repro.lod.linker import EntityLinker, LinkRule
from repro.lod.query import TriplePattern, Variable, select
from repro.lod.tabulate import tabulate_entities
from repro.lod.terms import Literal
from repro.lod.vocabulary import Namespace, RDF
from repro.mining import (
    BaggingClassifier,
    DecisionTreeClassifier,
    KNNClassifier,
    NaiveBayesClassifier,
    OneRClassifier,
    PrismClassifier,
)
from repro.mining.base import Classifier
from repro.quality import CompletenessCriterion
from repro.tabular.dataset import Dataset
from repro.tabular.encoded import encode_dataset
from repro.tabular.transforms import group_by
from repro.tiers import reference, use_reference

EX = Namespace("http://example.org/")
AGGS = {"total": ("num_0", "sum"), "mean": ("num_1", "mean")}


# -- the switch ----------------------------------------------------------------


def test_the_switch_is_off_by_default_and_blocks_nest():
    assert not use_reference()
    with reference():
        assert use_reference()
        with reference():
            assert use_reference()
        assert use_reference()
    assert not use_reference()


def test_the_previous_value_comes_back_after_an_exception():
    with pytest.raises(RuntimeError):
        with reference():
            raise RuntimeError("boom")
    assert not use_reference()
    with reference():
        with pytest.raises(RuntimeError):
            with reference():
                raise RuntimeError("boom")
        assert use_reference()


def test_a_thread_started_inside_a_block_runs_the_fast_tiers():
    seen = []
    with reference():
        thread = threading.Thread(target=lambda: seen.append(use_reference()))
        thread.start()
        thread.join()
        assert use_reference()
    assert seen == [False]


# -- set-ups: each returns a zero-argument call of one dispatch site --------------


def _train(seed=3):
    return make_classification_dataset(n_rows=40, n_numeric=2, n_categorical=2, seed=seed)


def _fit(cls):
    return lambda: partial(cls().fit, _train()), ((cls, "_fit_encoded"), (cls, "_fit_rows"))


def _predict(model, method="predict"):
    return partial(getattr(model.fit(_train()), method), _train(seed=5))


def _cube(base=None):
    dimensions = [Dimension("cat_0", ("cat_0",)), Dimension("cat_1", ("cat_1",))]
    return Cube(_train() if base is None else base, dimensions, [Measure("total", "num_0", "sum")])


def _graph():
    graph = Graph()
    for i in range(6):
        name = Literal(f"city {i % 3}")
        graph.add_resource(EX[f"city{i}"], rdf_type=EX.City, properties={EX.cityName: name})
    return graph


def _link():
    graph = _graph()
    linker = EntityLinker([LinkRule(EX.cityName, EX.cityName)], threshold=0.9)
    return partial(linker.link, graph, EX.City, graph, EX.City)


def _refresh(make_state):
    base = _train()
    merged = append_rows(base, list(_train(seed=4).head(5).iter_rows()))
    return partial(make_state(base).refresh, merged)


_KPIS = [KPI("spend", "num_0", target=0.0)]
_CITIES = [TriplePattern(Variable("s"), RDF.type, EX.City)]
_GROUP_BY = ((transforms_module._GroupFolds, "_fold"), (transforms_module, "_grouped_rows_reference"))
_FILTER = ((Cube, "_keep_rows"), (Dataset, "filter"))
_REFRESH = ((IncrementalGroupBy, "result"), (incremental_module, "group_by"))

#: dispatch site → (set-up, (fast-tier function, reference function)).
ROUTES = {
    "DecisionTreeClassifier.fit": _fit(DecisionTreeClassifier),
    "OneRClassifier.fit": _fit(OneRClassifier),
    "PrismClassifier.fit": _fit(PrismClassifier),
    "Classifier.predict": (
        lambda: _predict(NaiveBayesClassifier()),
        ((NaiveBayesClassifier, "_predict_batch"), (NaiveBayesClassifier, "_predict_row")),
    ),
    "Classifier.predict_proba": (
        lambda: _predict(OneRClassifier(), "predict_proba"),
        ((Classifier, "_predict_proba_batch"), (OneRClassifier, "_predict_row")),
    ),
    "DecisionTreeClassifier.predict_proba": (
        lambda: _predict(DecisionTreeClassifier(), "predict_proba"),
        ((DecisionTreeClassifier, "_predict_proba_batch"), (Dataset, "iter_rows")),
    ),
    "NaiveBayesClassifier.predict_proba": (
        lambda: _predict(NaiveBayesClassifier(), "predict_proba"),
        ((NaiveBayesClassifier, "_predict_proba_batch"), (NaiveBayesClassifier, "_log_likelihood")),
    ),
    "KNNClassifier.predict_proba": (
        lambda: _predict(KNNClassifier(), "predict_proba"),
        ((KNNClassifier, "_predict_proba_batch"), (KNNClassifier, "_distance")),
    ),
    "BaggingClassifier.predict": (
        lambda: _predict(BaggingClassifier(n_estimators=3, seed=1)),
        ((BaggingClassifier, "_predict_batch"), (BaggingClassifier, "_member_votes")),
    ),
    "BaggingClassifier.predict_proba": (
        lambda: _predict(BaggingClassifier(n_estimators=3, seed=1), "predict_proba"),
        ((BaggingClassifier, "_predict_proba_batch"), (BaggingClassifier, "_member_votes")),
    ),
    "BaggingClassifier._vote_matrix": (
        lambda: partial(
            BaggingClassifier(n_estimators=3, seed=1).fit(_train())._predict_batch,
            encode_dataset(_train(seed=5)),
        ),
        ((DecisionTreeClassifier, "_predict_batch"), (DecisionTreeClassifier, "_predict_row")),
    ),
    "Criterion.measure_encoded": (
        lambda: partial(CompletenessCriterion().measure_encoded, encode_dataset(_train())),
        ((CompletenessCriterion, "_measure_encoded"), (CompletenessCriterion, "measure")),
    ),
    "group_by": (lambda: partial(group_by, _train(), ["cat_0"], AGGS), _GROUP_BY),
    "Cube.aggregate": (lambda: partial(_cube().aggregate, ["cat_0", "cat_1"]), _GROUP_BY),
    "Cube.pivot": (lambda: partial(_cube().pivot, "cat_0", "cat_1"), _GROUP_BY),
    "evaluate_kpis_by_level": (lambda: partial(evaluate_kpis_by_level, _KPIS, _cube(), "cat_0"), _GROUP_BY),
    "Cube.slice": (lambda: partial(_cube().slice, "cat_0", "level_1"), _FILTER),
    "Cube.dice": (lambda: partial(_cube().dice, {"cat_1": ["level_2"]}), _FILTER),
    "select": (
        lambda: partial(select, _graph(), _CITIES),
        ((query_module, "_join_encoded"), (query_module, "_join_reference")),
    ),
    "EntityLinker.link": (_link, ((EntityLinker, "_link_blocked"), (EntityLinker, "_link_pairwise"))),
    "tabulate_entities.discovery": (
        lambda: partial(tabulate_entities, _graph(), EX.City),
        ((tabulate_module, "_discover_properties_columnar"), (tabulate_module, "_discover_properties_rows")),
    ),
    "tabulate_entities.assembly": (
        lambda: partial(tabulate_entities, _graph(), EX.City),
        ((tabulate_module, "_tabulate_encoded"), (tabulate_module, "_tabulate_rows_reference")),
    ),
    "IncrementalGroupBy.refresh": (
        lambda: _refresh(lambda base: IncrementalGroupBy(base, ["cat_0"], AGGS)),
        _REFRESH,
    ),
    "IncrementalKPIBoard.refresh": (
        lambda: _refresh(lambda base: IncrementalKPIBoard(_KPIS, _cube(base), "cat_0")),
        _REFRESH,
    ),
    "IncrementalProfile.refresh": (
        lambda: _refresh(lambda base: IncrementalProfile(base, criteria=["completeness"])),
        ((completeness_module._CompletenessState, "build"), (incremental_module, "measure_quality")),
    ),
}


def _spy(monkeypatch, owner, name) -> list:
    """Count the calls into ``owner.name``; the returned list grows by one per call."""
    calls: list = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.mark.parametrize("site", list(ROUTES))
def test_each_dispatch_site_follows_the_switch(monkeypatch, site):
    make, (fast, ref) = ROUTES[site]
    outside, inside = make(), make()  # set-up runs on the fast tiers, unspied
    fast_calls, ref_calls = _spy(monkeypatch, *fast), _spy(monkeypatch, *ref)
    outside()
    assert (bool(fast_calls), bool(ref_calls)) == (True, False)
    fast_calls.clear()
    with reference():
        inside()
    assert (bool(fast_calls), bool(ref_calls)) == (False, True)
