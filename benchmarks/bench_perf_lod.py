"""BENCH-PERF-LOD — columnar Linked-Open-Data tier vs the reference tier.

Times the three LOD hot paths on both execution tiers — the vectorized
columnar tier (interned id arrays, ``searchsorted`` joins, blocked linking,
direct-to-encoded column assembly) and the retained dict-index / pairwise
reference tier (the same calls inside ``repro.tiers.reference()``):

``select``
    A query session — five rounds of a four-query SPARQL-like batch — over
    a sensor-reading graph at 50k triples, including a three-pattern join
    from readings through their station to its district.  The columnar
    timing starts cold: the interned snapshot is dropped first and rebuilt
    inside the measurement, then amortised over the session like any real
    sequence of queries against a loaded graph.
``linker``
    ``EntityLinker.link`` between two city registries of 2 500 resources
    each (5k entities total) with one fuzzy name rule.  The pairwise
    reference runs once: at full size it takes minutes.
``tabulate``
    ``tabulate_entities`` of the 50k-triple reading graph into a dataset
    **through** its encoded views (every column's missing/codes/float view
    materialised) — the shape the paper's pipeline consumes next, and what
    the columnar tier's direct-to-encoded pre-seeding optimises.  Cold:
    the snapshot is dropped before every run.

Identity covers bindings (row order and binding key order included), link
sets with float-bit scores, and tabulated cells, column order and encoded
views.  ``benchmarks/_harness.py`` runs it, records ``BENCH_perf_lod.json``
and guards it with ``--quick``.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.lod.graph import Graph
from repro.lod.linker import EntityLinker, LinkRule
from repro.lod.query import TriplePattern, Variable, select
from repro.lod.terms import Literal
from repro.lod.tabulate import tabulate_entities
from repro.lod.vocabulary import Namespace, RDF
from repro.tabular.encoded import encode_dataset
from repro.tiers import reference

try:
    from benchmarks import _harness
except ModuleNotFoundError:  # run as a script
    import _harness

EX = Namespace("http://openbi.example.org/bench/")

#: Rounds of the query batch per timed select session.
SELECT_ROUNDS = 5
#: Reading-graph triples and linker entities per side.
FULL = {"50000t/5000e": dict(n_triples=50_000, linker_per_side=2_500)}
QUICK = {"8000t/600e": dict(n_triples=8_000, linker_per_side=300, repeats=2)}
GUARDED = ("select", "linker", "tabulate")

_DISTRICTS = [f"district_{i:02d}" for i in range(12)]
_WORDS = ["rio", "san", "villa", "puerto", "nueva", "alta", "baja", "gran", "monte", "costa"]


def _reading_graph(n_triples: int) -> Graph:
    """A sensor-reading graph: stations with districts, readings with values.

    Each reading contributes ~6 triples, each station ~3, so ``n_triples``
    controls the overall graph size.
    """
    rng = np.random.default_rng(0)
    graph = Graph("http://openbi.example.org/bench/graph")
    n_stations = max(10, n_triples // 500)
    for i in range(n_stations):
        graph.add_resource(
            EX[f"station/{i}"],
            rdf_type=EX.Station,
            properties={EX.district: Literal(_DISTRICTS[i % len(_DISTRICTS)])},
            label=f"Station {i}",
        )
    n_readings = max(1, (n_triples - len(graph)) // 6)
    stations = rng.integers(n_stations, size=n_readings)
    months = rng.integers(1, 13, size=n_readings)
    no2 = np.round(rng.uniform(5, 90, size=n_readings), 1)
    pm10 = np.round(rng.uniform(5, 60, size=n_readings), 1)
    alerts = rng.random(n_readings) < 0.1
    for i in range(n_readings):
        subject = EX[f"reading/{i}"]
        graph.add(subject, RDF.type, EX.Reading)
        graph.add(subject, EX.station, EX[f"station/{stations[i]}"])
        graph.add(subject, EX.month, Literal(int(months[i])))
        graph.add(subject, EX.no2, Literal(float(no2[i])))
        graph.add(subject, EX.pm10, Literal(float(pm10[i])))
        graph.add(subject, EX.alert, Literal("alert" if alerts[i] else "ok"))
    return graph


def _select_queries() -> list[dict]:
    """The query batch timed by the ``select`` workload."""
    reading, station = Variable("r"), Variable("s")
    return [
        {"patterns": [TriplePattern(reading, RDF.type, EX.Reading),
                      TriplePattern(reading, EX.alert, Literal("alert"))]},
        {"patterns": [TriplePattern(reading, RDF.type, EX.Reading),
                      TriplePattern(reading, EX.station, station),
                      TriplePattern(station, EX.district, Variable("d"))]},
        {"patterns": [TriplePattern(reading, EX.no2, Variable("v"))],
         "order_by": "v", "descending": True, "limit": 20},
        {"patterns": [TriplePattern(reading, EX.station, station)],
         "variables": ["s"], "distinct": True},
    ]


def _city_registry(suffix: str, n_entities: int, perturb: bool) -> Graph:
    """A registry of city-like resources with fuzzy-matchable names."""
    rng = np.random.default_rng(7)
    graph = Graph(f"http://openbi.example.org/bench/{suffix}")
    for i in range(n_entities):
        name = f"{_WORDS[rng.integers(len(_WORDS))]} {_WORDS[rng.integers(len(_WORDS))]} {i:05d}"
        if perturb:
            if i % 5 == 0:
                name = name.upper()
            if i % 7 == 0:
                name = name.replace("0", "o", 1)
            if i % 11 == 0:
                name = f"ciudad {name}"
        graph.add_resource(EX[f"{suffix}/city{i}"], rdf_type=EX.City,
                           properties={EX.cityName: Literal(name)})
    return graph


def _session(graph: Graph, queries: list[dict]) -> list:
    """Run the query batch ``SELECT_ROUNDS`` times; return the last round's results."""
    for _ in range(SELECT_ROUNDS):
        results = [select(graph, **query) for query in queries]
    return results


def _same_bindings(fast: list, ref: list) -> bool:
    """Equal bindings in the same row order, each binding's keys in the same order."""
    return fast == ref and [[list(b) for b in r] for r in fast] == [[list(b) for b in r] for r in ref]


def _link_keys(links) -> list:
    """Link pairs in order with their scores' float bits."""
    return [(link.left, link.right, _harness.bits(link.score)) for link in links]


def _materialised(dataset):
    """Touch every encoded view of ``dataset`` — the profile/cube entry cost."""
    encoded = encode_dataset(dataset)
    for name in dataset.column_names:
        encoded.missing_view(name)
        if dataset[name].is_numeric():
            encoded.numeric_view(name)
        else:
            encoded.codes_view(name)
    return dataset


def cases(n_triples: int, linker_per_side: int, repeats: int = 1) -> dict:
    """Time every workload on the columnar vs the reference tier."""
    graph = _reading_graph(n_triples)
    queries = _select_queries()

    def fast_select():
        _harness.drop_caches(graph)
        return _session(graph, queries)

    results = {
        "select": _harness.compare(
            fast_select, reference()(lambda: _session(graph, queries)), repeats, same=_same_bindings
        )
    }

    left = _city_registry("left", linker_per_side, perturb=False)
    right = _city_registry("right", linker_per_side, perturb=True)
    linker = EntityLinker([LinkRule(EX.cityName, EX.cityName)], threshold=0.9)

    def link():
        return linker.link(left, EX.City, right, EX.City)

    fast, fast_s = _harness.timed(link, repeats)
    ref, ref_s = _harness.timed(reference()(link))
    results["linker"] = _harness.case(fast_s, ref_s, _link_keys(fast) == _link_keys(ref))

    def fast_tabulate():
        _harness.drop_caches(graph)
        return _materialised(tabulate_entities(graph, EX.Reading))

    results["tabulate"] = _harness.compare(
        fast_tabulate,
        reference()(lambda: _materialised(tabulate_entities(graph, EX.Reading))),
        repeats,
        same=lambda a, b: _harness.identical(a, b) and _harness.encoded_bytes(a) == _harness.encoded_bytes(b),
    )
    return results


def check(sizes: dict) -> None:
    """Blocked linking at 5k entities must beat the pairwise reference ≥5×."""
    linker = sizes["50000t/5000e"]["linker"]["speedup"]
    assert linker >= 5.0, f"blocked linking at 5k entities is {linker:.1f}x, below the 5x bar"


if __name__ == "__main__":
    sys.exit(_harness.main(sys.modules[__name__]))
