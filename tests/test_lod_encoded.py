"""Equivalence tests for the LOD columnar tier.

Every LOD hot path has two implementations — the dict-index / pairwise
reference tier and the vectorized columnar tier — that must be bit-identical:
``select``/``ask``/``count`` bindings (values, row order, binding-dict key
order), linker link sets and scores (float bits), and tabulated datasets
(cells, column order, ctypes, roles).  These tests pin that contract, with
the reference side inside ``repro.tiers.reference()``, plus cache
invalidation on mutation, the no-mutation guarantee of the shared columnar
snapshot, and the encode-exactly-once behaviour of the tabulate → profile →
cube pipeline.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from parity import assert_identical_bindings, assert_identical_datasets, bits, on_reference, reference_codes

from repro.datasets import air_quality
from repro.datasets.civic import CIVIC, civic_lod_graph
from repro.exceptions import LODError
from repro.lod.graph import Graph
from repro.lod.linker import EntityLinker, LinkRule
from repro.lod import tabulate as tabulate_module
from repro.lod.query import TriplePattern, Variable, ask, count, select
from repro.lod.serialization import parse_ntriples, to_ntriples, to_turtle
from repro.lod.tabulate import tabulate_entities
from repro.lod.terms import BNode, Literal, Triple
from repro.lod.vocabulary import Namespace, OWL, RDF
from repro.quality import measure_quality
from repro.tabular.encoded import EncodedDataset, encode_dataset

EX = Namespace("http://example.org/")


def assert_identical_tabulations(a, b):
    """Bit-identical datasets under the same dataset name."""
    assert a.name == b.name
    assert_identical_datasets(a, b)


@pytest.fixture
def city_graph():
    graph = Graph("http://example.org/graph/cities")
    provinces = ["Alicante", "Murcia", "Valencia"]
    for i in range(40):
        subject = EX[f"city{i}"]
        graph.add_resource(
            subject,
            rdf_type=EX.City if i % 4 else EX.Town,
            label=f"City {i}",
            properties={
                EX.population: Literal(1000 * (i % 7)),
                EX.province: Literal(provinces[i % 3]),
            },
        )
        if i % 5 == 0:
            graph.add(subject, EX.twin, EX[f"city{(i * 3) % 40}"])
    return graph


QUERIES = [
    [TriplePattern(Variable("s"), RDF.type, EX.City)],
    [
        TriplePattern(Variable("s"), RDF.type, EX.City),
        TriplePattern(Variable("s"), EX.population, Variable("pop")),
    ],
    [
        TriplePattern(Variable("s"), EX.twin, Variable("t")),
        TriplePattern(Variable("t"), EX.province, Variable("prov")),
        TriplePattern(Variable("s"), EX.province, Variable("prov")),
    ],
    [TriplePattern(Variable("s"), Variable("p"), Variable("o"))],
    [TriplePattern(Variable("x"), EX.twin, Variable("x"))],
    [TriplePattern(EX["city1"], Variable("p"), Variable("o"))],
    [TriplePattern(Variable("s"), Variable("p"), Literal("Murcia"))],
    [TriplePattern(Variable("s"), EX.population, Literal(424242))],
    [TriplePattern(EX["city1"], RDF.type, EX.City)],
    [TriplePattern(EX["ghost"], Variable("p"), Variable("o"))],
]


class TestSelectEquivalence:
    @pytest.mark.parametrize("patterns", QUERIES, ids=range(len(QUERIES)))
    def test_select_bit_identical(self, city_graph, patterns):
        fast = select(city_graph, patterns)
        slow = on_reference(select, city_graph, patterns)
        assert_identical_bindings(fast, slow)

    @pytest.mark.parametrize("patterns", QUERIES, ids=range(len(QUERIES)))
    def test_ask_and_count_identical(self, city_graph, patterns):
        assert ask(city_graph, patterns) == on_reference(ask, city_graph, patterns)
        assert count(city_graph, patterns) == on_reference(count, city_graph, patterns)
        variables = sorted({v for pattern in patterns for v in pattern.variables()})
        if variables:
            assert count(city_graph, patterns, distinct_variable=variables[0]) == on_reference(
                count, city_graph, patterns, distinct_variable=variables[0]
            )

    def test_modifiers_identical(self, city_graph):
        patterns = [TriplePattern(Variable("s"), EX.population, Variable("pop"))]
        kwargs = dict(
            variables=["pop"],
            distinct=True,
            order_by="pop",
            descending=True,
            limit=5,
            where=lambda binding: binding["pop"].python_value() >= 2000,
        )
        assert_identical_bindings(
            select(city_graph, patterns, **kwargs),
            on_reference(select, city_graph, patterns, **kwargs),
        )

    def test_unbound_projection_raises_on_both_tiers(self, city_graph):
        patterns = [TriplePattern(Variable("s"), RDF.type, EX.City)]
        with pytest.raises(LODError):
            select(city_graph, patterns, variables=["ghost"])
        with pytest.raises(LODError):
            on_reference(select, city_graph, patterns, variables=["ghost"])

    def test_empty_graph(self):
        graph = Graph()
        patterns = [TriplePattern(Variable("s"), RDF.type, EX.City)]
        assert select(graph, patterns) == on_reference(select, graph, patterns) == []
        assert not ask(graph, patterns)
        assert count(graph, patterns) == 0

    def test_mutation_invalidates_the_columnar_cache(self, city_graph):
        patterns = [TriplePattern(Variable("s"), RDF.type, EX.City)]
        before = len(select(city_graph, patterns))
        assert city_graph.store._columnar is not None
        city_graph.add(EX["fresh"], RDF.type, EX.City)
        assert city_graph.store._columnar is None
        assert len(select(city_graph, patterns)) == before + 1
        triple = Triple(EX["fresh"], RDF.type, EX.City)
        city_graph.remove(triple)
        assert len(select(city_graph, patterns)) == before
        city_graph.store.update([Triple(EX["bulk"], RDF.type, EX.City)])
        assert city_graph.store._columnar is None
        assert len(select(city_graph, patterns)) == before + 1
        city_graph.remove(Triple(EX["bulk"], RDF.type, EX.City))
        assert_identical_bindings(
            select(city_graph, patterns), on_reference(select, city_graph, patterns)
        )

    def test_select_does_not_mutate_the_graph_or_the_snapshot(self, city_graph):
        triples_before = set(city_graph)
        columnar = city_graph.store.columnar()
        snapshots = {name: tuple(col.copy() for col in columnar.order(name)) for name in ("spo", "pos", "osp")}
        for patterns in QUERIES:
            select(city_graph, patterns)
            on_reference(select, city_graph, patterns)
        assert set(city_graph) == triples_before
        assert city_graph.store.columnar() is columnar
        for name, arrays in snapshots.items():
            for before, after in zip(arrays, columnar.order(name)):
                assert np.array_equal(before, after)


_texts = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=20)
_subjects = st.one_of(
    st.sampled_from([EX[f"s{i}"] for i in range(6)]),
    st.integers(min_value=1, max_value=4).map(lambda i: BNode(f"b{i}")),
)
_objects = st.one_of(_subjects, _texts.map(Literal))
_triples = st.builds(Triple, _subjects, st.sampled_from([EX[f"p{i}"] for i in range(4)]), _objects)


class TestSerializationRoundTrip:
    @given(st.lists(_triples, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_ntriples_roundtrip_reproduces_the_interned_store(self, triples):
        graph = Graph()
        for triple in triples:
            graph.add_triple(triple)
        parsed = parse_ntriples(to_ntriples(graph))
        assert set(parsed) == set(graph)
        assert len(parsed) == len(graph)
        # The canonical (sorted) serialisation makes the round trip a fixpoint:
        # parsing it again yields an interned columnar store with identical
        # id arrays, term table and blocks.
        again = parse_ntriples(to_ntriples(parsed))
        first, second = parsed.store.columnar(), again.store.columnar()
        assert first.terms == second.terms
        assert first.n_triples == second.n_triples == len(graph)
        for name in ("spo", "pos", "osp"):
            for a, b in zip(first.order(name), second.order(name)):
                assert np.array_equal(a, b)
        # Turtle serialisation of the same graph stays deterministic.
        assert to_turtle(parsed) == to_turtle(again)

    def test_unicode_and_backslash_escapes_decode_correctly(self):
        graph = parse_ntriples(
            '<http://e.org/s> <http://e.org/p> "caf\\u00E9 \\U0001F600 a\\\\nb\\tc" .'
        )
        literal = next(iter(graph)).object
        assert literal.value == "café \U0001F600 a\\nb\tc"
        # and the decoded form survives a round trip
        again = next(iter(parse_ntriples(to_ntriples(graph)))).object
        assert again.value == literal.value

    def test_out_of_range_unicode_escape_is_a_parse_error_with_line_context(self):
        with pytest.raises(LODError, match="line 1"):
            parse_ntriples('<http://e.org/s> <http://e.org/p> "x\\UFFFFFFFFy" .')

    def test_stale_snapshot_raises_instead_of_mixing_states(self):
        graph = Graph()
        graph.add(EX["s"], EX["p"], Literal("x"))
        snapshot = graph.store.columnar()
        assert snapshot.order("spo")[0].size == 1
        graph.add(EX["s2"], EX["p2"], Literal("y"))
        with pytest.raises(LODError, match="stale"):
            snapshot.order("pos")
        fresh = graph.store.columnar()
        assert fresh.order("pos")[0].size == 2

    @given(st.lists(_triples, max_size=50))
    @settings(max_examples=25, deadline=None)
    def test_roundtripped_graph_answers_queries_identically(self, triples):
        graph = Graph()
        for triple in triples:
            graph.add_triple(triple)
        parsed = parse_ntriples(to_ntriples(graph))
        patterns = [TriplePattern(Variable("s"), EX["p0"], Variable("o"))]
        fast = select(parsed, patterns, distinct=True, order_by="o")
        slow = on_reference(select, parsed, patterns, distinct=True, order_by="o")
        assert_identical_bindings(fast, slow)
        assert count(parsed, patterns) == on_reference(count, graph, patterns)


def _city_graph(suffix: str, names: list[str | None], extras: dict[int, list[str]] | None = None) -> Graph:
    graph = Graph(f"http://example.org/graph/{suffix}")
    for i, name in enumerate(names):
        properties: dict = {EX.rank: Literal(i)}
        if name is not None:
            properties[EX.cityName] = Literal(name)
        for extra in (extras or {}).get(i, []):
            properties.setdefault(EX.alias, []).append(Literal(extra))
        graph.add_resource(EX[f"{suffix}/city{i}"], rdf_type=EX.City, properties=properties)
    return graph


LINKER_CASES = [
    (["Alicante", "Elche", "Torrevieja"], ["ALICANTE", "Elche ", "Orihuela"], 0.95),
    (["MÁLAGA", "santa pola"], ["malaga", "Santa-Pola"], 0.9),
    # no shared tokens, but an edit distance of 1 on 8 characters (0.875):
    (["abcdefgh"], ["abcdefgx"], 0.85),
    (["abcdefgh"], ["abcdefgx"], 0.9),
    (["city of elche", "elche"], ["elche city", "Elx"], 0.6),
    ([None, "Alicante"], ["Alicante", None], 0.85),
    (["one", "two"], ["three", "four"], 0.85),  # unlinkable
    ([""], ["", "x"], 0.85),  # empty normalised strings
    (["ab ab ab ab"], ["ab"], 0.85),  # repeated tokens vs singleton
]


class TestLinkerEquivalence:
    @pytest.mark.parametrize("left_names,right_names,threshold", LINKER_CASES)
    def test_link_sets_and_scores_identical(self, left_names, right_names, threshold):
        left = _city_graph("a", left_names)
        right = _city_graph("b", right_names)
        linker = EntityLinker([LinkRule(EX.cityName, EX.cityName)], threshold=threshold)
        fast = linker.link(left, EX.City, right, EX.City)
        slow = on_reference(linker.link, left, EX.City, right, EX.City)
        assert [(l.left, l.right) for l in fast] == [(l.left, l.right) for l in slow]
        assert [bits(l.score) for l in fast] == [bits(l.score) for l in slow]

    def test_multi_rule_and_multi_value_identical(self):
        left = _city_graph("a", ["Alicante", "Elche", None], extras={0: ["Alacant"], 2: ["Elx"]})
        right = _city_graph("b", ["Alacant", "Elx"], extras={0: ["ALICANTE"]})
        rules = [
            LinkRule(EX.cityName, EX.cityName),
            LinkRule(EX.alias, EX.alias, weight=0.5),
            LinkRule(EX.cityName, EX.alias, weight=2.0),
        ]
        linker = EntityLinker(rules, threshold=0.5)
        fast = linker.link(left, EX.City, right, EX.City)
        slow = on_reference(linker.link, left, EX.City, right, EX.City)
        assert [(l.left, l.right, bits(l.score)) for l in fast] == [
            (l.left, l.right, bits(l.score)) for l in slow
        ]

    def test_same_graph_skips_self_pairs_on_both_tiers(self):
        graph = _city_graph("s", ["Alicante", "ALICANTE", "Elche"])
        linker = EntityLinker([LinkRule(EX.cityName, EX.cityName)], threshold=0.9)
        fast = linker.link(graph, EX.City, graph, EX.City)
        slow = on_reference(linker.link, graph, EX.City, graph, EX.City)
        assert [(l.left, l.right, bits(l.score)) for l in fast] == [
            (l.left, l.right, bits(l.score)) for l in slow
        ]
        assert all(link.left != link.right for link in fast)

    def test_missing_property_on_one_side(self):
        left = _city_graph("a", ["Alicante"])
        right = _city_graph("b", [None, None])
        linker = EntityLinker([LinkRule(EX.cityName, EX.cityName)])
        assert linker.link(left, EX.City, right, EX.City) == []
        assert on_reference(linker.link, left, EX.City, right, EX.City) == []

    def test_custom_comparator_falls_back_to_pairwise(self, monkeypatch):
        calls = []
        original = EntityLinker._link_pairwise
        monkeypatch.setattr(
            EntityLinker, "_link_pairwise", lambda self, *a: calls.append("pairwise") or original(self, *a)
        )
        custom = EntityLinker([LinkRule(EX.cityName, EX.cityName, comparator=lambda a, b: 1.0)])
        custom.link(_city_graph("a", ["Alicante"]), EX.City, _city_graph("b", ["Alicante"]), EX.City)
        assert calls == ["pairwise"]

    def test_value_cache_is_scoped_to_the_run(self):
        left = _city_graph("a", ["Alicante"])
        right = _city_graph("b", ["Alicante"])
        linker = EntityLinker([LinkRule(EX.cityName, EX.cityName)])
        linker.link(left, EX.City, right, EX.City)
        assert linker._value_cache is None
        assert linker.score_pair(left, EX["a/city0"], right, EX["b/city0"]) == 1.0
        assert linker._value_cache is None

    def test_chunked_token_counting_matches_unchunked(self, monkeypatch):
        from repro.lod import linker as linker_module

        # Force many tiny chunks (token pass and char-bound pass alike) so
        # the cross-chunk merging paths are hit.
        monkeypatch.setattr(linker_module, "_TOKEN_PAIR_CHUNK", 4)
        monkeypatch.setattr(linker_module, "_CHUNK_CELL_BUDGET", 37)
        left = _city_graph("a", ["rio alto", "rio bajo", "villa rio", "monte alto"])
        right = _city_graph("b", ["RIO ALTO", "rio  bajo", "alto monte", "villa rio x"])
        linker = EntityLinker([LinkRule(EX.cityName, EX.cityName)], threshold=0.6)
        fast = linker.link(left, EX.City, right, EX.City)
        slow = on_reference(linker.link, left, EX.City, right, EX.City)
        assert [(l.left, l.right, bits(l.score)) for l in fast] == [
            (l.left, l.right, bits(l.score)) for l in slow
        ]

    def test_degenerate_shared_token_falls_back_to_pairwise(self, monkeypatch):
        from repro.lod import linker as linker_module

        monkeypatch.setattr(linker_module, "_MAX_TOKEN_PAIR_EXPANSION", 10)
        # Every name shares the stop word "inc", blowing the expansion budget.
        left = _city_graph("a", [f"inc alpha{i}" for i in range(6)])
        right = _city_graph("b", [f"inc ALPHA{i}" for i in range(6)])
        calls = []
        original = EntityLinker._link_pairwise
        monkeypatch.setattr(
            EntityLinker,
            "_link_pairwise",
            lambda self, *a: calls.append("pairwise") or original(self, *a),
        )
        linker = EntityLinker([LinkRule(EX.cityName, EX.cityName)], threshold=0.9)
        links = linker.link(left, EX.City, right, EX.City)
        assert calls == ["pairwise"]
        assert len(links) == 6

    def test_link_does_not_mutate_the_graphs(self):
        left = _city_graph("a", ["Alicante", "Elche"])
        right = _city_graph("b", ["ALICANTE", "Elx"])
        before_left, before_right = set(left), set(right)
        EntityLinker([LinkRule(EX.cityName, EX.cityName)], threshold=0.9).link(
            left, EX.City, right, EX.City
        )
        assert set(left) == before_left
        assert set(right) == before_right


@pytest.fixture
def lod_graph():
    return civic_lod_graph(air_quality(n_rows=80, seed=3, dirty=True), entity_class="AirQualityReading")


class TestTabulateEquivalence:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"multivalued": "count"},
            {"include_subject": False},
            {"min_property_coverage": 0.5},
            {"follow_same_as": False},
        ],
        ids=["default", "count", "no-subject", "coverage", "no-sameas"],
    )
    def test_tiers_bit_identical(self, lod_graph, kwargs):
        assert_identical_tabulations(
            tabulate_entities(lod_graph, CIVIC.AirQualityReading, **kwargs),
            on_reference(tabulate_entities, lod_graph, CIVIC.AirQualityReading, **kwargs),
        )

    def test_same_as_merging_and_late_label(self):
        graph = Graph()
        graph.add_resource(EX["e1"], rdf_type=EX.Entity, properties={EX.name: Literal("one"), EX.tag: ["a", "b"]})
        graph.add_resource(EX["e1b"], properties={EX.extra: Literal(9), EX.tag: ["a"]})
        graph.add(EX["e1"], OWL.sameAs, EX["e1b"])
        graph.add_resource(EX["e2"], rdf_type=EX.Entity, properties={EX.tag: "z"}, label="Second")
        for kwargs in ({}, {"multivalued": "count"}, {"follow_same_as": False}):
            assert_identical_tabulations(
                tabulate_entities(graph, EX.Entity, **kwargs),
                on_reference(tabulate_entities, graph, EX.Entity, **kwargs),
            )

    def test_all_missing_predicate_column(self):
        graph = Graph()
        graph.add_resource(EX["e1"], rdf_type=EX.Entity, properties={EX.name: Literal("one")})
        fast = tabulate_entities(graph, EX.Entity, properties=[EX.name, EX.ghost])
        slow = on_reference(tabulate_entities, graph, EX.Entity, properties=[EX.name, EX.ghost])
        assert_identical_tabulations(fast, slow)
        assert fast["ghost"].tolist() == [None]

    def test_empty_graph_raises_on_both_tiers(self):
        graph = Graph()
        with pytest.raises(LODError):
            tabulate_entities(graph, EX.Entity)
        with pytest.raises(LODError):
            on_reference(tabulate_entities, graph, EX.Entity)

    def test_colliding_column_names_route_to_the_reference(self, monkeypatch):
        graph = Graph()
        # The property's rdfs:label is literally "subject", colliding with the
        # built-in identifier column; the columnar tier must step aside.
        graph.add_resource(EX.aboutProp, label="subject")
        graph.add_resource(EX["e1"], rdf_type=EX.Entity, properties={EX.aboutProp: Literal("x")})
        calls = []
        original = tabulate_module._tabulate_rows_reference
        monkeypatch.setattr(
            tabulate_module,
            "_tabulate_rows_reference",
            lambda *a: calls.append("reference") or original(*a),
        )
        tabulate_entities(graph, EX.Entity)
        assert calls == ["reference"]

    def test_tabulate_does_not_mutate_the_graph(self, lod_graph):
        before = set(lod_graph)
        columnar = lod_graph.store.columnar()
        snapshot = tuple(col.copy() for col in columnar.order("spo"))
        tabulate_entities(lod_graph, CIVIC.AirQualityReading)
        on_reference(tabulate_entities, lod_graph, CIVIC.AirQualityReading)
        assert set(lod_graph) == before
        assert lod_graph.store.columnar() is columnar
        for old, new in zip(snapshot, columnar.order("spo")):
            assert np.array_equal(old, new)


class TestEncodedSeeding:
    def test_seeded_views_match_a_cold_encode(self, lod_graph):
        """The codes the tabulation gathers are the per-cell walk's."""
        dataset = tabulate_entities(lod_graph, CIVIC.AirQualityReading)
        seeded = encode_dataset(dataset)
        for name in dataset.column_names:
            if dataset[name].is_numeric():
                continue
            codes, vocabulary, index = seeded.codes_view(name)
            cold_codes, cold_vocabulary, cold_index = reference_codes(dataset[name].tolist())
            assert vocabulary == cold_vocabulary
            assert index == cold_index
            assert np.array_equal(codes, cold_codes)

    def test_pipeline_encodes_each_tabulated_dataset_exactly_once(self, lod_graph, monkeypatch):
        from repro.bi import Cube, Dimension, Measure

        root_encodes = []
        original = EncodedDataset.__init__

        def counting(self, dataset, _parent=None, _parent_indices=None):
            if _parent is None:
                root_encodes.append(dataset)
            original(self, dataset, _parent=_parent, _parent_indices=_parent_indices)

        monkeypatch.setattr(EncodedDataset, "__init__", counting)
        dataset = tabulate_entities(lod_graph, CIVIC.AirQualityReading)
        measure_quality(dataset)
        cube = Cube(
            dataset,
            dimensions=[Dimension("district", ("district",))],
            measures=[Measure("mean_no2", "no2", "mean")],
        )
        cube.rollup("district")
        assert root_encodes.count(dataset) == 1
