"""GraphRank scoring formulas, normalization, and list assembly."""

import math
import random

import pytest

from docgraph import ranker
from docgraph.errors import InconsistencyError, InputError, MissingSpecificityError
from docgraph.matcher import Fragment, build_statement_index, retrieve
from docgraph.query import (
    ConceptSet,
    DisjunctiveQuery,
    ExpandedConcept,
    FactPattern,
    NarrativeQuery,
    PredicateSlot,
)
from docgraph.ranker import (
    PredicateTaxonomy,
    ScoredDocument,
    SimilarityVector,
    Weights,
    assemble_final_ranking,
    edge_tfidf,
    fragment_confidence,
    fragment_coverage,
    fragment_min_tfidf,
    fragment_translation,
    graph_rank,
    neighbor_edges,
    normalize_and_combine,
    relational_similarity,
    similarity_vector,
)

from oracles import reference_class_scores, reference_containment_scores
from randgen import corpus_from_raw, random_query, random_raw_corpus

LN2 = math.log(2.0)


def concept_set(node_id, *concepts, scores=None):
    scores = scores or [1.0] * len(concepts)
    return ConceptSet(
        node_id, node_id, [ExpandedConcept(c, s) for c, s in zip(concepts, scores)]
    )


def self_bound(doc_id, *edges):
    """Fragment whose node ids are the bound concepts themselves."""
    endpoints = {c for e in edges for c in (e[0], e[2])}
    return Fragment(doc_id, tuple(edges), tuple((c, c) for c in sorted(endpoints)))


@pytest.fixture(scope="module")
def taxonomy(fix1_config):
    return fix1_config.taxonomy


class TestTaxonomyAndWeights:
    def test_level_mapping(self):
        taxonomy = PredicateTaxonomy.from_levels({"treats": 1, "interacts": 2, "associated": 3})
        assert taxonomy.specificity("treats") == 1.0
        assert taxonomy.specificity("interacts") == 0.5
        assert taxonomy.specificity("associated") == 0.25

    def test_unknown_predicate_raises(self, taxonomy):
        with pytest.raises(MissingSpecificityError, match="mystery"):
            taxonomy.specificity("mystery")

    def test_associated_must_be_generic(self):
        with pytest.raises(InputError, match="associated"):
            PredicateTaxonomy({"associated": 1.0})

    def test_bad_level(self):
        with pytest.raises(InputError, match="level"):
            PredicateTaxonomy.from_levels({"treats": 4})

    def test_weights_validation(self):
        with pytest.raises(InputError, match="sum"):
            Weights(0.3, 0.3, 0.3, 0.3)
        with pytest.raises(InputError):
            Weights(1.2, -0.2, 0.0, 0.0)
        assert Weights().as_tuple() == (0.25, 0.25, 0.25, 0.25)


class TestFragmentSimilarities:
    def test_confidence_single_edge(self, fix1_corpus):
        fragment = self_bound("D-A", ("M", "treats", "DM"))
        assert fragment_confidence(fragment, fix1_corpus.document("D-A")) == 0.8

    def test_confidence_weakest_edge(self, fix1_corpus):
        fragment = self_bound("D-A", ("M", "associated", "H"), ("H", "associated", "DM"))
        assert fragment_confidence(fragment, fix1_corpus.document("D-A")) == 0.4

    def test_edge_tfidf_values(self, fix1_corpus, taxonomy):
        doc = fix1_corpus.document("D-A")
        stats = fix1_corpus.stats
        assert edge_tfidf(("M", "associated", "H"), doc, stats, taxonomy) == pytest.approx(
            0.125 * LN2, abs=1e-12
        )
        assert edge_tfidf(("M", "treats", "DM"), doc, stats, taxonomy) == 0.0

    def test_min_tfidf(self, fix1_corpus, taxonomy):
        doc = fix1_corpus.document("D-A")
        stats = fix1_corpus.stats
        two_edge = self_bound("D-A", ("M", "associated", "H"), ("H", "associated", "DM"))
        assert fragment_min_tfidf(two_edge, doc, stats, taxonomy) == pytest.approx(
            0.125 * LN2, abs=1e-12
        )
        with_zero = self_bound("D-A", ("M", "treats", "DM"), ("M", "associated", "H"))
        assert fragment_min_tfidf(with_zero, doc, stats, taxonomy) == 0.0

    def test_coverage(self, fix1_corpus):
        doc = fix1_corpus.document("D-A")
        pair = self_bound("D-A", ("M", "treats", "DM"))
        assert fragment_coverage(pair, doc) == pytest.approx(0.6)
        with_h = self_bound("D-A", ("M", "associated", "H"))
        assert fragment_coverage(with_h, doc) == 0.0

    def test_neighbor_edges(self, fix1_corpus):
        graph = fix1_corpus.document("D-A")
        neighbors = neighbor_edges(("M", "treats", "DM"), graph)
        assert set(neighbors) == {("M", "associated", "H"), ("H", "associated", "DM")}

    def test_neighbor_excludes_parallel_edges(self):
        raw = {
            "X": {
                "length": 50,
                "mentions": {"M": [0], "DM": [10]},
                "statements": [("M", "treats", "DM", 0.9), ("M", "associated", "DM", 0.2)],
                "tokens": [],
            }
        }
        corpus = corpus_from_raw(raw)
        neighbors = neighbor_edges(("M", "treats", "DM"), corpus.document("X"))
        assert neighbors == ()

    def test_no_neighbors_zero_relational(self, fix1_corpus, taxonomy):
        fragment = self_bound("D-B", ("M", "associated", "DM"))
        value = relational_similarity(
            fragment,
            fix1_corpus.document("D-B"),
            fix1_corpus.stats,
            taxonomy,
        )
        assert value == 0.0

    def test_relational_fix1_hand_value(self, fix1_corpus, taxonomy):
        fragment = self_bound("D-A", ("M", "treats", "DM"))
        value = relational_similarity(
            fragment,
            fix1_corpus.document("D-A"),
            fix1_corpus.stats,
            taxonomy,
        )
        score_mh = (0.125 * LN2 + 0.0 + 0.4) / 3.0
        score_hdm = (0.125 * LN2 + 0.0 + 0.5) / 3.0
        assert value == pytest.approx(score_mh + score_hdm, abs=1e-12)
        assert value == pytest.approx(0.3577622650466621, abs=1e-9)

    def test_relational_monotone_in_neighbor_confidence(self, taxonomy):
        def build(conf):
            raw = {
                "X": {
                    "length": 60,
                    "mentions": {"A": [0, 30], "B": [10], "C": [20]},
                    "statements": [
                        ("A", "treats", "B", 0.5),
                        ("B", "associated", "C", conf),
                    ],
                    "tokens": [],
                }
            }
            corpus = corpus_from_raw(raw)
            fragment = self_bound("X", ("A", "treats", "B"))
            return relational_similarity(
                fragment, corpus.document("X"), corpus.stats, taxonomy
            )

        assert build(0.8) > build(0.4)

    def test_fragment_translation_min(self):
        cs_a = concept_set("a", "A", scores=[1.0])
        cs_b = concept_set("b", "B", scores=[0.5])
        query = DisjunctiveQuery(
            (cs_a, cs_b),
            (NarrativeQuery([FactPattern(cs_a, PredicateSlot.wildcard(), cs_b)]),),
            text="q",
        )
        fragment = Fragment("X", (("A", "p", "B"),), (("a", "A"), ("b", "B")))
        assert fragment_translation(fragment, query) == 0.5


class TestNormalizeAndCombine:
    def test_single_fragment_self_normalizes(self):
        vector = SimilarityVector(0.4, 0.2, 0.6, 1.3, translation=0.5)
        assert normalize_and_combine([vector], Weights()) == [pytest.approx(0.5)]

    def test_max_division(self):
        weights = Weights(1.0, 0.0, 0.0, 0.0)
        vectors = [
            SimilarityVector(0.2, 0, 0, 0, translation=1.0),
            SimilarityVector(0.4, 0, 0, 0, translation=1.0),
        ]
        assert normalize_and_combine(vectors, weights) == [pytest.approx(0.5), pytest.approx(1.0)]

    def test_zero_column_contributes_zero(self):
        vectors = [
            SimilarityVector(0.0, 0.5, 0.5, 0.5, translation=1.0),
            SimilarityVector(0.0, 0.5, 0.5, 0.5, translation=1.0),
        ]
        scores = normalize_and_combine(vectors, Weights())
        assert scores == [pytest.approx(0.75), pytest.approx(0.75)]

    def test_fscore_bounds_random(self):
        rng = random.Random(61)
        for _ in range(200):
            vectors = [
                SimilarityVector(
                    rng.uniform(0, 1),
                    rng.uniform(0, 20),
                    rng.uniform(0, 1),
                    rng.uniform(0, 30),
                    translation=rng.uniform(0.05, 1.0),
                )
                for _ in range(rng.randint(1, 8))
            ]
            raw = [rng.random() for _ in range(4)]
            total = sum(raw)
            weights = Weights(*[value / total for value in raw])
            for score in normalize_and_combine(vectors, weights):
                assert 0.0 <= score <= 1.0

    def test_positive_rescaling_keeps_argsort(self):
        rng = random.Random(67)
        for _ in range(100):
            vectors = [
                SimilarityVector(
                    rng.uniform(0, 1),
                    rng.uniform(0, 5),
                    rng.uniform(0, 1),
                    rng.uniform(0, 9),
                    translation=rng.uniform(0.05, 1.0),
                )
                for _ in range(rng.randint(2, 7))
            ]
            component = rng.randrange(4)
            factor = rng.uniform(0.01, 50.0)

            def scaled(vector):
                values = list(vector.components())
                values[component] *= factor
                return SimilarityVector(*values, translation=vector.translation)

            base = normalize_and_combine(vectors, Weights())
            rescaled = normalize_and_combine([scaled(v) for v in vectors], Weights())
            argsort = lambda xs: sorted(range(len(xs)), key=lambda i: (-xs[i], i))
            assert argsort(base) == argsort(rescaled)


class TestMinSemantics:
    def test_removing_edge_never_decreases_min_scores(self, taxonomy):
        rng = random.Random(71)
        checked = 0
        while checked < 60:
            raw = random_raw_corpus(rng, max_docs=6, max_concepts=8, max_edges=12)
            corpus = corpus_from_raw(raw)
            for doc_id in corpus.doc_ids:
                graph = corpus.document(doc_id)
                if len(graph.edges) < 2:
                    continue
                k = rng.randint(2, min(4, len(graph.edges)))
                edges = tuple(rng.sample(tuple(graph.edges), k))
                fragment = self_bound(doc_id, *edges)
                doc = corpus.document(doc_id)
                drop = rng.randrange(k)
                smaller = self_bound(doc_id, *(e for i, e in enumerate(edges) if i != drop))
                assert fragment_confidence(smaller, graph) >= fragment_confidence(fragment, graph)
                assert fragment_min_tfidf(smaller, doc, corpus.stats, taxonomy) >= fragment_min_tfidf(
                    fragment, doc, corpus.stats, taxonomy
                )
                assert fragment_coverage(smaller, doc) >= fragment_coverage(fragment, doc)
                checked += 1

    def test_confidence_monotone_in_extraction_confidence(self, taxonomy):
        def conf_component(confidence):
            raw = {
                "X": {
                    "length": 40,
                    "mentions": {"A": [0], "B": [10]},
                    "statements": [("A", "treats", "B", confidence), ("A", "treats", "B", 0.3)],
                    "tokens": [],
                }
            }
            corpus = corpus_from_raw(raw)
            return fragment_confidence(self_bound("X", ("A", "treats", "B")), corpus.document("X"))

        assert conf_component(0.9) >= conf_component(0.5) >= conf_component(0.31)


def fix1_treats_query():
    m = concept_set("metformin", "M")
    dm = ConceptSet("diabetes", "diabetes", [ExpandedConcept("DM", 0.5)])
    return DisjunctiveQuery(
        (m, dm),
        (NarrativeQuery([FactPattern(m, PredicateSlot.of("treats"), dm)]),),
        text="metformin diabetes",
    )


class TestGraphRank:
    def test_fix1_end_to_end_score(self, fix1_corpus, fix1_config):
        query = fix1_treats_query()
        index = build_statement_index(fix1_corpus)
        result = retrieve(query, index, fix1_corpus)
        scored = graph_rank(
            query, result.full, fix1_corpus, fix1_config.taxonomy, fix1_config.weights
        )
        assert [s.doc_id for s in scored] == ["D-A"]
        # translation 0.5; min_tfidf column is all-zero; other components self-normalize
        assert scored[0].score == pytest.approx(0.375, abs=1e-12)
        assert scored[0].best_fragment.edges == (("M", "treats", "DM"),)

    def test_duplicate_fragments_score_once(self, fix1_corpus, fix1_config):
        query = fix1_treats_query()
        fragment = Fragment(
            "D-A", (("M", "treats", "DM"),), (("diabetes", "DM"), ("metformin", "M"))
        )
        single = graph_rank(
            query, {"D-A": [fragment]}, fix1_corpus, fix1_config.taxonomy, fix1_config.weights
        )
        double = graph_rank(
            query,
            {"D-A": [fragment, fragment]},
            fix1_corpus,
            fix1_config.taxonomy,
            fix1_config.weights,
        )
        assert single[0].score == double[0].score

    def test_empty_class(self, fix1_corpus, fix1_config):
        assert graph_rank(fix1_treats_query(), {}, fix1_corpus, fix1_config.taxonomy, fix1_config.weights) == []

    def test_deterministic_tie_break(self, fix1_config):
        raw = {
            "B": {"length": 40, "mentions": {"X": [0], "Y": [10]}, "statements": [("X", "treats", "Y", 0.5)], "tokens": []},
            "A": {"length": 40, "mentions": {"X": [0], "Y": [10]}, "statements": [("X", "treats", "Y", 0.5)], "tokens": []},
        }
        corpus = corpus_from_raw(raw)
        x = concept_set("x", "X")
        y = concept_set("y", "Y")
        query = DisjunctiveQuery(
            (x, y), (NarrativeQuery([FactPattern(x, PredicateSlot.of("treats"), y)]),), text="q"
        )
        result = retrieve(query, build_statement_index(corpus), corpus)
        scored = graph_rank(query, result.full, corpus, fix1_config.taxonomy, fix1_config.weights)
        assert [s.doc_id for s in scored] == ["A", "B"]
        assert scored[0].score == scored[1].score

    def test_unit_weight_component_isolation(self, fix1_config):
        rng = random.Random(73)
        unit_vectors = [
            Weights(1.0, 0.0, 0.0, 0.0),
            Weights(0.0, 1.0, 0.0, 0.0),
            Weights(0.0, 0.0, 1.0, 0.0),
            Weights(0.0, 0.0, 0.0, 1.0),
        ]
        for trial in range(20):
            raw = random_raw_corpus(rng, max_docs=12, max_concepts=8, max_edges=10)
            corpus = corpus_from_raw(raw)
            index = build_statement_index(corpus)
            concepts = sorted({c for d in raw.values() for c in d["mentions"]})
            query = random_query(rng, concepts)
            result = retrieve(query, index, corpus)
            if not result.full:
                continue
            rows = [
                (doc_id, fragment)
                for doc_id, fragments in result.full.items()
                for fragment in fragments
            ]
            from docgraph.ranker import similarity_vector

            vectors = [
                similarity_vector(fragment, query, corpus, fix1_config.taxonomy)
                for _, fragment in rows
            ]
            for component, weights in enumerate(unit_vectors):
                scored = graph_rank(
                    query, result.full, corpus, fix1_config.taxonomy, weights
                )
                maximum = max(v.components()[component] for v in vectors)
                expected = {}
                for (doc_id, _), vector in zip(rows, vectors):
                    value = vector.components()[component]
                    fscore = vector.translation * (
                        value / maximum if maximum > 0 else 0.0
                    )
                    if doc_id not in expected or fscore > expected[doc_id]:
                        expected[doc_id] = fscore
                expected_order = sorted(expected.items(), key=lambda kv: (-kv[1], kv[0]))
                assert [s.doc_id for s in scored] == [doc_id for doc_id, _ in expected_order]
                for scored_doc, (_, fscore) in zip(scored, expected_order):
                    assert scored_doc.score == pytest.approx(fscore, abs=1e-12)


class TestReferenceOracleAgreement:
    @staticmethod
    def node_scores_of(query):
        return {
            cs.node_id: {e.concept_id: e.score for e in cs.entries()}
            for cs in query.components
        }

    @staticmethod
    def raw_taxonomy():
        return {"treats": 1.0, "inhibits": 1.0, "interacts": 0.5, "associated": 0.25}

    def test_fix1_agreement(self, fix1_corpus, fix1_config):
        raw = {
            "D-A": {
                "length": 100,
                "mentions": {"M": [0, 60], "DM": [20, 80], "H": [40]},
                "statements": [
                    ("M", "treats", "DM", 0.8),
                    ("M", "treats", "DM", 0.6),
                    ("M", "associated", "H", 0.4),
                    ("H", "associated", "DM", 0.5),
                ],
            },
            "D-B": {
                "length": 50,
                "mentions": {"M": [0], "DM": [20]},
                "statements": [("M", "associated", "DM", 0.3)],
            },
        }
        query = fix1_treats_query()
        index = build_statement_index(fix1_corpus)
        result = retrieve(query, index, fix1_corpus)
        scored = graph_rank(
            query, result.full, fix1_corpus, fix1_config.taxonomy, fix1_config.weights
        )
        fragments = [
            (doc_id, f.edges, dict(f.node_bindings))
            for doc_id, fs in result.full.items()
            for f in fs
        ]
        ranking, _ = reference_class_scores(
            raw, fragments, self.node_scores_of(query), self.raw_taxonomy(), (0.25,) * 4
        )
        assert [doc for doc, _ in ranking] == [s.doc_id for s in scored]
        for (_, expected), got in zip(ranking, scored):
            assert abs(expected - got.score) <= 1e-9

    def test_random_corpora_agreement(self, fix1_config):
        rng = random.Random(79)
        compared = 0
        for _ in range(25):
            raw = random_raw_corpus(rng, max_docs=12, max_concepts=8, max_edges=10)
            corpus = corpus_from_raw(raw)
            index = build_statement_index(corpus)
            concepts = sorted({c for d in raw.values() for c in d["mentions"]})
            query = random_query(rng, concepts, n_alternatives=rng.randint(1, 2))
            result = retrieve(query, index, corpus)
            node_scores = self.node_scores_of(query)
            for class_docs in (result.full, result.partial):
                if not class_docs:
                    continue
                scored = graph_rank(
                    query, class_docs, corpus, fix1_config.taxonomy, fix1_config.weights
                )
                fragments = [
                    (doc_id, f.edges, dict(f.node_bindings))
                    for doc_id, fs in class_docs.items()
                    for f in fs
                ]
                ranking, _ = reference_class_scores(
                    raw, fragments, node_scores, self.raw_taxonomy(), (0.25,) * 4
                )
                assert [doc for doc, _ in ranking] == [s.doc_id for s in scored]
                for (_, expected), got in zip(ranking, scored):
                    assert abs(expected - got.score) <= 1e-9
                compared += 1
        assert compared >= 20

    def test_containment_agreement(self, fix1_corpus, fix1_config):
        h = ConceptSet("h", "h", [ExpandedConcept("M", 0.8), ExpandedConcept("H", 1.0)])
        query = DisjunctiveQuery((h,), (), text="q")
        index = build_statement_index(fix1_corpus)
        result = retrieve(query, index, fix1_corpus)
        scored = graph_rank(
            query, result.full, fix1_corpus, fix1_config.taxonomy, fix1_config.weights
        )
        raw = {
            "D-A": {"length": 100, "mentions": {"M": [0, 60], "DM": [20, 80], "H": [40]}, "statements": []},
            "D-B": {"length": 50, "mentions": {"M": [0], "DM": [20]}, "statements": []},
        }
        fragments = [
            (doc_id, f.edges, dict(f.node_bindings))
            for doc_id, fs in result.full.items()
            for f in fs
        ]
        ranking, _ = reference_containment_scores(raw, fragments, self.node_scores_of(query))
        assert [doc for doc, _ in ranking] == [s.doc_id for s in scored]
        for (_, expected), got in zip(ranking, scored):
            assert abs(expected - got.score) <= 1e-9


class TestAssembleFinalRanking:
    def fragment(self, doc_id):
        return Fragment(doc_id, (), (("n", "C"),))

    def test_partial_never_outranks_full(self):
        full = [ScoredDocument("A", 0.3, "full", self.fragment("A"))]
        partial = [ScoredDocument("B", 0.9, "partial", self.fragment("B"))]
        ranked = assemble_final_ranking(full, partial)
        assert [(r.rank, r.doc_id) for r in ranked] == [(1, "A"), (2, "B")]
        assert ranked[0].run_score > ranked[1].run_score

    def test_full_only(self):
        full = [
            ScoredDocument("A", 0.9, "full", self.fragment("A")),
            ScoredDocument("B", 0.1, "full", self.fragment("B")),
        ]
        ranked = assemble_final_ranking(full, [])
        assert [r.doc_id for r in ranked] == ["A", "B"]

    def test_truncation_at_cutoff(self):
        full = [
            ScoredDocument(f"D{i:04d}", 1.0 - i * 1e-4, "full", self.fragment(f"D{i:04d}"))
            for i in range(1500)
        ]
        ranked = assemble_final_ranking(full, [], cutoff=1000)
        assert len(ranked) == 1000
        assert ranked[-1].rank == 1000
        assert ranked[-1].doc_id == "D0999"

    def test_overlap_is_internal_inconsistency(self):
        full = [ScoredDocument("A", 0.5, "full", self.fragment("A"))]
        partial = [ScoredDocument("A", 0.4, "partial", self.fragment("A"))]
        with pytest.raises(InconsistencyError):
            assemble_final_ranking(full, partial)

    def test_negative_score_past_cutoff_is_inconsistency(self):
        full = [ScoredDocument("A", 0.5, "full", self.fragment("A"))]
        partial = [ScoredDocument("B", -0.1, "partial", self.fragment("B"))]
        with pytest.raises(InconsistencyError, match="negative model score"):
            assemble_final_ranking(full, partial, cutoff=1)

    def test_run_scores_non_increasing(self):
        rng = random.Random(83)
        for _ in range(50):
            full = [
                ScoredDocument(f"F{i}", rng.uniform(0, 1), "full", self.fragment(f"F{i}"))
                for i in range(rng.randint(0, 10))
            ]
            partial = [
                ScoredDocument(f"P{i}", rng.uniform(0, 1), "partial", self.fragment(f"P{i}"))
                for i in range(rng.randint(0, 10))
            ]
            full.sort(key=lambda s: -s.score)
            partial.sort(key=lambda s: -s.score)
            ranked = assemble_final_ranking(full, partial)
            scores = [r.run_score for r in ranked]
            assert scores == sorted(scores, reverse=True)
            full_ranks = [r.rank for r in ranked if r.match_class == "full"]
            partial_ranks = [r.rank for r in ranked if r.match_class == "partial"]
            if full_ranks and partial_ranks:
                assert max(full_ranks) < min(partial_ranks)


def self_query(concepts):
    """A query whose node ids are the concepts, as in ``self_bound`` fragments."""
    nodes = [concept_set(c, c) for c in concepts]
    pattern = FactPattern(nodes[0], PredicateSlot.wildcard(), nodes[1])
    return DisjunctiveQuery(nodes, (NarrativeQuery([pattern]),), text="q")


class TestEdgeRows:
    """similarity_vector reads cached (document, edge) rows, bit for bit."""

    @staticmethod
    def component_vector(fragment, query, corpus, taxonomy):
        doc = corpus.document(fragment.doc_id)
        return (
            fragment_confidence(fragment, doc),
            fragment_min_tfidf(fragment, doc, corpus.stats, taxonomy),
            fragment_coverage(fragment, doc),
            relational_similarity(fragment, doc, corpus.stats, taxonomy),
            fragment_translation(fragment, query),
        )

    @staticmethod
    def cached_rows(corpus):
        return sum(len(table) for table in corpus.ranking_cache[1].values())

    def test_cold_and_warm_vectors_equal_component_functions(self, taxonomy):
        rng = random.Random(89)
        multi_edge = 0
        for _ in range(30):
            raw = random_raw_corpus(rng, max_docs=10, max_concepts=7, max_edges=12)
            corpus = corpus_from_raw(raw)
            concepts = sorted({c for d in raw.values() for c in d["mentions"]})
            if len(concepts) < 2:
                continue
            query = random_query(rng, concepts, n_alternatives=rng.randint(1, 2))
            result = retrieve(query, build_statement_index(corpus), corpus)
            cases = [
                (fragment, query)
                for fragments in (*result.full.values(), *result.partial.values())
                for fragment in fragments
            ]
            by_concept = self_query(concepts)
            for doc in corpus.documents():
                if len(doc.edges) >= 2:
                    k = rng.randint(2, min(4, len(doc.edges)))
                    edges = rng.sample(tuple(doc.edges), k)
                    cases.append((self_bound(doc.doc_id, *edges), by_concept))
            rng.shuffle(cases)
            assert corpus.ranking_cache == (None, {})
            expected = [self.component_vector(f, q, corpus, taxonomy) for f, q in cases]
            cold = [similarity_vector(f, q, corpus, taxonomy) for f, q in cases]
            filled = self.cached_rows(corpus)
            warm = [similarity_vector(f, q, corpus, taxonomy) for f, q in cases]
            assert self.cached_rows(corpus) == filled
            for (fragment, _), want, got_cold, got_warm in zip(cases, expected, cold, warm):
                assert tuple(got_cold) == want, fragment
                assert tuple(got_warm) == want, fragment
                assert got_cold.components() == want[:4]
                multi_edge += len(fragment.edges) >= 2
        assert multi_edge > 100

    @staticmethod
    def single_doc(statements):
        return corpus_from_raw(
            {
                "X": {
                    "length": 80,
                    "mentions": {c: [10 * i] for i, c in enumerate("ABCDEF")},
                    "statements": statements,
                    "tokens": [],
                },
                # Gives the concepts of X a positive idf.
                "Y": {"length": 20, "mentions": {"F": [0]}, "statements": [], "tokens": []},
            }
        )

    def test_unknown_predicate_off_the_fragment_still_ranks(self, taxonomy):
        corpus = self.single_doc(
            [("A", "treats", "B", 0.9), ("B", "associated", "C", 0.5), ("D", "mystery", "E", 0.7)]
        )
        query = self_query("ABCDEF")
        fragment = self_bound("X", ("A", "treats", "B"))
        vector = similarity_vector(fragment, query, corpus, taxonomy)
        assert tuple(vector) == self.component_vector(fragment, query, corpus, taxonomy)
        scored = graph_rank(query, {"X": [fragment]}, corpus, taxonomy, Weights())
        assert [s.doc_id for s in scored] == ["X"]

    def test_unknown_neighbor_predicate_raises_and_caches_nothing(self, taxonomy):
        corpus = self.single_doc([("A", "treats", "B", 0.9), ("B", "mystery", "C", 0.5)])
        fragment = self_bound("X", ("A", "treats", "B"))
        for _ in range(2):
            with pytest.raises(MissingSpecificityError, match="'mystery'"):
                similarity_vector(fragment, self_query("ABCDEF"), corpus, taxonomy)
        assert self.cached_rows(corpus) == 0

    def test_fragment_tfidf_error_comes_before_neighbor_error(self, taxonomy):
        # fragment_min_tfidf meets the second edge's predicate before
        # relational_similarity meets the first edge's neighbour.
        corpus = self.single_doc(
            [("A", "treats", "B", 0.9), ("B", "mystery1", "C", 0.5), ("D", "mystery2", "E", 0.4)]
        )
        fragment = self_bound("X", ("A", "treats", "B"), ("D", "mystery2", "E"))
        with pytest.raises(MissingSpecificityError, match="'mystery2'"):
            similarity_vector(fragment, self_query("ABCDEF"), corpus, taxonomy)

    def test_new_taxonomy_replaces_the_cache(self, taxonomy):
        corpus = self.single_doc(
            [("A", "treats", "B", 0.9), ("B", "interacts", "C", 0.5), ("D", "treats", "E", 0.4)]
        )
        query = self_query("ABCDEF")
        first = self_bound("X", ("A", "treats", "B"))
        other = self_bound("X", ("D", "treats", "E"))
        similarity_vector(first, query, corpus, taxonomy)
        similarity_vector(other, query, corpus, taxonomy)
        assert corpus.ranking_cache[0] is taxonomy
        assert set(corpus.ranking_cache[1]["X"]) == {("A", "treats", "B"), ("D", "treats", "E")}

        generic = PredicateTaxonomy.from_levels({"treats": 2, "interacts": 3})
        vector = similarity_vector(first, query, corpus, generic)
        owner, tables = corpus.ranking_cache
        assert owner is generic
        assert {doc_id: list(table) for doc_id, table in tables.items()} == {
            "X": [("A", "treats", "B")]
        }
        assert tuple(vector) == self.component_vector(first, query, corpus, generic)
        assert vector != similarity_vector(first, query, corpus, taxonomy)
        assert corpus.ranking_cache[0] is taxonomy
        assert self.cached_rows(corpus) == 1


def test_warm_edge_query_reads_no_concept_coverage(taxonomy, monkeypatch):
    # Coverage lives in the edge rows, so once they are filled ranking an
    # edge query never asks a document for a concept's coverage.
    calls = []
    real = ranker.concept_coverage
    monkeypatch.setattr(ranker, "concept_coverage", lambda c, doc: calls.append(c) or real(c, doc))
    rng = random.Random(97)
    ranked = 0
    for _ in range(20):
        raw = random_raw_corpus(rng, max_docs=10, max_concepts=6, max_edges=12)
        corpus = corpus_from_raw(raw)
        concepts = sorted({c for d in raw.values() for c in d["mentions"]})
        query = random_query(rng, concepts, n_alternatives=2)
        result = retrieve(query, build_statement_index(corpus), corpus)
        classes = (("full", result.full), ("partial", result.partial))
        cold = [graph_rank(query, f, corpus, taxonomy, Weights(), c) for c, f in classes]
        cold_calls = len(calls)
        warm = [graph_rank(query, f, corpus, taxonomy, Weights(), c) for c, f in classes]
        assert len(calls) == cold_calls
        assert warm == cold
        ranked += sum(len(scored) for scored in warm)
    assert calls and ranked > 30
