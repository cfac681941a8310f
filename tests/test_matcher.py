"""Statement index, fragment enumeration, and Full/Partial retrieval."""

import gc
import random

import pytest

from docgraph import matcher
from docgraph.matcher import build_statement_index, matches, retrieve
from docgraph.corpus import Corpus, Document
from docgraph.query import (
    ConceptSet,
    DisjunctiveQuery,
    ExpandedConcept,
    FactPattern,
    NarrativeQuery,
    PredicateSlot,
    compile_keyword_topic,
)
from docgraph.vocabulary import ConceptEntry, Vocabulary

from oracles import oracle_matches, oracle_retrieve
from randgen import corpus_from_raw, random_query, random_raw_corpus


def concept_set(node_id, *concepts, score=1.0):
    return ConceptSet(node_id, node_id, [ExpandedConcept(c, score) for c in concepts])


def simple_query(patterns, components):
    return DisjunctiveQuery(components, (NarrativeQuery(patterns),), text="q")


@pytest.fixture(scope="module")
def fix1_index(fix1_corpus):
    return build_statement_index(fix1_corpus)


class TestStatementIndex:
    def test_pair_postings(self, fix1_index):
        entries = set(fix1_index.pair[("DM", "M")])
        assert entries == {
            ("D-A", ("M", "treats", "DM")),
            ("D-B", ("M", "associated", "DM")),
        }

    def test_concept_docs(self, fix1_corpus):
        assert fix1_corpus.concept_docs["H"] == {"D-A"}
        assert fix1_corpus.concept_docs["M"] == {"D-A", "D-B"}

    def test_empty_corpus(self):
        corpus = Corpus([])
        index = build_statement_index(corpus)
        assert index.pair == {} and corpus.concept_docs == {}

    def test_consistent_with_graphs(self, fix1_corpus, fix1_index):
        indexed = [
            (doc_id, edge)
            for key, entries in fix1_index.pair.items()
            for doc_id, edge in entries
            if key == tuple(sorted((edge[0], edge[2])))
        ]
        in_graphs = [
            (doc_id, edge)
            for doc_id in fix1_corpus.doc_ids
            for edge in fix1_corpus.document(doc_id).edges
        ]
        assert sorted(indexed) == sorted(in_graphs)
        assert all(list(entries) == sorted(entries) for entries in fix1_index.pair.values())

    def test_long_lived_tables_are_untracked(self, fix1_corpus, fix1_ontology):
        # A full collection stops tracking a tuple that holds only strings, but
        # never a frozenset, which every later full collection walks again.
        index = build_statement_index(fix1_corpus)
        gc.collect()
        assert index.pair and not any(gc.is_tracked(key) for key in index.pair)
        links = [*fix1_ontology._parents.values(), *fix1_ontology._children.values()]
        assert links and not any(gc.is_tracked(link) for link in links)
        assert "sorted_edges" not in Document.__slots__


class TestMatches:
    def test_concrete_predicate_single_fragment(self, fix1_corpus):
        m = concept_set("m", "M")
        dm = concept_set("dm", "DM")
        query = NarrativeQuery([FactPattern(m, PredicateSlot.of("treats"), dm)])
        fragments = matches(query, fix1_corpus.document("D-A"))
        assert [f.edges for f in fragments] == [(("M", "treats", "DM"),)]
        assert dict(fragments[0].node_bindings) == {"m": "M", "dm": "DM"}
        assert not fragments.truncated

    def test_two_pattern_chain_via_shared_node(self, fix1_corpus):
        m = concept_set("m", "M")
        x = concept_set("x", "H")
        dm = concept_set("dm", "DM")
        query = NarrativeQuery(
            [
                FactPattern(m, PredicateSlot.wildcard(), x),
                FactPattern(x, PredicateSlot.wildcard(), dm),
            ]
        )
        fragments = matches(query, fix1_corpus.document("D-A"))
        assert [f.edges for f in fragments] == [
            (("M", "associated", "H"), ("H", "associated", "DM"))
        ]

    def test_wrong_predicate_no_match(self, fix1_corpus):
        m = concept_set("m", "M")
        dm = concept_set("dm", "DM")
        query = NarrativeQuery([FactPattern(m, PredicateSlot.of("treats"), dm)])
        assert list(matches(query, fix1_corpus.document("D-B"))) == []

    def test_wildcard_matches_reverse_direction(self, fix1_corpus):
        dm = concept_set("dm", "DM")
        m = concept_set("m", "M")
        query = NarrativeQuery([FactPattern(dm, PredicateSlot.wildcard(), m)])
        fragments = matches(query, fix1_corpus.document("D-B"))
        assert [f.edges for f in fragments] == [(("M", "associated", "DM"),)]
        assert dict(fragments[0].node_bindings) == {"dm": "DM", "m": "M"}

    def test_concrete_predicate_is_directional(self, fix1_corpus):
        dm = concept_set("dm", "DM")
        m = concept_set("m", "M")
        query = NarrativeQuery([FactPattern(dm, PredicateSlot.of("associated"), m)])
        assert list(matches(query, fix1_corpus.document("D-B"))) == []

    def test_fragment_cap_truncates(self):
        xs = [f"x{i}" for i in range(6)]
        ys = [f"y{i}" for i in range(6)]
        raw = {
            "DOC": {
                "length": 100,
                "mentions": {c: [i] for i, c in enumerate(xs + ys)},
                "statements": [(x, "treats", y, 0.5) for x in xs for y in ys],
                "tokens": [],
            }
        }
        corpus = corpus_from_raw(raw)
        p1 = FactPattern(
            concept_set("a1", *xs), PredicateSlot.of("treats"), concept_set("b1", *ys)
        )
        p2 = FactPattern(
            concept_set("a2", *xs), PredicateSlot.of("treats"), concept_set("b2", *ys)
        )
        query = NarrativeQuery([p1, p2])
        fragments = matches(query, corpus.document("DOC"))
        assert fragments.truncated
        assert len(fragments) == 1024


class TestRetrieve:
    def test_concrete_full_only(self, fix1_corpus, fix1_index):
        m = concept_set("m", "M")
        dm = concept_set("dm", "DM")
        query = simple_query([FactPattern(m, PredicateSlot.of("treats"), dm)], (m, dm))
        result = retrieve(query, fix1_index, fix1_corpus)
        assert set(result.full) == {"D-A"}
        assert set(result.partial) == set()

    def test_two_pattern_partial(self, fix1_corpus, fix1_index):
        m = concept_set("m", "M")
        dm = concept_set("dm", "DM")
        h = concept_set("h", "H")
        query = simple_query(
            [
                FactPattern(m, PredicateSlot.wildcard(), dm),
                FactPattern(m, PredicateSlot.wildcard(), h),
            ],
            (m, dm, h),
        )
        result = retrieve(query, fix1_index, fix1_corpus)
        assert set(result.full) == {"D-A"}
        assert set(result.partial) == {"D-B"}
        assert all(len(f.edges) == 1 for f in result.partial["D-B"])

    def test_scope_restricts_candidates(self, fix1_corpus, fix1_index):
        m = concept_set("m", "M")
        dm = concept_set("dm", "DM")
        h = concept_set("h", "H")
        query = simple_query(
            [
                FactPattern(m, PredicateSlot.wildcard(), dm),
                FactPattern(m, PredicateSlot.wildcard(), h),
            ],
            (m, dm, h),
        )
        result = retrieve(query, fix1_index, fix1_corpus, scope=frozenset({"D-B"}))
        assert set(result.full) == set()
        assert set(result.partial) == {"D-B"}

    def test_containment_query(self, fix1_corpus, fix1_index):
        h = concept_set("h", "H")
        query = DisjunctiveQuery((h,), (), text="hypertension")
        result = retrieve(query, fix1_index, fix1_corpus)
        assert set(result.full) == {"D-A"}
        assert result.partial == {}
        assert result.full["D-A"][0].edges == ()
        assert dict(result.full["D-A"][0].node_bindings) == {"h": "H"}

    def test_containment_equals_brute_force(self):
        # One fragment per mentioned query concept, in sorted concept order,
        # for every in-scope document that mentions one; no other documents.
        rng = random.Random(61)
        for trial in range(40):
            raw = random_raw_corpus(rng, max_docs=15, max_concepts=8, max_edges=4)
            corpus = corpus_from_raw(raw)
            for concept, doc_ids in corpus.concept_docs.items():
                assert len(doc_ids) == corpus.stats.concept_df[concept]
            assert corpus.concept_docs.keys() == corpus.stats.concept_df.keys()
            concepts = sorted({c for d in raw.values() for c in d["mentions"]})
            chosen = rng.sample(concepts + ["absent"], rng.randint(1, min(4, len(concepts))))
            node = concept_set("x", *chosen)
            scope = (
                frozenset(rng.sample(corpus.doc_ids, rng.randint(0, len(corpus.doc_ids))))
                if trial % 2
                else None
            )
            index = build_statement_index(corpus)
            result = retrieve(DisjunctiveQuery((node,), (), text="x"), index, corpus, scope)
            expected = {}
            for doc in corpus.documents():
                mentioned = sorted(c for c in chosen if c in doc.concept_counts)
                if mentioned and (scope is None or doc.doc_id in scope):
                    expected[doc.doc_id] = [(doc.doc_id, (), (("x", c),)) for c in mentioned]
            got = {
                doc_id: [(f.doc_id, f.edges, f.node_bindings) for f in fragments]
                for doc_id, fragments in result.full.items()
            }
            assert got == expected
            assert list(result.full) == sorted(expected)
            assert result.partial == {}

    def test_pooling_cap_marks_truncation(self, monkeypatch):
        # F fully matches with two fragments; P matches only the first pattern,
        # with two one-edge fragments. A pool cap of 1 keeps one of each.
        raw = {
            "F": {
                "length": 100,
                "mentions": {"a": [0], "b": [10], "c": [20], "d": [30]},
                "statements": [("a", "treats", x, 0.5) for x in "bcd"],
                "tokens": [],
            },
            "P": {
                "length": 100,
                "mentions": {"a": [0], "b": [10], "c": [20]},
                "statements": [("a", "treats", x, 0.5) for x in "bc"],
                "tokens": [],
            },
        }
        corpus = corpus_from_raw(raw)
        index = build_statement_index(corpus)
        a, bc, d = concept_set("a", "a"), concept_set("bc", "b", "c"), concept_set("d", "d")
        query = simple_query(
            [
                FactPattern(a, PredicateSlot.wildcard(), bc),
                FactPattern(a, PredicateSlot.wildcard(), d),
            ],
            (a, bc, d),
        )
        result = retrieve(query, index, corpus)
        assert (len(result.full["F"]), len(result.partial["P"])) == (2, 2)
        assert result.truncated_docs == frozenset()
        monkeypatch.setattr(matcher, "FRAGMENT_CAP", 1)
        capped = retrieve(query, index, corpus)
        assert capped.full["F"] == result.full["F"][:1]
        assert capped.partial["P"] == result.partial["P"][:1]
        assert capped.truncated_docs == {"F", "P"}

    def test_pooling_keeps_best_translated_binding(self, fix1_corpus, fix1_index):
        # Both alternatives bind D-B's one edge; the later one translates better.
        x = ConceptSet("x", "x", [ExpandedConcept("M", 1.0), ExpandedConcept("DM", 0.5)])
        y = ConceptSet("y", "y", [ExpandedConcept("DM", 1.0), ExpandedConcept("M", 0.5)])
        query = DisjunctiveQuery(
            (x, y),
            (
                NarrativeQuery([FactPattern(y, PredicateSlot.wildcard(), x)]),
                NarrativeQuery([FactPattern(x, PredicateSlot.wildcard(), y)]),
            ),
            text="q",
        )
        result = retrieve(query, fix1_index, fix1_corpus, scope=frozenset({"D-B"}))
        (fragment,) = result.full["D-B"]
        assert dict(fragment.node_bindings) == {"x": "M", "y": "DM"}

    def test_one_lookup_per_distinct_pattern(self, monkeypatch):
        # 4 components compile to 16 spanning-tree alternatives of 3 patterns
        # each, over 6 distinct patterns.
        raw = {
            "FULL": {
                "length": 100,
                "mentions": {c: [i] for i, c in enumerate("ABCD")},
                "statements": [("A", "treats", "B", 0.5), ("B", "treats", "C", 0.5),
                               ("C", "treats", "D", 0.5)],
                "tokens": [],
            },
            "PART": {
                "length": 100,
                "mentions": {"A": [0], "D": [10]},
                "statements": [("D", "treats", "A", 0.5)],
                "tokens": [],
            },
        }
        corpus = corpus_from_raw(raw)
        vocabulary = Vocabulary(
            ConceptEntry(c, "drug", "", (f"term{c.lower()}",)) for c in "ABCD"
        )
        query = compile_keyword_topic([(f"term{c}", None) for c in "abcd"], vocabulary)
        assert len(query.alternatives) == 16
        calls = []
        lookup = matcher._pattern_fragments

        def counting(pattern, index):
            calls.append(pattern.key())
            return lookup(pattern, index)

        monkeypatch.setattr(matcher, "_pattern_fragments", counting)
        result = retrieve(query, build_statement_index(corpus), corpus)
        assert len(calls) == len(set(calls)) == 6
        assert set(result.full) == {"FULL"}
        assert set(result.partial) == {"PART"}

    def test_concrete_overlap_partial_order(self, monkeypatch):
        # x and y share a and b, so the edges between them are looked up under
        # their one pair key {a, b}, in edge order, before the pair {a, c}.
        raw = {
            "R": {
                "length": 100,
                "mentions": {"a": [0], "b": [10], "c": [20]},
                "statements": [("a", "treats", "c", 0.5), ("b", "treats", "a", 0.5),
                               ("a", "treats", "b", 0.5)],
                "tokens": [],
            }
        }
        corpus = corpus_from_raw(raw)
        index = build_statement_index(corpus)
        x, y = concept_set("x", "a", "b"), concept_set("y", "a", "b", "c")
        z = concept_set("z", "d")
        query = simple_query(
            [
                FactPattern(x, PredicateSlot.of("treats"), y),
                FactPattern(y, PredicateSlot.wildcard(), z),
            ],
            (x, y, z),
        )
        result = retrieve(query, index, corpus)
        assert result.full == {}
        assert [(f.edges, dict(f.node_bindings)) for f in result.partial["R"]] == [
            ((("a", "treats", "b"),), {"x": "a", "y": "b"}),
            ((("b", "treats", "a"),), {"x": "b", "y": "a"}),
            ((("a", "treats", "c"),), {"x": "a", "y": "c"}),
        ]
        assert result.truncated_docs == frozenset()
        monkeypatch.setattr(matcher, "FRAGMENT_CAP", 2)
        capped = retrieve(query, index, corpus)
        assert capped.partial["R"] == result.partial["R"][:2]
        assert capped.truncated_docs == {"R"}

    def test_full_and_partial_disjoint_random(self):
        rng = random.Random(41)
        for _ in range(40):
            raw = random_raw_corpus(rng, max_docs=15, max_concepts=8, max_edges=10)
            corpus = corpus_from_raw(raw)
            concepts = sorted({c for d in raw.values() for c in d["mentions"]})
            query = random_query(rng, concepts, n_alternatives=rng.randint(1, 3))
            index = build_statement_index(corpus)
            result = retrieve(query, index, corpus)
            assert not (set(result.full) & set(result.partial))
            for doc_id, fragments in result.full.items():
                pattern_counts = {len(alt.patterns) for alt in query.alternatives}
                assert any(len(f.edges) in pattern_counts for f in fragments)
            for fragments in result.partial.values():
                assert all(len(f.edges) == 1 for f in fragments)

    def test_monotone_under_concept_set_growth(self):
        rng = random.Random(43)
        for _ in range(30):
            raw = random_raw_corpus(rng, max_docs=12, max_concepts=8, max_edges=10)
            corpus = corpus_from_raw(raw)
            index = build_statement_index(corpus)
            concepts = sorted({c for d in raw.values() for c in d["mentions"]})
            query = random_query(rng, concepts)
            base = retrieve(query, index, corpus)
            # grow one component with every corpus concept
            target = query.components[rng.randrange(len(query.components))]
            extra = [
                ExpandedConcept(c, 0.5)
                for c in concepts
                if c not in target
            ]
            grown = ConceptSet(target.node_id, target.label, list(target.entries()) + extra)
            grown_query = query.with_component_sets({target.node_id: grown})
            bigger = retrieve(grown_query, index, corpus)
            assert set(base.full) <= set(bigger.full)
            assert set(base.full) | set(base.partial) <= set(bigger.full) | set(
                bigger.partial
            )

    def test_retrieve_deterministic(self):
        rng = random.Random(47)
        raw = random_raw_corpus(rng, max_docs=20, max_concepts=8, max_edges=12)
        corpus = corpus_from_raw(raw)
        index = build_statement_index(corpus)
        concepts = sorted({c for d in raw.values() for c in d["mentions"]})
        query = random_query(rng, concepts, n_alternatives=2)
        first = retrieve(query, index, corpus)
        second = retrieve(query, index, corpus)
        assert first.full == second.full
        assert first.partial == second.partial


class TestOracleEquivalence:
    def test_retrieve_equals_per_document_brute_force(self):
        # checks the posting-list candidate generation against a scan of
        # every document, including the pooled fragment edge sets
        rng = random.Random(59)
        for trial in range(40):
            raw = random_raw_corpus(rng, max_docs=15, max_concepts=8, max_edges=10)
            corpus = corpus_from_raw(raw)
            index = build_statement_index(corpus)
            concepts = sorted({c for d in raw.values() for c in d["mentions"]})
            query = random_query(rng, concepts, n_alternatives=rng.randint(1, 3))
            scope = (
                frozenset(rng.sample(corpus.doc_ids, rng.randint(0, len(corpus.doc_ids))))
                if trial % 3 == 0
                else None
            )
            result = retrieve(query, index, corpus, scope)
            doc_edges = {
                doc_id: corpus.document(doc_id).edges for doc_id in corpus.doc_ids
            }
            expected_full, expected_partial = oracle_retrieve(query, doc_edges, scope)
            assert set(result.full) == set(expected_full)
            assert set(result.partial) == set(expected_partial)
            for doc_id, fragments in result.full.items():
                assert {f.edge_key() for f in fragments} == expected_full[doc_id]
            for doc_id, fragments in result.partial.items():
                assert {f.edge_key() for f in fragments} == expected_partial[doc_id]

    def test_fragments_bind_exactly_their_edge_endpoints(self):
        # GraphRank takes a fragment's coverage from its edges alone, which is
        # right only while its bound concepts are its edges' endpoints.
        rng = random.Random(61)
        checked = {True: 0, False: 0}
        overlapping = multi_edge = 0
        for trial in range(60):
            raw = random_raw_corpus(rng, max_docs=12, max_concepts=6, max_edges=12)
            corpus = corpus_from_raw(raw)
            concepts = sorted({c for d in raw.values() for c in d["mentions"]})
            query = random_query(rng, concepts, n_alternatives=rng.randint(2, 3))
            sets = [set(cs.concept_ids()) for cs in query.components]
            overlapping += any(a & b for i, a in enumerate(sets) for b in sets[i + 1:])
            scoped = trial % 2 == 0
            scope = (
                frozenset(rng.sample(corpus.doc_ids, rng.randint(1, len(corpus.doc_ids))))
                if scoped
                else None
            )
            result = retrieve(query, build_statement_index(corpus), corpus, scope)
            for fragments in (*result.full.values(), *result.partial.values()):
                for fragment in fragments:
                    endpoints = {c for s, _, o in fragment.edges for c in (s, o)}
                    assert {c for _, c in fragment.node_bindings} == endpoints, fragment
                    checked[scoped] += 1
                    multi_edge += len(fragment.edges) >= 2
        assert min(checked.values()) > 100
        assert overlapping > 20 and multi_edge > 100

    def test_matches_equals_exhaustive_enumeration(self):
        rng = random.Random(53)
        checked = 0
        for _ in range(40):
            raw = random_raw_corpus(rng, max_docs=10, max_concepts=8, max_edges=10)
            corpus = corpus_from_raw(raw)
            concepts = sorted({c for d in raw.values() for c in d["mentions"]})
            query = random_query(rng, concepts)
            alternative = query.alternatives[0]
            for doc_id in corpus.doc_ids:
                graph = corpus.document(doc_id)
                got = matches(alternative, graph)
                assert not got.truncated
                expected = oracle_matches(alternative, graph.edges)
                assert sorted(f.edges for f in got) == sorted(expected)
                checked += 1
        assert checked > 50
