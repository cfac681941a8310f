"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Criterion 10 needs externally supplied benchmark exports and skips
unless DOCGRAPH_PM2020_DIR is set.
"""

import json
import math
import os
import random
import time
from itertools import combinations
from pathlib import Path

import pytest

from docgraph.bm25 import bm25_retrieve, build_text_index
from docgraph.cli import main
from docgraph.evaluation import (
    Qrels,
    Run,
    condense,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
)
from docgraph.matcher import Fragment, build_statement_index, matches, retrieve
from docgraph.ontology import Ontology, expand_query_upwards
from docgraph.query import (
    ConceptSet,
    ExpandedConcept,
    compile_keyword_topic,
    spanning_trees,
    with_subclass_alternatives,
)
from docgraph.ranker import (
    ScoredDocument,
    SimilarityVector,
    Weights,
    assemble_final_ranking,
    graph_rank,
    normalize_and_combine,
    similarity_vector,
)
from docgraph.vocabulary import ConceptEntry, Vocabulary, jaccard_similarity, tokenize

from oracles import oracle_bm25_scores, oracle_matches, reference_class_scores
from randgen import (
    corpus_from_raw,
    random_ontology_edges,
    random_query,
    random_raw_corpus,
    write_benchmark,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _report(number: int, name: str) -> None:
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def node_scores_of(query):
    return {
        cs.node_id: {e.concept_id: e.score for e in cs.entries()}
        for cs in query.components
    }


RAW_TAXONOMY = {"treats": 1.0, "inhibits": 1.0, "interacts": 0.5, "associated": 0.25}


def test_criterion_1_matcher_oracle_equivalence():
    rng = random.Random(20250809)
    started = time.monotonic()
    corpora = 0
    docs_checked = 0
    while corpora < 200:
        raw = random_raw_corpus(rng, max_docs=50, max_concepts=10, max_edges=15)
        corpus = corpus_from_raw(raw)
        concepts = sorted({c for d in raw.values() for c in d["mentions"]})
        query = random_query(rng, concepts, max_patterns=3, max_set_size=3)
        alternative = query.alternatives[0]
        for doc_id in corpus.doc_ids:
            graph = corpus.document(doc_id)
            got = matches(alternative, graph)
            assert not got.truncated
            expected = oracle_matches(alternative, graph.edges)
            assert sorted(f.edges for f in got) == sorted(expected)
            docs_checked += 1
        corpora += 1
    elapsed = time.monotonic() - started
    assert corpora >= 200 and docs_checked > 1000
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s"
    _report(1, f"matcher oracle equivalence, {corpora} corpora in {elapsed:.1f}s")


def test_criterion_2_ranking_formula_oracle(fix1_corpus, fix1_config):
    # FIX-1 first
    fix1_raw = {
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
    fix1_index = build_statement_index(fix1_corpus)
    rng = random.Random(31337)
    m = ConceptSet("m", "m", [ExpandedConcept("M", 1.0)])
    dm = ConceptSet("dm", "dm", [ExpandedConcept("DM", 0.5)])
    h = ConceptSet("h", "h", [ExpandedConcept("H", 0.75)])
    from docgraph.query import DisjunctiveQuery, FactPattern, NarrativeQuery, PredicateSlot

    fix1_query = DisjunctiveQuery(
        (m, dm, h),
        (
            NarrativeQuery(
                [
                    FactPattern(m, PredicateSlot.wildcard(), dm),
                    FactPattern(m, PredicateSlot.wildcard(), h),
                ]
            ),
        ),
        text="q",
    )
    compared = 0

    def check(raw, corpus, index, query):
        nonlocal compared
        result = retrieve(query, index, corpus)
        scores = node_scores_of(query)
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
                raw, fragments, scores, RAW_TAXONOMY, (0.25,) * 4
            )
            assert [doc for doc, _ in ranking] == [s.doc_id for s in scored]
            for (_, expected), got in zip(ranking, scored):
                assert abs(expected - got.score) <= 1e-9
            compared += 1

    check(fix1_raw, fix1_corpus, fix1_index, fix1_query)
    corpora = 0
    while corpora < 100:
        raw = random_raw_corpus(rng, max_docs=15, max_concepts=9, max_edges=12)
        corpus = corpus_from_raw(raw)
        index = build_statement_index(corpus)
        concepts = sorted({c for d in raw.values() for c in d["mentions"]})
        query = random_query(rng, concepts, n_alternatives=rng.randint(1, 3))
        check(raw, corpus, index, query)
        corpora += 1
    assert compared > 100
    _report(2, f"ranking formula oracle agreement on FIX-1 + {corpora} random corpora")


def test_criterion_3_graphrank_invariants(fix1_config):
    rng = random.Random(424242)
    # fscore in [0, 1]
    for _ in range(300):
        vectors = [
            SimilarityVector(
                rng.uniform(0, 1),
                rng.uniform(0, 25),
                rng.uniform(0, 1),
                rng.uniform(0, 40),
                translation=rng.uniform(0.01, 1.0),
            )
            for _ in range(rng.randint(1, 10))
        ]
        raw_weights = [rng.random() for _ in range(4)]
        total = sum(raw_weights)
        weights = Weights(*[w / total for w in raw_weights])
        for fscore in normalize_and_combine(vectors, weights):
            assert 0.0 <= fscore <= 1.0

    # min-semantics monotonicity under edge removal
    checked = 0
    while checked < 100:
        raw = random_raw_corpus(rng, max_docs=6, max_concepts=8, max_edges=12)
        corpus = corpus_from_raw(raw)
        from docgraph.ranker import (
            fragment_confidence,
            fragment_coverage,
            fragment_min_tfidf,
        )

        for doc_id in corpus.doc_ids:
            graph = corpus.document(doc_id)
            if len(graph.edges) < 2:
                continue
            k = rng.randint(2, min(4, len(graph.edges)))
            edges = tuple(rng.sample(tuple(graph.edges), k))

            def frag(es):
                endpoints = sorted({c for e in es for c in (e[0], e[2])})
                return Fragment(doc_id, tuple(es), tuple((c, c) for c in endpoints))

            fragment = frag(edges)
            smaller = frag(edges[: rng.randrange(1, k)] or edges[:1])
            doc = corpus.document(doc_id)
            assert fragment_confidence(smaller, graph) >= fragment_confidence(fragment, graph)
            assert fragment_min_tfidf(
                smaller, doc, corpus.stats, fix1_config.taxonomy
            ) >= fragment_min_tfidf(fragment, doc, corpus.stats, fix1_config.taxonomy)
            assert fragment_coverage(smaller, doc) >= fragment_coverage(fragment, doc)
            checked += 1

    # positive rescaling of one component never reorders
    for _ in range(200):
        vectors = [
            SimilarityVector(
                rng.uniform(0, 1),
                rng.uniform(0, 9),
                rng.uniform(0, 1),
                rng.uniform(0, 9),
                translation=rng.uniform(0.01, 1.0),
            )
            for _ in range(rng.randint(2, 8))
        ]
        component = rng.randrange(4)
        factor = rng.uniform(1e-3, 1e3)

        def scaled(v):
            values = list(v.components())
            values[component] *= factor
            return SimilarityVector(*values, translation=v.translation)

        argsort = lambda xs: sorted(range(len(xs)), key=lambda i: (-xs[i], i))
        base = normalize_and_combine(vectors, Weights())
        rescaled = normalize_and_combine([scaled(v) for v in vectors], Weights())
        assert argsort(base) == argsort(rescaled)

    # unit-weight component isolation
    unit_vectors = [
        Weights(1.0, 0.0, 0.0, 0.0),
        Weights(0.0, 1.0, 0.0, 0.0),
        Weights(0.0, 0.0, 1.0, 0.0),
        Weights(0.0, 0.0, 0.0, 1.0),
    ]
    isolated = 0
    while isolated < 25:
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
        vectors = [
            similarity_vector(fragment, query, corpus, fix1_config.taxonomy)
            for _, fragment in rows
        ]
        for component, weights in enumerate(unit_vectors):
            scored = graph_rank(query, result.full, corpus, fix1_config.taxonomy, weights)
            maximum = max(v.components()[component] for v in vectors)
            expected = {}
            for (doc_id, _), vector in zip(rows, vectors):
                value = vector.components()[component]
                fscore = vector.translation * (value / maximum if maximum > 0 else 0.0)
                if doc_id not in expected or fscore > expected[doc_id]:
                    expected[doc_id] = fscore
            order = sorted(expected.items(), key=lambda kv: (-kv[1], kv[0]))
            assert [s.doc_id for s in scored] == [doc for doc, _ in order]
            for scored_doc, (_, fscore) in zip(scored, order):
                assert abs(scored_doc.score - fscore) <= 1e-12
        isolated += 1
    _report(3, "GraphRank invariants (bounds, min-semantics, rescaling, isolation)")


def test_criterion_4_relaxation_invariants(fix1_config):
    rng = random.Random(777)

    # full-before-partial in every assembled ranking
    for _ in range(200):
        full = [
            ScoredDocument(f"F{i}", rng.uniform(0, 1), "full", Fragment(f"F{i}", (), (("n", "C"),)))
            for i in range(rng.randint(0, 12))
        ]
        partial = [
            ScoredDocument(f"P{i}", rng.uniform(0, 1), "partial", Fragment(f"P{i}", (), (("n", "C"),)))
            for i in range(rng.randint(0, 12))
        ]
        full.sort(key=lambda s: -s.score)
        partial.sort(key=lambda s: -s.score)
        ranked = assemble_final_ranking(full, partial, cutoff=rng.choice((5, 1000)))
        scores = [r.run_score for r in ranked]
        assert scores == sorted(scores, reverse=True)
        full_ranks = [r.rank for r in ranked if r.match_class == "full"]
        partial_ranks = [r.rank for r in ranked if r.match_class == "partial"]
        if full_ranks and partial_ranks:
            assert max(full_ranks) < min(partial_ranks)

    # expansion supersets on 100 random corpora
    corpora = 0
    while corpora < 100:
        raw = random_raw_corpus(rng, max_docs=12, max_concepts=9, max_edges=10)
        corpus = corpus_from_raw(raw)
        index = build_statement_index(corpus)
        concepts = sorted({c for d in raw.values() for c in d["mentions"]})
        ontology = Ontology(random_ontology_edges(rng, concepts))
        query = random_query(rng, concepts, n_alternatives=rng.randint(1, 2))
        base = retrieve(query, index, corpus)

        upward = expand_query_upwards(query, ontology)
        up_result = retrieve(upward, index, corpus)
        assert set(base.full) <= set(up_result.full)
        assert set(base.full) | set(base.partial) <= set(up_result.full) | set(
            up_result.partial
        )

        downward = query.with_component_sets(
            {
                cs.node_id: with_subclass_alternatives(cs, ontology)
                for cs in query.components
            }
        )
        down_result = retrieve(downward, index, corpus)
        assert set(base.full) <= set(down_result.full)
        assert set(base.full) | set(base.partial) <= set(down_result.full) | set(
            down_result.partial
        )

        # expanded scores: exact max over derivations, never lowering originals
        for before, after in zip(query.components, upward.components):
            original = {e.concept_id: e.score for e in before.entries()}
            expected = dict(original)
            for concept, score in original.items():
                for ancestor, hops in ontology.ancestor_distances(concept).items():
                    derived = (1.0 / (hops + 1)) * score
                    if derived > expected.get(ancestor, 0.0):
                        expected[ancestor] = derived
            got = {e.concept_id: e.score for e in after.entries()}
            assert got == expected
        corpora += 1

    # Eq.-level fixture: direct parent scores exactly half the source
    ontology = Ontology([("Child", "Parent")])
    concept_set = ConceptSet("o", "o", [ExpandedConcept("Child", 1.0)])
    from docgraph.ontology import expand_concept_set_upwards

    expanded = expand_concept_set_upwards(concept_set, ontology)
    assert expanded.score("Parent") == 0.5
    assert expanded.score("Parent") == ontology.ontological_sim("Child", "Parent") * 1.0
    _report(4, f"relaxation invariants over {corpora} corpora + ordering checks")


def test_criterion_5_translation_examples_and_invariance():
    assert jaccard_similarity("mellitus diabetes", "diabetes mellitus") == 1.0
    assert jaccard_similarity("diabetes mellitus", "mellitus diabetes") == 1.0
    assert jaccard_similarity("diabetes", "diabetes mellitus") == 0.5

    vocabulary = Vocabulary(
        [
            ConceptEntry("DM", "disease", "", ("diabetes mellitus",)),
            ConceptEntry("DMT2", "disease", "", ("diabetes mellitus type 2",)),
            ConceptEntry("GD", "disease", "", ("gestational diabetes",)),
            ConceptEntry("OVC", "disease", "", ("ovarian cancer epithelial subtype",)),
            ConceptEntry("BRAF", "gene", "", ("braf v600e kinase",)),
        ]
    )
    rng = random.Random(9001)
    terms = [
        "diabetes mellitus",
        "mellitus type 2 diabetes",
        "ovarian cancer",
        "cancer epithelial subtype ovarian",
        "braf kinase",
        "v600e braf",
    ]
    permutations_checked = 0
    while permutations_checked < 1000:
        term = rng.choice(terms)
        tokens = tokenize(term)
        rng.shuffle(tokens)
        shuffled = " ".join(tokens)
        base = [(t.concept_id, t.translation_score) for t in vocabulary.find_concepts(term)]
        permuted = [
            (t.concept_id, t.translation_score) for t in vocabulary.find_concepts(shuffled)
        ]
        assert base == permuted
        permutations_checked += 1
    _report(5, f"translation examples + {permutations_checked} permutation checks")


def test_criterion_6_topic_compilation():
    vocabulary = Vocabulary(
        [
            ConceptEntry("MEL", "disease", "", ("melanoma",)),
            ConceptEntry("BRAF", "gene", "", ("braf",)),
            ConceptEntry("BIN", "drug", "", ("binimetinib",)),
            ConceptEntry("KRAS", "gene", "", ("kras",)),
        ]
    )
    three = compile_keyword_topic(
        [("melanoma", None), ("braf", None), ("binimetinib", None)], vocabulary
    )
    shapes = {
        tuple((p.subject.node_id, p.object.node_id) for p in alt.patterns)
        for alt in three.alternatives
    }
    assert shapes == {
        (("c1", "c2"), ("c2", "c3")),
        (("c1", "c2"), ("c1", "c3")),
        (("c1", "c3"), ("c2", "c3")),
    }

    def brute_force_trees(k):
        edges = list(combinations(range(k), 2))
        count = 0
        for selection in combinations(edges, k - 1):
            parent = list(range(k))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            ok = True
            for a, b in selection:
                ra, rb = find(a), find(b)
                if ra == rb:
                    ok = False
                    break
                parent[ra] = rb
            if ok and len({find(x) for x in range(k)}) == 1:
                count += 1
        return count

    two = compile_keyword_topic([("melanoma", None), ("braf", None)], vocabulary)
    four = compile_keyword_topic(
        [("melanoma", None), ("braf", None), ("binimetinib", None), ("kras", None)],
        vocabulary,
    )
    for query, k in ((two, 2), (three, 3), (four, 4)):
        assert len(query.alternatives) == k ** (k - 2) == brute_force_trees(k)
        assert len(spanning_trees(k)) == brute_force_trees(k)
    _report(6, "topic compilation alternatives (k=2,3,4)")


def test_criterion_7_metric_hand_cases():
    tol = 1e-9

    # 1. boundary case: 5 correct matches found and nothing more
    qrels = Qrels({"T": {f"D{i}": 1 for i in range(5)}})
    assert abs(precision_at_k([f"D{i}" for i in range(5)], qrels, "T", 20) - 0.25) <= tol

    # 2. P@10 with exactly half the prefix relevant
    qrels2 = Qrels({"T": {**{f"R{i}": 2 for i in range(5)}, **{f"N{i}": 0 for i in range(5)}}})
    mixed = [x for pair in zip((f"R{i}" for i in range(5)), (f"N{i}" for i in range(5))) for x in pair]
    assert abs(precision_at_k(mixed, qrels2, "T", 10) - 0.5) <= tol

    # 3. recall 8 of 10
    qrels3 = Qrels({"T": {f"D{i}": 1 for i in range(10)}})
    assert abs(recall_at_k([f"D{i}" for i in range(8)], qrels3, "T") - 0.8) <= tol

    # 4. recall of nothing retrieved
    assert abs(recall_at_k([], qrels3, "T")) <= tol

    # 5. the nDCG hand trace [2, 0, 1] at k=3
    qrels5 = Qrels({"T": {"A": 2, "B": 0, "C": 1}})
    idcg = 2 / math.log2(2) + 1 / math.log2(3)
    assert abs(ndcg_at_k(["A", "B", "C"], qrels5, "T", 3) - 2.5 / idcg) <= tol

    # 6. ideal ordering scores 1
    qrels6 = Qrels({"T": {"A": 2, "B": 1, "C": 1, "D": 0}})
    assert abs(ndcg_at_k(["A", "B", "C", "D"], qrels6, "T", 10) - 1.0) <= tol

    # 7. only irrelevant retrieved scores 0
    qrels7 = Qrels({"T": {"A": 0, "B": 0, "Z": 2}})
    assert abs(ndcg_at_k(["A", "B"], qrels7, "T", 10)) <= tol

    # 8. condensing removes exactly the unjudged documents
    qrels8 = Qrels({"T": {"A": 1, "C": 0, "E": 2}})
    kept, removed = condense(["A", "B", "C", "D", "E"], qrels8, "T")
    assert kept == ["A", "C", "E"] and removed == 2

    # 9. empty ranking: precision and recall are 0
    assert abs(precision_at_k([], qrels8, "T", 10)) <= tol
    assert abs(recall_at_k([], qrels8, "T")) <= tol

    # 10. graded DCG at a cutoff shorter than the list
    qrels10 = Qrels({"T": {"A": 2, "B": 2, "C": 1, "D": 1}})
    value = ndcg_at_k(["C", "A", "B", "D"], qrels10, "T", 2)
    dcg = 1 / math.log2(2) + 2 / math.log2(3)
    ideal = 2 / math.log2(2) + 2 / math.log2(3)
    assert abs(value - dcg / ideal) <= tol
    _report(7, "10 hand-computed metric cases at 1e-9")


def test_criterion_8_bm25_oracle():
    # frozen 3-doc hand table (straight-line evaluation, computed up front)
    from docgraph.corpus import Corpus, Document
    from docgraph.bm25 import bm25_score

    hand_docs = {
        "B-1": ["metformin", "treats", "diabetes", "mellitus", "metformin"],
        "B-2": ["metformin", "and", "hypertension", "study"],
        "B-3": ["aspirin", "prevents", "stroke", "in", "adults", "study"],
    }
    corpus = Corpus(
        [Document(doc_id, 10, tokens, [], []) for doc_id, tokens in hand_docs.items()]
    )
    index = build_text_index(corpus)
    hand_table = {
        ("metformin",): {"B-1": 0.6462549902128865, "B-2": 0.5118851407626824, "B-3": 0.0},
        ("metformin", "study"): {
            "B-1": 0.6462549902128865,
            "B-2": 1.0237702815253649,
            "B-3": 0.4344571362775708,
        },
    }
    for query, expected in hand_table.items():
        for doc_id, value in expected.items():
            assert abs(bm25_score(list(query), doc_id, index) - value) <= 1e-9

    # top-k equals exhaustive scoring on 100-doc corpora
    rng = random.Random(515151)
    for _ in range(12):
        raw = random_raw_corpus(rng, max_concepts=10, n_docs=100)
        corpus = corpus_from_raw(raw)
        index = build_text_index(corpus)
        tokens = [
            rng.choice(["study", "trial", "c0", "c1", "c2", "c5", "baseline", "cohort"])
            for _ in range(rng.randint(1, 4))
        ]
        k = rng.choice((5, 10, 50))
        hits = bm25_retrieve(" ".join(tokens), k, index)
        oracle = oracle_bm25_scores(
            {doc.doc_id: list(doc.tokens) for doc in corpus.documents()}, tokens
        )
        expected = [
            (doc, score)
            for doc, score in sorted(oracle.items(), key=lambda kv: (-kv[1], kv[0]))
            if score > 0.0
        ][:k]
        assert [doc for doc, _ in hits] == [doc for doc, _ in expected]
        for (_, got), (_, want) in zip(hits, expected):
            assert abs(got - want) <= 1e-9
    _report(8, "BM25 hand table + exhaustive top-k on 100-doc corpora")


def test_criterion_9_end_to_end_determinism_and_scale(tmp_path):
    rng = random.Random(20262026)
    paths = write_benchmark(tmp_path / "bench", rng, n_docs=300, n_concepts=40, n_topics=5)
    index_dir = tmp_path / "ix"
    assert main(
        [
            "index",
            "--corpus", str(paths["corpus"]),
            "--vocab", str(paths["vocabulary"]),
            "--out", str(index_dir),
        ]
    ) == 0

    def run_eval(out):
        return main(
            [
                "evaluate",
                "--index", str(index_dir),
                "--vocab", str(paths["vocabulary"]),
                "--ontology", str(paths["ontology"]),
                "--config", str(paths["config"]),
                "--topics", str(paths["topics"]),
                "--qrels", str(paths["qrels"]),
                "--expand-ontology",
                "--ranker", "graphrank",
                "--ranker", "bm25-rerank",
                "--ranker", "bm25-native",
                "--out", str(out),
            ]
        )

    first, second = tmp_path / "e1", tmp_path / "e2"
    assert run_eval(first) == 0
    assert run_eval(second) == 0
    files = sorted(p.name for p in first.iterdir())
    assert files == sorted(p.name for p in second.iterdir())
    for name in files:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name

    # emitted partial runs keep full matches strictly ahead of partial ones
    partial_run = Run.read(first / "run-partial-ontology-graphrank.txt")
    for topic_id in partial_run.topics():
        scores = [score for _, score in partial_run.entries(topic_id)]
        assert scores == sorted(scores, reverse=True)
        seen_partial = False
        for score in scores:
            if score < 1.0:
                seen_partial = True
            else:
                assert not seen_partial, "full match ranked after a partial match"

    # 10k-document pipeline under the five-minute budget
    big = random.Random(888)
    big_paths = write_benchmark(tmp_path / "big", big, n_docs=10_000, n_concepts=150, n_topics=5)
    started = time.monotonic()
    big_index = tmp_path / "big-ix"
    assert main(
        [
            "index",
            "--corpus", str(big_paths["corpus"]),
            "--vocab", str(big_paths["vocabulary"]),
            "--out", str(big_index),
        ]
    ) == 0
    assert main(
        [
            "evaluate",
            "--index", str(big_index),
            "--vocab", str(big_paths["vocabulary"]),
            "--ontology", str(big_paths["ontology"]),
            "--config", str(big_paths["config"]),
            "--topics", str(big_paths["topics"]),
            "--qrels", str(big_paths["qrels"]),
            "--expand-ontology",
            "--ranker", "graphrank",
            "--ranker", "bm25-native",
            "--out", str(tmp_path / "big-eval"),
        ]
    ) == 0
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"10k-doc pipeline took {elapsed:.1f}s"
    _report(9, f"byte-identical reruns; 10k-doc pipeline in {elapsed:.1f}s")


@pytest.mark.skipif(
    "DOCGRAPH_PM2020_DIR" not in os.environ,
    reason="full-scale benchmark data not supplied (set DOCGRAPH_PM2020_DIR)",
)
def test_criterion_10_full_scale_orderings(tmp_path):
    """Given user-supplied PM2020 exports, check the expected recall orderings."""
    base = Path(os.environ["DOCGRAPH_PM2020_DIR"])
    index_dir = tmp_path / "ix"
    assert main(
        [
            "index",
            "--corpus", str(base / "corpus.jsonl"),
            "--vocab", str(base / "vocabulary.tsv"),
            "--out", str(index_dir),
        ]
    ) == 0

    def evaluate_modes(out, expand):
        args = [
            "evaluate",
            "--index", str(index_dir),
            "--vocab", str(base / "vocabulary.tsv"),
            "--ontology", str(base / "ontology.tsv"),
            "--topics", str(base / "topics.tsv"),
            "--qrels", str(base / "qrels.txt"),
            "--ranker", "graphrank",
            "--out", str(out),
        ]
        if (base / "ranking.cfg").exists():
            args += ["--config", str(base / "ranking.cfg")]
        if (base / "scope.txt").exists():
            args += ["--scope", str(base / "scope.txt")]
        if expand:
            args.append("--expand-ontology")
        assert main(args) == 0
        return json.loads((out / "metrics.json").read_text())["modes"]

    plain = evaluate_modes(tmp_path / "plain", expand=False)
    onto = evaluate_modes(tmp_path / "onto", expand=True)
    recall = lambda modes, tag: modes[tag]["means"]["recall@1000"]
    assert recall(plain, "partial-graphrank") >= recall(plain, "full-graphrank")
    assert recall(onto, "partial-ontology-graphrank") >= recall(plain, "partial-graphrank")
    assert recall(onto, "full-ontology-graphrank") >= recall(plain, "full-graphrank")
    _report(10, "full-scale mode orderings on supplied data")
