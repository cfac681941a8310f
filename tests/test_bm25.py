"""BM25 baseline: index statistics, scoring, rerank, native retrieval."""

import random

import pytest

from docgraph.bm25 import (
    BM25Params,
    bm25_rerank,
    bm25_retrieve,
    bm25_score,
    build_text_index,
)
from docgraph.corpus import Corpus, Document
from docgraph.errors import InputError

from oracles import oracle_bm25_scores
from randgen import corpus_from_raw, random_raw_corpus


def token_corpus(doc_tokens):
    return Corpus(
        [
            Document(doc_id, 10, tokens, [], [])
            for doc_id, tokens in doc_tokens.items()
        ]
    )


# Hand table frozen from a straight-line evaluation of the BM25 formula
# (k1=1.2, b=0.75, N=3, avgdl=5) computed before the engine was built.
HAND_DOCS = {
    "B-1": ["metformin", "treats", "diabetes", "mellitus", "metformin"],
    "B-2": ["metformin", "and", "hypertension", "study"],
    "B-3": ["aspirin", "prevents", "stroke", "in", "adults", "study"],
}
HAND_TABLE = {
    ("metformin",): {
        "B-1": 0.6462549902128865,
        "B-2": 0.5118851407626824,
        "B-3": 0.0,
    },
    ("metformin", "study"): {
        "B-1": 0.6462549902128865,
        "B-2": 1.0237702815253649,
        "B-3": 0.4344571362775708,
    },
}


class TestTextIndex:
    def test_fix1_statistics(self, fix1_corpus):
        index = build_text_index(fix1_corpus)
        assert index.doc_count == 2
        assert index.doc_lengths == {"D-A": 16, "D-B": 8}
        assert index.avg_length == 12.0
        assert index.term_df("metformin") == 2

    def test_empty_corpus(self):
        index = build_text_index(Corpus([]))
        assert index.doc_count == 0
        assert index.avg_length == 0.0

    def test_duplicate_tokens_accumulate(self):
        index = build_text_index(token_corpus({"X": ["a", "a", "b", "a"]}))
        assert index.postings["a"]["X"] == 3


class TestScore:
    def test_hand_table(self):
        index = build_text_index(token_corpus(HAND_DOCS))
        for query, expected in HAND_TABLE.items():
            for doc_id, value in expected.items():
                assert abs(bm25_score(list(query), doc_id, index) - value) <= 1e-9

    def test_absent_token_contributes_zero(self):
        index = build_text_index(token_corpus(HAND_DOCS))
        base = bm25_score(["metformin"], "B-1", index)
        with_noise = bm25_score(["metformin", "zzz"], "B-1", index)
        assert base == with_noise

    def test_identical_docs_identical_scores(self):
        index = build_text_index(
            token_corpus({"X": ["alpha", "beta"], "Y": ["alpha", "beta"]})
        )
        assert bm25_score(["alpha"], "X", index) == bm25_score(["alpha"], "Y", index)

    def test_additive_and_monotone_in_tf(self):
        index = build_text_index(
            token_corpus(
                {
                    "X": ["t", "t", "u", "v"],
                    "Y": ["t", "u", "w", "v"],
                    "Z": ["q", "r", "s", "v"],
                }
            )
        )
        both = bm25_score(["t", "u"], "X", index)
        assert both == pytest.approx(
            bm25_score(["t"], "X", index) + bm25_score(["u"], "X", index)
        )
        assert bm25_score(["t"], "X", index) > bm25_score(["t"], "Y", index)

    def test_params_validated(self):
        with pytest.raises(InputError):
            BM25Params(k1=0)
        with pytest.raises(InputError):
            BM25Params(b=1.5)


class TestRerank:
    def test_single_candidate(self):
        index = build_text_index(token_corpus(HAND_DOCS))
        assert bm25_rerank("metformin", ["B-2"], index) == [
            ("B-2", pytest.approx(0.5118851407626824))
        ]

    def test_tie_breaks_by_doc_id(self):
        index = build_text_index(
            token_corpus({"B": ["alpha"], "A": ["alpha"], "C": ["beta"]})
        )
        ranked = bm25_rerank("alpha", ["B", "A", "C"], index)
        assert [doc for doc, _ in ranked] == ["A", "B", "C"]

    def test_order_matches_oracle(self, fix1_corpus):
        index = build_text_index(fix1_corpus)
        ranked = bm25_rerank("metformin diabetes mellitus", ["D-A", "D-B"], index)
        oracle = oracle_bm25_scores(
            {"D-A": list(fix1_corpus.document("D-A").tokens), "D-B": list(fix1_corpus.document("D-B").tokens)},
            ["metformin", "diabetes", "mellitus"],
        )
        expected = sorted(oracle.items(), key=lambda kv: (-kv[1], kv[0]))
        assert [doc for doc, _ in ranked] == [doc for doc, _ in expected]
        for (_, got), (_, want) in zip(ranked, expected):
            assert abs(got - want) <= 1e-9


class TestRetrieve:
    @pytest.mark.parametrize("k", [0, -1])
    def test_cutoff_below_one_rejected(self, k):
        index = build_text_index(token_corpus(HAND_DOCS))
        with pytest.raises(InputError, match=f"cutoff must be >= 1, got {k}"):
            bm25_retrieve("metformin", k, index)

    def test_k_larger_than_matches(self):
        index = build_text_index(token_corpus(HAND_DOCS))
        hits = bm25_retrieve("metformin", 10, index)
        assert [doc for doc, _ in hits] == ["B-1", "B-2"]

    def test_unknown_tokens_empty(self):
        index = build_text_index(token_corpus(HAND_DOCS))
        assert bm25_retrieve("zzz qqq", 5, index) == []

    def test_scope(self):
        index = build_text_index(token_corpus(HAND_DOCS))
        hits = bm25_retrieve("metformin", 10, index, scope=frozenset({"B-2"}))
        assert [doc for doc, _ in hits] == ["B-2"]

    def test_prefix_property(self):
        rng = random.Random(89)
        raw = random_raw_corpus(rng, max_docs=40)
        corpus = corpus_from_raw(raw)
        index = build_text_index(corpus)
        query = "study patients c1 c3"
        for k in range(1, 8):
            shorter = bm25_retrieve(query, k, index)
            longer = bm25_retrieve(query, k + 1, index)
            assert longer[:k] == shorter

    def test_topk_equals_exhaustive(self):
        rng = random.Random(97)
        for _ in range(15):
            raw = random_raw_corpus(rng, max_docs=60)
            corpus = corpus_from_raw(raw)
            index = build_text_index(corpus)
            tokens = [rng.choice(["study", "trial", "c0", "c1", "c2", "baseline"]) for _ in range(rng.randint(1, 4))]
            hits = bm25_retrieve(" ".join(tokens), 10, index)
            oracle = oracle_bm25_scores(
                {doc.doc_id: list(doc.tokens) for doc in corpus.documents()}, tokens
            )
            expected = [
                (doc, score)
                for doc, score in sorted(oracle.items(), key=lambda kv: (-kv[1], kv[0]))
                if score > 0.0
            ][:10]
            assert [doc for doc, _ in hits] == [doc for doc, _ in expected]
            for (_, got), (_, want) in zip(hits, expected):
                assert abs(got - want) <= 1e-9
