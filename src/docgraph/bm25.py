"""BM25 text baseline: native retrieval and reranking of graph matches.

Uses the Robertson/Sparck-Jones idf with +1 inside the log, so scores are
never negative. Corpus tokens arrive pre-normalized; query text goes through
the shared tokenizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus import Corpus
from .errors import InputError
from .vocabulary import tokenize


@dataclass(frozen=True)
class BM25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        if not (math.isfinite(self.k1) and self.k1 > 0):
            raise InputError(f"k1 must be finite and positive, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise InputError(f"b must lie in [0, 1], got {self.b}")


class TextIndex:
    """Inverted token index with document lengths and frequencies."""

    __slots__ = ("doc_count", "postings", "doc_lengths", "avg_length")

    def __init__(
        self,
        doc_count: int,
        postings: dict[str, dict[str, int]],
        doc_lengths: dict[str, int],
        avg_length: float,
    ):
        self.doc_count = doc_count
        self.postings = postings
        self.doc_lengths = doc_lengths
        self.avg_length = avg_length

    def term_df(self, token: str) -> int:
        entry = self.postings.get(token)
        return len(entry) if entry else 0


def build_text_index(corpus: Corpus) -> TextIndex:
    postings: dict[str, dict[str, int]] = {}
    doc_lengths: dict[str, int] = {}
    for doc in corpus.documents():
        doc_lengths[doc.doc_id] = len(doc.tokens)
        for token in doc.tokens:
            entry = postings.setdefault(token, {})
            entry[doc.doc_id] = entry.get(doc.doc_id, 0) + 1
    n = len(doc_lengths)
    avg = sum(doc_lengths.values()) / n if n else 0.0
    return TextIndex(n, postings, doc_lengths, avg)


def _idf(token: str, index: TextIndex) -> float:
    df = index.term_df(token)
    return math.log((index.doc_count - df + 0.5) / (df + 0.5) + 1.0)


def _length_norm(length: int, index: TextIndex, params: BM25Params) -> float:
    """BM25's document-length normalisation ``1 - b + b * length / avg``."""
    norm = 1.0 - params.b
    if index.avg_length > 0:
        norm += params.b * length / index.avg_length
    return norm


def bm25_score(
    query_tokens: Sequence[str],
    doc_id: str,
    index: TextIndex,
    params: BM25Params = BM25Params(),
) -> float:
    """Sum of per-token BM25 contributions; absent tokens contribute 0."""
    norm = _length_norm(index.doc_lengths.get(doc_id, 0), index, params)
    score = 0.0
    for token in query_tokens:
        tf = index.postings.get(token, {}).get(doc_id, 0)
        if tf == 0:
            continue
        score += _idf(token, index) * tf * (params.k1 + 1.0) / (tf + params.k1 * norm)
    return score


def bm25_rerank(
    query_text: str,
    candidates: Iterable[str],
    index: TextIndex,
    params: BM25Params = BM25Params(),
) -> list[tuple[str, float]]:
    """Order candidate documents by BM25 score descending, doc id ascending."""
    tokens = tokenize(query_text)
    scored = [(doc_id, bm25_score(tokens, doc_id, index, params)) for doc_id in candidates]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


def bm25_retrieve(
    query_text: str,
    k: int,
    index: TextIndex,
    params: BM25Params = BM25Params(),
    scope: frozenset[str] | set[str] | None = None,
) -> list[tuple[str, float]]:
    """Top-k documents with positive BM25 score, optionally within a scope."""
    if k < 1:
        raise InputError(f"cutoff must be >= 1, got {k}")
    tokens = tokenize(query_text)
    accumulated: dict[str, float] = {}
    for token in dict.fromkeys(tokens):
        entry = index.postings.get(token)
        if not entry:
            continue
        repeat = tokens.count(token)
        idf = _idf(token, index)
        for doc_id, tf in entry.items():
            if scope is not None and doc_id not in scope:
                continue
            norm = _length_norm(index.doc_lengths[doc_id], index, params)
            contribution = idf * tf * (params.k1 + 1.0) / (tf + params.k1 * norm)
            accumulated[doc_id] = accumulated.get(doc_id, 0.0) + contribution * repeat
    ranked = [(doc_id, score) for doc_id, score in accumulated.items() if score > 0.0]
    ranked.sort(key=lambda item: (-item[1], item[0]))
    return ranked[:k]
