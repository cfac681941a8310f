"""GraphRank: unsupervised fragment scoring and ranked-list assembly.

Every fragment gets four raw similarities (confidence, min tf-idf, coverage,
relational similarity), each taken over its weakest edge or concept where the
definition is min-shaped. Raw values are normalized by their maximum over the
candidate set being ranked, weighted, and scaled by the fragment's translation
score; a document scores as its best fragment. Full matches always precede
partial matches in the assembled list.

Everything but the translation score depends only on the document. So each
(document, edge) pair's confidence, tf-idf, coverage and neighbour edge
scores are computed once, the first time a fragment reads them, into an edge
row kept in ``Corpus.ranking_cache`` for one taxonomy at a time. This is the
one lazily filled part of a corpus; concurrent fills of a row write identical
values. A matched fragment binds exactly its edges' endpoints, so its
coverage is the minimum of its edges' coverages.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .corpus import (
    Corpus,
    CorpusStats,
    Document,
    Edge,
    concept_coverage,
    concept_idf,
    concept_tf,
)
from .errors import InconsistencyError, InputError, MissingSpecificityError
from .matcher import Fragment, fragment_translation
from .query import DisjunctiveQuery

DEFAULT_CUTOFF = 1000

#: Specificity by taxonomy level: 1 = most specific, 3 = most generic.
LEVEL_SPECIFICITY = {1: 1.0, 2: 0.5, 3: 0.25}

# Fallback interaction taxonomy used when no configuration file names one.
DEFAULT_TAXONOMY_LEVELS = {
    "treats": 1,
    "inhibits": 1,
    "induces": 1,
    "stimulates": 1,
    "prevents": 1,
    "metabolises": 1,
    "interacts": 2,
    "influences": 2,
    "associated": 3,
}


class PredicateTaxonomy:
    """Maps every known interaction label to a specificity weight."""

    __slots__ = ("_specificity",)

    def __init__(self, specificity: Mapping[str, float]):
        allowed = set(LEVEL_SPECIFICITY.values())
        for label, value in specificity.items():
            if value not in allowed:
                raise InputError(
                    f"predicate {label!r} has specificity {value!r}, "
                    f"expected one of {sorted(allowed)}"
                )
        if specificity.get("associated", 0.25) != 0.25:
            raise InputError('predicate "associated" must have specificity 0.25')
        self._specificity = dict(specificity)

    @classmethod
    def from_levels(cls, levels: Mapping[str, int]) -> "PredicateTaxonomy":
        try:
            return cls({label: LEVEL_SPECIFICITY[level] for label, level in levels.items()})
        except KeyError as exc:
            raise InputError(f"unknown taxonomy level {exc.args[0]!r} (use 1|2|3)") from None

    @classmethod
    def default(cls) -> "PredicateTaxonomy":
        return cls.from_levels(DEFAULT_TAXONOMY_LEVELS)

    def specificity(self, predicate: str) -> float:
        try:
            return self._specificity[predicate]
        except KeyError:
            raise MissingSpecificityError(
                f"predicate {predicate!r} has no specificity in the taxonomy"
            ) from None


@dataclass(frozen=True)
class Weights:
    """Component weights (confidence, min_tfidf, coverage, relational).

    Each weight lies in [0, 1] and they sum to 1 within 1e-9.
    """

    confidence: float = 0.25
    min_tfidf: float = 0.25
    coverage: float = 0.25
    relational: float = 0.25

    def __post_init__(self):
        values = self.as_tuple()
        if any(not 0.0 <= w <= 1.0 for w in values):
            raise InputError(f"weights {values} must lie in [0, 1]")
        if abs(sum(values) - 1.0) > 1e-9:
            raise InputError(f"weights {values} must sum to 1")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.confidence, self.min_tfidf, self.coverage, self.relational)


class SimilarityVector(NamedTuple):
    """Raw (pre-normalization) similarities plus the translation score."""

    confidence: float
    min_tfidf: float
    coverage: float
    relational: float
    translation: float

    def components(self) -> tuple[float, float, float, float]:
        return self[:4]


@dataclass(frozen=True)
class ScoredDocument:
    doc_id: str
    score: float
    match_class: str  # "full" | "partial"
    best_fragment: Fragment


@dataclass(frozen=True)
class RankedDocument:
    """One row of an assembled final ranking."""

    rank: int
    doc_id: str
    run_score: float
    model_score: float
    match_class: str
    best_fragment: Fragment | None


def fragment_confidence(fragment: Fragment, doc: Document) -> float:
    """A fragment is only as confident as its weakest edge."""
    return min(doc.edges[edge] for edge in fragment.edges)


def edge_tfidf(
    edge: Edge, doc: Document, stats: CorpusStats, taxonomy: PredicateTaxonomy
) -> float:
    subject, predicate, obj = edge
    concept_part = concept_tf(subject, doc) * concept_idf(subject, stats) + concept_tf(
        obj, doc
    ) * concept_idf(obj, stats)
    return concept_part * taxonomy.specificity(predicate)


def fragment_min_tfidf(
    fragment: Fragment, doc: Document, stats: CorpusStats, taxonomy: PredicateTaxonomy
) -> float:
    """The weakest edge tf-idf in the fragment."""
    return min(edge_tfidf(edge, doc, stats, taxonomy) for edge in fragment.edges)


def fragment_coverage(fragment: Fragment, doc: Document) -> float:
    """The weakest covered concept among the fragment's bound nodes."""
    return min(concept_coverage(concept, doc) for _, concept in fragment.node_bindings)


def neighbor_edges(edge: Edge, doc: Document) -> tuple[Edge, ...]:
    """Edges incident to the edge's subject or object, in either direction,
    excluding every edge whose endpoint set is exactly {subject, object}."""
    subject, _, obj = edge
    endpoint_set = {subject, obj}
    return tuple(
        other
        for other in doc.edges
        if {other[0], other[2]} != endpoint_set
        and (other[0] in endpoint_set or other[2] in endpoint_set)
    )


def edge_coverage(edge: Edge, doc: Document) -> float:
    return min(concept_coverage(edge[0], doc), concept_coverage(edge[2], doc))


def edge_score(
    edge: Edge, doc: Document, stats: CorpusStats, taxonomy: PredicateTaxonomy
) -> float:
    """Mean of an edge's raw tf-idf, coverage, and confidence."""
    return (
        edge_tfidf(edge, doc, stats, taxonomy)
        + edge_coverage(edge, doc)
        + doc.edges[edge]
    ) / 3.0


def relational_similarity(
    fragment: Fragment, doc: Document, stats: CorpusStats, taxonomy: PredicateTaxonomy
) -> float:
    """Sum of neighbor edge scores over all edges of the fragment."""
    total = 0.0
    for edge in fragment.edges:
        for neighbor in neighbor_edges(edge, doc):
            total += edge_score(neighbor, doc, stats, taxonomy)
    return total


# One document edge's query-independent inputs: its confidence, its tf-idf,
# its edge_coverage (the lesser coverage of its two endpoints), and its
# neighbours' edge scores in neighbor_edges order. The scores are an array of
# the same doubles, so the cache holds no float object per score.
EdgeRow = tuple[float, float, float, array]


def _edge_rows(
    fragment: Fragment, doc: Document, corpus: Corpus, taxonomy: PredicateTaxonomy
) -> list[EdgeRow]:
    """The fragment's edge rows, each built once per (corpus, taxonomy).

    A different taxonomy object replaces the whole cache. Missing rows get
    every tf-idf before any neighbour score, the order in which the component
    functions meet them, so an unknown predicate raises the same error.
    """
    owner, tables = corpus.ranking_cache
    if owner is not taxonomy:
        tables = {}
        corpus.ranking_cache = (taxonomy, tables)
    table = tables.get(doc.doc_id)
    if table is None:
        table = tables[doc.doc_id] = {}
    try:
        return [table[edge] for edge in fragment.edges]
    except KeyError:
        pass
    stats = corpus.stats
    missing = [edge for edge in fragment.edges if edge not in table]
    tfidfs = [edge_tfidf(edge, doc, stats, taxonomy) for edge in missing]
    for edge, tfidf in zip(missing, tfidfs):
        scores = [edge_score(n, doc, stats, taxonomy) for n in neighbor_edges(edge, doc)]
        table[edge] = (doc.edges[edge], tfidf, edge_coverage(edge, doc), array("d", scores))
    return [table[edge] for edge in fragment.edges]


def similarity_vector(
    fragment: Fragment,
    query: DisjunctiveQuery,
    corpus: Corpus,
    taxonomy: PredicateTaxonomy,
) -> SimilarityVector:
    """The fragment's raw similarities, read from its four-field edge rows.

    Each equals its component function (``fragment_confidence``,
    ``fragment_min_tfidf``, ``fragment_coverage``, ``relational_similarity``)
    bit for bit. Coverage is the least row coverage, which equals
    ``fragment_coverage`` because the fragment binds exactly its edges'
    endpoints; the relational total adds one neighbour score at a time.
    """
    doc = corpus.document(fragment.doc_id)
    rows = _edge_rows(fragment, doc, corpus, taxonomy)
    confidence, min_tfidf, coverage, _ = rows[0]
    relational = 0.0
    for row_confidence, row_tfidf, row_coverage, neighbor_scores in rows:
        # One pass for all three minima; like min(), it keeps the first smallest.
        if row_confidence < confidence:
            confidence = row_confidence
        if row_tfidf < min_tfidf:
            min_tfidf = row_tfidf
        if row_coverage < coverage:
            coverage = row_coverage
        for score in neighbor_scores:
            relational += score
    return SimilarityVector(
        confidence, min_tfidf, coverage, relational, fragment_translation(fragment, query)
    )


def normalize_and_combine(
    vectors: Sequence[SimilarityVector], weights: Weights
) -> list[float]:
    """Max-normalize each component over the candidate set, then combine.

    A component whose maximum is 0 contributes 0 for every fragment. The
    result is ``translation * sum(w_i * normalized_i)``, always in [0, 1].
    """
    if not vectors:
        return []
    maxima = [max(vector[i] for vector in vectors) for i in range(4)]
    weight_values = weights.as_tuple()
    scores = []
    for vector in vectors:
        combined = 0.0
        # zip stops after the four components, before the translation score.
        for component, maximum, weight in zip(vector, maxima, weight_values):
            if maximum > 0.0:
                combined += weight * (component / maximum)
        scores.append(vector.translation * combined)
    return scores


def _containment_raw(fragment: Fragment, corpus: Corpus) -> float:
    """tf * idf * coverage of the single bound concept (edgeless queries)."""
    doc = corpus.document(fragment.doc_id)
    (_, concept), = fragment.node_bindings
    return (
        concept_tf(concept, doc)
        * concept_idf(concept, corpus.stats)
        * concept_coverage(concept, doc)
    )


def graph_rank(
    query: DisjunctiveQuery,
    doc_fragments: Mapping[str, Sequence[Fragment]],
    corpus: Corpus,
    taxonomy: PredicateTaxonomy,
    weights: Weights,
    match_class: str = "full",
) -> list[ScoredDocument]:
    """Score one match class (full or partial) and order its documents.

    Normalization spans all fragments of the given class; each document takes
    its best fragment's score. Ties order by ascending doc id.
    """
    rows: list[tuple[str, Fragment]] = [
        (doc_id, fragment)
        for doc_id, fragments in doc_fragments.items()
        for fragment in fragments
    ]
    if not rows:
        return []
    if query.is_containment:
        raws = [_containment_raw(fragment, corpus) for _, fragment in rows]
        maximum = max(raws)
        fscores = [
            fragment_translation(fragment, query)
            * (raw / maximum if maximum > 0.0 else 0.0)
            for (_, fragment), raw in zip(rows, raws)
        ]
    else:
        vectors = [
            similarity_vector(fragment, query, corpus, taxonomy)
            for _, fragment in rows
        ]
        fscores = normalize_and_combine(vectors, weights)

    best: dict[str, tuple[float, Fragment]] = {}
    for (doc_id, fragment), fscore in zip(rows, fscores):
        current = best.get(doc_id)
        if current is None or fscore > current[0]:
            best[doc_id] = (fscore, fragment)
    scored = [
        ScoredDocument(doc_id, score, match_class, fragment)
        for doc_id, (score, fragment) in best.items()
    ]
    scored.sort(key=lambda s: (-s.score, s.doc_id))
    return scored


def _band(score: float) -> float:
    # Monotone map of [0, inf) into [0, 1): keeps within-class order while
    # letting full matches occupy a strictly higher score band.
    return score / (1.0 + score)


def assemble_final_ranking(
    full: Sequence[ScoredDocument],
    partial: Sequence[ScoredDocument],
    cutoff: int = DEFAULT_CUTOFF,
) -> list[RankedDocument]:
    """Concatenate the ranked full list before the ranked partial list.

    Run scores are banded (full in [1, 2), partial in [0, 1)) so emitted runs
    are non-increasing while preserving each class's internal order. Ranks are
    1-based; the list truncates at ``cutoff``.
    """
    if cutoff < 1:
        raise InputError(f"cutoff must be >= 1, got {cutoff}")
    overlap = {s.doc_id for s in full} & {s.doc_id for s in partial}
    if overlap:
        raise InconsistencyError(
            f"documents in both full and partial lists: {sorted(overlap)[:5]}"
        )
    pairs = [(1.0, s) for s in full] + [(0.0, s) for s in partial]
    for _, scored in pairs:
        if scored.score < 0:
            raise InconsistencyError(
                f"negative model score {scored.score} for {scored.doc_id}"
            )
    return [
        RankedDocument(
            rank=i + 1,
            doc_id=scored.doc_id,
            run_score=offset + _band(scored.score),
            model_score=scored.score,
            match_class=scored.match_class,
            best_fragment=scored.best_fragment,
        )
        for i, (offset, scored) in enumerate(pairs[:cutoff])
    ]
