"""Graph-based biomedical document retrieval and ranking engine.

Documents are small directed, edge-labeled concept graphs; queries are
conjunctions of fact patterns. Matching documents are ranked by an
unsupervised graph score with partial-match relaxation and ontological query
rewriting, benchmarked against BM25 through a TREC-style harness.
"""

from .bm25 import BM25Params, TextIndex, bm25_rerank, bm25_retrieve, bm25_score, build_text_index
from .config import RankingConfig, load_config
from .corpus import (
    Corpus,
    CorpusStats,
    Document,
    concept_coverage,
    concept_idf,
    concept_tf,
    ingest_documents,
)
from .evaluation import (
    MetricReport,
    Qrels,
    Run,
    condense,
    evaluate,
    load_qrels,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
)
from .matcher import (
    Fragment,
    MatchResult,
    StatementIndex,
    build_statement_index,
    matches,
    retrieve,
)
from .ontology import Ontology, expand_query_upwards, load_ontology
from .query import (
    ConceptSet,
    DisjunctiveQuery,
    ExpandedConcept,
    FactPattern,
    NarrativeQuery,
    PredicateSlot,
    Topic,
    compile_freetext_topic,
    compile_keyword_topic,
    compile_topic,
    parse_topics_file,
    query_translation_score,
    translate_term_query,
)
from .ranker import (
    PredicateTaxonomy,
    RankedDocument,
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
)
from .storage import LoadedIndex, load_index, save_index
from .vocabulary import (
    ConceptEntry,
    ConceptTranslation,
    Vocabulary,
    greedy_concept_detection,
    jaccard_similarity,
    load_vocabulary,
    tokenize,
)

__version__ = "0.1.0"
