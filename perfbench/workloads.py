"""The three workloads, and the index and set-up steps they share.

Every workload starts the same way: write the seeded inputs, build the index
with ``docgraph index`` and load it (``setup_s``). Its loop then runs one
operation at a time, a single client that waits for each reply:

- cold-evaluate: one ``docgraph evaluate`` command over the topic set with
  the full mode matrix; the command loads the index itself.
- keyword-ontology: one keyword topic, expanded through the ontology,
  matched and ranked by GraphRank.
- triple-bm25: one explicit-triple query, matched and reranked by BM25, plus
  native BM25 retrieval of the same text.

Only the operation itself is timed. Checking and hashing its output happen
outside the timer. In a traced run each operation runs twice, untraced and
traced with spans around every call into docgraph, and both outputs must
agree.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import itertools
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

from docgraph import cli
from docgraph.bm25 import bm25_rerank, bm25_retrieve, build_text_index
from docgraph.config import load_config
from docgraph.corpus import ingest_documents
from docgraph.evaluation import Run, evaluate, load_qrels
from docgraph.matcher import build_statement_index, retrieve
from docgraph.ontology import expand_query_upwards, load_ontology
from docgraph.query import (
    Topic,
    compile_topic,
    parse_topics_file,
    query_translation_score,
    translate_term_query,
)
from docgraph.ranker import (
    DEFAULT_CUTOFF,
    RankedDocument,
    ScoredDocument,
    assemble_final_ranking,
    graph_rank,
)
from docgraph.storage import load_index, save_index
from docgraph.vocabulary import load_vocabulary, tokenize

from inputs import N_ONTOLOGIES, keyword_topics, triple_queries
from spans import untraced


class CheckFailed(Exception):
    """An operation's output broke an invariant or changed between runs."""


def quiet(argv) -> int:
    """Run the docgraph CLI in-process, keeping its report off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(arg) for arg in argv])


LOADED = ("loaded", "vocabulary", "ontologies", "config")


def load_context(call, inputs, index_dir) -> dict:
    """What every query needs: the index, vocabulary, ontologies, config."""
    return {
        "loaded": call("storage.load_index", load_index, index_dir),
        "vocabulary": call("vocabulary.load_vocabulary", load_vocabulary, inputs["vocabulary"]),
        "ontologies": [
            call("ontology.load_ontology", load_ontology, path)
            for path in inputs["ontologies"]
        ],
        "config": call("config.load_config", load_config, inputs["config"]),
    }


def build_index(inputs, index_dir: Path, tracer, request_id: str) -> float:
    """Run ``docgraph index``; returns its wall time in seconds."""
    started = perf_counter()
    if tracer is None:
        if quiet(["index", "--corpus", inputs["corpus"], "--vocab", inputs["vocabulary"],
                  "--out", index_dir]) != 0:
            raise CheckFailed("docgraph index failed")
    else:
        # The calls cmd_index makes, in its order.
        with tracer.request("cli.index", request_id):
            corpus = tracer.call("corpus.ingest_documents", ingest_documents, inputs["corpus"])
            tracer.call("vocabulary.load_vocabulary", load_vocabulary, inputs["vocabulary"])
            tracer.call("storage.save_index", save_index, index_dir, corpus)
    return perf_counter() - started


def set_up(inputs, index_dir: Path, tracer, request_id: str) -> tuple[dict, float]:
    """Load what queries need; returns it with the wall time in seconds."""
    gc.collect()
    started = perf_counter()
    if tracer is None:
        context = load_context(untraced, inputs, index_dir)
    else:
        with tracer.request("setup", request_id):
            context = load_context(tracer.call, inputs, index_dir)
    return context, perf_counter() - started


def rebuild(tracer, corpus) -> None:
    """Trace what rebuilding both indexes at load would cost instead of decoding."""
    with tracer.request("rebuild", "rebuild"):
        tracer.call("matcher.build_statement_index", build_statement_index, corpus)
        tracer.call("bm25.build_text_index", build_text_index, corpus)


def ranking_lines(topic_id, tag, ranking) -> list[str]:
    """A ranking as ``Run.write`` lines: ``topic Q0 doc rank score tag``."""
    return [
        f"{topic_id} Q0 {doc_id} {rank} {score:.6f} {tag}"
        for rank, (doc_id, score) in enumerate(ranking, start=1)
    ]


def check_assembled(ranking: list[RankedDocument], full, partial) -> None:
    """Ranks 1..n, scores non-increasing, every full match banded ahead of
    every partial one, and nothing dropped below the cutoff."""
    if len(ranking) != min(len(full) + len(partial), DEFAULT_CUTOFF):
        raise CheckFailed(f"ranking has {len(ranking)} entries, expected "
                          f"{min(len(full) + len(partial), DEFAULT_CUTOFF)}")
    seen = set()
    previous = 2.0
    in_partial = False
    for rank, entry in enumerate(ranking, start=1):
        if entry.rank != rank or entry.doc_id in seen or entry.run_score > previous:
            raise CheckFailed(f"rank {rank}: bad rank, duplicate or rising score")
        seen.add(entry.doc_id)
        previous = entry.run_score
        if entry.match_class == "full":
            ok = not in_partial and entry.doc_id in full and 1.0 <= entry.run_score < 2.0
        else:
            in_partial = True
            ok = (entry.match_class == "partial" and entry.doc_id in partial
                  and 0.0 <= entry.run_score < 1.0)
        if not ok or entry.model_score < 0.0:
            raise CheckFailed(f"rank {rank}: {entry.doc_id} misplaced or mis-scored")


def check_match(result) -> None:
    if result.full.keys() & result.partial.keys():
        raise CheckFailed("a document matched both fully and partially")


def digest(lines) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def match_counts(query, result) -> Counter:
    return Counter({
        "concepts": sum(len(cs) for cs in query.components),
        "full_docs": len(result.full),
        "partial_docs": len(result.partial),
        "fragments": sum(map(len, result.full.values())) + sum(map(len, result.partial.values())),
        "truncated_docs": len(result.truncated_docs),
        "queries": 1,
    })


def postings_touched(text, text_index) -> int:
    """Postings entries ``bm25_retrieve`` scans for this query text."""
    return sum(text_index.term_df(token) for token in dict.fromkeys(tokenize(text)))


class QueryWorkload:
    """One query per operation, against a context loaded once."""

    root = "query"
    round = 1
    keeps_index = True

    def __init__(self, context, seed):
        self.ctx = context
        self.seed = seed

    def traced(self, call, i, item):
        return self.run(call, i, item)


class KeywordOntology(QueryWorkload):
    """Keyword topics through expansion, matching and GraphRank."""

    pinned_ops = 200

    def stream(self):
        for i, terms in enumerate(keyword_topics(self.seed)):
            yield terms, i % N_ONTOLOGIES

    def run(self, call, i, item):
        terms, j = item
        ctx = self.ctx
        loaded, config = ctx["loaded"], ctx["config"]
        topic = Topic(str(i), "keyword", components=tuple((t, None) for t in terms))
        query = call("query.compile_topic", compile_topic, topic, ctx["vocabulary"])
        query = call("ontology.expand_query_upwards", expand_query_upwards, query,
                     ctx["ontologies"][j])
        result = call("matcher.retrieve", retrieve, query, loaded.statement_index, loaded.corpus)
        full = call("ranker.graph_rank", graph_rank, query, result.full, loaded.corpus,
                    config.taxonomy, config.weights, "full")
        partial = call("ranker.graph_rank", graph_rank, query, result.partial, loaded.corpus,
                       config.taxonomy, config.weights, "partial")
        full_only = call("ranker.assemble_final_ranking", assemble_final_ranking, full, [])
        both = call("ranker.assemble_final_ranking", assemble_final_ranking, full, partial)
        return query, result, full, partial, full_only, both

    def check(self, i, item, out):
        query, result, full, partial, full_only, both = out
        check_match(result)
        if {s.doc_id for s in full} != result.full.keys() or \
                {s.doc_id for s in partial} != result.partial.keys():
            raise CheckFailed("graph_rank scored a different document set")
        check_assembled(full_only, result.full, {})
        check_assembled(both, result.full, result.partial)
        lines = ranking_lines(i, "full-ontology-graphrank",
                              [(e.doc_id, e.run_score) for e in full_only])
        lines += ranking_lines(i, "partial-ontology-graphrank",
                               [(e.doc_id, e.run_score) for e in both])
        return (digest(lines),) * 2

    def counts(self, out) -> Counter:
        query, result = out[0], out[1]
        counts = match_counts(query, result)
        counts["ranked_fragments"] = counts["fragments"]
        return counts


class TripleBM25(QueryWorkload):
    """Explicit-triple queries, BM25 reranking and native BM25 retrieval."""

    pinned_ops = 1000

    def stream(self):
        return triple_queries(self.seed)

    def run(self, call, i, triples):
        ctx = self.ctx
        loaded, params = ctx["loaded"], ctx["config"].bm25
        query = call("query.translate_term_query", translate_term_query, triples,
                     ctx["vocabulary"])
        result = call("matcher.retrieve", retrieve, query, loaded.statement_index, loaded.corpus)
        scored = {}
        for match_class, docs in (("full", result.full), ("partial", result.partial)):
            hits = call("bm25.bm25_rerank", bm25_rerank, query.text, docs.keys(),
                        loaded.text_index, params)
            scored[match_class] = [
                ScoredDocument(doc_id, score, match_class, docs[doc_id][0])
                for doc_id, score in hits
            ]
        full_only = call("ranker.assemble_final_ranking", assemble_final_ranking,
                         scored["full"], [])
        both = call("ranker.assemble_final_ranking", assemble_final_ranking,
                    scored["full"], scored["partial"])
        native = call("bm25.bm25_retrieve", bm25_retrieve, query.text, DEFAULT_CUTOFF,
                      loaded.text_index, params)
        return query, result, scored, full_only, both, native

    def check(self, i, triples, out):
        query, result, scored, full_only, both, native = out
        check_match(result)
        check_assembled(full_only, result.full, {})
        check_assembled(both, result.full, result.partial)
        reranked = {s.doc_id: s.score for s in scored["full"] + scored["partial"]}
        if len(native) > DEFAULT_CUTOFF or len({d for d, _ in native}) != len(native):
            raise CheckFailed("native BM25 list too long or has duplicates")
        for (doc_a, score_a), (doc_b, score_b) in zip(native, native[1:]):
            if not (score_a > score_b or (score_a == score_b and doc_a < doc_b)):
                raise CheckFailed("native BM25 list out of order")
        for doc_id, score in native:
            # Both BM25 paths score the same text against the same document.
            other = reranked.get(doc_id)
            if score <= 0.0 or (other is not None and abs(other - score) > 1e-9 * score):
                raise CheckFailed(f"BM25 score of {doc_id} disagrees between paths")
        lines = ranking_lines(i, "full-bm25-rerank", [(e.doc_id, e.run_score) for e in full_only])
        lines += ranking_lines(i, "partial-bm25-rerank", [(e.doc_id, e.run_score) for e in both])
        lines += ranking_lines(i, "bm25-native", native)
        return (digest(lines),) * 2

    def counts(self, out) -> Counter:
        query, result = out[0], out[1]
        counts = match_counts(query, result)
        counts["postings_touched"] = postings_touched(query.text, self.ctx["loaded"].text_index)
        return counts


# cmd_evaluate's mode matrix for --match full/partial and the rankers below,
# in its order, with the run tags it writes.
MODES = (
    ("full", "graphrank", "full-ontology-graphrank"),
    ("full", "bm25-rerank", "full-ontology-bm25-rerank"),
    ("partial", "graphrank", "partial-ontology-graphrank"),
    ("partial", "bm25-rerank", "partial-ontology-bm25-rerank"),
    ("-", "bm25-native", "bm25-native"),
)


class ColdEvaluate:
    """``docgraph evaluate`` over a TREC-sized topic set, from a cold load."""

    root = "cli.evaluate"
    # Each command loads the index itself.
    keeps_index = False
    # Each command uses one ontology; runs cover them in whole rounds.
    round = 2
    pinned_ops = 2

    def __init__(self, context, seed):
        self.index_dir = context["index_dir"]
        self.work = context["work"]
        self.inputs = context["inputs"]
        self.first: dict[int, str] = {}

    def stream(self):
        return itertools.cycle(range(self.round))

    def run(self, call, i, j):
        inputs = self.inputs
        out_dir = self.work / "evaluate"
        argv = ["evaluate", "--index", self.index_dir, "--vocab", inputs["vocabulary"],
                "--ontology", inputs["ontologies"][j], "--config", inputs["config"],
                "--topics", inputs["topics"], "--qrels", inputs["qrels"], "--expand-ontology",
                "--ranker", "graphrank", "--ranker", "bm25-rerank", "--ranker", "bm25-native",
                "--out", out_dir]
        if quiet(argv) != 0:
            raise CheckFailed("docgraph evaluate failed")
        return out_dir, None

    def traced(self, call, i, j):
        """The public calls cmd_evaluate makes, in its order."""
        inputs = self.inputs
        out_dir = self.work / "evaluate-traced"
        out_dir.mkdir(exist_ok=True)
        loaded = call("storage.load_index", load_index, self.index_dir)
        vocabulary = call("vocabulary.load_vocabulary", load_vocabulary, inputs["vocabulary"])
        ontology = call("ontology.load_ontology", load_ontology, inputs["ontologies"][j])
        config = call("config.load_config", load_config, inputs["config"])
        topics = call("query.parse_topics_file", parse_topics_file, inputs["topics"])
        qrels = call("evaluation.load_qrels", load_qrels, inputs["qrels"])
        corpus, taxonomy, weights = loaded.corpus, config.taxonomy, config.weights
        rankings = {tag: [] for _, _, tag in MODES}
        counts = Counter()
        for topic in topics:
            query = call("query.compile_topic", compile_topic, topic, vocabulary)
            call("query.query_translation_score", query_translation_score, query)
            query = call("ontology.expand_query_upwards", expand_query_upwards, query, ontology)
            result = call("matcher.retrieve", retrieve, query, loaded.statement_index, corpus, None)
            counts += match_counts(query, result)

            def rerank(docs, match_class):
                hits = call("bm25.bm25_rerank", bm25_rerank, query.text, docs.keys(),
                            loaded.text_index, config.bm25)
                return [ScoredDocument(d, s, match_class, docs[d][0]) for d, s in hits]

            for match_mode, ranker, tag in MODES:
                include_partial = match_mode == "partial"
                if ranker == "bm25-native":
                    hits = call("bm25.bm25_retrieve", bm25_retrieve, query.text, DEFAULT_CUTOFF,
                                loaded.text_index, config.bm25, None)
                    counts["postings_touched"] += postings_touched(query.text, loaded.text_index)
                    rankings[tag].append((topic.topic_id, hits))
                    continue
                if ranker == "graphrank":
                    full = call("ranker.graph_rank", graph_rank, query, result.full, corpus,
                                taxonomy, weights, "full")
                    partial = call("ranker.graph_rank", graph_rank, query, result.partial,
                                   corpus, taxonomy, weights, "partial") if include_partial else []
                    counts["ranked_fragments"] += sum(map(len, result.full.values()))
                    if include_partial:
                        counts["ranked_fragments"] += sum(map(len, result.partial.values()))
                else:
                    full = rerank(result.full, "full")
                    partial = rerank(result.partial, "partial") if include_partial else []
                ranked = call("ranker.assemble_final_ranking", assemble_final_ranking,
                              full, partial, DEFAULT_CUTOFF)
                rankings[tag].append(
                    (topic.topic_id, [(e.doc_id, e.run_score) for e in ranked]))
        for tag, ranked_topics in rankings.items():
            run = Run(tag)
            for topic_id, entries in ranked_topics:
                call("evaluation.Run.add_topic", run.add_topic, topic_id, entries)
            call("evaluation.Run.write", run.write, out_dir / f"run-{tag}.txt")
            call("evaluation.evaluate", evaluate, run, qrels, excluded=[])
        return out_dir, counts

    def check(self, i, j, out):
        """Digests of (run files + metrics.json, run files alone).

        A traced command writes no metrics.json, so only the second digest
        compares it with the untraced command.
        """
        out_dir, counts = out
        paths = [out_dir / f"run-{tag}.txt" for _, _, tag in MODES]
        runs = b"".join(path.read_bytes() for path in paths)
        compared = hashlib.sha256(runs).hexdigest()
        if counts is not None:
            return None, compared
        metrics = (out_dir / "metrics.json").read_bytes()
        pinned = hashlib.sha256(runs + metrics).hexdigest()
        if j not in self.first:
            for path in paths:
                Run.read(path)  # rejects duplicate documents and rising scores
            if sorted(json.loads(metrics)["modes"]) != sorted(tag for _, _, tag in MODES):
                raise CheckFailed("metrics.json lacks a mode")
            self.first[j] = pinned
        elif self.first[j] != pinned:
            raise CheckFailed("evaluate output changed between identical commands")
        return pinned, compared

    def counts(self, out) -> Counter:
        return out[1]


WORKLOADS = {
    "cold-evaluate": ColdEvaluate,
    "keyword-ontology": KeywordOntology,
    "triple-bm25": TripleBM25,
}
