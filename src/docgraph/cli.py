"""Command-line entry point: index, search, and evaluate subcommands.

Runs are reproducible: identical inputs and flags produce byte-identical
index artifacts and run files. Exit codes: 0 success, 1 input error,
2 internal inconsistency.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from dataclasses import asdict, dataclass

from .bm25 import bm25_rerank, bm25_retrieve
from .config import RankingConfig, load_config
from .errors import DocGraphError, InconsistencyError, InputError, make_output_dir
from .errors import read_input_text, write_output
from .evaluation import METRIC_KEYS, MetricReport, Run, evaluate, load_qrels
from .matcher import Fragment, retrieve
from .ontology import Ontology, expand_query_upwards, load_ontology
from .query import (
    DisjunctiveQuery,
    compile_keyword_topic,
    compile_freetext_topic,
    compile_topic,
    parse_keyword_components,
    parse_topics_file,
    query_translation_score,
    translate_term_query,
)
from .ranker import (
    DEFAULT_CUTOFF,
    RankedDocument,
    ScoredDocument,
    assemble_final_ranking,
    graph_rank,
)
from .storage import LoadedIndex, load_index, save_index
from .vocabulary import Vocabulary, load_vocabulary
from .corpus import ingest_documents, paused_gc

RANKERS = ("graphrank", "bm25-rerank", "bm25-native", "none")


class _Parser(argparse.ArgumentParser):
    # Usage errors are input errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@dataclass
class _Context:
    loaded: LoadedIndex
    vocabulary: Vocabulary
    ontology: Ontology | None
    config: RankingConfig
    scope: frozenset[str] | None


def _load_scope(path: str | None) -> frozenset[str] | None:
    if path is None:
        return None
    lines = read_input_text(path, "scope").splitlines()
    return frozenset(line.strip() for line in lines if line.strip())


def _load_context(args) -> _Context:
    loaded = load_index(args.index)
    vocabulary = load_vocabulary(args.vocab)
    ontology = load_ontology(args.ontology) if args.ontology else None
    config = load_config(args.config) if args.config else RankingConfig()
    if getattr(args, "expand_ontology", False) and ontology is None:
        raise InputError("--expand-ontology requires --ontology")
    return _Context(loaded, vocabulary, ontology, config, _load_scope(args.scope))


def _mode_label(match_mode: str, expand: bool, ranker: str) -> tuple[str, str]:
    """The run tag and the display name of one (match mode, ranker) pair."""
    if ranker == "bm25-native":
        return "bm25-native", "Native BM25 (Baseline)"
    tag = [match_mode]
    name = "Full Match" if match_mode == "full" else "Partial Match"
    if expand:
        tag.append("ontology")
        name += " + Ontology"
    if ranker != "none":
        tag.append(ranker)
        name += " + GraphRank" if ranker == "graphrank" else " + BM25"
    return "-".join(tag), name


def _rank_class(
    query: DisjunctiveQuery,
    doc_fragments: dict[str, list[Fragment]],
    ctx: _Context,
    match_class: str,
    ranker: str,
) -> list[ScoredDocument]:
    """Rank the documents of one match class ("full" or "partial") with one ranker."""
    if ranker == "graphrank":
        return graph_rank(
            query,
            doc_fragments,
            ctx.loaded.corpus,
            ctx.config.taxonomy,
            ctx.config.weights,
            match_class,
        )
    if ranker == "bm25-rerank":
        scored = bm25_rerank(
            query.text, doc_fragments.keys(), ctx.loaded.text_index, ctx.config.bm25
        )
    elif ranker == "none":
        # The pre-ranking system's order: doc ids (a date proxy) descending.
        ordered = sorted(doc_fragments, reverse=True)
        scored = [(doc_id, 1.0 / (i + 1)) for i, doc_id in enumerate(ordered)]
    else:
        raise InputError(f"unknown ranker {ranker!r}")
    return [
        ScoredDocument(doc_id, score, match_class, doc_fragments[doc_id][0])
        for doc_id, score in scored
    ]


def rank_query(
    query: DisjunctiveQuery,
    ctx: _Context,
    match_modes: list[str],
    rankers: list[str],
    cutoff: int,
) -> dict[tuple[str, str], list[RankedDocument]]:
    """Rank one query in every (match mode, ranker) pair asked for.

    Retrieval runs once. Each ranker scores the full class once, and the
    partial class once only if a partial mode is asked for; every match mode
    assembles from those lists. Native BM25 has no match mode and is keyed
    ``("-", "bm25-native")``.
    """
    rankings: dict[tuple[str, str], list[RankedDocument]] = {}
    graph_rankers = [ranker for ranker in rankers if ranker != "bm25-native"]
    if graph_rankers:
        result = retrieve(query, ctx.loaded.statement_index, ctx.loaded.corpus, ctx.scope)
        for ranker in graph_rankers:
            full = _rank_class(query, result.full, ctx, "full", ranker)
            partial = (
                _rank_class(query, result.partial, ctx, "partial", ranker)
                if "partial" in match_modes
                else []
            )
            for match_mode in match_modes:
                rankings[(match_mode, ranker)] = assemble_final_ranking(
                    full, partial if match_mode == "partial" else [], cutoff=cutoff
                )
    if "bm25-native" in rankers:
        hits = bm25_retrieve(
            query.text, cutoff, ctx.loaded.text_index, ctx.config.bm25, ctx.scope
        )
        rankings[("-", "bm25-native")] = [
            RankedDocument(i + 1, doc_id, score, score, "native", best_fragment=None)
            for i, (doc_id, score) in enumerate(hits)
        ]
    return rankings


def cmd_index(args) -> int:
    corpus = ingest_documents(args.corpus)
    load_vocabulary(args.vocab)
    if args.config:
        load_config(args.config)
    if args.ontology:
        load_ontology(args.ontology)
    manifest_path = save_index(args.out, corpus)
    print(f"indexed {corpus.doc_count} documents -> {manifest_path.parent}")
    return 0


def _parse_search_query(args, ctx: _Context) -> DisjunctiveQuery:
    given = [bool(args.triple), args.keywords is not None, args.freetext is not None]
    if sum(given) != 1:
        raise InputError("provide exactly one of --triple/--keywords/--freetext")
    if args.triple:
        triples = []
        for raw in args.triple:
            parts = [p.strip() for p in raw.split("|")]
            if len(parts) != 3:
                raise InputError(
                    f"--triple expects 'subject|predicate|object', got {raw!r}"
                )
            subject, predicate, obj = parts
            triples.append((subject, None if predicate in ("?", "") else predicate, obj))
        return translate_term_query(triples, ctx.vocabulary, ctx.ontology)
    if args.keywords is not None:
        components = parse_keyword_components(args.keywords, "--keywords")
        return compile_keyword_topic(components, ctx.vocabulary)
    return compile_freetext_topic(args.freetext, ctx.vocabulary)


def _format_fragment(fragment) -> str:
    if fragment is None or not fragment.edges:
        return ""
    return "; ".join(f"({s}) -[{p}]-> ({o})" for s, p, o in fragment.edges)


def cmd_search(args, ctx: _Context) -> int:
    query = _parse_search_query(args, ctx)
    if args.expand_ontology:
        query = expand_query_upwards(query, ctx.ontology)

    (ranked,) = rank_query(query, ctx, [args.match], [args.ranker], args.cutoff).values()
    tag = args.tag or _mode_label(args.match, args.expand_ontology, args.ranker)[0]
    # Made before any hit is printed, so a bad --out fails with no partial output.
    out_dir = make_output_dir(args.out) if args.out else None
    print(f"# {len(ranked)} hits (translation score {query_translation_score(query):.4f})")
    for entry in ranked:
        line = f"{entry.rank:4d}. {entry.doc_id}  score={entry.model_score:.6f}  [{entry.match_class}]"
        explanation = _format_fragment(entry.best_fragment)
        print(line)
        if explanation:
            print(f"      {explanation}")
    if out_dir is not None:
        run = Run(tag)
        run.add_topic("0", [(e.doc_id, e.run_score) for e in ranked])
        run_path = out_dir / f"run-{tag}.txt"
        run.write(run_path)
        print(f"# run written to {run_path}")
    return 0


def cmd_evaluate(args, ctx: _Context) -> int:
    topics = parse_topics_file(args.topics)
    qrels = load_qrels(args.qrels)
    out_dir = make_output_dir(args.out)

    match_modes = list(dict.fromkeys(args.match or ["full", "partial"]))
    rankers = list(dict.fromkeys(args.ranker or ["graphrank"]))
    expand = args.expand_ontology
    graph_rankers = [ranker for ranker in rankers if ranker != "bm25-native"]
    modes = [(match_mode, ranker) for match_mode in match_modes for ranker in graph_rankers]
    if "bm25-native" in rankers:
        modes.append(("-", "bm25-native"))
    mode_labels = {mode: _mode_label(mode[0], expand, mode[1]) for mode in modes}
    runs = {mode: Run(tag) for mode, (tag, _) in mode_labels.items()}

    excluded: list[tuple[str, str]] = []
    translation_scores: dict[str, float] = {}
    for topic in topics:
        try:
            query = compile_topic(topic, ctx.vocabulary)
        except InputError as exc:
            excluded.append((topic.topic_id, str(exc)))
            continue
        translation_scores[topic.topic_id] = query_translation_score(query)
        if expand:
            query = expand_query_upwards(query, ctx.ontology)
        for mode, ranked in rank_query(query, ctx, match_modes, rankers, args.cutoff).items():
            runs[mode].add_topic(topic.topic_id, [(e.doc_id, e.run_score) for e in ranked])

    reports: dict[str, MetricReport] = {}
    payload: dict = {"modes": {}}
    for mode, run in runs.items():
        tag, name = mode_labels[mode]
        run.write(out_dir / f"run-{tag}.txt")
        report = evaluate(run, qrels, excluded=excluded)
        reports[tag] = report
        entry = asdict(report)
        del entry["tag"]
        payload["modes"][tag] = {**entry, "name": name}
    payload["translation_scores"] = translation_scores
    write_output(out_dir / "metrics.json", json.dumps(payload, sort_keys=True, indent=2) + "\n")

    labels = {
        "recall@1000": "Recall@1000",
        "ndcg@10": "nDCG@10",
        "ndcg@20": "nDCG@20",
        "ndcg@100": "nDCG@100",
        "p@10": "P@10",
        "p@20": "P@20",
        "p@100": "P@100",
    }
    header = ["Mode".ljust(42)] + [labels[key].rjust(12) for key in METRIC_KEYS]
    print("".join(header))
    for tag, report in reports.items():
        cells = [payload["modes"][tag]["name"].ljust(42)]
        for key in METRIC_KEYS:
            value = report.means.get(key)
            cells.append(("-" if value is None else f"{value:.4f}").rjust(12))
        print("".join(cells))
    if excluded:
        print(f"# {len(excluded)} topic(s) excluded by translation failure:")
        for topic_id, reason in excluded:
            print(f"#   {topic_id}: {reason}")
    skipped = {tag: report.skipped_topics for tag, report in reports.items()}
    for tag, topics_skipped in skipped.items():
        for topic_id in topics_skipped:
            print(f"# warning: topic {topic_id} ({tag}) has no qrels; skipped")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="docgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    index = sub.add_parser("index", help="ingest a corpus and persist indexes")
    index.add_argument("--corpus", required=True, help="line-delimited JSON corpus file")
    index.add_argument("--vocab", required=True, help="vocabulary TSV (validated)")
    index.add_argument("--ontology", help="ontology TSV (validated if given)")
    index.add_argument("--config", help="ranking configuration file (validated)")
    index.add_argument("--out", required=True, help="index directory to write")
    index.set_defaults(func=cmd_index)

    def common_search_flags(p):
        p.add_argument("--index", required=True, help="index directory from 'index'")
        p.add_argument("--vocab", required=True, help="vocabulary TSV")
        p.add_argument("--ontology", help="ontology TSV")
        p.add_argument("--config", help="ranking configuration file")
        p.add_argument("--scope", help="doc-id allowlist, one id per line")
        p.add_argument("--expand-ontology", action="store_true", help="rewrite queries upwards")
        p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF)

    search = sub.add_parser("search", help="run one query against an index")
    common_search_flags(search)
    search.add_argument(
        "--match", choices=("full", "partial"), default="full",
        help="'partial' appends partially matching documents after full matches",
    )
    search.add_argument("--ranker", choices=RANKERS, default="graphrank")
    search.add_argument(
        "--triple", action="append", default=[],
        help="fact pattern 'subject|predicate|object' ('?' = any predicate); repeatable",
    )
    search.add_argument("--keywords", help="keyword components 'a | b:type | c'")
    search.add_argument("--freetext", help="free-text query string")
    search.add_argument("--out", help="directory for the run file")
    search.add_argument("--tag", help="run tag (defaults to the mode tag)")
    search.set_defaults(func=cmd_search)

    ev = sub.add_parser("evaluate", help="run topics against qrels over a mode matrix")
    common_search_flags(ev)
    ev.add_argument(
        "--match", action="append", choices=("full", "partial"),
        help="match mode(s) to evaluate; repeatable (default: both)",
    )
    ev.add_argument(
        "--ranker", action="append", choices=RANKERS,
        help="ranker(s) to evaluate; repeatable (default: graphrank)",
    )
    ev.add_argument("--topics", required=True, help="topics file")
    ev.add_argument("--qrels", required=True, help="qrels file")
    ev.add_argument("--out", required=True, help="output directory for runs and metrics")
    ev.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    froze = False
    try:
        if args.func is cmd_index:
            return cmd_index(args)
        # Checked once, before any work, so a run that ranks no topic still fails.
        if args.cutoff < 1:
            raise InputError(f"cutoff must be >= 1, got {args.cutoff}")
        if getattr(args, "tag", None):
            Run(args.tag)  # raises on a tag that no run file could carry
        with paused_gc():
            ctx = _load_context(args)
            # The context lives until the command returns; freezing it keeps later
            # collections from walking the corpus. A host's frozen heap is left alone.
            froze = not gc.get_freeze_count()
            if froze:
                gc.freeze()
        return args.func(args, ctx)
    except InconsistencyError as exc:
        print(f"docgraph: internal inconsistency: {exc}", file=sys.stderr)
        return 2
    except DocGraphError as exc:
        print(f"docgraph: error: {exc}", file=sys.stderr)
        return 1
    finally:
        if froze:
            gc.unfreeze()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
