"""Bit-exact output ledger: pinned digests of matching, ranking, BM25 and index bytes.

Run files print scores to 6 decimals, so they cannot show a 1-ulp score
change, a different best fragment, or a different order of the fragments kept
under ``FRAGMENT_CAP``. This test builds a small seeded bundle, runs keyword
topics (plain and expanded upwards over several ontologies) and triple
queries (plain and with subclass rewriting), and hashes each result in full:
fragment order, node bindings, truncated documents, expanded concepts and
every score as ``float.hex()``. The digests are pinned in ``ledger.json``; a
mismatch names the first item that differs.

Scores go through the platform's ``math.log``, so the pins hold for Linux
x86-64 glibc. An intended output change re-pins, with its reason, by running
``PYTHONPATH=src python tests/test_ledger.py --write``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

from docgraph import matcher
from docgraph.bm25 import bm25_rerank, bm25_retrieve
from docgraph.config import load_config
from docgraph.corpus import ingest_documents
from docgraph.matcher import retrieve
from docgraph.ontology import Ontology, expand_query_upwards, load_ontology
from docgraph.query import Topic, compile_topic, translate_term_query
from docgraph.ranker import graph_rank
from docgraph.storage import load_index, save_index
from docgraph.vocabulary import load_vocabulary

from randgen import PREDICATES, random_ontology_edges, write_benchmark

LEDGER = Path(__file__).resolve().parent / "ledger.json"
FIX1_CORPUS = Path(__file__).resolve().parent.parent / "fixtures" / "fix1_corpus.jsonl"

SEED = 20
N_DOCS = 300
N_CONCEPTS = 24
N_KEYWORD = 20
N_TRIPLE = 20
N_EXTRA_ONTOLOGIES = 2
CAPS = (1024, 3)


def _digest(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _fragment(fragment) -> tuple:
    return (fragment.edges, fragment.node_bindings)


def _match(result) -> tuple:
    def docs(table):
        return [(doc_id, [_fragment(f) for f in fragments]) for doc_id, fragments in table.items()]

    return (docs(result.full), docs(result.partial), sorted(result.truncated_docs))


def _concepts(query) -> list:
    return [
        (cs.node_id, [(e.concept_id, e.score.hex(), e.origin) for e in cs.entries()])
        for cs in query.components
    ]


def _term(rng: random.Random, concept: int) -> str:
    return f"{rng.choice(('term', 'cond'))}{concept:03d}"


def _queries(rng, vocabulary, ontologies):
    """(label, query) pairs: keyword topics, then triple queries."""
    for t in range(N_KEYWORD):
        terms = [_term(rng, c) for c in rng.sample(range(N_CONCEPTS), rng.choice((2, 3, 4)))]
        topic = Topic(f"K{t}", "keyword", components=tuple((term, None) for term in terms))
        query = compile_topic(topic, vocabulary)
        yield f"keyword {t}", query
        for j, ontology in enumerate(ontologies):
            yield f"keyword {t} up {j}", expand_query_upwards(query, ontology)
    labels = list(PREDICATES) + [None]
    for t in range(N_TRIPLE):
        nodes = [_term(rng, c) for c in rng.sample(range(N_CONCEPTS), rng.choice((2, 3)))]
        triples = []
        for j in range(1, len(nodes)):
            pair = [nodes[rng.randrange(j)], nodes[j]]
            rng.shuffle(pair)
            triples.append((pair[0], rng.choice(labels), pair[1]))
        yield f"triple {t}", translate_term_query(triples, vocabulary)
        yield f"triple {t} sub", translate_term_query(triples, vocabulary, ontologies[0])


def ledger_items(work: Path) -> list[tuple[str, str]]:
    """Every ledger item as (name, 16-hex-digit SHA-256 prefix), in a fixed order."""
    rng = random.Random(SEED)
    bundle = write_benchmark(work / "bundle", rng, n_docs=N_DOCS, n_concepts=N_CONCEPTS, n_topics=1)
    save_index(work / "index", ingest_documents(bundle["corpus"]))
    save_index(work / "fix1", ingest_documents(FIX1_CORPUS))
    items = [
        ("index bundle", _file_digest(work / "index" / "documents.jsonl")),
        ("index fix1", _file_digest(work / "fix1" / "documents.jsonl")),
    ]

    loaded = load_index(work / "index")
    corpus, index, text_index = loaded.corpus, loaded.statement_index, loaded.text_index
    vocabulary = load_vocabulary(bundle["vocabulary"])
    config = load_config(bundle["config"])
    concepts = [f"C{i:03d}" for i in range(N_CONCEPTS)]
    ontologies = [load_ontology(bundle["ontology"])] + [
        Ontology(random_ontology_edges(random.Random(f"{SEED}/ontology/{j}"), concepts))
        for j in range(N_EXTRA_ONTOLOGIES)
    ]

    for label, query in _queries(rng, vocabulary, ontologies):
        items.append((f"{label} concepts", _digest(_concepts(query))))
        results = {}
        saved = matcher.FRAGMENT_CAP
        try:
            for cap in CAPS:
                matcher.FRAGMENT_CAP = cap
                results[cap] = retrieve(query, index, corpus)
        finally:
            matcher.FRAGMENT_CAP = saved
        for cap in CAPS:
            items.append((f"{label} match cap {cap}", _digest(_match(results[cap]))))
        result = results[CAPS[0]]
        ranked = [
            [(s.doc_id, s.score.hex(), s.match_class, _fragment(s.best_fragment)) for s in
             graph_rank(query, docs, corpus, config.taxonomy, config.weights, match_class)]
            for match_class, docs in (("full", result.full), ("partial", result.partial))
        ]
        items.append((f"{label} graph_rank", _digest(ranked)))
        bm25 = [
            [(doc_id, score.hex()) for doc_id, score in hits]
            for hits in (
                bm25_rerank(query.text, result.full, text_index, config.bm25),
                bm25_rerank(query.text, result.partial, text_index, config.bm25),
                bm25_retrieve(query.text, 50, text_index, config.bm25),
            )
        ]
        items.append((f"{label} bm25", _digest(bm25)))
    return items


def test_ledger_matches_pinned(tmp_path):
    pinned = [tuple(item) for item in json.loads(LEDGER.read_text(encoding="utf-8"))]
    items = ledger_items(tmp_path)
    for got, want in zip(items, pinned):
        assert got == want, f"first differing ledger item: got {got}, pinned {want}"
    assert len(items) == len(pinned), f"{len(items)} ledger items, {len(pinned)} pinned"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        entries = ledger_items(Path(tmp))
    if sys.argv[1:] == ["--write"]:
        lines = ",\n".join(json.dumps(list(item)) for item in entries)
        LEDGER.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    else:
        for name, value in entries:
            print(value, name)
