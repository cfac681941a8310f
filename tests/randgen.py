"""Seeded random generators for corpora, queries, ontologies, benchmarks."""

from __future__ import annotations

import json
import random
from pathlib import Path

from docgraph.corpus import Corpus, Document
from docgraph.query import (
    ConceptSet,
    DisjunctiveQuery,
    ExpandedConcept,
    FactPattern,
    NarrativeQuery,
    PredicateSlot,
)

PREDICATES = ("treats", "inhibits", "interacts", "associated")

FILLER_WORDS = (
    "study", "patients", "results", "clinical", "effect", "analysis",
    "observed", "treatment", "cohort", "trial", "baseline", "group",
)


def random_raw_corpus(
    rng: random.Random, max_docs=50, max_concepts=10, max_edges=15, n_docs=None
):
    """Raw doc dicts: {"length", "mentions", "statements", "tokens"}."""
    if n_docs is None:
        n_docs = rng.randint(1, max_docs)
    n_concepts = rng.randint(2, max_concepts)
    concepts = [f"C{i}" for i in range(n_concepts)]
    raw = {}
    for d in range(n_docs):
        doc_id = f"D{d:03d}"
        length = rng.randint(40, 200)
        present = rng.sample(concepts, rng.randint(1, n_concepts))
        mentions = {}
        for concept in present:
            starts = sorted(
                rng.sample(range(length - 1), rng.randint(1, min(3, length - 1)))
            )
            mentions[concept] = starts
        statements = []
        if len(present) >= 2:
            for _ in range(rng.randint(0, max_edges)):
                subject, obj = rng.sample(present, 2)
                statements.append(
                    (
                        subject,
                        rng.choice(PREDICATES),
                        obj,
                        round(rng.uniform(0.05, 1.0), 3),
                    )
                )
        tokens = [rng.choice(FILLER_WORDS) for _ in range(rng.randint(3, 12))]
        tokens.extend(concept.lower() for concept in present)
        rng.shuffle(tokens)
        raw[doc_id] = {
            "length": length,
            "mentions": mentions,
            "statements": statements,
            "tokens": tokens,
        }
    return raw


def corpus_from_raw(raw) -> Corpus:
    documents = []
    for doc_id, doc in raw.items():
        mentions = [
            (concept, start, min(start + 3, doc["length"]))
            for concept, starts in doc["mentions"].items()
            for start in starts
        ]
        statements = [
            (subject, predicate, obj, confidence, 0)
            for subject, predicate, obj, confidence in doc["statements"]
        ]
        documents.append(
            Document(doc_id, doc["length"], doc["tokens"], mentions, statements)
        )
    return Corpus(documents)


def random_concept_set(rng: random.Random, node_id, concepts, max_size=3) -> ConceptSet:
    chosen = rng.sample(concepts, rng.randint(1, min(max_size, len(concepts))))
    return ConceptSet(
        node_id,
        node_id,
        (
            ExpandedConcept(concept, round(rng.uniform(0.1, 1.0), 3))
            for concept in chosen
        ),
    )


def random_query(
    rng: random.Random,
    concepts,
    max_patterns=3,
    max_set_size=3,
    n_alternatives=1,
    wildcard_probability=0.5,
) -> DisjunctiveQuery:
    """A random graph query; alternatives share the same node sets."""
    n_nodes = rng.randint(2, max(2, min(4, len(concepts))))
    nodes = [
        random_concept_set(rng, f"n{i}", concepts, max_set_size)
        for i in range(n_nodes)
    ]
    alternatives = []
    used_ids: set[str] = set()
    for _ in range(n_alternatives):
        patterns = []
        for _ in range(rng.randint(1, max_patterns)):
            a, b = rng.sample(range(n_nodes), 2)
            if rng.random() < wildcard_probability:
                slot = PredicateSlot.wildcard()
            else:
                slot = PredicateSlot.of(
                    *rng.sample(PREDICATES, rng.randint(1, 2))
                )
            patterns.append(FactPattern(nodes[a], slot, nodes[b]))
            used_ids.update((nodes[a].node_id, nodes[b].node_id))
        alternatives.append(NarrativeQuery(patterns))
    components = [cs for cs in nodes if cs.node_id in used_ids]
    return DisjunctiveQuery(components, alternatives, text=" ".join(used_ids))


def random_ontology_edges(rng: random.Random, concepts):
    """Random DAG edges (child, parent): parents always have lower index."""
    edges = []
    for i, concept in enumerate(concepts):
        if i == 0:
            continue
        for _ in range(rng.randint(0, 2)):
            parent = concepts[rng.randrange(i)]
            edges.append((concept, parent))
    return edges


def write_benchmark(
    directory: Path,
    rng: random.Random,
    n_docs=200,
    n_concepts=40,
    n_topics=5,
) -> dict[str, Path]:
    """Write a synthetic corpus/vocabulary/ontology/topics/qrels bundle."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    concepts = [f"C{i:03d}" for i in range(n_concepts)]
    term = {concept: f"term{i:03d}" for i, concept in enumerate(concepts)}
    types = ["disease", "drug", "gene", "species", "other"]

    vocab_path = directory / "vocabulary.tsv"
    vocab_lines = [
        f"{concept}\t{types[i % len(types)]}\t{term[concept]}|cond{i:03d} {term[concept]}"
        for i, concept in enumerate(concepts)
    ]
    vocab_path.write_text("\n".join(vocab_lines) + "\n", encoding="utf-8")

    ontology_path = directory / "ontology.tsv"
    ontology_lines = [
        f"{child}\t{parent}" for child, parent in random_ontology_edges(rng, concepts)
    ]
    ontology_path.write_text("\n".join(ontology_lines) + "\n", encoding="utf-8")

    corpus_path = directory / "corpus.jsonl"
    doc_concepts: dict[str, list[str]] = {}
    with corpus_path.open("w", encoding="utf-8") as handle:
        for d in range(n_docs):
            doc_id = f"P{d:06d}"
            length = rng.randint(120, 400)
            present = rng.sample(concepts, rng.randint(2, min(6, n_concepts)))
            doc_concepts[doc_id] = present
            mentions = []
            for concept in present:
                for start in rng.sample(range(length - 10), rng.randint(1, 3)):
                    mentions.append(
                        {"concept_id": concept, "start": start, "end": start + 6}
                    )
            statements = []
            for _ in range(rng.randint(1, 8)):
                subject, obj = rng.sample(present, 2)
                statements.append(
                    {
                        "subject": subject,
                        "predicate": rng.choice(PREDICATES),
                        "object": obj,
                        "confidence": round(rng.uniform(0.05, 1.0), 3),
                        "sentence": rng.randint(0, 5),
                    }
                )
            tokens = [rng.choice(FILLER_WORDS) for _ in range(rng.randint(20, 60))]
            for concept in present:
                tokens.extend([term[concept]] * rng.randint(1, 3))
            rng.shuffle(tokens)
            record = {
                "doc_id": doc_id,
                "text_length": length,
                "tokens": tokens,
                "mentions": mentions,
                "statements": statements,
            }
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    topics_path = directory / "topics.tsv"
    qrels_path = directory / "qrels.txt"
    topic_lines = []
    qrels_lines = []
    doc_ids = list(doc_concepts)
    for t in range(n_topics):
        topic_id = f"T{t + 1}"
        k = rng.choice((2, 3))
        chosen = rng.sample(concepts, k)
        topic_lines.append(
            f"{topic_id}\tkeyword\t" + " | ".join(term[c] for c in chosen)
        )
        # judge docs mentioning at least one topic concept, plus random noise
        mentioning = [
            doc_id
            for doc_id in doc_ids
            if any(c in doc_concepts[doc_id] for c in chosen)
        ]
        judged = set(rng.sample(mentioning, min(len(mentioning), 30)))
        judged.update(rng.sample(doc_ids, min(len(doc_ids), 10)))
        for doc_id in sorted(judged):
            overlap = sum(1 for c in chosen if c in doc_concepts[doc_id])
            grade = 2 if overlap >= k else (1 if overlap >= 1 else 0)
            if rng.random() < 0.2:
                grade = 0
            qrels_lines.append(f"{topic_id} 0 {doc_id} {grade}")
    topics_path.write_text("\n".join(topic_lines) + "\n", encoding="utf-8")
    qrels_path.write_text("\n".join(qrels_lines) + "\n", encoding="utf-8")

    config_path = directory / "ranking.cfg"
    config_path.write_text(
        "weights = [0.25, 0.25, 0.25, 0.25]\nk1 = 1.2\nb = 0.75\n"
        "treats\t1\ninhibits\t1\ninteracts\t2\nassociated\t3\n",
        encoding="utf-8",
    )
    return {
        "corpus": corpus_path,
        "vocabulary": vocab_path,
        "ontology": ontology_path,
        "topics": topics_path,
        "qrels": qrels_path,
        "config": config_path,
    }
