"""Seeded inputs: the corpus bundle, extra ontologies and query streams.

Everything here derives from the benchmark seed alone, so one seed always
gives byte-identical inputs. The bundle is ``tests/randgen.write_benchmark``
at the size of acceptance criterion 9 (10k documents, 150 concepts), with a
TREC-sized topic set for ``evaluate``.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

from randgen import PREDICATES, random_ontology_edges, write_benchmark

N_DOCS = 10_000
N_CONCEPTS = 150
N_TOPICS = 40
# One random 150-concept ontology varies about 3x between seeds in mean
# ancestor count, and expansion cost follows it. Queries therefore rotate
# over the bundle's ontology plus these extra draws, which makes a run's cost
# a property of the generator rather than of one draw. Loading all of them
# takes about 0.1 s of set-up.
N_ONTOLOGIES = 256


def write_inputs(directory: Path, seed: int) -> dict:
    """Write the bundle and the extra ontologies; return their paths."""
    paths = write_benchmark(
        directory, random.Random(seed), n_docs=N_DOCS, n_concepts=N_CONCEPTS,
        n_topics=N_TOPICS,
    )
    concepts = [f"C{i:03d}" for i in range(N_CONCEPTS)]
    ontologies = [paths["ontology"]]
    for j in range(1, N_ONTOLOGIES):
        path = directory / f"ontology-{j:02d}.tsv"
        edges = random_ontology_edges(random.Random(f"{seed}/ontology/{j}"), concepts)
        path.write_text("".join(f"{c}\t{p}\n" for c, p in edges), encoding="utf-8")
        ontologies.append(path)
    return {**paths, "ontologies": ontologies}


def digest_files(paths) -> str:
    sha = hashlib.sha256()
    for path in sorted(paths, key=lambda p: p.name):
        sha.update(path.name.encode() + b"\0")
        sha.update(path.read_bytes())
    return sha.hexdigest()


def _term(rng: random.Random, concept: int) -> str:
    # Both synonym forms of a concept: an exact label or a partial one.
    return f"{rng.choice(('term', 'cond'))}{concept:03d}"


def _concept_groups(rng: random.Random):
    """Endless groups of 2-4 distinct concepts that use the concepts evenly.

    Groups are cut from a run of shuffled permutations of all concepts, with
    sizes drawn from shuffled (2, 3, 4) triples. So every concept, and with
    it every depth of the ontologies, appears about equally often in any
    few hundred groups, and a stream's cost depends less on the seed.
    """
    pool: list[int] = []
    while True:
        for size in rng.sample((2, 3, 4), 3):
            while len(pool) < size:
                pool.extend(rng.sample(range(N_CONCEPTS), N_CONCEPTS))
            group, pool = pool[:size], pool[size:]
            if len(set(group)) == size:
                yield group


def keyword_topics(seed: int):
    """Endless stream of distinct 2-4 component keyword topics."""
    rng = random.Random(f"{seed}/keyword")
    seen = set()
    for group in _concept_groups(rng):
        if tuple(group) in seen:
            continue
        seen.add(tuple(group))
        yield tuple(_term(rng, concept) for concept in group)


def triple_queries(seed: int):
    """Endless stream of distinct 1-3 triple queries shaped as trees over
    2-4 concepts.

    A predicate is one of the corpus labels or ``None`` (any predicate).
    """
    rng = random.Random(f"{seed}/triple")
    labels = list(PREDICATES) + [None]
    seen = set()
    for group in _concept_groups(rng):
        nodes = [_term(rng, c) for c in group]
        triples = []
        for j in range(1, len(nodes)):
            pair = [nodes[rng.randrange(j)], nodes[j]]
            rng.shuffle(pair)
            triples.append((pair[0], rng.choice(labels), pair[1]))
        key = tuple(triples)
        if key in seen:
            continue
        seen.add(key)
        yield key
