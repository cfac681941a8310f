"""Statement indexing, fragment enumeration, and Full/Partial retrieval.

A fragment is one binding of a query's fact patterns to concrete document
edges. Fragment identity is the bound edge tuple in pattern order; the first
binding found in deterministic order (patterns in order, candidate edges
lexicographic, forward orientation before reverse) supplies the node
witnesses.

``retrieve`` looks each distinct fact pattern up once in the pair index, which
holds each document edge once; ``_pattern_orientations`` is the one rule that
binds an edge to a pattern. A lookup's documents are the pattern's candidates,
which each alternative intersects and verifies by full enumeration; its
fragments are the pattern's partial matches. A containment query reads only
the corpus's concept -> documents table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .corpus import Corpus, Document, Edge
from .query import DisjunctiveQuery, FactPattern, NarrativeQuery

# Enumeration stops after this many distinct fragments for one document.
FRAGMENT_CAP = 1024


@dataclass(frozen=True)
class Fragment:
    """A document subgraph bound to the query.

    ``edges`` follows pattern order (empty for containment matches);
    ``node_bindings`` maps query node ids to the bound concept ids.
    """

    doc_id: str
    edges: tuple[Edge, ...]
    node_bindings: tuple[tuple[str, str], ...]

    def edge_key(self) -> frozenset[Edge]:
        return frozenset(self.edges)


class FragmentList(list):
    """List of fragments with a truncation flag from the enumeration cap."""

    def __init__(self, items: Iterable[Fragment] = (), truncated: bool = False):
        super().__init__(items)
        self.truncated = truncated


class StatementIndex:
    """The pair table over the edges of a corpus's documents.

    ``pair`` maps a sorted concept pair ``(a, b)``, ``a < b``, to sorted
    (doc id, directed edge) entries, so each document edge is held once,
    under its two concepts in either direction.
    """

    __slots__ = ("pair",)

    def __init__(self, pair: dict[tuple[str, str], tuple[tuple[str, Edge], ...]]):
        self.pair = pair


def build_statement_index(corpus: Corpus) -> StatementIndex:
    pair: dict[tuple[str, str], list[tuple[str, Edge]]] = {}
    for doc in corpus.documents():
        doc_id = doc.doc_id
        for edge in doc.edges:
            subject, _, obj = edge
            key = (subject, obj) if subject < obj else (obj, subject)
            pair.setdefault(key, []).append((doc_id, edge))
    return StatementIndex({key: tuple(sorted(entries)) for key, entries in pair.items()})


def _pattern_orientations(
    pattern: FactPattern, edge: Edge
) -> Iterator[tuple[str, str]]:
    """(subject concept, object concept) bindings of an edge to a pattern.

    Forward comes before reverse; reverse exists only for wildcard slots.
    """
    subject, predicate, obj = edge
    if pattern.predicate.is_wildcard:
        if subject in pattern.subject and obj in pattern.object:
            yield subject, obj
        if obj in pattern.subject and subject in pattern.object:
            yield obj, subject
    elif predicate in pattern.predicate.labels:
        if subject in pattern.subject and obj in pattern.object:
            yield subject, obj


def matches(query: NarrativeQuery, doc: Document) -> FragmentList:
    """All distinct bindings of the query's patterns to the document's edges.

    Distinctness is by the bound edge tuple; concept sets shared by several
    patterns must bind to the same concept everywhere, so a fragment binds
    exactly its edges' endpoints. Enumeration order is deterministic and
    truncates at ``FRAGMENT_CAP`` fragments.
    """
    patterns = query.patterns
    options: list[list[tuple[Edge, str, str]]] = []
    for pattern in patterns:
        if pattern.subject.node_id == pattern.object.node_id:
            # A self-loop pattern cannot bind: document edges never loop.
            return FragmentList()
        opts = [
            (edge, s_concept, o_concept)
            for edge in doc.edges
            for s_concept, o_concept in _pattern_orientations(pattern, edge)
        ]
        if not opts:
            return FragmentList()
        options.append(opts)

    result = FragmentList()
    seen: set[tuple[Edge, ...]] = set()
    bound: dict[str, str] = {}
    chosen: list[Edge] = []

    def backtrack(i: int) -> None:
        if result.truncated:
            return
        if i == len(patterns):
            key = tuple(chosen)
            if key in seen:
                return
            if len(result) >= FRAGMENT_CAP:
                result.truncated = True
                return
            seen.add(key)
            result.append(
                Fragment(
                    doc_id=doc.doc_id,
                    edges=key,
                    node_bindings=tuple(sorted(bound.items())),
                )
            )
            return
        subject_node = patterns[i].subject.node_id
        object_node = patterns[i].object.node_id
        for edge, s_concept, o_concept in options[i]:
            if bound.get(subject_node, s_concept) != s_concept:
                continue
            if bound.get(object_node, o_concept) != o_concept:
                continue
            added = []
            if subject_node not in bound:
                bound[subject_node] = s_concept
                added.append(subject_node)
            if object_node not in bound:
                bound[object_node] = o_concept
                added.append(object_node)
            chosen.append(edge)
            backtrack(i + 1)
            chosen.pop()
            for node in added:
                del bound[node]

    backtrack(0)
    return result


@dataclass
class MatchResult:
    """Documents matching fully or partially, with their fragments.

    The two doc-id sets are disjoint: a document matching the whole query is
    removed from the partial class. Partial fragments bind single patterns.
    """

    full: dict[str, list[Fragment]]
    partial: dict[str, list[Fragment]]
    truncated_docs: frozenset[str] = field(default_factory=frozenset)


def fragment_translation(fragment: Fragment, query: DisjunctiveQuery) -> float:
    """Score of the fragment's worst-translated bound node."""
    return min(
        query.node_score(node, concept) for node, concept in fragment.node_bindings
    )


def _pool(
    bucket: dict[frozenset[Edge], Fragment], fragment: Fragment, query: DisjunctiveQuery
) -> bool:
    """Keep the best-translated fragment per edge set; False once the cap is hit."""
    key = fragment.edge_key()
    current = bucket.get(key)
    if current is None:
        if len(bucket) >= FRAGMENT_CAP:
            return False
        bucket[key] = fragment
    elif fragment_translation(fragment, query) > fragment_translation(current, query):
        bucket[key] = fragment
    return True


def _pattern_fragments(
    pattern: FactPattern, index: StatementIndex
) -> dict[str, list[Fragment]]:
    """Each document's one-pattern fragments, straight off the pair index.

    The keys are the pattern's candidate documents. Pair keys are visited in
    sorted (subject, object) concept order, each document's edges under a key
    in edge order, and each edge binds in its first orientation.
    """
    subject_node = pattern.subject.node_id
    object_node = pattern.object.node_id
    table: dict[str, list[Fragment]] = {}
    if subject_node == object_node:
        return table
    seen_pairs = set()
    for s in sorted(pattern.subject.concept_ids()):
        for o in sorted(pattern.object.concept_ids()):
            key = (s, o) if s < o else (o, s)
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            for doc_id, edge in index.pair.get(key, ()):
                binding = next(_pattern_orientations(pattern, edge), None)
                if binding is None:
                    continue
                s_concept, o_concept = binding
                table.setdefault(doc_id, []).append(
                    Fragment(
                        doc_id,
                        (edge,),
                        tuple(sorted(((subject_node, s_concept), (object_node, o_concept)))),
                    )
                )
    return table


def retrieve(
    query: DisjunctiveQuery,
    index: StatementIndex,
    corpus: Corpus,
    scope: frozenset[str] | set[str] | None = None,
) -> MatchResult:
    """Match a disjunctive query against the corpus.

    Full matches satisfy at least one alternative completely; partial matches
    satisfy at least one individual fact pattern but no alternative. Fragments
    are pooled over alternatives and deduplicated by edge set, keeping the
    best-translated binding. ``scope`` restricts candidate documents.
    """

    def in_scope(doc_id: str) -> bool:
        return scope is None or doc_id in scope

    if query.is_containment:
        concept_set = query.components[0]
        concept_docs = corpus.concept_docs
        ids = sorted(c for c in concept_set.concept_ids() if c in concept_docs)
        candidates: set[str] = set()
        for concept in ids:
            candidates.update(concept_docs[concept])
        full: dict[str, list[Fragment]] = {}
        for doc_id in sorted(candidates):
            if in_scope(doc_id):
                full[doc_id] = [
                    Fragment(doc_id, (), ((concept_set.node_id, concept),))
                    for concept in ids
                    if doc_id in concept_docs[concept]
                ]
        return MatchResult(full=full, partial={})

    tables = {
        pattern.key(): _pattern_fragments(pattern, index)
        for pattern in query.distinct_patterns()
    }
    truncated: set[str] = set()
    full_buckets: dict[str, dict[frozenset[Edge], Fragment]] = {}
    for alternative in query.alternatives:
        candidates: set[str] | None = None
        for pattern in alternative.patterns:
            docs = tables[pattern.key()].keys()
            candidates = set(docs) if candidates is None else candidates & docs
            if not candidates:
                break
        if not candidates:
            continue
        for doc_id in sorted(candidates):
            if not in_scope(doc_id):
                continue
            fragments = matches(alternative, corpus.document(doc_id))
            if fragments.truncated:
                truncated.add(doc_id)
            if not fragments:
                continue
            bucket = full_buckets.setdefault(doc_id, {})
            for fragment in fragments:
                if not _pool(bucket, fragment, query):
                    truncated.add(doc_id)

    partial_buckets: dict[str, dict[frozenset[Edge], Fragment]] = {}
    for table in tables.values():
        for doc_id, fragments in table.items():
            if doc_id in full_buckets or not in_scope(doc_id):
                continue
            bucket = partial_buckets.setdefault(doc_id, {})
            for fragment in fragments:
                if not _pool(bucket, fragment, query):
                    truncated.add(doc_id)

    return MatchResult(
        full={doc_id: list(bucket.values()) for doc_id, bucket in sorted(full_buckets.items())},
        partial={
            doc_id: list(bucket.values()) for doc_id, bucket in sorted(partial_buckets.items())
        },
        truncated_docs=frozenset(truncated),
    )
