"""Query data model and the two compilation paths.

A graph query is a disjunction of alternatives, each a conjunction of fact
patterns over shared concept sets (the query's nodes). Interactive triple
queries produce a single alternative; benchmark keyword topics produce one
alternative per spanning tree over their components. Queries are immutable
values; compilation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    InputError,
    TopicsFormatError,
    UnsupportedArityError,
    UntranslatableTermError,
    UntranslatableTopicError,
    read_input_text,
)
from .vocabulary import (
    CONCEPT_TYPES,
    ConceptTranslation,
    Vocabulary,
    greedy_concept_detection,
    tokenize,
)

MAX_PATTERNS = 8
MAX_TOPIC_COMPONENTS = 4


@dataclass(frozen=True)
class ExpandedConcept:
    """A concept alternative within a query node, with its score and origin."""

    concept_id: str
    score: float
    origin: str = "original"  # original | subclass | superclass


class ConceptSet:
    """One query node: the scored concept alternatives for a user term."""

    __slots__ = ("node_id", "label", "_entries")

    def __init__(self, node_id: str, label: str, entries: Iterable[ExpandedConcept]):
        self.node_id = node_id
        self.label = label
        self._entries: dict[str, ExpandedConcept] = {}
        for entry in entries:
            if entry.concept_id in self._entries:
                raise InputError(
                    f"duplicate concept {entry.concept_id!r} in concept set {node_id!r}"
                )
            if not 0.0 < entry.score <= 1.0:
                raise InputError(
                    f"concept {entry.concept_id!r} has score {entry.score!r} outside (0, 1]"
                )
            self._entries[entry.concept_id] = entry
        if not self._entries:
            raise InputError(f"concept set {node_id!r} is empty")

    def __contains__(self, concept_id: str) -> bool:
        return concept_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> tuple[ExpandedConcept, ...]:
        return tuple(self._entries.values())

    def concept_ids(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def get(self, concept_id: str) -> ExpandedConcept | None:
        return self._entries.get(concept_id)

    def score(self, concept_id: str) -> float:
        return self._entries[concept_id].score

    @property
    def best_score(self) -> float:
        return max(e.score for e in self._entries.values())

    def __repr__(self) -> str:  # pragma: no cover
        return f"ConceptSet({self.node_id!r}, {len(self)} alternatives)"


@dataclass(frozen=True)
class PredicateSlot:
    """Either a wildcard or a non-empty set of concrete interaction labels.

    Wildcard patterns match document edges in either direction; concrete
    patterns match the stated direction only.
    """

    labels: frozenset[str] | None = None

    def __post_init__(self):
        if self.labels is not None and not self.labels:
            raise InputError("concrete predicate slot must name at least one label")

    @property
    def is_wildcard(self) -> bool:
        return self.labels is None

    @staticmethod
    def wildcard() -> "PredicateSlot":
        return PredicateSlot(None)

    @staticmethod
    def of(*labels: str) -> "PredicateSlot":
        return PredicateSlot(frozenset(labels))


@dataclass(frozen=True)
class FactPattern:
    subject: ConceptSet
    predicate: PredicateSlot
    object: ConceptSet

    def key(self) -> tuple:
        """Identity of the pattern across alternatives of one query."""
        return (self.subject.node_id, self.predicate.labels, self.object.node_id)


class NarrativeQuery:
    """A conjunction of fact patterns, answered within single documents."""

    __slots__ = ("patterns",)

    def __init__(self, patterns: Sequence[FactPattern]):
        patterns = tuple(patterns)
        if not patterns:
            raise InputError("a narrative query needs at least one fact pattern")
        if len(patterns) > MAX_PATTERNS:
            raise InputError(
                f"query has {len(patterns)} fact patterns, cap is {MAX_PATTERNS}"
            )
        self.patterns = patterns


class DisjunctiveQuery:
    """A disjunction of narrative queries over shared concept sets.

    ``alternatives`` may be empty only for the degenerate single-component
    case, which retrieves documents that merely mention one of the component's
    concepts (a containment query).
    """

    __slots__ = ("components", "alternatives", "text", "_nodes")

    def __init__(
        self,
        components: Sequence[ConceptSet],
        alternatives: Sequence[NarrativeQuery],
        text: str = "",
    ):
        self.components = tuple(components)
        self.alternatives = tuple(alternatives)
        self.text = text
        if not self.components:
            raise InputError("query has no components")
        self._nodes: dict[str, ConceptSet] = {}
        for cs in self.components:
            if cs.node_id in self._nodes:
                raise InputError(f"duplicate query node {cs.node_id!r}")
            self._nodes[cs.node_id] = cs
        if not self.alternatives and len(self.components) != 1:
            raise InputError("containment queries have exactly one component")
        for alt in self.alternatives:
            for pattern in alt.patterns:
                for cs in (pattern.subject, pattern.object):
                    if self._nodes.get(cs.node_id) is not cs:
                        raise InputError(
                            f"pattern references node {cs.node_id!r} outside the "
                            "query's component sets"
                        )

    @property
    def is_containment(self) -> bool:
        return not self.alternatives

    def node(self, node_id: str) -> ConceptSet:
        return self._nodes[node_id]

    def node_score(self, node_id: str, concept_id: str) -> float:
        return self._nodes[node_id].score(concept_id)

    def distinct_patterns(self) -> list[FactPattern]:
        """Patterns deduplicated across alternatives, in first-seen order."""
        seen: dict[tuple, FactPattern] = {}
        for alt in self.alternatives:
            for pattern in alt.patterns:
                seen.setdefault(pattern.key(), pattern)
        return list(seen.values())

    def with_component_sets(self, replacements: Mapping[str, ConceptSet]) -> "DisjunctiveQuery":
        """Rebuild the query with some component sets swapped out by node_id."""
        new_components = tuple(replacements.get(cs.node_id, cs) for cs in self.components)
        by_id = {cs.node_id: cs for cs in new_components}
        new_alternatives = tuple(
            NarrativeQuery(
                tuple(
                    FactPattern(
                        by_id[p.subject.node_id], p.predicate, by_id[p.object.node_id]
                    )
                    for p in alt.patterns
                )
            )
            for alt in self.alternatives
        )
        return DisjunctiveQuery(new_components, new_alternatives, self.text)


def query_translation_score(query: DisjunctiveQuery) -> float:
    """Minimum over components of each component's best concept score.

    A query is only as well translated as its worst component; a component is
    as good as its best matching concept.
    """
    if not query.components:
        return 0.0
    return min(cs.best_score for cs in query.components)


def with_derived_concepts(
    concept_set: ConceptSet,
    derive: Callable[[ExpandedConcept], Iterable[tuple[str, float]]],
    origin: str,
) -> ConceptSet:
    """Add the ``(concept, score)`` pairs ``derive`` yields for each entry.

    A new concept takes ``origin``. A concept already present keeps its
    origin and is only ever raised, to the maximum score derived for it.
    """
    entries = {e.concept_id: e for e in concept_set.entries()}
    for source in concept_set.entries():
        for concept_id, score in derive(source):
            current = entries.get(concept_id)
            if current is None:
                entries[concept_id] = ExpandedConcept(concept_id, score, origin)
            elif score > current.score:
                entries[concept_id] = ExpandedConcept(concept_id, score, current.origin)
    return ConceptSet(concept_set.node_id, concept_set.label, entries.values())


def with_subclass_alternatives(concept_set: ConceptSet, ontology) -> ConceptSet:
    """Add every concept's subclasses as alternatives inheriting its score."""
    return with_derived_concepts(
        concept_set,
        lambda source: (
            (sub, source.score) for sub in sorted(ontology.subclasses(source.concept_id))
        ),
        "subclass",
    )


def _translated_set(node_id: str, term: str, hits: Sequence[ConceptTranslation]) -> ConceptSet:
    """A query node whose alternatives are a term's vocabulary hits."""
    originals = (ExpandedConcept(h.concept_id, h.translation_score, "original") for h in hits)
    return ConceptSet(node_id, term, originals)


def _normalized(term: str) -> str:
    return " ".join(tokenize(term))


def translate_term_query(
    triples: Sequence[tuple[str, str | None, str]],
    vocabulary: Vocabulary,
    ontology=None,
) -> DisjunctiveQuery:
    """Translate explicit (subject term, predicate, object term) triples.

    The predicate is an interaction label, or ``None``/``"?"`` for a wildcard.
    Identical terms across triples share one query node. Concept sets are
    subclass-expanded when an ontology is supplied.
    """
    if not triples:
        raise InputError("query has no fact patterns")
    sets: dict[str, ConceptSet] = {}
    order: list[ConceptSet] = []
    terms: list[str] = []

    def concept_set_for(term: str) -> ConceptSet:
        node_id = _normalized(term)
        if not node_id:
            raise UntranslatableTermError(f"term {term!r} is empty after normalization")
        if node_id in sets:
            return sets[node_id]
        hits = vocabulary.find_concepts(term)
        if not hits:
            raise UntranslatableTermError(f"term {term!r} matches no known concept")
        concept_set = _translated_set(node_id, term, hits)
        if ontology is not None:
            concept_set = with_subclass_alternatives(concept_set, ontology)
        sets[node_id] = concept_set
        order.append(concept_set)
        terms.append(term)
        return concept_set

    patterns = []
    for subject_term, predicate, object_term in triples:
        subject = concept_set_for(subject_term)
        obj = concept_set_for(object_term)
        if predicate in (None, "?"):
            slot = PredicateSlot.wildcard()
        else:
            slot = PredicateSlot.of(predicate)
        patterns.append(FactPattern(subject, slot, obj))
    return DisjunctiveQuery(
        tuple(order), (NarrativeQuery(patterns),), text=" ".join(terms)
    )


def spanning_trees(k: int) -> list[tuple[tuple[int, int], ...]]:
    """All spanning trees over k labeled nodes, as sorted edge tuples."""
    nodes = range(k)
    all_edges = list(combinations(nodes, 2))
    trees = []
    for selection in combinations(all_edges, k - 1):
        adjacency: dict[int, list[int]] = {}
        for a, b in selection:
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for neighbor in adjacency.get(node, ()):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        if len(seen) == k:
            trees.append(selection)
    return trees


def compile_keyword_topic(
    components: Sequence[tuple[str, str | None]],
    vocabulary: Vocabulary,
) -> DisjunctiveQuery:
    """Compile an ordered list of (term, optional type) topic components.

    With k >= 2 components the result has one alternative per spanning tree
    over the component nodes, every edge a wildcard pattern. A single
    component compiles to a containment query.
    """
    k = len(components)
    if k == 0:
        raise UntranslatableTopicError("topic has no components")
    if k > MAX_TOPIC_COMPONENTS:
        raise UnsupportedArityError(
            f"topic has {k} components, supported maximum is {MAX_TOPIC_COMPONENTS}"
        )
    sets = []
    for i, (term, concept_type) in enumerate(components):
        hits = vocabulary.find_concepts(term, type_filter=concept_type)
        if not hits:
            raise UntranslatableTermError(
                f"component {term!r}"
                + (f" (type {concept_type})" if concept_type else "")
                + " matches no known concept"
            )
        sets.append(_translated_set(f"c{i + 1}", term, hits))
    text = " ".join(term for term, _ in components)
    if k == 1:
        return DisjunctiveQuery((sets[0],), (), text=text)
    alternatives = []
    for tree in spanning_trees(k):
        patterns = tuple(
            FactPattern(sets[i], PredicateSlot.wildcard(), sets[j]) for i, j in tree
        )
        alternatives.append(NarrativeQuery(patterns))
    return DisjunctiveQuery(tuple(sets), tuple(alternatives), text=text)


def compile_freetext_topic(text: str, vocabulary: Vocabulary) -> DisjunctiveQuery:
    """Compile a free-text topic via greedy concept detection.

    Detected spans become topic components; fewer than two detected concepts
    make the topic untranslatable.
    """
    spans = greedy_concept_detection(text, vocabulary)
    if len(spans) < 2:
        raise UntranslatableTopicError(
            f"topic {text!r}: only {len(spans)} concept(s) detected, need at least 2"
        )
    compiled = compile_keyword_topic([(span.text, None) for span in spans], vocabulary)
    return DisjunctiveQuery(compiled.components, compiled.alternatives, text=text)


@dataclass(frozen=True)
class Topic:
    """One benchmark topic: keyword components or a free-text string."""

    topic_id: str
    kind: str  # "keyword" | "freetext"
    components: tuple[tuple[str, str | None], ...] = ()
    text: str = ""


def parse_keyword_components(text: str, where: str) -> tuple[tuple[str, str | None], ...]:
    """Split ``a | b:type | c`` into (term, type) pairs; an unknown suffix stays
    part of the term. ``where`` prefixes the error for an empty component."""
    components = []
    for raw in text.split("|"):
        raw = raw.strip()
        if not raw:
            raise TopicsFormatError(f"{where}: empty component")
        term, _, concept_type = raw.rpartition(":")
        if term and concept_type in CONCEPT_TYPES:
            components.append((term.strip(), concept_type))
        else:
            components.append((raw, None))
    return tuple(components)


def parse_topics_file(source: str | Path) -> list[Topic]:
    """Parse a topics file with one topic per line.

    Formats: ``id <TAB> keyword <TAB> comp1 | comp2:type | ...`` or
    ``id <TAB> freetext <TAB> query string``.
    """
    path = Path(source)
    content = read_input_text(path, "topics", TopicsFormatError)
    topics = []
    seen_ids = set()
    for lineno, line in enumerate(content.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t", 2)
        if len(parts) != 3:
            raise TopicsFormatError(
                f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}"
            )
        topic_id, kind, payload = (p.strip() for p in parts)
        if not topic_id or topic_id in seen_ids:
            raise TopicsFormatError(f"{path}:{lineno}: missing or duplicate topic id")
        if topic_id.split() != [topic_id]:
            raise TopicsFormatError(f"{path}:{lineno}: topic id {topic_id!r} contains whitespace")
        seen_ids.add(topic_id)
        if kind == "freetext":
            topics.append(Topic(topic_id, "freetext", text=payload))
        elif kind == "keyword":
            components = parse_keyword_components(payload, f"{path}:{lineno}")
            topics.append(Topic(topic_id, "keyword", components=components))
        else:
            raise TopicsFormatError(
                f"{path}:{lineno}: unknown topic kind {kind!r} (keyword|freetext)"
            )
    return topics


def compile_topic(topic: Topic, vocabulary: Vocabulary) -> DisjunctiveQuery:
    if topic.kind == "keyword":
        return compile_keyword_topic(list(topic.components), vocabulary)
    return compile_freetext_topic(topic.text, vocabulary)
