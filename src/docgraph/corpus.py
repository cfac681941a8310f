"""Corpus ingestion, documents as statement graphs, and concept statistics.

Documents arrive pre-annotated: concept mentions with character offsets and
(subject, predicate, object) statement extractions with confidence scores,
both kept as plain tuples in their record's field order.
The upstream NLP pipeline that produces these annotations is not part of this
package. Each :class:`Document` is its own graph: one edge per distinct
statement. A :class:`Corpus` owns the concept -> documents table. After
construction it and everything hanging off it (documents, concept table,
stats) is immutable and safe for concurrent readers; only its ranking cache
fills lazily, with values that do not depend on who fills them.

Concept ids, predicates and tokens come from a small shared vocabulary, so
each is interned with ``sys.intern`` as it is read: every document, and the
vocabulary and ontology loaders, hold one object per distinct value, and the
set and dict lookups that compare them meet the same object. Doc ids are not
interned, because each is distinct and would share nothing. On CPython 3.12
an interned string is immortal, so the interned values stay for the life of
the process: one string per distinct value, not one per document.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from pathlib import Path
from sys import intern

from .errors import AbsentConceptError, CorpusFormatError, read_input_text

# A directed labeled edge of a document graph.
Edge = tuple[str, str, str]
# (concept_id, start, end): one occurrence of a concept in the text.
Mention = tuple[str, int, int]
# (subject, predicate, object, confidence, sentence): one extracted statement.
Statement = tuple[str, str, str, float, int]

# Corpus record field names, in tuple order.
MENTION_FIELDS = ("concept_id", "start", "end")
STATEMENT_FIELDS = ("subject", "predicate", "object", "confidence", "sentence")


class Document:
    """A validated, immutable pre-annotated document and its statement graph.

    ``mentions`` holds plain ``(concept_id, start, end)`` tuples, with
    0-based character offsets and exclusive ends; ``extractions`` holds
    plain ``(subject, predicate, object, confidence, sentence)`` tuples.
    Both follow the corpus record's field order. The token list, lowered
    and interned, is only consumed by the BM25 baseline. The graph is
    ``edges``: each distinct (subject, predicate, object) triple maps to the
    maximum confidence over the extractions that state it, filled in
    lexicographic edge order, so every reader iterates the edges in that one
    order. ``coverage`` maps each mentioned concept to the spread of its
    mentions: the distance between its last and first mention starts over
    ``text_length``.
    """

    __slots__ = (
        "doc_id",
        "text_length",
        "tokens",
        "mentions",
        "extractions",
        "concept_counts",
        "max_concept_count",
        "coverage",
        "edges",
    )

    def __init__(
        self,
        doc_id: str,
        text_length: int,
        tokens: Iterable[str],
        mentions: Iterable[Mention],
        extractions: Iterable[Statement],
    ):
        if not isinstance(doc_id, str) or not doc_id:
            raise CorpusFormatError("doc_id must be a non-empty string")
        if doc_id.split() != [doc_id]:
            # A run file line is split on whitespace, so such an id could not be read back.
            raise CorpusFormatError(f"doc_id {doc_id!r} contains whitespace")
        if not isinstance(text_length, int) or isinstance(text_length, bool) or text_length <= 0:
            raise CorpusFormatError(f"text_length must be a positive integer, got {text_length!r}")
        self.doc_id = doc_id
        self.text_length = text_length
        try:
            self.tokens = tuple(map(intern, map(str.lower, tokens)))
        except TypeError:
            raise CorpusFormatError("tokens must all be strings") from None
        self.mentions = tuple(mentions)
        self.extractions = tuple(extractions)

        counts: dict[str, int] = {}
        span: dict[str, tuple[int, int]] = {}
        for concept_id, start, end in self.mentions:
            if not concept_id:
                raise CorpusFormatError("mention with empty concept_id")
            if not (0 <= start < end <= text_length):
                raise CorpusFormatError(
                    f"mention of {concept_id!r} at ({start}, {end}) "
                    f"is outside [0, {text_length}]"
                )
            counts[concept_id] = counts.get(concept_id, 0) + 1
            first, last = span.get(concept_id, (start, start))
            span[concept_id] = (min(first, start), max(last, start))
        self.concept_counts = counts
        self.max_concept_count = max(counts.values()) if counts else 0
        self.coverage = {
            concept: (last - first) / text_length for concept, (first, last) in span.items()
        }

        edges: dict[Edge, float] = {}
        for subject, predicate, obj, confidence, sentence in self.extractions:
            if subject == obj:
                raise CorpusFormatError(
                    f"self-loop statement on {subject!r} is not allowed"
                )
            if not 0.0 <= confidence <= 1.0:
                raise CorpusFormatError(
                    f"statement ({subject}, {predicate}, {obj}) "
                    f"has confidence {confidence!r} outside [0, 1]"
                )
            if sentence < 0:
                raise CorpusFormatError("negative sentence index")
            for concept in (subject, obj):
                if concept not in counts:
                    raise CorpusFormatError(
                        f"statement references unmentioned concept {concept!r}"
                    )
            edge = (subject, predicate, obj)
            best = edges.get(edge)
            if best is None or confidence > best:
                edges[edge] = confidence
        self.edges = dict(sorted(edges.items()))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Document({self.doc_id!r}, {len(self.mentions)} mentions, {len(self.extractions)} statements)"


@dataclass(frozen=True)
class CorpusStats:
    """Corpus-wide concept statistics: document count and document frequency."""

    doc_count: int
    concept_df: Mapping[str, int]


def concept_tf(concept_id: str, doc: Document) -> float:
    """Occurrence count of the concept divided by the document's maximum count."""
    count = doc.concept_counts.get(concept_id)
    if count is None:
        raise AbsentConceptError(
            f"concept {concept_id!r} is not mentioned in document {doc.doc_id!r}"
        )
    return count / doc.max_concept_count


def concept_idf(concept_id: str, stats: CorpusStats) -> float:
    """Natural-log idf; concepts absent from the corpus contribute 0."""
    df = stats.concept_df.get(concept_id)
    if not df or stats.doc_count <= 0:
        return 0.0
    return math.log(stats.doc_count / df)


def concept_coverage(concept_id: str, doc: Document) -> float:
    """Spread of a concept's mentions across the document text, in [0, 1).

    Distance between the last and first mention start offsets, normalized by
    text length. A concept mentioned once has coverage 0.
    """
    try:
        return doc.coverage[concept_id]
    except KeyError:
        raise AbsentConceptError(
            f"concept {concept_id!r} is not mentioned in document {doc.doc_id!r}"
        ) from None


class Corpus:
    """Immutable collection of documents, keyed by doc id, with statistics.

    ``concept_docs`` maps each mentioned concept id to the frozenset of doc
    ids that mention it; ``stats.concept_df`` holds its set sizes.
    ``ranking_cache`` is the one lazily filled part: GraphRank's per-edge rows
    as ``(taxonomy, {doc_id: {edge: row}})`` for one taxonomy at a time, filled
    by ``ranker`` on first read and dropped with the corpus. Concurrent fills
    write identical values.
    """

    def __init__(self, documents: Iterable[Document]):
        self._documents: dict[str, Document] = {}
        concept_docs: dict[str, list[str]] = {}
        for doc in documents:
            if doc.doc_id in self._documents:
                raise CorpusFormatError(f"duplicate doc_id {doc.doc_id!r}")
            self._documents[doc.doc_id] = doc
            for concept in doc.concept_counts:
                concept_docs.setdefault(concept, []).append(doc.doc_id)
        self.concept_docs = {c: frozenset(ids) for c, ids in concept_docs.items()}
        self.stats = CorpusStats(len(self._documents), {c: len(d) for c, d in concept_docs.items()})
        self.ranking_cache: tuple[object, dict[str, dict[Edge, tuple]]] = (None, {})

    @property
    def doc_count(self) -> int:
        return len(self._documents)

    @property
    def doc_ids(self) -> tuple[str, ...]:
        return tuple(self._documents)

    def document(self, doc_id: str) -> Document:
        return self._documents[doc_id]

    def documents(self) -> Iterator[Document]:
        return iter(self._documents.values())


def _require(record: dict, field: str, kind, where: str):
    if field not in record:
        raise CorpusFormatError(f"{where}: missing field {field!r}")
    value = record[field]
    if kind is int and isinstance(value, bool):
        raise CorpusFormatError(f"{where}: field {field!r} must be an integer")
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind):
        raise CorpusFormatError(
            f"{where}: field {field!r} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _require_fields(entry: dict, fields: tuple[str, ...], kinds: tuple, where: str) -> tuple:
    return tuple(_require(entry, field, kind, where) for field, kind in zip(fields, kinds))


def parse_document_record(record: dict, where: str = "<record>") -> Document:
    """Build a validated Document from one decoded JSON object.

    The record and each of its mentions and statements must be a ``dict``.
    An entry whose fields all have their exact types becomes a tuple
    directly; any other goes through ``_require_fields``, which coerces an
    integer confidence to float or names the first bad field. On both paths
    concept ids, subjects, predicates and objects are interned.
    """
    if type(record) is not dict:
        raise CorpusFormatError(f"{where}: record must be a JSON object")
    doc_id = _require(record, "doc_id", str, where)
    text_length = _require(record, "text_length", int, where)
    tokens = _require(record, "tokens", list, where)
    mentions = []
    for m in _require(record, "mentions", list, where):
        if type(m) is not dict:
            raise CorpusFormatError(f"{where}: mention entries must be objects")
        concept_id, start, end = m.get("concept_id"), m.get("start"), m.get("end")
        if not (type(concept_id) is str and type(start) is type(end) is int):
            concept_id, start, end = _require_fields(m, MENTION_FIELDS, (str, int, int), where)
        mentions.append((intern(concept_id), start, end))
    statements = []
    for s in _require(record, "statements", list, where):
        if type(s) is not dict:
            raise CorpusFormatError(f"{where}: statement entries must be objects")
        subject, predicate, obj = s.get("subject"), s.get("predicate"), s.get("object")
        confidence, sentence = s.get("confidence"), s.get("sentence")
        if not (
            type(subject) is type(predicate) is type(obj) is str
            and type(confidence) is float
            and type(sentence) is int
        ):
            subject, predicate, obj, confidence, sentence = _require_fields(
                s, STATEMENT_FIELDS, (str, str, str, float, int), where
            )
        statements.append((intern(subject), intern(predicate), intern(obj), confidence, sentence))
    try:
        return Document(doc_id, text_length, tokens, mentions, statements)
    except CorpusFormatError as exc:
        raise CorpusFormatError(f"{where}: {exc}") from None


def document_to_record(doc: Document) -> dict:
    """Canonical JSON-ready form of a document (inverse of parsing)."""
    return {
        "doc_id": doc.doc_id,
        "text_length": doc.text_length,
        "tokens": list(doc.tokens),
        "mentions": [dict(zip(MENTION_FIELDS, m)) for m in doc.mentions],
        "statements": [dict(zip(STATEMENT_FIELDS, s)) for s in doc.extractions],
    }


def parse_corpus(text: str, path: Path) -> Corpus:
    """Build a Corpus from the text of a line-delimited JSON corpus file.

    The first malformed record, or the second record of a doc id, aborts
    with ``path`` and its line number.
    """
    documents = []
    first_lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"{where}: invalid JSON ({exc.msg})") from None
        doc = parse_document_record(record, where)
        first = first_lines.setdefault(doc.doc_id, lineno)
        if first != lineno:
            raise CorpusFormatError(
                f"{where}: duplicate doc_id {doc.doc_id!r} (first on line {first})"
            )
        documents.append(doc)
    return Corpus(documents)


def ingest_documents(source: str | Path) -> Corpus:
    """Load a line-delimited JSON corpus file into a Corpus."""
    path = Path(source)
    return parse_corpus(read_input_text(path, "corpus", CorpusFormatError), path)
