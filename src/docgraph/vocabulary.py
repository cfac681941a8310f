"""Term-to-concept resolution with Jaccard translation scores.

Lookup semantics follow containment: a concept is a candidate for a term when
at least one of its synonyms contains every token of the term as a substring,
so "mellitus diabetes" and "diabetes mellitus" resolve identically; it is a
translation only if that synonym also shares a whole token with the term (a
positive Jaccard score), so "diab" translates to nothing. Candidate synonyms
are found through a character-trigram index and verified exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from sys import intern
from typing import Iterable

from .errors import VocabularyFormatError, read_input_text

CONCEPT_TYPES = ("disease", "drug", "gene", "species", "other")

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase tokens split on whitespace and punctuation. 1-char tokens stay."""
    return _TOKEN_RE.findall(text.lower())


def jaccard_similarity(a: str, b: str) -> float:
    """Jaccard similarity of the two strings' token sets; 0.0 if both are empty."""
    return _token_jaccard(frozenset(tokenize(a)), frozenset(tokenize(b)))


def _token_jaccard(ta: frozenset[str], tb: frozenset[str]) -> float:
    if not ta and not tb:
        return 0.0
    return len(ta & tb) / len(ta | tb)


@dataclass(frozen=True)
class ConceptEntry:
    concept_id: str
    concept_type: str
    preferred_label: str
    synonyms: tuple[str, ...]


@dataclass(frozen=True)
class ConceptTranslation:
    """A concept resolved from a user term, with its best-matching synonym."""

    concept_id: str
    translation_score: float
    matched_synonym: str


def _trigrams(text: str) -> set[str]:
    return {text[i : i + 3] for i in range(len(text) - 2)}


class Vocabulary:
    """Immutable synonym index; all lookups are pure."""

    def __init__(self, entries: Iterable[ConceptEntry]):
        self._entries: dict[str, ConceptEntry] = {}
        # Parallel lists over all synonyms: text, token set, owning entry.
        self._syn_text: list[str] = []
        self._syn_tokens: list[frozenset[str]] = []
        self._syn_entry: list[ConceptEntry] = []
        self._trigram_postings: dict[str, set[int]] = {}

        for raw in entries:
            synonyms = tuple(dict.fromkeys(s.strip().lower() for s in raw.synonyms if s.strip()))
            if not synonyms:
                raise VocabularyFormatError(
                    f"concept {raw.concept_id!r} has no synonyms"
                )
            if raw.concept_id in self._entries:
                raise VocabularyFormatError(f"duplicate concept_id {raw.concept_id!r}")
            if raw.concept_type not in CONCEPT_TYPES:
                raise VocabularyFormatError(
                    f"concept {raw.concept_id!r} has unknown type {raw.concept_type!r}"
                )
            entry = ConceptEntry(
                concept_id=raw.concept_id,
                concept_type=raw.concept_type,
                preferred_label=synonyms[0],
                synonyms=synonyms,
            )
            self._entries[entry.concept_id] = entry
            for synonym in synonyms:
                idx = len(self._syn_text)
                self._syn_text.append(synonym)
                self._syn_tokens.append(frozenset(tokenize(synonym)))
                self._syn_entry.append(entry)
                for tri in _trigrams(synonym):
                    self._trigram_postings.setdefault(tri, set()).add(idx)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, concept_id: str) -> bool:
        return concept_id in self._entries

    def entry(self, concept_id: str) -> ConceptEntry:
        return self._entries[concept_id]

    def _synonyms_containing(self, token: str) -> set[int]:
        """Indexes of synonyms containing the token as a substring."""
        if len(token) >= 3:
            candidates: set[int] | None = None
            for tri in _trigrams(token):
                postings = self._trigram_postings.get(tri)
                if not postings:
                    return set()
                candidates = set(postings) if candidates is None else candidates & postings
                if not candidates:
                    return set()
            assert candidates is not None
            return {i for i in candidates if token in self._syn_text[i]}
        # Tokens shorter than a trigram fall back to a scan.
        return {i for i, text in enumerate(self._syn_text) if token in text}

    def find_concepts(
        self, term: str, type_filter: str | None = None
    ) -> list[ConceptTranslation]:
        """Resolve a term to concepts whose synonyms contain all its tokens.

        Each concept is scored by the maximum Jaccard similarity between the
        term and its matching synonyms; a synonym that shares no whole token
        with the term scores 0 and is not a translation. Results are ordered
        by score descending, then concept_id ascending. An empty result is a
        valid outcome; an empty term resolves to nothing.
        """
        tokens = tokenize(term)
        if not tokens:
            return []
        hit_ids: set[int] | None = None
        for token in set(tokens):
            ids = self._synonyms_containing(token)
            hit_ids = ids if hit_ids is None else hit_ids & ids
            if not hit_ids:
                return []
        assert hit_ids is not None
        query_tokens = frozenset(tokens)
        best: dict[str, tuple[float, str]] = {}
        for idx in sorted(hit_ids):
            entry = self._syn_entry[idx]
            if type_filter is not None and entry.concept_type != type_filter:
                continue
            score = _token_jaccard(query_tokens, self._syn_tokens[idx])
            current = best.get(entry.concept_id)
            if score > 0 and (current is None or score > current[0]):
                best[entry.concept_id] = (score, self._syn_text[idx])
        return [
            ConceptTranslation(concept_id, score, synonym)
            for concept_id, (score, synonym) in sorted(
                best.items(), key=lambda item: (-item[1][0], item[0])
            )
        ]


@dataclass(frozen=True)
class DetectedSpan:
    """A token window of free text mapped to its best-scoring concept."""

    start: int
    end: int
    text: str
    translation: ConceptTranslation


def greedy_concept_detection(text: str, vocabulary: Vocabulary) -> list[DetectedSpan]:
    """Greedily map maximal token windows of free text to concepts.

    The whole remaining window is tried first; tokens are dropped from the end
    until a window resolves. If even the leftmost single token resolves to
    nothing, the window advances by one token and the search restarts. Emitted
    spans never overlap and appear left to right.
    """
    tokens = tokenize(text)
    spans: list[DetectedSpan] = []
    start = 0
    while start < len(tokens):
        matched = False
        for end in range(len(tokens), start, -1):
            phrase = " ".join(tokens[start:end])
            hits = vocabulary.find_concepts(phrase)
            if hits:
                spans.append(DetectedSpan(start, end, phrase, hits[0]))
                start = end
                matched = True
                break
        if not matched:
            start += 1
    return spans


def load_vocabulary(source: str | Path) -> Vocabulary:
    """Load a tab-separated vocabulary file.

    Line format: ``concept_id <TAB> concept_type <TAB> synonym1|synonym2|...``
    The first synonym is the preferred label. Concept ids are interned, so
    they are the same objects as a loaded corpus's.
    """
    path = Path(source)
    text = read_input_text(path, "vocabulary", VocabularyFormatError)
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise VocabularyFormatError(
                f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}"
            )
        concept_id, concept_type, synonyms = (p.strip() for p in parts)
        if not concept_id:
            raise VocabularyFormatError(f"{path}:{lineno}: empty concept_id")
        entries.append(
            ConceptEntry(
                concept_id=intern(concept_id),
                concept_type=concept_type,
                preferred_label="",
                synonyms=tuple(synonyms.split("|")),
            )
        )
    try:
        return Vocabulary(entries)
    except VocabularyFormatError as exc:
        raise VocabularyFormatError(f"{path}: {exc}") from None
