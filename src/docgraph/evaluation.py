"""TREC-style evaluation: qrels, condensed lists, P@k / Recall / nDCG.

Unjudged documents are removed from a ranking before any metric is computed
(condensed-list policy). Relevance for P@k and recall means grade >= 1; nDCG
uses linear gain with a log2(rank+1) discount and an ideal list drawn from
all of the topic's judged grades.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import InputError, QrelsFormatError, read_input_text, write_output

METRIC_KEYS = (
    "recall@1000",
    "ndcg@10",
    "ndcg@20",
    "ndcg@100",
    "p@10",
    "p@20",
    "p@100",
)


class Qrels:
    """Graded relevance judgments keyed by (topic, document)."""

    def __init__(self, grades: Mapping[str, Mapping[str, int]]):
        self._grades: dict[str, dict[str, int]] = {}
        for topic_id, docs in grades.items():
            for doc_id, grade in docs.items():
                if not isinstance(grade, int) or grade < 0:
                    raise QrelsFormatError(
                        f"grade for ({topic_id}, {doc_id}) must be a non-negative "
                        f"integer, got {grade!r}"
                    )
            self._grades[topic_id] = dict(docs)

    def topics(self) -> tuple[str, ...]:
        return tuple(self._grades)

    def has_topic(self, topic_id: str) -> bool:
        return topic_id in self._grades

    def judged(self, topic_id: str) -> Mapping[str, int]:
        return self._grades.get(topic_id, {})

    def grade(self, topic_id: str, doc_id: str) -> int | None:
        return self._grades.get(topic_id, {}).get(doc_id)

    def relevant_count(self, topic_id: str) -> int:
        return sum(1 for g in self._grades.get(topic_id, {}).values() if g >= 1)


def load_qrels(source: str | Path) -> Qrels:
    """Load whitespace-separated ``topic_id 0 doc_id grade`` lines, one per (topic, doc)."""
    path = Path(source)
    text = read_input_text(path, "qrels", QrelsFormatError)
    grades: dict[str, dict[str, int]] = {}
    first_lines: dict[tuple[str, str], int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise QrelsFormatError(
                f"{path}:{lineno}: expected 'topic 0 doc grade', got {line!r}"
            )
        topic_id, _, doc_id, grade_text = parts
        try:
            grade = int(grade_text)
        except ValueError:
            raise QrelsFormatError(f"{path}:{lineno}: grade {grade_text!r} is not an integer") from None
        if grade < 0:
            raise QrelsFormatError(f"{path}:{lineno}: negative grade {grade}")
        first = first_lines.setdefault((topic_id, doc_id), lineno)
        if first != lineno:
            raise QrelsFormatError(
                f"{path}:{lineno}: duplicate judgment for topic {topic_id!r} "
                f"and document {doc_id!r} (first on line {first})"
            )
        grades.setdefault(topic_id, {})[doc_id] = grade
    return Qrels(grades)


class Run:
    """Ranked output of one system configuration over a set of topics."""

    def __init__(self, tag: str):
        if not tag or any(ch.isspace() for ch in tag):
            raise InputError(f"run tag {tag!r} must be non-empty without whitespace")
        self.tag = tag
        self._topics: dict[str, tuple[tuple[str, float], ...]] = {}

    def add_topic(self, topic_id: str, entries: Sequence[tuple[str, float]]) -> None:
        if topic_id in self._topics:
            raise InputError(f"duplicate topic {topic_id!r} in run {self.tag!r}")
        seen = set()
        previous = None
        for doc_id, score in entries:
            if doc_id in seen:
                raise InputError(
                    f"duplicate document {doc_id!r} for topic {topic_id!r}"
                )
            seen.add(doc_id)
            if previous is not None and score > previous:
                raise InputError(
                    f"scores for topic {topic_id!r} increase at document {doc_id!r}"
                )
            previous = score
        self._topics[topic_id] = tuple(entries)

    def topics(self) -> tuple[str, ...]:
        return tuple(self._topics)

    def entries(self, topic_id: str) -> tuple[tuple[str, float], ...]:
        return self._topics.get(topic_id, ())

    def doc_ids(self, topic_id: str) -> list[str]:
        return [doc_id for doc_id, _ in self._topics.get(topic_id, ())]

    def write(self, path: str | Path) -> None:
        """Emit ``topic Q0 doc rank score tag`` lines, scores to 6 decimals."""
        lines = []
        for topic_id, entries in self._topics.items():
            for rank, (doc_id, score) in enumerate(entries, start=1):
                lines.append(f"{topic_id} Q0 {doc_id} {rank} {score:.6f} {self.tag}")
        write_output(path, "\n".join(lines) + ("\n" if lines else ""))

    @classmethod
    def read(cls, path: str | Path) -> "Run":
        """Read a run file; every line must carry the first line's tag."""
        text = read_input_text(path, "run")
        grouped: dict[str, list[tuple[str, float]]] = {}
        tag, tag_line = "run", 0
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 6:
                raise InputError(
                    f"{path}:{lineno}: expected 'topic Q0 doc rank score tag', got {line!r}"
                )
            topic_id, _, doc_id, _, score_text, line_tag = parts
            if not tag_line:
                tag, tag_line = line_tag, lineno
            elif line_tag != tag:
                raise InputError(
                    f"{path}:{lineno}: run tag {line_tag!r} differs from {tag!r} on line {tag_line}"
                )
            try:
                score = float(score_text)
            except ValueError:
                raise InputError(f"{path}:{lineno}: score {score_text!r} is not a number") from None
            grouped.setdefault(topic_id, []).append((doc_id, score))
        run = cls(tag)
        for topic_id, entries in grouped.items():
            run.add_topic(topic_id, entries)
        return run


def condense(
    doc_ids: Sequence[str], qrels: Qrels, topic_id: str
) -> tuple[list[str], int]:
    """Drop unjudged documents, preserving order; also report the drop count."""
    judged = qrels.judged(topic_id)
    kept = [doc_id for doc_id in doc_ids if doc_id in judged]
    return kept, len(doc_ids) - len(kept)


def precision_at_k(
    doc_ids: Sequence[str], qrels: Qrels, topic_id: str, k: int
) -> float:
    """Fraction of the top k positions holding a relevant document.

    Lists shorter than k still divide by k, so sparse result lists are
    penalized rather than padded.
    """
    if k <= 0:
        raise InputError(f"k must be positive, got {k}")
    relevant = sum(
        1 for doc_id in doc_ids[:k] if (qrels.grade(topic_id, doc_id) or 0) >= 1
    )
    return relevant / k


def recall_at_k(
    doc_ids: Sequence[str], qrels: Qrels, topic_id: str, k: int = 1000
) -> float:
    """Relevant documents retrieved in the top k over all relevant documents."""
    total = qrels.relevant_count(topic_id)
    if total == 0:
        return 0.0
    found = sum(
        1 for doc_id in doc_ids[:k] if (qrels.grade(topic_id, doc_id) or 0) >= 1
    )
    return found / total


def ndcg_at_k(
    doc_ids: Sequence[str], qrels: Qrels, topic_id: str, k: int
) -> float | None:
    """nDCG with linear gain; None when the topic has no judged documents."""
    judged = qrels.judged(topic_id)
    if not judged:
        return None
    dcg = 0.0
    for rank, doc_id in enumerate(doc_ids[:k], start=1):
        grade = judged.get(doc_id, 0)
        if grade:
            dcg += grade / math.log2(rank + 1)
    ideal = 0.0
    for rank, grade in enumerate(sorted(judged.values(), reverse=True)[:k], start=1):
        if grade:
            ideal += grade / math.log2(rank + 1)
    if ideal == 0.0:
        return 0.0
    return dcg / ideal


@dataclass(frozen=True)
class TopicMetrics:
    metrics: Mapping[str, float]
    judged: int
    unjudged: int


@dataclass
class MetricReport:
    """Per-topic metrics plus arithmetic means over evaluated topics."""

    tag: str
    per_topic: dict[str, TopicMetrics] = field(default_factory=dict)
    means: dict[str, float] = field(default_factory=dict)
    skipped_topics: tuple[str, ...] = ()
    excluded_topics: tuple[tuple[str, str], ...] = ()


def evaluate(
    run: Run,
    qrels: Qrels,
    excluded: Iterable[tuple[str, str]] = (),
) -> MetricReport:
    """Condense and score every topic of a run.

    Topics absent from the qrels are skipped with a warning; topics excluded
    upstream (e.g. translation failures) are carried through for reporting.
    Means cover evaluated topics only.
    """
    report = MetricReport(tag=run.tag, excluded_topics=tuple(excluded))
    skipped = []
    for topic_id in run.topics():
        if not qrels.has_topic(topic_id):
            skipped.append(topic_id)
            continue
        condensed, removed = condense(run.doc_ids(topic_id), qrels, topic_id)
        metrics = {
            "recall@1000": recall_at_k(condensed, qrels, topic_id, 1000),
            "p@10": precision_at_k(condensed, qrels, topic_id, 10),
            "p@20": precision_at_k(condensed, qrels, topic_id, 20),
            "p@100": precision_at_k(condensed, qrels, topic_id, 100),
        }
        for k in (10, 20, 100):
            value = ndcg_at_k(condensed, qrels, topic_id, k)
            metrics[f"ndcg@{k}"] = 0.0 if value is None else value
        report.per_topic[topic_id] = TopicMetrics(
            metrics=metrics, judged=len(condensed), unjudged=removed
        )
    report.skipped_topics = tuple(skipped)
    evaluated = list(report.per_topic.values())
    if evaluated:
        report.means = {
            key: sum(tm.metrics[key] for tm in evaluated) / len(evaluated)
            for key in METRIC_KEYS
        }
    return report
