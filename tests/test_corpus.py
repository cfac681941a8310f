"""Corpus ingestion, document edges, and concept statistics."""

import copy
import json
import math
import random
from pathlib import Path

import pytest

from docgraph.corpus import (
    Corpus,
    CorpusStats,
    Document,
    concept_coverage,
    concept_idf,
    concept_tf,
    document_to_record,
    ingest_documents,
    parse_corpus,
    parse_document_record,
)
from docgraph.errors import AbsentConceptError, CorpusFormatError

from randgen import corpus_from_raw, random_raw_corpus


def make_doc(doc_id="D", length=100, mentions=(), statements=()):
    return Document(
        doc_id,
        length,
        [],
        mentions,
        [(s, p, o, conf, 0) for s, p, o, conf in statements],
    )


class TestIngestion:
    def test_fix1_doc_count(self, fix1_corpus):
        assert fix1_corpus.doc_count == 2
        assert fix1_corpus.doc_ids == ("D-A", "D-B")

    def test_out_of_range_confidence_rejected(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"doc_id": "X", "text_length": 10, "tokens": [], '
            '"mentions": [{"concept_id": "A", "start": 0, "end": 2}, '
            '{"concept_id": "B", "start": 3, "end": 5}], '
            '"statements": [{"subject": "A", "predicate": "treats", '
            '"object": "B", "confidence": 1.3, "sentence": 0}]}\n'
        )
        with pytest.raises(CorpusFormatError, match=r"bad\.jsonl:1.*1\.3"):
            ingest_documents(bad)

    def test_empty_file_gives_empty_corpus(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        corpus = ingest_documents(empty)
        assert corpus.doc_count == 0
        assert corpus.stats.doc_count == 0

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"doc_id": "A"}\nnot json\n')
        with pytest.raises(CorpusFormatError, match=r"broken\.jsonl:1"):
            ingest_documents(path)

    def test_mention_offsets_validated(self):
        with pytest.raises(CorpusFormatError, match="outside"):
            make_doc(mentions=[("A", 50, 120)])
        with pytest.raises(CorpusFormatError, match="outside"):
            make_doc(mentions=[("A", 5, 5)])

    def test_statement_must_reference_mentions(self):
        with pytest.raises(CorpusFormatError, match="unmentioned"):
            make_doc(mentions=[("A", 0, 2)], statements=[("A", "treats", "B", 0.5)])

    def test_self_loop_statement_rejected(self):
        with pytest.raises(CorpusFormatError, match="self-loop"):
            make_doc(mentions=[("A", 0, 2)], statements=[("A", "treats", "A", 0.5)])

    def test_duplicate_doc_id_rejected(self):
        doc = make_doc(mentions=[("A", 0, 2)])
        with pytest.raises(CorpusFormatError, match="duplicate"):
            Corpus([doc, make_doc(mentions=[("A", 0, 2)])])

    def test_duplicate_doc_id_names_both_lines(self, fixtures_dir):
        first = (fixtures_dir / "fix1_corpus.jsonl").read_text().splitlines()[0]
        path = Path("dup.jsonl")
        with pytest.raises(CorpusFormatError) as excinfo:
            parse_corpus(f"{first}\n\n{first}\n", path)
        assert str(excinfo.value) == f"{path}:3: duplicate doc_id 'D-A' (first on line 1)"

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="cannot read"):
            ingest_documents(tmp_path / "nope.jsonl")


def valid_record():
    return {
        "doc_id": "X",
        "text_length": 10,
        "tokens": ["Alpha", "beta"],
        "mentions": [
            {"concept_id": "A", "start": 0, "end": 2},
            {"concept_id": "B", "start": 3, "end": 5},
        ],
        "statements": [
            {"subject": "A", "predicate": "treats", "object": "B",
             "confidence": 0.5, "sentence": 0},
        ],
    }


_DELETE = object()


def _change(*path, to=_DELETE):
    """A mutation that sets the field at ``path`` to ``to``, or deletes it."""
    def mutate(record):
        *parents, last = path
        for key in parents:
            record = record[key]
        if to is _DELETE:
            del record[last]
        else:
            record[last] = to
    return mutate


class TestRecordValidation:
    """One field wrong at a time: each error keeps its exact text and prefix."""

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (_change("doc_id"), "missing field 'doc_id'"),
            (_change("doc_id", to="X\tY"), "doc_id 'X\\tY' contains whitespace"),
            (_change("mentions", 1, "start"), "missing field 'start'"),
            (_change("statements", 0, "confidence"), "missing field 'confidence'"),
            (_change("statements", 0, "sentence"), "missing field 'sentence'"),
            (_change("text_length", to=True), "field 'text_length' must be an integer"),
            (_change("mentions", 0, "end", to=True), "field 'end' must be an integer"),
            (_change("statements", 0, "sentence", to=False), "field 'sentence' must be an integer"),
            (_change("mentions", 0, "start", to="0"), "field 'start' must be int, got str"),
            (_change("mentions", 0, "start", to=0.0), "field 'start' must be int, got float"),
            (_change("mentions", 1, "concept_id", to=7), "field 'concept_id' must be str, got int"),
            (_change("statements", 0, "subject", to=None), "field 'subject' must be str, got NoneType"),
            (_change("statements", 0, "confidence", to="0.5"), "field 'confidence' must be float, got str"),
            (_change("statements", 0, "confidence", to=True), "field 'confidence' must be float, got bool"),
            (_change("tokens", 1, to=3), "tokens must all be strings"),
            (_change("mentions", 1, to=["B", 3, 5]), "mention entries must be objects"),
            (_change("statements", 0, to="A treats B"), "statement entries must be objects"),
            (_change("statements", to={}), "field 'statements' must be list, got dict"),
            (
                _change("statements", 0, "confidence", to=2),
                "statement (A, treats, B) has confidence 2.0 outside [0, 1]",
            ),
        ],
    )
    def test_exact_error_text(self, tmp_path, mutate, message):
        record = valid_record()
        mutate(record)
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(valid_record()) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(CorpusFormatError) as info:
            ingest_documents(path)
        assert str(info.value) == f"{path}:2: {message}"

    def test_record_not_an_object(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(CorpusFormatError) as info:
            ingest_documents(path)
        assert str(info.value) == f"{path}:1: record must be a JSON object"

    @pytest.mark.parametrize("confidence", [0, 1])
    def test_integer_confidence_is_a_float(self, confidence):
        record = valid_record()
        record["statements"][0]["confidence"] = confidence
        ((_, _, _, parsed, _),) = parse_document_record(record).extractions
        assert parsed == confidence
        assert type(parsed) is float

    def test_document_rejects_non_string_token(self):
        with pytest.raises(CorpusFormatError) as info:
            Document("D", 10, ["a", 3], [], [])
        assert str(info.value) == "tokens must all be strings"


# Values of every JSON type, including the non-standard NaN/Infinity literals
# that ``json`` reads and writes by default.
_ODD_VALUES = (
    None, True, False, 0, -1, 7, 2**70, 0.5, -0.0, 1.5,
    float("nan"), float("inf"), float("-inf"), "", "A", "7", [], [1], {}, {"a": 1},
)


def _slots(value):
    """Every (container, key) pair inside a decoded JSON value."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))
    else:
        return []
    slots = []
    for key, child in items:
        slots.append((value, key))
        slots.extend(_slots(child))
    return slots


def _fuzz(rng, record):
    """Apply one random mutation to a decoded record, in place."""
    kind = rng.randrange(4)
    if kind == 0:
        containers = [c for c, k in _slots(record) if isinstance(c, dict)] + [record]
        container = rng.choice(containers)
        if container:
            del container[rng.choice(list(container))]
    elif kind == 1:
        container, key = rng.choice(_slots(record))
        container[key] = copy.deepcopy(rng.choice(_ODD_VALUES))
    elif kind == 2:
        entries = rng.choice([record.get(k) for k in ("tokens", "mentions", "statements")])
        if isinstance(entries, list) and entries:
            entries.append(copy.deepcopy(rng.choice(entries)))
    else:
        numbers = [
            (c, k) for c, k in _slots(record)
            if k in ("text_length", "start", "end", "confidence", "sentence")
        ]
        if numbers:
            container, key = rng.choice(numbers)
            container[key] = rng.choice((float("nan"), float("inf"), float("-inf")))


class TestRecordFuzz:
    def test_mutated_records_parse_or_name_their_line(self):
        rng = random.Random(20241219)
        base = [
            document_to_record(doc)
            for doc in corpus_from_raw(random_raw_corpus(rng, max_docs=30)).documents()
        ]
        path = Path("fuzz.jsonl")
        outcomes = {"parsed": 0, "rejected": 0}
        for _ in range(1500):
            record = copy.deepcopy(rng.choice(base))
            for _ in range(rng.randint(1, 2)):
                _fuzz(rng, record)
            lineno = rng.randint(1, 3)
            text = "\n" * (lineno - 1) + json.dumps(record) + "\n"
            try:
                corpus = parse_corpus(text, path)
            except CorpusFormatError as exc:
                assert str(exc).startswith(f"{path}:{lineno}: "), str(exc)
                outcomes["rejected"] += 1
                continue
            outcomes["parsed"] += 1
            (doc,) = corpus.documents()
            best = {}
            for subject, predicate, obj, confidence, _ in doc.extractions:
                edge = (subject, predicate, obj)
                best[edge] = max(best.get(edge, confidence), confidence)
            assert doc.edges == best
            assert list(doc.edges) == sorted(best)
            again = parse_document_record(document_to_record(doc))
            assert again.edges == doc.edges
            assert list(again.edges) == list(doc.edges)
        assert min(outcomes.values()) > 200, outcomes


class TestDocumentGraph:
    """A document's graph: one edge per distinct triple, at its best confidence."""

    def test_max_confidence_and_support(self, fix1_corpus):
        # Two extractions state this edge.
        assert fix1_corpus.document("D-A").edges[("M", "treats", "DM")] == 0.8

    def test_single_extraction_identity(self, fix1_corpus):
        assert fix1_corpus.document("D-A").edges[("M", "associated", "H")] == 0.4

    def test_no_extractions_empty_graph(self):
        doc = make_doc(mentions=[("A", 0, 2)])
        assert doc.edges == {}

    def test_monotone_in_added_support(self):
        rng = random.Random(7)
        for _ in range(50):
            confs = [round(rng.uniform(0, 1), 3) for _ in range(rng.randint(1, 6))]
            doc = make_doc(
                mentions=[("A", 0, 2), ("B", 5, 8)],
                statements=[("A", "treats", "B", c) for c in confs],
            )
            confidence = doc.edges[("A", "treats", "B")]
            assert confidence == max(confs)
            extra = round(rng.uniform(0, 1), 3)
            doc2 = make_doc(
                mentions=[("A", 0, 2), ("B", 5, 8)],
                statements=[("A", "treats", "B", c) for c in confs + [extra]],
            )
            assert doc2.edges[("A", "treats", "B")] >= confidence


class TestConceptStats:
    def test_tf_fix1(self, fix1_corpus):
        doc = fix1_corpus.document("D-A")
        assert concept_tf("M", doc) == 1.0
        assert concept_tf("H", doc) == 0.5

    def test_tf_all_singletons(self):
        doc = make_doc(mentions=[("A", 0, 2), ("B", 5, 8), ("C", 10, 14)])
        assert all(concept_tf(c, doc) == 1.0 for c in "ABC")

    def test_tf_absent_concept(self, fix1_corpus):
        with pytest.raises(AbsentConceptError):
            concept_tf("ZZZ", fix1_corpus.document("D-A"))

    def test_idf_fix1(self, fix1_corpus):
        assert concept_idf("M", fix1_corpus.stats) == 0.0
        assert concept_idf("H", fix1_corpus.stats) == pytest.approx(math.log(2), abs=1e-12)
        assert concept_idf("NEVER-SEEN", fix1_corpus.stats) == 0.0

    def test_coverage_fix1(self, fix1_corpus):
        doc = fix1_corpus.document("D-A")
        assert concept_coverage("M", doc) == pytest.approx(0.60)
        assert concept_coverage("H", doc) == 0.0

    def test_coverage_extremes(self):
        doc = make_doc(length=100, mentions=[("A", 0, 2), ("A", 99, 100)])
        assert concept_coverage("A", doc) == pytest.approx(99 / 100)

    def test_coverage_absent(self, fix1_corpus):
        with pytest.raises(AbsentConceptError):
            concept_coverage("ZZZ", fix1_corpus.document("D-B"))


class TestProperties:
    def test_tf_bounds_and_maximizer(self):
        rng = random.Random(11)
        for _ in range(40):
            corpus = corpus_from_raw(random_raw_corpus(rng, max_docs=8))
            for doc in corpus.documents():
                tfs = [concept_tf(c, doc) for c in doc.concept_counts]
                assert all(0.0 < tf <= 1.0 for tf in tfs)
                assert any(tf == 1.0 for tf in tfs)

    def test_coverage_bounds_and_monotonicity(self):
        rng = random.Random(12)
        for _ in range(40):
            length = rng.randint(20, 200)
            starts = sorted(rng.sample(range(length - 1), rng.randint(1, 5)))
            doc = make_doc(length=length, mentions=[("A", s, s + 1) for s in starts])
            cov = concept_coverage("A", doc)
            assert 0.0 <= cov < 1.0
            later = rng.randrange(max(starts), length - 1) if max(starts) < length - 1 else max(starts)
            doc2 = make_doc(
                length=length, mentions=[("A", s, s + 1) for s in starts + [later]]
            )
            assert concept_coverage("A", doc2) >= cov

    def test_idf_nonincreasing_in_df(self):
        for n in (1, 2, 5, 20):
            values = [
                concept_idf("c", CorpusStats(doc_count=n, concept_df={"c": df}))
                for df in range(1, n + 1)
            ]
            assert values == sorted(values, reverse=True)
            assert values[-1] == 0.0  # df == doc_count

    def test_rebuild_is_deterministic(self, fixtures_dir):
        a = ingest_documents(fixtures_dir / "fix1_corpus.jsonl")
        b = ingest_documents(fixtures_dir / "fix1_corpus.jsonl")
        assert a.doc_ids == b.doc_ids
        assert a.stats == b.stats
        for doc_id in a.doc_ids:
            assert a.document(doc_id).edges == b.document(doc_id).edges
