"""Evaluation harness: qrels, condensing, P@k / recall / nDCG, reports."""

import math
import random

import pytest

from docgraph.errors import InputError, QrelsFormatError
from docgraph.evaluation import (
    Qrels,
    Run,
    condense,
    evaluate,
    load_qrels,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
)

from oracles import oracle_ndcg, oracle_precision, oracle_recall


@pytest.fixture()
def toy_qrels():
    return Qrels({"T1": {"A": 2, "B": 0, "C": 1, "D": 1, "E": 0}})


class TestCondense:
    def test_removes_unjudged(self, toy_qrels):
        kept, removed = condense(["A", "X", "C"], toy_qrels, "T1")
        assert kept == ["A", "C"]
        assert removed == 1

    def test_all_judged_identity(self, toy_qrels):
        kept, removed = condense(["A", "B", "C"], toy_qrels, "T1")
        assert kept == ["A", "B", "C"] and removed == 0

    def test_all_unjudged(self, toy_qrels):
        kept, removed = condense(["X", "Y"], toy_qrels, "T1")
        assert kept == [] and removed == 2

    def test_idempotent(self, toy_qrels):
        once, _ = condense(["A", "X", "C", "Y", "B"], toy_qrels, "T1")
        twice, removed = condense(once, toy_qrels, "T1")
        assert twice == once and removed == 0


class TestPrecision:
    def test_half_relevant(self, toy_qrels):
        docs = ["A", "B", "C", "B2", "D"]
        qrels = Qrels({"T": {"A": 1, "B": 0, "C": 1, "B2": 0, "D": 1, "E": 1, "F": 1}})
        assert precision_at_k(docs + ["E", "F", "X1", "X2", "X3"], qrels, "T", 10) == 0.5

    def test_short_list_divides_by_k(self):
        qrels = Qrels({"T": {f"D{i}": 1 for i in range(5)}})
        docs = [f"D{i}" for i in range(5)]
        assert precision_at_k(docs, qrels, "T", 20) == 0.25

    def test_empty_list(self, toy_qrels):
        assert precision_at_k([], toy_qrels, "T1", 10) == 0.0


class TestRecall:
    def test_partial_recall(self):
        qrels = Qrels({"T": {f"D{i}": 1 for i in range(10)}})
        docs = [f"D{i}" for i in range(8)]
        assert recall_at_k(docs, qrels, "T") == pytest.approx(0.8)

    def test_full_recall(self, toy_qrels):
        assert recall_at_k(["A", "C", "D"], toy_qrels, "T1") == 1.0

    def test_none_retrieved(self, toy_qrels):
        assert recall_at_k([], toy_qrels, "T1") == 0.0

    def test_no_relevant_in_qrels(self):
        qrels = Qrels({"T": {"A": 0}})
        assert recall_at_k(["A"], qrels, "T") == 0.0

    def test_cutoff_applies(self):
        qrels = Qrels({"T": {"A": 1, "B": 1}})
        assert recall_at_k(["X", "A", "B"], qrels, "T", k=2) == 0.5


class TestNdcg:
    def test_hand_example(self):
        qrels = Qrels({"T": {"A": 2, "B": 0, "C": 1}})
        value = ndcg_at_k(["A", "B", "C"], qrels, "T", 3)
        idcg = 2 / math.log2(2) + 1 / math.log2(3)
        assert value == pytest.approx(2.5 / idcg, abs=1e-12)
        assert value == pytest.approx(0.9502344167898356, abs=1e-9)
        assert idcg == pytest.approx(2.6309297535714578, abs=1e-9)

    def test_ideal_ordering_is_one(self):
        qrels = Qrels({"T": {"A": 2, "B": 1, "C": 0}})
        assert ndcg_at_k(["A", "B", "C"], qrels, "T", 10) == 1.0

    def test_all_zero_grades_retrieved(self):
        qrels = Qrels({"T": {"A": 0, "B": 0, "C": 2}})
        assert ndcg_at_k(["A", "B"], qrels, "T", 10) == 0.0

    def test_undefined_without_judgments(self):
        qrels = Qrels({"T": {"A": 1}})
        assert ndcg_at_k(["X"], qrels, "OTHER", 10) is None

    def test_permutations_never_beat_ideal(self):
        rng = random.Random(101)
        for _ in range(100):
            grades = {f"D{i}": rng.randint(0, 2) for i in range(rng.randint(1, 8))}
            qrels = Qrels({"T": grades})
            docs = list(grades)
            rng.shuffle(docs)
            value = ndcg_at_k(docs, qrels, "T", 10)
            assert value is not None and 0.0 <= value <= 1.0

    def test_matches_independent_implementation(self):
        rng = random.Random(103)
        for _ in range(100):
            grades = {f"D{i}": rng.randint(0, 2) for i in range(rng.randint(1, 10))}
            qrels = Qrels({"T": grades})
            docs = rng.sample(list(grades), rng.randint(0, len(grades)))
            k = rng.choice((1, 3, 10))
            got = ndcg_at_k(docs, qrels, "T", k)
            want = oracle_ndcg([grades[d] for d in docs], list(grades.values()), k)
            assert got == pytest.approx(want, abs=1e-12)
            assert precision_at_k(docs, qrels, "T", k) == pytest.approx(
                oracle_precision([grades[d] for d in docs], k)
            )
            total = sum(1 for g in grades.values() if g >= 1)
            assert recall_at_k(docs, qrels, "T", k) == pytest.approx(
                oracle_recall([grades[d] for d in docs], total, k)
            )


class TestRun:
    def test_duplicate_doc_rejected(self):
        run = Run("tag")
        with pytest.raises(InputError, match="duplicate"):
            run.add_topic("T1", [("A", 1.0), ("A", 0.5)])

    def test_increasing_scores_rejected(self):
        run = Run("tag")
        with pytest.raises(InputError, match="increase"):
            run.add_topic("T1", [("A", 0.5), ("B", 0.9)])

    def test_write_format_and_roundtrip(self, tmp_path):
        run = Run("mytag")
        run.add_topic("T1", [("A", 1.5), ("B", 0.25)])
        path = tmp_path / "run.txt"
        run.write(path)
        assert path.read_text() == "T1 Q0 A 1 1.500000 mytag\nT1 Q0 B 2 0.250000 mytag\n"
        loaded = Run.read(path)
        assert loaded.tag == "mytag"
        assert loaded.entries("T1") == (("A", 1.5), ("B", 0.25))

    def test_bad_tag(self):
        with pytest.raises(InputError):
            Run("has space")

    @pytest.mark.parametrize(
        "content, expected",
        [
            ("T1 Q0 A 1 0.5 tag\nT1 Q0 B 2 0.25\n", r"run\.txt:2: expected 'topic Q0 doc rank score tag'"),
            ("T1 Q0 A 1 high tag\n", r"run\.txt:1: score 'high' is not a number"),
            (None, r"cannot read run file .*missing\.txt"),
            ("T1 Q0 A 1 0.5 tag\nT1 Q0 B 1 0.25 tag\n",
             r"run\.txt:2: rank '1' is not 2, the next rank of topic 'T1'"),
            ("T1 Q0 A 1 0.5 tag\nT1 Q0 B 2 0.25 tag\nT1 Q0 C x 0.1 tag\n",
             r"run\.txt:3: rank 'x' is not 3, the next rank of topic 'T1'"),
            ("T1 Q0 A 0 0.5 tag\n", r"run\.txt:1: rank '0' is not 1"),
            ("T1 Q0 A 1.0 0.5 tag\n", r"run\.txt:1: rank '1\.0' is not 1"),
        ],
        ids=["short-line", "non-numeric-score", "missing-file", "repeated-rank",
             "non-integer-rank", "rank-from-zero", "float-rank"],
    )
    def test_read_rejects_bad_input(self, tmp_path, content, expected):
        path = tmp_path / ("missing.txt" if content is None else "run.txt")
        if content is not None:
            path.write_text(content)
        with pytest.raises(InputError, match=expected):
            Run.read(path)

    def test_read_rejects_ranks_that_do_not_count_from_one(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("T1 Q0 D-A 7 1.0 t\nT1 Q0 D-B 7 0.5 t\nT1 Q0 D-C x 0.25 t\n")
        with pytest.raises(InputError) as info:
            Run.read(path)
        assert str(info.value) == f"{path}:1: rank '7' is not 1, the next rank of topic 'T1'"

    def test_read_counts_ranks_per_topic(self, tmp_path):
        run = Run("tag")
        run.add_topic("T1", [(f"D{i}", 1.0 / i) for i in range(1, 12)])
        run.add_topic("T2", [("D1", 0.5)])
        path = tmp_path / "run.txt"
        run.write(path)
        loaded = Run.read(path)
        assert [loaded.doc_ids(t) for t in ("T1", "T2")] == [run.doc_ids("T1"), ["D1"]]
        # Lines of one topic need not be adjacent; ranks count per topic.
        path.write_text("T1 Q0 A 1 0.5 tag\nT2 Q0 A 1 0.5 tag\nT1 Q0 B 2 0.25 tag\n")
        assert Run.read(path).doc_ids("T1") == ["A", "B"]

    def test_read_rejects_mixed_tags(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("T1 Q0 D-A 1 1.0 tagA\nT1 Q0 D-B 2 0.5 tagB\n")
        with pytest.raises(InputError) as info:
            Run.read(path)
        assert str(info.value) == f"{path}:2: run tag 'tagB' differs from 'tagA' on line 1"


class TestEvaluate:
    def test_single_topic_hand_values(self):
        qrels = Qrels({"T1": {"A": 2, "B": 0, "C": 1, "Z": 1}})
        run = Run("t")
        run.add_topic("T1", [("A", 0.9), ("UNJUDGED", 0.8), ("B", 0.7), ("C", 0.6)])
        report = evaluate(run, qrels)
        tm = report.per_topic["T1"]
        assert tm.judged == 3 and tm.unjudged == 1
        assert tm.metrics["p@10"] == pytest.approx(2 / 10)
        assert tm.metrics["recall@1000"] == pytest.approx(2 / 3)
        idcg = 2 / math.log2(2) + 1 / math.log2(3) + 1 / math.log2(4)
        dcg = 2 / math.log2(2) + 1 / math.log2(4)
        assert tm.metrics["ndcg@10"] == pytest.approx(dcg / idcg, abs=1e-12)
        assert report.means["p@10"] == tm.metrics["p@10"]

    def test_identical_topics_mean(self):
        qrels = Qrels({"T1": {"A": 1}, "T2": {"A": 1}})
        run = Run("t")
        run.add_topic("T1", [("A", 1.0)])
        run.add_topic("T2", [("A", 1.0)])
        report = evaluate(run, qrels)
        assert report.means["p@10"] == report.per_topic["T1"].metrics["p@10"]

    def test_zero_evaluable_topics(self):
        qrels = Qrels({"OTHER": {"A": 1}})
        run = Run("t")
        run.add_topic("T1", [("A", 1.0)])
        report = evaluate(run, qrels)
        assert report.per_topic == {}
        assert report.means == {}
        assert report.skipped_topics == ("T1",)
        assert len(report.skipped_topics) + len(report.excluded_topics) == 1

    def test_excluded_topics_carried(self):
        qrels = Qrels({"T1": {"A": 1}})
        run = Run("t")
        run.add_topic("T1", [("A", 1.0)])
        report = evaluate(run, qrels, excluded=[("T9", "untranslatable")])
        assert report.excluded_topics == (("T9", "untranslatable"),)
        assert len(report.skipped_topics) + len(report.excluded_topics) == 1

    def test_metrics_rank_only(self):
        # positive monotone rescaling of scores leaves every metric unchanged
        qrels = Qrels({"T1": {"A": 2, "B": 1, "C": 0}})
        base = Run("a")
        base.add_topic("T1", [("C", 3.0), ("A", 2.0), ("B", 1.0)])
        scaled = Run("b")
        scaled.add_topic("T1", [("C", 300.0), ("A", 200.0), ("B", 100.0)])
        assert evaluate(base, qrels).means == evaluate(scaled, qrels).means

    def test_metrics_in_unit_interval(self):
        rng = random.Random(107)
        for _ in range(50):
            grades = {f"D{i}": rng.randint(0, 2) for i in range(rng.randint(1, 12))}
            qrels = Qrels({"T": grades})
            docs = rng.sample(list(grades), rng.randint(0, len(grades)))
            run = Run("t")
            run.add_topic("T", [(d, float(len(docs) - i)) for i, d in enumerate(docs)])
            report = evaluate(run, qrels)
            for value in report.per_topic["T"].metrics.values():
                assert 0.0 <= value <= 1.0


class TestQrelsLoading:
    def test_load(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("T1 0 A 2\nT1 0 B 0\nT2 0 A 1\n")
        qrels = load_qrels(path)
        assert qrels.grade("T1", "A") == 2
        assert qrels.relevant_count("T1") == 1
        assert qrels.topics() == ("T1", "T2")

    def test_bad_grade(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("T1 0 A x\n")
        with pytest.raises(QrelsFormatError, match="integer"):
            load_qrels(path)

    def test_negative_grade(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("T1 0 A -1\n")
        with pytest.raises(QrelsFormatError, match="negative"):
            load_qrels(path)

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("T1 A 1\n")
        with pytest.raises(QrelsFormatError, match="expected"):
            load_qrels(path)

    def test_repeated_judgment(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("T1 0 D-A 2\nT2 0 D-A 1\nT1 0 D-A 0\n")
        with pytest.raises(QrelsFormatError) as info:
            load_qrels(path)
        assert str(info.value) == (
            f"{path}:3: duplicate judgment for topic 'T1' and document 'D-A' (first on line 1)"
        )
