"""CLI commands and index persistence: end-to-end runs on FIX-1."""

import hashlib
import json
import os
import random
import re
from pathlib import Path

import pytest

from docgraph.bm25 import build_text_index
from docgraph.cli import RANKERS, main
from docgraph.corpus import ingest_documents
from docgraph.errors import InputError
from docgraph.evaluation import Run
from docgraph.matcher import build_statement_index
from docgraph.storage import load_index

from randgen import write_benchmark

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fix1_args(*extra, index_dir):
    return [
        "--index", str(index_dir),
        "--vocab", str(FIXTURES / "fix1_vocabulary.tsv"),
        "--config", str(FIXTURES / "ranking.cfg"),
        *extra,
    ]


@pytest.fixture(scope="module")
def fix1_index_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("index") / "ix"
    code = main(
        [
            "index",
            "--corpus", str(FIXTURES / "fix1_corpus.jsonl"),
            "--vocab", str(FIXTURES / "fix1_vocabulary.tsv"),
            "--config", str(FIXTURES / "ranking.cfg"),
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestIndexCommand:
    def test_manifest_contents(self, fix1_index_dir):
        manifest = json.loads((fix1_index_dir / "manifest.json").read_text())
        documents = (fix1_index_dir / "documents.jsonl").read_bytes()
        assert manifest == {
            "doc_count": 2,
            "documents_bytes": len(documents),
            "documents_sha256": hashlib.sha256(documents).hexdigest(),
            "format_version": 2,
        }

    def test_reindex_is_byte_identical(self, fix1_index_dir, tmp_path):
        again = tmp_path / "ix2"
        code = main(
            [
                "index",
                "--corpus", str(FIXTURES / "fix1_corpus.jsonl"),
                "--vocab", str(FIXTURES / "fix1_vocabulary.tsv"),
                "--out", str(again),
            ]
        )
        assert code == 0
        assert sorted(p.name for p in again.iterdir()) == ["documents.jsonl", "manifest.json"]
        for name in ("manifest.json", "documents.jsonl"):
            assert (again / name).read_bytes() == (fix1_index_dir / name).read_bytes()

    def test_missing_vocabulary_is_startup_error(self, tmp_path, capsys):
        code = main(
            [
                "index",
                "--corpus", str(FIXTURES / "fix1_corpus.jsonl"),
                "--vocab", str(tmp_path / "missing.tsv"),
                "--out", str(tmp_path / "ix"),
            ]
        )
        assert code == 1
        assert "cannot read vocabulary" in capsys.readouterr().err

    def test_load_index_rejects_non_index_dir(self, tmp_path):
        from docgraph.errors import InputError

        with pytest.raises(InputError, match="manifest"):
            load_index(tmp_path)

    def test_loaded_index_matches_rebuilt(self, fix1_index_dir):
        loaded = load_index(fix1_index_dir)
        corpus = ingest_documents(FIXTURES / "fix1_corpus.jsonl")
        rebuilt_stmt = build_statement_index(corpus)
        assert loaded.statement_index.pair == rebuilt_stmt.pair
        assert loaded.statement_index.concept_docs == rebuilt_stmt.concept_docs
        rebuilt_text = build_text_index(corpus)
        assert loaded.text_index.postings == rebuilt_text.postings
        assert loaded.text_index.doc_lengths == rebuilt_text.doc_lengths
        assert loaded.text_index.avg_length == rebuilt_text.avg_length
        assert loaded.corpus.doc_ids == corpus.doc_ids
        assert loaded.corpus.stats == corpus.stats


# The command and flag that read each kind of input file. argparse keeps the
# last value of a repeated flag, so appending "flag bad" swaps that file out.
FILE_FLAGS = {
    "corpus": ("index", "--corpus"),
    "vocabulary": ("index", "--vocab"),
    "ontology": ("index", "--ontology"),
    "config": ("index", "--config"),
    "topics": ("evaluate", "--topics"),
    "qrels": ("evaluate", "--qrels"),
    "scope": ("search", "--scope"),
}


@pytest.mark.parametrize("kind", [*FILE_FLAGS, "run"])
def test_non_utf8_input_file_is_input_error(kind, fix1_index_dir, tmp_path, capsys):
    bad = tmp_path / f"bad-{kind}"
    bad.write_bytes(b"D-A\n\xff\n")
    message = f"cannot read {kind} file {bad}: "
    if kind == "run":
        with pytest.raises(InputError, match=re.escape(message)):
            Run.read(bad)
        return
    command, flag = FILE_FLAGS[kind]
    argv = {
        "index": ["--corpus", FIXTURES / "fix1_corpus.jsonl",
                  "--vocab", FIXTURES / "fix1_vocabulary.tsv"],
        "evaluate": [*fix1_args(index_dir=fix1_index_dir),
                     "--topics", FIXTURES / "fix1_topics.tsv",
                     "--qrels", FIXTURES / "fix1_qrels.txt"],
        "search": [*fix1_args(index_dir=fix1_index_dir), "--keywords", "metformin"],
    }[command]
    if command != "search":
        argv += ["--out", tmp_path / "out"]
    assert main([command, *map(str, argv), flag, str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"docgraph: error: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize("cutoff", ["0", "-1"])
@pytest.mark.parametrize("command", ["search", "evaluate"])
def test_bm25_native_cutoff_below_one_exits_one(command, cutoff, fix1_index_dir, tmp_path, capsys):
    argv = [command, *fix1_args(index_dir=fix1_index_dir), "--ranker", "bm25-native",
            f"--cutoff={cutoff}"]
    if command == "search":
        argv += ["--keywords", "metformin | diabetes"]
    else:
        argv += ["--topics", str(FIXTURES / "fix1_topics.tsv"),
                 "--qrels", str(FIXTURES / "fix1_qrels.txt"),
                 "--out", str(tmp_path / "eval")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"docgraph: error: cutoff must be >= 1, got {cutoff}\n"
    assert "hits" not in captured.out


@pytest.mark.parametrize("cutoff", ["0", "-1"])
def test_evaluate_cutoff_below_one_exits_one_when_nothing_is_ranked(
    cutoff, fix1_index_dir, tmp_path, capsys
):
    # The one topic matches no concept, so no topic reaches ranking.
    topics = tmp_path / "topics.tsv"
    topics.write_text("T9\tkeyword\tunheard-of-term\n")
    out = tmp_path / "eval"
    argv = ["evaluate", *fix1_args(index_dir=fix1_index_dir), f"--cutoff={cutoff}",
            "--topics", str(topics), "--qrels", str(FIXTURES / "fix1_qrels.txt"),
            "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"docgraph: error: cutoff must be >= 1, got {cutoff}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["search", "evaluate"])
def test_cutoff_below_one_checked_before_loading(command, tmp_path, capsys):
    argv = [command, *fix1_args(index_dir=tmp_path / "no-index"), "--cutoff=0"]
    if command == "search":
        argv += ["--keywords", "metformin | diabetes"]
    else:
        argv += ["--topics", str(FIXTURES / "fix1_topics.tsv"),
                 "--qrels", str(FIXTURES / "fix1_qrels.txt"),
                 "--out", str(tmp_path / "eval")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "docgraph: error: cutoff must be >= 1, got 0\n"


def test_bad_search_tag_rejected_before_loading(fix1_index_dir, tmp_path, capsys):
    out = tmp_path / "runs"
    argv = ["search", *fix1_args(index_dir=fix1_index_dir), "--keywords", "metformin | diabetes",
            "--tag", "a b", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "docgraph: error: run tag 'a b' must be non-empty without whitespace\n"
    assert captured.out == ""
    assert not out.exists()



def fix1_command(command, index_dir, out):
    """A fix1 ``index``, ``search`` or ``evaluate`` command line writing to ``out``."""
    argv = {
        "index": ["--corpus", FIXTURES / "fix1_corpus.jsonl",
                  "--vocab", FIXTURES / "fix1_vocabulary.tsv"],
        "search": [*fix1_args(index_dir=index_dir), "--keywords", "metformin | diabetes"],
        "evaluate": [*fix1_args(index_dir=index_dir),
                     "--topics", FIXTURES / "fix1_topics.tsv",
                     "--qrels", FIXTURES / "fix1_qrels.txt"],
    }[command]
    return [command, *map(str, argv), "--out", str(out)]


@pytest.mark.parametrize("command", ["index", "search", "evaluate"])
def test_out_on_existing_file_exits_one(command, fix1_index_dir, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main(fix1_command(command, fix1_index_dir, out)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"docgraph: error: cannot create output directory {out}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == ""
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize(
    "command, blocked",
    [
        ("index", "documents.jsonl"),
        ("evaluate", "metrics.json"),
        ("evaluate", "run-full-graphrank.txt"),
    ],
)
def test_unwritable_output_file_exits_one(command, blocked, fix1_index_dir, tmp_path, capsys):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main(fix1_command(command, fix1_index_dir, out)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"docgraph: error: cannot write output file {out / blocked}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == ""


def test_failed_replace_keeps_existing_output(fix1_index_dir, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    (out / "metrics.json").write_bytes(b"earlier metrics\n")
    replace = os.replace

    def failing_replace(src, dst):
        if Path(dst).name == "metrics.json":
            raise OSError("injected failure")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    assert main(fix1_command("evaluate", fix1_index_dir, out)) == 1
    captured = capsys.readouterr()
    metrics = out / "metrics.json"
    assert captured.err == f"docgraph: error: cannot write output file {metrics}: injected failure\n"
    assert metrics.read_bytes() == b"earlier metrics\n"
    assert sorted(p.name for p in out.iterdir()) == [
        "metrics.json", "run-full-graphrank.txt", "run-partial-graphrank.txt",
    ]


def test_duplicate_doc_id_names_file_and_lines(tmp_path, capsys):
    first = (FIXTURES / "fix1_corpus.jsonl").read_text().splitlines()[0]
    corpus = tmp_path / "dup.jsonl"
    corpus.write_text(f"{first}\n{first}\n")
    out = tmp_path / "ix"
    argv = ["index", "--corpus", str(corpus),
            "--vocab", str(FIXTURES / "fix1_vocabulary.tsv"), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"docgraph: error: {corpus}:2: duplicate doc_id 'D-A' (first on line 1)\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["index", "search"])
def test_empty_concept_id_exits_one(command, fix1_index_dir, tmp_path, capsys):
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text((FIXTURES / "fix1_vocabulary.tsv").read_text() + "\tdisease\tdiabetes mellitus\n")
    out = tmp_path / "out"
    assert main([*fix1_command(command, fix1_index_dir, out), "--vocab", str(vocab)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"docgraph: error: {vocab}:4: empty concept_id\n"
    assert captured.out == ""
    assert not out.exists()


class TestSearchCommand:
    def test_triple_query_full_match(self, fix1_index_dir, tmp_path, capsys):
        out = tmp_path / "runs"
        code = main(
            [
                "search",
                *fix1_args(index_dir=fix1_index_dir),
                "--triple", "Metformin|treats|Diabetes",
                "--out", str(out),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "D-A" in output
        assert "(M) -[treats]-> (DM)" in output
        run = Run.read(out / "run-full-graphrank.txt")
        assert run.doc_ids("0") == ["D-A"]

    def test_partial_appends_after_full(self, fix1_index_dir, tmp_path):
        out = tmp_path / "runs"
        code = main(
            [
                "search",
                *fix1_args(index_dir=fix1_index_dir),
                "--triple", "Metformin|?|Diabetes",
                "--triple", "Metformin|?|hypertension",
                "--match", "partial",
                "--out", str(out),
            ]
        )
        assert code == 0
        run = Run.read(out / "run-partial-graphrank.txt")
        assert run.doc_ids("0") == ["D-A", "D-B"]
        scores = [score for _, score in run.entries("0")]
        assert scores[0] >= 1.0 > scores[1]

    def test_ranker_none_sorts_by_doc_id_desc(self, fix1_index_dir, tmp_path):
        out = tmp_path / "runs"
        code = main(
            [
                "search",
                *fix1_args(index_dir=fix1_index_dir),
                "--keywords", "metformin:drug | diabetes:disease",
                "--ranker", "none",
                "--out", str(out),
            ]
        )
        assert code == 0
        run = Run.read(out / "run-full.txt")
        assert run.doc_ids("0") == ["D-B", "D-A"]

    def test_scope_allowlist(self, fix1_index_dir, tmp_path):
        scope = tmp_path / "scope.txt"
        scope.write_text("D-B\n")
        out = tmp_path / "runs"
        code = main(
            [
                "search",
                *fix1_args(index_dir=fix1_index_dir),
                "--scope", str(scope),
                "--triple", "Metformin|?|Diabetes",
                "--triple", "Metformin|?|hypertension",
                "--match", "partial",
                "--out", str(out),
            ]
        )
        assert code == 0
        run = Run.read(out / "run-partial-graphrank.txt")
        assert run.doc_ids("0") == ["D-B"]

    def test_cutoff_truncates(self, fix1_index_dir, tmp_path):
        out = tmp_path / "runs"
        code = main(
            [
                "search",
                *fix1_args(index_dir=fix1_index_dir),
                "--triple", "Metformin|?|Diabetes",
                "--triple", "Metformin|?|hypertension",
                "--match", "partial",
                "--cutoff", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        run = Run.read(out / "run-partial-graphrank.txt")
        assert run.doc_ids("0") == ["D-A"]

    def test_untranslatable_query_exits_nonzero(self, fix1_index_dir, capsys):
        code = main(
            [
                "search",
                *fix1_args(index_dir=fix1_index_dir),
                "--triple", "warpdrive|treats|Diabetes",
            ]
        )
        assert code == 1
        assert "warpdrive" in capsys.readouterr().err

    def test_requires_exactly_one_query_kind(self, fix1_index_dir, capsys):
        code = main(["search", *fix1_args(index_dir=fix1_index_dir)])
        assert code == 1

    def test_expand_ontology_requires_ontology(self, fix1_index_dir, capsys):
        code = main(
            [
                "search",
                *fix1_args(index_dir=fix1_index_dir),
                "--triple", "Metformin|treats|Diabetes",
                "--expand-ontology",
            ]
        )
        assert code == 1

    def test_single_component_containment(self, fix1_index_dir, tmp_path):
        out = tmp_path / "runs"
        code = main(
            [
                "search",
                *fix1_args(index_dir=fix1_index_dir),
                "--keywords", "hypertension",
                "--out", str(out),
            ]
        )
        assert code == 0
        run = Run.read(out / "run-full-graphrank.txt")
        assert run.doc_ids("0") == ["D-A"]

    def test_internal_inconsistency_exits_two(self, fix1_index_dir, monkeypatch, capsys):
        from docgraph import cli
        from docgraph.errors import InconsistencyError

        def boom(*args, **kwargs):
            raise InconsistencyError("synthetic fault")

        monkeypatch.setattr(cli, "assemble_final_ranking", boom)
        code = main(
            [
                "search",
                *fix1_args(index_dir=fix1_index_dir),
                "--triple", "Metformin|treats|Diabetes",
            ]
        )
        assert code == 2
        assert "internal inconsistency" in capsys.readouterr().err

    def test_empty_keyword_component_exits_one(self, fix1_index_dir, capsys):
        code = main(
            [
                "search",
                *fix1_args(index_dir=fix1_index_dir),
                "--keywords", "metformin |  | diabetes",
            ]
        )
        assert code == 1
        assert "--keywords: empty component" in capsys.readouterr().err

    def test_bm25_native(self, fix1_index_dir, tmp_path):
        out = tmp_path / "runs"
        code = main(
            [
                "search",
                *fix1_args(index_dir=fix1_index_dir),
                "--freetext", "metformin diabetes mellitus",
                "--ranker", "bm25-native",
                "--out", str(out),
            ]
        )
        assert code == 0
        run = Run.read(out / "run-bm25-native.txt")
        assert set(run.doc_ids("0")) == {"D-A", "D-B"}


@pytest.mark.parametrize("kind", ["topics", "corpus"])
def test_id_with_whitespace_exits_one(kind, fix1_index_dir, tmp_path, capsys):
    # Run files are split on whitespace, so such an id would be written as a
    # line that Run.read cannot parse ("T 1 Q0 D-A ...").
    bad = tmp_path / f"bad-{kind}"
    if kind == "topics":
        bad.write_text("T 1\tkeyword\tmetformin | diabetes\n")
        argv = ["evaluate", *fix1_args(index_dir=fix1_index_dir), "--topics", str(bad),
                "--qrels", str(FIXTURES / "fix1_qrels.txt")]
        message = f"{bad}:1: topic id 'T 1' contains whitespace"
    else:
        first = (FIXTURES / "fix1_corpus.jsonl").read_text().splitlines()[0]
        bad.write_text(first.replace('"D-A"', '"D A"') + "\n")
        argv = ["index", "--corpus", str(bad), "--vocab", str(FIXTURES / "fix1_vocabulary.tsv")]
        message = f"{bad}:1: doc_id 'D A' contains whitespace"
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"docgraph: error: {message}\n"
    assert not out.exists()


ONTOLOGY_ARGS = ("--ontology", str(FIXTURES / "fix1_ontology.tsv"), "--expand-ontology")
# fix1's topics plus a triangle that D-B matches only partially.
AGREEMENT_TOPICS = (FIXTURES / "fix1_topics.tsv").read_text() + (
    "T3\tkeyword\tmetformin | diabetes | hypertension\n"
)


@pytest.fixture(scope="module")
def expanded_evaluation(fix1_index_dir, tmp_path_factory):
    """The agreement topics evaluated over every ranker and both match modes."""
    root = tmp_path_factory.mktemp("evaluate")
    topics = root / "topics.tsv"
    topics.write_text(AGREEMENT_TOPICS)
    argv = [
        "evaluate",
        *fix1_args(*ONTOLOGY_ARGS, index_dir=fix1_index_dir),
        "--topics", str(topics),
        "--qrels", str(FIXTURES / "fix1_qrels.txt"),
        "--out", str(root / "eval"),
        *[arg for ranker in RANKERS for arg in ("--ranker", ranker)],
    ]
    assert main(argv) == 0
    return root / "eval"


@pytest.mark.parametrize("ranker", RANKERS)
@pytest.mark.parametrize("match", ["full", "partial"])
@pytest.mark.parametrize(
    "topic", [line.split("\t") for line in AGREEMENT_TOPICS.splitlines()], ids=lambda t: t[0]
)
def test_search_agrees_with_evaluate(
    topic, match, ranker, expanded_evaluation, fix1_index_dir, tmp_path
):
    # search ranks one topic exactly as evaluate does; only the topic column differs.
    topic_id, kind, payload = topic
    flag = {"keyword": "--keywords", "freetext": "--freetext"}[kind]
    out = tmp_path / "search"
    argv = ["search", *fix1_args(*ONTOLOGY_ARGS, index_dir=fix1_index_dir),
            "--match", match, "--ranker", ranker, flag, payload, "--out", str(out)]
    assert main(argv) == 0
    (run_file,) = out.iterdir()

    def rows(path, topic_column):
        split = (line.split(" ", 1) for line in path.read_text().splitlines())
        return [rest for column, rest in split if column == topic_column]

    searched = rows(run_file, "0")
    assert searched
    assert searched == rows(expanded_evaluation / run_file.name, topic_id)


class TestEvaluateCommand:
    def evaluate_args(self, fix1_index_dir, out):
        return [
            "evaluate",
            *fix1_args(index_dir=fix1_index_dir),
            "--topics", str(FIXTURES / "fix1_topics.tsv"),
            "--qrels", str(FIXTURES / "fix1_qrels.txt"),
            "--out", str(out),
        ]

    def test_mode_matrix_produces_four_runs(self, fix1_index_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        code = main(
            self.evaluate_args(fix1_index_dir, out)
            + ["--match", "full", "--match", "partial",
               "--ranker", "graphrank", "--ranker", "bm25-rerank"]
        )
        assert code == 0
        runs = sorted(p.name for p in out.glob("run-*.txt"))
        assert runs == [
            "run-full-bm25-rerank.txt",
            "run-full-graphrank.txt",
            "run-partial-bm25-rerank.txt",
            "run-partial-graphrank.txt",
        ]
        table = capsys.readouterr().out
        assert "Full Match + GraphRank" in table
        assert "Partial Match + BM25" in table
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics["modes"]) == {
            "full-graphrank",
            "full-bm25-rerank",
            "partial-graphrank",
            "partial-bm25-rerank",
        }
        # T1's "diabetes" component best-matches "diabetes mellitus" (Jaccard 0.5)
        assert metrics["translation_scores"]["T1"] == 0.5

    @pytest.mark.parametrize(
        "match_modes, calls_per_topic",
        [(["full", "partial"], 2), (["full"], 1)],
        ids=["full+partial", "full-only"],
    )
    def test_each_class_ranked_once(
        self, fix1_index_dir, tmp_path, monkeypatch, match_modes, calls_per_topic
    ):
        # The full class is shared by both match modes, so each ranker scores
        # it once per topic, plus the partial class once: two calls, not three.
        # The partial class is ranked only when a partial mode shows it.
        from docgraph import cli

        calls = {"graph_rank": 0, "bm25_rerank": 0}

        def counted(name):
            real = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(cli, name, counted(name))
        out = tmp_path / "eval"
        code = main(
            self.evaluate_args(fix1_index_dir, out)
            + [arg for mode in match_modes for arg in ("--match", mode)]
            + ["--ranker", "graphrank", "--ranker", "bm25-rerank"]
        )
        assert code == 0
        translated = len(json.loads((out / "metrics.json").read_text())["translation_scores"])
        assert translated == 2
        expected = calls_per_topic * translated
        assert calls == {"graph_rank": expected, "bm25_rerank": expected}

    def test_full_mode_leaves_out_partial_class(self, fix1_index_dir, tmp_path):
        # D-A holds all three edges of the triangle; D-B only metformin-diabetes.
        topics = tmp_path / "topics.tsv"
        topics.write_text("T1\tkeyword\tmetformin | diabetes | hypertension\n")
        out = tmp_path / "eval"
        code = main(
            [
                "evaluate",
                *fix1_args(index_dir=fix1_index_dir),
                "--topics", str(topics),
                "--qrels", str(FIXTURES / "fix1_qrels.txt"),
                "--out", str(out),
                "--ranker", "graphrank", "--ranker", "none",
            ]
        )
        assert code == 0
        for full_tag, partial_tag in (("full-graphrank", "partial-graphrank"), ("full", "partial")):
            full = Run.read(out / f"run-{full_tag}.txt")
            partial = Run.read(out / f"run-{partial_tag}.txt")
            assert full.doc_ids("T1") == ["D-A"]
            assert partial.doc_ids("T1") == ["D-A", "D-B"]
            assert partial.entries("T1")[0] == full.entries("T1")[0]

    def test_empty_topic_component_exits_one(self, fix1_index_dir, tmp_path, capsys):
        topics = tmp_path / "topics.tsv"
        topics.write_text("T1\tkeyword\tmetformin | | diabetes\n")
        code = main(
            [
                "evaluate",
                *fix1_args(index_dir=fix1_index_dir),
                "--topics", str(topics),
                "--qrels", str(FIXTURES / "fix1_qrels.txt"),
                "--out", str(tmp_path / "eval"),
            ]
        )
        assert code == 1
        assert f"{topics}:1: empty component" in capsys.readouterr().err

    def test_hand_verified_metrics(self, fix1_index_dir, tmp_path):
        # T1 (metformin ?any diabetes): D-A and D-B both match fully; D-A's
        # fragment dominates every normalized component, so it ranks first.
        # Both are relevant (grades 2, 1) -> P@10 0.2, recall 1, nDCG 1.
        # T2 (metformin ?any hypertension): only D-A matches; grade 1 -> P@10 0.1.
        out = tmp_path / "eval"
        assert main(self.evaluate_args(fix1_index_dir, out) + ["--match", "full"]) == 0
        run = Run.read(out / "run-full-graphrank.txt")
        assert run.doc_ids("T1") == ["D-A", "D-B"]
        assert run.doc_ids("T2") == ["D-A"]
        metrics = json.loads((out / "metrics.json").read_text())
        per_topic = metrics["modes"]["full-graphrank"]["per_topic"]
        assert per_topic["T1"]["metrics"]["p@10"] == pytest.approx(0.2)
        assert per_topic["T1"]["metrics"]["recall@1000"] == pytest.approx(1.0)
        assert per_topic["T1"]["metrics"]["ndcg@10"] == pytest.approx(1.0)
        assert per_topic["T2"]["metrics"]["p@10"] == pytest.approx(0.1)
        means = metrics["modes"]["full-graphrank"]["means"]
        assert means["p@10"] == pytest.approx(0.15)
        assert means["recall@1000"] == pytest.approx(1.0)

    def test_reruns_byte_identical(self, fix1_index_dir, tmp_path):
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        for out in (out1, out2):
            assert main(self.evaluate_args(fix1_index_dir, out)) == 0
        for path1 in sorted(out1.iterdir()):
            path2 = out2 / path1.name
            assert path1.read_bytes() == path2.read_bytes()

    def test_full_before_partial_in_runs(self, fix1_index_dir, tmp_path):
        out = tmp_path / "eval"
        assert main(self.evaluate_args(fix1_index_dir, out) + ["--match", "partial"]) == 0
        run = Run.read(out / "run-partial-graphrank.txt")
        for topic_id in run.topics():
            scores = [score for _, score in run.entries(topic_id)]
            assert scores == sorted(scores, reverse=True)

    def test_untranslatable_topic_excluded_not_fatal(self, fix1_index_dir, tmp_path, capsys):
        topics = tmp_path / "topics.tsv"
        topics.write_text(
            "T1\tkeyword\tmetformin | diabetes\nTBAD\tkeyword\twarpdrive | diabetes\n"
        )
        out = tmp_path / "eval"
        code = main(
            [
                "evaluate",
                *fix1_args(index_dir=fix1_index_dir),
                "--topics", str(topics),
                "--qrels", str(FIXTURES / "fix1_qrels.txt"),
                "--out", str(out),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "TBAD" in output
        metrics = json.loads((out / "metrics.json").read_text())
        assert ["TBAD", metrics["modes"]["full-graphrank"]["excluded_topics"][0][1]] in [
            list(x) for x in metrics["modes"]["full-graphrank"]["excluded_topics"]
        ]


class TestSyntheticBenchmark:
    def test_small_synthetic_end_to_end(self, tmp_path, capsys):
        rng = random.Random(113)
        paths = write_benchmark(tmp_path / "bench", rng, n_docs=80, n_concepts=25, n_topics=4)
        index_dir = tmp_path / "ix"
        assert main(
            [
                "index",
                "--corpus", str(paths["corpus"]),
                "--vocab", str(paths["vocabulary"]),
                "--out", str(index_dir),
            ]
        ) == 0
        out = tmp_path / "eval"
        code = main(
            [
                "evaluate",
                "--index", str(index_dir),
                "--vocab", str(paths["vocabulary"]),
                "--ontology", str(paths["ontology"]),
                "--config", str(paths["config"]),
                "--topics", str(paths["topics"]),
                "--qrels", str(paths["qrels"]),
                "--expand-ontology",
                "--ranker", "graphrank",
                "--ranker", "bm25-native",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "run-bm25-native.txt").exists()
        assert (out / "run-partial-ontology-graphrank.txt").exists()
        table = capsys.readouterr().out
        assert "Partial Match + Ontology + GraphRank" in table
        metrics = json.loads((out / "metrics.json").read_text())
        for mode in metrics["modes"].values():
            for topic_metrics in mode["per_topic"].values():
                for value in topic_metrics["metrics"].values():
                    assert 0.0 <= value <= 1.0


def index_and_evaluate(paths, corpus, topics, out):
    """Index ``corpus`` and evaluate ``topics`` over it in every mode; returns
    the evaluate output directory."""
    assert main(
        ["index", "--corpus", str(corpus), "--vocab", str(paths["vocabulary"]),
         "--out", str(out / "ix")]
    ) == 0
    assert main(
        ["evaluate", "--index", str(out / "ix"), "--vocab", str(paths["vocabulary"]),
         "--ontology", str(paths["ontology"]), "--config", str(paths["config"]),
         "--topics", str(topics), "--qrels", str(paths["qrels"]), "--expand-ontology",
         "--match", "full", "--match", "partial",
         "--ranker", "graphrank", "--ranker", "bm25-rerank", "--ranker", "bm25-native",
         "--out", str(out / "eval")]
    ) == 0
    return out / "eval"


class TestInputOrder:
    """Rankings and metrics follow from the inputs' content, not their line order."""

    @pytest.fixture(scope="class")
    def bundle(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("order")
        paths = write_benchmark(
            root / "bench", random.Random(907), n_docs=120, n_concepts=20, n_topics=8
        )
        return paths, index_and_evaluate(paths, paths["corpus"], paths["topics"], root / "base")

    def test_shuffled_corpus_lines_give_identical_outputs(self, bundle, tmp_path):
        paths, base = bundle
        lines = paths["corpus"].read_text().splitlines(keepends=True)
        random.Random(5).shuffle(lines)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(lines))
        shuffled = index_and_evaluate(paths, corpus, paths["topics"], tmp_path)
        assert sorted(p.name for p in shuffled.iterdir()) == sorted(p.name for p in base.iterdir())
        for path in base.iterdir():
            assert (shuffled / path.name).read_bytes() == path.read_bytes(), path.name

    def test_reversed_topics_give_the_same_run_lines(self, bundle, tmp_path):
        paths, base = bundle
        topics = tmp_path / "topics.tsv"
        topics.write_text("".join(reversed(paths["topics"].read_text().splitlines(keepends=True))))
        reversed_out = index_and_evaluate(paths, paths["corpus"], topics, tmp_path)
        runs = sorted(p.name for p in base.glob("run-*.txt"))
        assert len(runs) == 5
        for name in runs:
            lines = (base / name).read_text().splitlines()
            assert len(set(line.split()[0] for line in lines)) > 1
            assert sorted((reversed_out / name).read_text().splitlines()) == sorted(lines)
