"""Index directory: checksummed loading, fault injection, and the host's GC state."""

import gc
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from docgraph import cli
from docgraph.cli import main
from docgraph.corpus import ingest_documents
from docgraph.errors import CorpusFormatError, InputError
from docgraph.storage import load_index

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def index_args(out):
    return [
        "index",
        "--corpus", str(FIXTURES / "fix1_corpus.jsonl"),
        "--vocab", str(FIXTURES / "fix1_vocabulary.tsv"),
        "--out", str(out),
    ]


def evaluate_args(index_dir, out, qrels=FIXTURES / "fix1_qrels.txt"):
    return [
        "evaluate",
        "--index", str(index_dir),
        "--vocab", str(FIXTURES / "fix1_vocabulary.tsv"),
        "--config", str(FIXTURES / "ranking.cfg"),
        "--topics", str(FIXTURES / "fix1_topics.tsv"),
        "--qrels", str(qrels),
        "--out", str(out),
    ]


@pytest.fixture(scope="module")
def built_index(tmp_path_factory):
    out = tmp_path_factory.mktemp("index") / "ix"
    assert main(index_args(out)) == 0
    return out


@pytest.fixture
def index_copy(built_index, tmp_path):
    return Path(shutil.copytree(built_index, tmp_path / "ix"))


class TestFaultInjection:
    """A damaged index fails with exit 1 and the file named, never a traceback."""

    def run_evaluate(self, index_dir, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        return subprocess.run(
            [sys.executable, "-m", "docgraph.cli", *evaluate_args(index_dir, tmp_path / "eval")],
            capture_output=True, text=True, env=env, check=False, timeout=120,
        )

    def assert_rejected(self, index_dir, tmp_path, named: Path):
        proc = self.run_evaluate(index_dir, tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert str(named) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "eval").exists()

    def test_intact_index_evaluates(self, index_copy, tmp_path):
        proc = self.run_evaluate(index_copy, tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_truncated_documents(self, index_copy, tmp_path):
        documents = index_copy / "documents.jsonl"
        documents.write_bytes(documents.read_bytes()[: documents.stat().st_size // 2])
        self.assert_rejected(index_copy, tmp_path, documents)

    def test_changed_confidence_digit(self, index_copy, tmp_path):
        documents = index_copy / "documents.jsonl"
        text = documents.read_text()
        match = re.search(r'"confidence":0\.(\d)', text)
        digit = str((int(match.group(1)) + 1) % 10)
        changed = text[: match.start(1)] + digit + text[match.end(1):]
        documents.write_text(changed)
        # Still valid, in range and the same size: only the checksum sees it.
        assert len(changed) == len(text)
        assert ingest_documents(documents).doc_count == 2
        self.assert_rejected(index_copy, tmp_path, documents)

    def test_deleted_documents(self, index_copy, tmp_path):
        documents = index_copy / "documents.jsonl"
        documents.unlink()
        self.assert_rejected(index_copy, tmp_path, documents)

    @pytest.mark.parametrize("garbage", ["{not json", "[2]", ""])
    def test_garbage_manifest(self, index_copy, tmp_path, garbage):
        manifest = index_copy / "manifest.json"
        manifest.write_text(garbage)
        self.assert_rejected(index_copy, tmp_path, manifest)

    def test_format_1_manifest(self, index_copy, tmp_path):
        manifest = index_copy / "manifest.json"
        manifest.write_text(json.dumps({"doc_count": 2, "format_version": 1}))
        self.assert_rejected(index_copy, tmp_path, manifest)
        with pytest.raises(InputError, match="re-run 'docgraph index'"):
            load_index(index_copy)


def gc_state():
    return gc.isenabled(), gc.get_freeze_count()


@pytest.fixture(params=["enabled", "disabled", "frozen"])
def host_gc(request):
    """Set the host process's collector state; restore it after the test."""
    enabled, frozen = gc_state()
    if request.param == "disabled":
        gc.disable()
    else:
        gc.enable()
    if request.param == "frozen" and not frozen:
        gc.freeze()
    try:
        yield
    finally:
        if request.param == "frozen" and not frozen:
            gc.unfreeze()
        (gc.enable if enabled else gc.disable)()


class TestHostGcState:
    """Loading pauses the collector and the CLI freezes its context, but the
    caller's collector settings are the same after each call as before it."""

    def test_ingest_documents(self, host_gc):
        before = gc_state()
        assert ingest_documents(FIXTURES / "fix1_corpus.jsonl").doc_count == 2
        assert gc_state() == before

    def test_ingest_documents_error(self, host_gc, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"doc_id": "A"}\n')
        before = gc_state()
        with pytest.raises(CorpusFormatError):
            ingest_documents(bad)
        assert gc_state() == before

    def test_load_index(self, host_gc, built_index):
        before = gc_state()
        assert load_index(built_index).corpus.doc_count == 2
        assert gc_state() == before

    def test_load_index_error(self, host_gc, index_copy):
        # Raised after the corpus is built, inside the paused block.
        manifest_path = index_copy / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest_path.write_text(json.dumps({**manifest, "doc_count": 3}))
        before = gc_state()
        with pytest.raises(InputError, match="doc_count 3"):
            load_index(index_copy)
        assert gc_state() == before

    def test_cli_evaluate(self, host_gc, built_index, tmp_path):
        before = gc_state()
        assert main(evaluate_args(built_index, tmp_path / "eval")) == 0
        assert gc_state() == before

    def test_cli_evaluate_error_after_load(self, host_gc, built_index, tmp_path):
        before = gc_state()
        code = main(evaluate_args(built_index, tmp_path / "eval", qrels=tmp_path / "none.txt"))
        assert code == 1
        assert gc_state() == before

    def test_cli_freezes_loaded_context(self, built_index, tmp_path, monkeypatch):
        seen = []

        def parse_topics_file(path):
            seen.append(gc.get_freeze_count())
            return original(path)

        original = cli.parse_topics_file
        monkeypatch.setattr(cli, "parse_topics_file", parse_topics_file)
        assert main(evaluate_args(built_index, tmp_path / "eval")) == 0
        assert seen and seen[0] > 0
        assert gc.get_freeze_count() == 0
