"""Persisted index directory: the validated documents and a manifest.

``documents.jsonl`` holds one canonical JSON record per document, and
``manifest.json`` records the format version, the document count, and the
byte size and SHA-256 of ``documents.jsonl``. The statement and text indexes
are not stored: rebuilding them from the corpus at load is cheaper than
decoding them. Both files are JSON with sorted keys and compact separators,
so re-indexing identical inputs reproduces byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .bm25 import TextIndex, build_text_index
from .corpus import Corpus, document_to_record, parse_corpus
from .errors import InputError, make_output_dir, write_output
from .matcher import StatementIndex, build_statement_index

FORMAT_VERSION = 2

MANIFEST_FILE = "manifest.json"
DOCUMENTS_FILE = "documents.jsonl"


@dataclass(frozen=True)
class LoadedIndex:
    corpus: Corpus
    statement_index: StatementIndex
    text_index: TextIndex


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def save_index(out_dir: str | Path, corpus: Corpus) -> Path:
    """Write the index directory; returns the manifest path."""
    directory = make_output_dir(out_dir)

    documents = "".join(
        _json(document_to_record(corpus.document(doc_id))) + "\n"
        for doc_id in corpus.doc_ids
    ).encode("utf-8")
    write_output(directory / DOCUMENTS_FILE, documents)

    manifest_path = directory / MANIFEST_FILE
    manifest = {
        "format_version": FORMAT_VERSION,
        "doc_count": corpus.doc_count,
        "documents_bytes": len(documents),
        "documents_sha256": hashlib.sha256(documents).hexdigest(),
    }
    write_output(manifest_path, _json(manifest) + "\n")
    return manifest_path


def load_index(index_dir: str | Path) -> LoadedIndex:
    """Load an index directory, rebuilding the statement and text indexes.

    ``documents.jsonl`` must have the size and SHA-256 that the manifest
    records, so a truncated, edited or half-written index is rejected
    before any record is decoded.
    """
    directory = Path(index_dir)
    manifest_path = directory / MANIFEST_FILE
    if not manifest_path.is_file():
        raise InputError(f"{directory} is not an index directory (no {MANIFEST_FILE})")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read index manifest {manifest_path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise InputError(f"index manifest {manifest_path} is not a JSON object")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise InputError(
            f"index manifest {manifest_path} has format version "
            f"{manifest.get('format_version')!r}, expected {FORMAT_VERSION}; "
            f"re-run 'docgraph index' to rebuild the index"
        )

    path = directory / DOCUMENTS_FILE
    try:
        data = path.read_bytes()
        if (
            len(data) != manifest.get("documents_bytes")
            or hashlib.sha256(data).hexdigest() != manifest.get("documents_sha256")
        ):
            raise InputError(
                f"index file {path} does not match the size and SHA-256 in "
                f"{manifest_path}; re-run 'docgraph index' to rebuild the index"
            )
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read index file {path}: {exc}") from None

    corpus = parse_corpus(text, path)
    if corpus.doc_count != manifest.get("doc_count"):
        raise InputError(
            f"index manifest {manifest_path} records doc_count "
            f"{manifest.get('doc_count')!r}, but {path} holds {corpus.doc_count}"
        )
    return LoadedIndex(
        corpus=corpus,
        statement_index=build_statement_index(corpus),
        text_index=build_text_index(corpus),
    )
