"""Exception types shared across the engine, the input-file reader and the
output-directory and output-file writers."""

from pathlib import Path


class DocGraphError(Exception):
    """Base class for every error raised by this package."""


class InputError(DocGraphError):
    """Invalid user-supplied input (files, queries, flags). CLI exit code 1."""


class CorpusFormatError(InputError):
    """Malformed or semantically invalid corpus record."""


class VocabularyFormatError(InputError):
    """Malformed vocabulary file or entry."""


class OntologyFormatError(InputError):
    """Malformed ontology file, including cycles in the parent relation."""


class ConfigFormatError(InputError):
    """Malformed ranking configuration file."""


class TopicsFormatError(InputError):
    """Malformed topics file."""


class QrelsFormatError(InputError):
    """Malformed relevance-judgment file."""


class AbsentConceptError(DocGraphError):
    """A per-document statistic was requested for an unmentioned concept."""


class UntranslatableTermError(InputError):
    """A query term resolves to no concept in the vocabulary."""


class UntranslatableTopicError(InputError):
    """A benchmark topic cannot be compiled into a graph query."""


class UnsupportedArityError(InputError):
    """A keyword topic has more components than the engine supports."""


class MissingSpecificityError(DocGraphError):
    """An edge predicate has no entry in the predicate taxonomy."""


class InconsistencyError(DocGraphError):
    """Internal invariant violation (e.g. full/partial overlap). Exit code 2."""


def read_input_text(path: str | Path, kind: str, error: type[InputError] = InputError) -> str:
    """The UTF-8 text of an input file, or ``error`` naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {kind} file {path}: {exc}") from exc


def make_output_dir(path: str | Path) -> Path:
    """Create an output directory and its parents if missing, or InputError naming it."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {path}: {exc}") from exc
    return Path(path)


def write_output(path: str | Path, data: str | bytes) -> None:
    """Write an output file, text as UTF-8, or InputError naming the file."""
    try:
        Path(path).write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    except OSError as exc:
        raise InputError(f"cannot write output file {path}: {exc}") from exc
