"""Shared ranking configuration: weights, predicate taxonomy, BM25 params.

File format, one directive per line:

    weights = [0.25, 0.25, 0.25, 0.25]
    k1 = 1.2
    b = 0.75
    treats<TAB>1
    associated<TAB>3

Tab-separated lines map interaction labels to taxonomy levels (1 = most
specific -> 1.0, 2 -> 0.5, 3 -> 0.25). ``#`` starts a comment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .bm25 import BM25Params
from .errors import ConfigFormatError, InputError, read_input_text
from .ranker import PredicateTaxonomy, Weights


@dataclass(frozen=True)
class RankingConfig:
    weights: Weights = field(default_factory=Weights)
    taxonomy: PredicateTaxonomy = field(default_factory=PredicateTaxonomy.default)
    bm25: BM25Params = field(default_factory=BM25Params)


def load_config(source: str | Path) -> RankingConfig:
    path = Path(source)
    text = read_input_text(path, "config", ConfigFormatError)

    weights = None
    k1 = None
    b = None
    levels: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        if "=" in line:
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            try:
                if key == "weights":
                    parsed = json.loads(value)
                    # A JSON number decodes to int or float; true/false decode to bool.
                    if not (
                        type(parsed) is list
                        and len(parsed) == 4
                        and all(type(v) in (int, float) for v in parsed)
                    ):
                        raise ConfigFormatError("weights must be a list of 4 numbers")
                    weights = Weights(*[float(v) for v in parsed])
                elif key == "k1":
                    k1 = float(value)
                elif key == "b":
                    b = float(value)
                else:
                    raise ConfigFormatError(f"unknown setting {key!r}")
            except (ValueError, OverflowError, InputError) as exc:
                raise ConfigFormatError(f"{where}: {exc}") from None
        elif "\t" in line:
            parts = [p.strip() for p in line.split("\t")]
            if len(parts) != 2 or not all(parts):
                raise ConfigFormatError(
                    f"{where}: expected 'predicate<TAB>level', got {raw!r}"
                )
            label, level_text = parts
            try:
                levels[label] = int(level_text)
            except ValueError:
                raise ConfigFormatError(
                    f"{where}: taxonomy level {level_text!r} is not an integer"
                ) from None
        else:
            raise ConfigFormatError(f"{where}: unrecognized directive {raw!r}")

    try:
        taxonomy = (
            PredicateTaxonomy.from_levels(levels) if levels else PredicateTaxonomy.default()
        )
        params = {}
        if k1 is not None:
            params["k1"] = k1
        if b is not None:
            params["b"] = b
        return RankingConfig(
            weights=weights if weights is not None else Weights(),
            taxonomy=taxonomy,
            bm25=BM25Params(**params),
        )
    except InputError as exc:
        raise ConfigFormatError(f"{path}: {exc}") from None
