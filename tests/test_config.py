"""Ranking configuration file parsing."""

import re
from pathlib import Path

import pytest

from docgraph.cli import main
from docgraph.config import RankingConfig, load_config
from docgraph.errors import ConfigFormatError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def write(tmp_path, text):
    path = tmp_path / "ranking.cfg"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadConfig:
    def test_fixture_values(self, fix1_config):
        assert fix1_config.weights.as_tuple() == (0.25, 0.25, 0.25, 0.25)
        assert fix1_config.bm25.k1 == 1.2 and fix1_config.bm25.b == 0.75
        assert fix1_config.taxonomy.specificity("treats") == 1.0
        assert fix1_config.taxonomy.specificity("interacts") == 0.5
        assert fix1_config.taxonomy.specificity("associated") == 0.25

    def test_defaults_without_file(self):
        config = RankingConfig()
        assert config.weights.as_tuple() == (0.25, 0.25, 0.25, 0.25)
        assert config.taxonomy.specificity("associated") == 0.25

    def test_custom_weights(self, tmp_path):
        path = write(tmp_path, "weights = [0.4, 0.3, 0.2, 0.1]\ntreats\t1\nassociated\t3\n")
        config = load_config(path)
        assert config.weights.as_tuple() == (0.4, 0.3, 0.2, 0.1)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = write(tmp_path, "# comment\n\nweights = [1.0, 0, 0, 0]  # trailing\n")
        assert load_config(path).weights.confidence == 1.0

    @pytest.mark.parametrize(
        "text, directive",
        [
            ("k1 = 1.2\nk1 = 0.9\n", "setting 'k1'"),
            ("b = 0.75\nk1 = 1.2\nb=0.5\n", "setting 'b'"),
            ("weights = [1, 0, 0, 0]\nweights = [0, 1, 0, 0]\n", "setting 'weights'"),
            ("treats\t1\ntreats\t2\n", "predicate 'treats'"),
        ],
        ids=["k1", "b", "weights", "predicate"],
    )
    def test_repeated_directive_rejected(self, tmp_path, text, directive):
        path = write(tmp_path, text)
        last = text.count("\n")
        message = f"{path}:{last}: duplicate {directive} (first on line 1)"
        with pytest.raises(ConfigFormatError, match=f"^{re.escape(message)}$"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write(tmp_path, "k9 = 1.0\n")
        with pytest.raises(ConfigFormatError, match="unknown setting"):
            load_config(path)

    def test_wrong_weight_arity(self, tmp_path):
        path = write(tmp_path, "weights = [0.5, 0.5]\n")
        with pytest.raises(ConfigFormatError, match="4 numbers"):
            load_config(path)


    @pytest.mark.parametrize(
        "value",
        ["[null, 0.5, 0.25, 0.25]", "[[1], 0, 0, 0]", "[true, false, false, false]",
         '{"a": 1}', "[0.5, 0.5]", '[0.25, 0.25, 0.25, "0.25"]'],
    )
    def test_weights_must_be_four_json_numbers(self, tmp_path, value):
        path = write(tmp_path, f"# weights\nweights = {value}\n")
        with pytest.raises(ConfigFormatError) as info:
            load_config(path)
        assert str(info.value) == f"{path}:2: weights must be a list of 4 numbers"

    def test_oversized_integer_weight_names_the_line(self, tmp_path):
        path = write(tmp_path, "weights = [" + "9" * 400 + ", 0, 0, 0]\n")
        with pytest.raises(ConfigFormatError) as info:
            load_config(path)
        assert str(info.value) == f"{path}:1: int too large to convert to float"

    def test_integer_weights_accepted(self, tmp_path):
        path = write(tmp_path, "weights = [1, 0, 0, 0]\n")
        assert load_config(path).weights.as_tuple() == (1.0, 0.0, 0.0, 0.0)

    def test_unknown_key_message_prefixed_once(self, tmp_path):
        path = write(tmp_path, "k9 = 1.0\n")
        with pytest.raises(ConfigFormatError) as info:
            load_config(path)
        assert str(info.value) == f"{path}:1: unknown setting 'k9'"
    def test_weights_must_sum_to_one(self, tmp_path):
        path = write(tmp_path, "weights = [0.5, 0.5, 0.5, 0.5]\n")
        with pytest.raises(ConfigFormatError, match="sum"):
            load_config(path)

    def test_bad_taxonomy_level(self, tmp_path):
        path = write(tmp_path, "treats\t9\n")
        with pytest.raises(ConfigFormatError, match="level"):
            load_config(path)

    def test_unparseable_line(self, tmp_path):
        path = write(tmp_path, "just words\n")
        with pytest.raises(ConfigFormatError, match="unrecognized"):
            load_config(path)

    def test_bad_bm25_params(self, tmp_path):
        path = write(tmp_path, "k1 = -1\n")
        with pytest.raises(ConfigFormatError):
            load_config(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_k1_rejected(self, tmp_path, capsys, value):
        path = write(tmp_path, f"k1 = {value}\n")
        with pytest.raises(ConfigFormatError) as info:
            load_config(path)
        assert str(info.value) == f"{path}: k1 must be finite and positive, got {value}"
        code = main(
            [
                "index",
                "--corpus", str(FIXTURES / "fix1_corpus.jsonl"),
                "--vocab", str(FIXTURES / "fix1_vocabulary.tsv"),
                "--config", str(path),
                "--out", str(tmp_path / "ix"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"docgraph: error: {path}: k1 must be finite")
        assert "Traceback" not in err
