"""Term translation: tokenization, Jaccard, containment lookup, detection."""

import random
import re

import pytest

from docgraph.errors import VocabularyFormatError
from docgraph.vocabulary import (
    ConceptEntry,
    Vocabulary,
    greedy_concept_detection,
    jaccard_similarity,
    load_vocabulary,
    tokenize,
)


@pytest.fixture(scope="module")
def containment_vocabulary():
    return Vocabulary(
        [
            ConceptEntry("DM", "disease", "", ("diabetes mellitus",)),
            ConceptEntry("DMT2", "disease", "", ("diabetes mellitus type 2",)),
            ConceptEntry("GD", "disease", "", ("gestational diabetes",)),
        ]
    )


class TestTokenize:
    def test_lowercase_and_punctuation_split(self):
        assert tokenize("Diabetes, Mellitus-Type 2!") == ["diabetes", "mellitus", "type", "2"]

    def test_single_char_tokens_kept(self):
        assert tokenize("BRAF V600E x") == ["braf", "v600e", "x"]

    def test_empty(self):
        assert tokenize("  .,;  ") == []


class TestJaccard:
    def test_order_invariance(self):
        assert jaccard_similarity("diabetes mellitus", "mellitus diabetes") == 1.0

    def test_half_overlap(self):
        assert jaccard_similarity("diabetes", "diabetes mellitus") == 0.5

    def test_disjoint(self):
        assert jaccard_similarity("aspirin", "metformin") == 0.0

    def test_both_empty(self):
        assert jaccard_similarity("", "") == 0.0

    def test_properties(self):
        rng = random.Random(3)
        words = ["alpha", "beta", "gamma", "delta", "eps"]
        for _ in range(200):
            a = " ".join(rng.choices(words, k=rng.randint(0, 4)))
            b = " ".join(rng.choices(words, k=rng.randint(0, 4)))
            sab = jaccard_similarity(a, b)
            assert 0.0 <= sab <= 1.0
            assert sab == jaccard_similarity(b, a)
            if tokenize(a):
                assert jaccard_similarity(a, a) == 1.0


class TestLoadVocabulary:
    def test_fixture_size(self, fix1_vocabulary):
        assert len(fix1_vocabulary) == 3
        assert fix1_vocabulary.entry("DM").preferred_label == "diabetes mellitus"

    def test_empty_synonym_list_rejected(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("X\tdrug\t\n")
        with pytest.raises(VocabularyFormatError, match="no synonyms"):
            load_vocabulary(path)

    def test_shared_synonym_keeps_both_concepts(self):
        vocab = Vocabulary(
            [
                ConceptEntry("A", "drug", "", ("aspirin",)),
                ConceptEntry("B", "other", "", ("aspirin",)),
            ]
        )
        assert [t.concept_id for t in vocab.find_concepts("aspirin")] == ["A", "B"]

    def test_duplicate_concept_id_rejected(self):
        with pytest.raises(VocabularyFormatError, match="duplicate"):
            Vocabulary(
                [
                    ConceptEntry("A", "drug", "", ("x",)),
                    ConceptEntry("A", "drug", "", ("y",)),
                ]
            )

    def test_unknown_type_rejected(self):
        with pytest.raises(VocabularyFormatError, match="unknown type"):
            Vocabulary([ConceptEntry("A", "chemical", "", ("x",))])

    def test_empty_concept_id_rejected(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("M\tdrug\tmetformin\n \tdisease\tdiabetes mellitus\n")
        with pytest.raises(VocabularyFormatError, match=f"^{re.escape(str(path))}:2: empty concept_id$"):
            load_vocabulary(path)

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("A\tdrug\n")
        with pytest.raises(VocabularyFormatError, match="3 tab-separated"):
            load_vocabulary(path)


class TestFindConcepts:
    def test_containment_not_prefix(self, containment_vocabulary):
        hits = {t.concept_id: t.translation_score for t in containment_vocabulary.find_concepts("diabetes")}
        assert hits == {"DM": 0.5, "DMT2": 0.25, "GD": 0.5}

    def test_token_order_does_not_matter(self, containment_vocabulary):
        hits = containment_vocabulary.find_concepts("mellitus diabetes")
        assert hits[0].concept_id == "DM"
        assert hits[0].translation_score == 1.0

    def test_unknown_term(self, containment_vocabulary):
        assert containment_vocabulary.find_concepts("zzz-unknown") == []

    def test_empty_term(self, containment_vocabulary):
        assert containment_vocabulary.find_concepts("  ") == []

    def test_ordering_score_desc_then_id(self, containment_vocabulary):
        ids = [t.concept_id for t in containment_vocabulary.find_concepts("diabetes")]
        assert ids == ["DM", "GD", "DMT2"]

    def test_type_filter(self, diabetes_vocabulary):
        all_ids = {t.concept_id for t in diabetes_vocabulary.find_concepts("diabetes")}
        assert all_ids == {"D", "DM", "DMT1", "DMT2"}
        disease_ids = {
            t.concept_id
            for t in diabetes_vocabulary.find_concepts("diabetes", type_filter="disease")
        }
        assert disease_ids == {"DM", "DMT1", "DMT2"}

    def test_matched_synonym_contains_all_tokens(self, containment_vocabulary):
        rng = random.Random(5)
        terms = ["diabetes", "mellitus type", "type 2", "gestational", "diabetes mellitus"]
        for term in terms:
            for hit in containment_vocabulary.find_concepts(term):
                for token in tokenize(term):
                    assert token in hit.matched_synonym
        # permutation invariance over shuffled token orders
        for _ in range(50):
            term = "diabetes mellitus type 2"
            tokens = tokenize(term)
            rng.shuffle(tokens)
            shuffled = " ".join(tokens)
            base = {(t.concept_id, t.translation_score) for t in containment_vocabulary.find_concepts(term)}
            assert base == {
                (t.concept_id, t.translation_score)
                for t in containment_vocabulary.find_concepts(shuffled)
            }

    def test_short_token_path(self, fix1_vocabulary):
        hits = fix1_vocabulary.find_concepts("dm")
        assert [t.concept_id for t in hits] == ["DM"]
        assert hits[0].matched_synonym == "dm"
        assert hits[0].translation_score == 1.0

    def test_substring_without_a_shared_token_is_no_translation(self, fix1_vocabulary):
        # "diab" is inside "diabetes mellitus" but shares no whole token with it.
        assert fix1_vocabulary.find_concepts("diab") == []
        assert [t.concept_id for t in fix1_vocabulary.find_concepts("diabetes")] == ["DM"]

    def test_max_over_matching_synonyms(self):
        vocab = Vocabulary(
            [ConceptEntry("X", "drug", "", ("alpha beta gamma", "alpha"))]
        )
        hits = vocab.find_concepts("alpha")
        assert hits[0].translation_score == 1.0
        assert hits[0].matched_synonym == "alpha"


@pytest.fixture(scope="module")
def covid_vocabulary():
    return Vocabulary(
        [
            ConceptEntry("FLU", "disease", "", ("flu", "influenza")),
            ConceptEntry("COV", "disease", "", ("coronavirus",)),
            ConceptEntry("DM", "disease", "", ("diabetes mellitus",)),
        ]
    )


class TestGreedyDetection:
    def test_flu_coronavirus_detection(self, covid_vocabulary):
        spans = greedy_concept_detection(
            "differences between flu and coronavirus", covid_vocabulary
        )
        assert [(s.text, s.translation.concept_id) for s in spans] == [
            ("flu", "FLU"),
            ("coronavirus", "COV"),
        ]

    def test_empty_text(self, covid_vocabulary):
        assert greedy_concept_detection("", covid_vocabulary) == []

    def test_longest_match_wins(self, covid_vocabulary):
        spans = greedy_concept_detection("diabetes mellitus trial", covid_vocabulary)
        assert [(s.start, s.end) for s in spans] == [(0, 2)]
        assert spans[0].translation.concept_id == "DM"

    def test_spans_ordered_and_disjoint(self, covid_vocabulary):
        spans = greedy_concept_detection(
            "flu diabetes mellitus and coronavirus flu", covid_vocabulary
        )
        for earlier, later in zip(spans, spans[1:]):
            assert earlier.end <= later.start
