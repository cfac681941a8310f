"""Query compilation: term triples, keyword topics, free-text topics."""

import random
from itertools import combinations

import pytest

from docgraph.errors import (
    TopicsFormatError,
    UnsupportedArityError,
    UntranslatableTermError,
    UntranslatableTopicError,
)
from docgraph.ontology import Ontology
from docgraph.query import (
    ConceptSet,
    ExpandedConcept,
    compile_freetext_topic,
    compile_keyword_topic,
    compile_topic,
    parse_keyword_components,
    parse_topics_file,
    query_translation_score,
    spanning_trees,
    translate_term_query,
)
from docgraph.vocabulary import ConceptEntry, Vocabulary


@pytest.fixture(scope="module")
def topic_vocabulary():
    return Vocabulary(
        [
            ConceptEntry("MEL", "disease", "", ("melanoma",)),
            ConceptEntry("BRAF", "gene", "", ("braf",)),
            ConceptEntry("BIN", "drug", "", ("binimetinib",)),
            ConceptEntry("KRAS", "gene", "", ("kras",)),
            ConceptEntry("FLU", "disease", "", ("flu",)),
            ConceptEntry("COV", "disease", "", ("coronavirus",)),
        ]
    )


class TestTranslateTermQuery:
    def test_four_alternative_object(self, diabetes_vocabulary):
        query = translate_term_query(
            [("Metformin", "treats", "Diabetes")], diabetes_vocabulary
        )
        assert len(query.alternatives) == 1
        pattern = query.alternatives[0].patterns[0]
        assert pattern.subject.concept_ids() == ("M",)
        assert set(pattern.object.concept_ids()) == {"D", "DM", "DMT1", "DMT2"}
        assert pattern.predicate.labels == frozenset({"treats"})

    def test_unknown_subject_term(self, diabetes_vocabulary):
        with pytest.raises(UntranslatableTermError, match="xyzzy"):
            translate_term_query([("xyzzy", "treats", "diabetes")], diabetes_vocabulary)

    def test_subclass_expansion_adds_alternative(self):
        vocabulary = Vocabulary(
            [
                ConceptEntry("CANCER", "disease", "", ("cancer",)),
                ConceptEntry("DRUG1", "drug", "", ("drugone",)),
            ]
        )
        ontology = Ontology([("OVC", "CANCER")])
        query = translate_term_query(
            [("drugone", "treats", "cancer")], vocabulary, ontology
        )
        obj = query.alternatives[0].patterns[0].object
        assert set(obj.concept_ids()) == {"CANCER", "OVC"}
        # subclasses inherit the source's translation score
        assert obj.score("OVC") == obj.score("CANCER") == 1.0
        assert obj.get("OVC").origin == "subclass"

    def test_repeated_term_shares_node(self, diabetes_vocabulary):
        query = translate_term_query(
            [
                ("Metformin", "treats", "Diabetes"),
                ("Diabetes", None, "Metformin"),
            ],
            diabetes_vocabulary,
        )
        assert len(query.components) == 2
        patterns = query.alternatives[0].patterns
        assert patterns[0].object is patterns[1].subject
        assert patterns[1].predicate.is_wildcard

    def test_wildcard_spellings(self, diabetes_vocabulary):
        query = translate_term_query(
            [("Metformin", "?", "Diabetes")], diabetes_vocabulary
        )
        assert query.alternatives[0].patterns[0].predicate.is_wildcard


class TestCompileKeywordTopic:
    def test_k3_alternative_set(self, topic_vocabulary):
        query = compile_keyword_topic(
            [("melanoma", None), ("braf", None), ("binimetinib", None)],
            topic_vocabulary,
        )
        assert len(query.alternatives) == 3
        shapes = {
            tuple(
                (p.subject.node_id, p.object.node_id) for p in alt.patterns
            )
            for alt in query.alternatives
        }
        assert shapes == {
            (("c1", "c2"), ("c2", "c3")),
            (("c1", "c2"), ("c1", "c3")),
            (("c1", "c3"), ("c2", "c3")),
        }
        assert all(
            p.predicate.is_wildcard for alt in query.alternatives for p in alt.patterns
        )

    def test_k2_single_alternative(self, topic_vocabulary):
        query = compile_keyword_topic(
            [("melanoma", None), ("braf", None)], topic_vocabulary
        )
        assert len(query.alternatives) == 1
        assert len(query.alternatives[0].patterns) == 1

    def test_k4_sixteen_alternatives(self, topic_vocabulary):
        query = compile_keyword_topic(
            [("melanoma", None), ("braf", None), ("binimetinib", None), ("kras", None)],
            topic_vocabulary,
        )
        assert len(query.alternatives) == 16

    def test_arity_cap(self, topic_vocabulary):
        with pytest.raises(UnsupportedArityError):
            compile_keyword_topic(
                [("melanoma", None)] * 5, topic_vocabulary
            )

    def test_untranslatable_component_named(self, topic_vocabulary):
        with pytest.raises(UntranslatableTermError, match="warp drive"):
            compile_keyword_topic(
                [("melanoma", None), ("warp drive", None)], topic_vocabulary
            )

    def test_type_filter_applies(self, topic_vocabulary):
        with pytest.raises(UntranslatableTermError):
            compile_keyword_topic([("melanoma", "drug"), ("braf", None)], topic_vocabulary)

    def test_k1_containment(self, topic_vocabulary):
        query = compile_keyword_topic([("melanoma", None)], topic_vocabulary)
        assert query.is_containment
        assert query.components[0].concept_ids() == ("MEL",)

    def test_alternatives_share_component_sets(self, topic_vocabulary):
        query = compile_keyword_topic(
            [("melanoma", None), ("braf", None), ("binimetinib", None)],
            topic_vocabulary,
        )
        components = set(map(id, query.components))
        for alt in query.alternatives:
            for pattern in alt.patterns:
                assert id(pattern.subject) in components
                assert id(pattern.object) in components


class TestSpanningTrees:
    def brute_force_count(self, k):
        # count connected acyclic edge subsets of size k-1 over the complete graph
        all_edges = list(combinations(range(k), 2))
        count = 0
        for selection in combinations(all_edges, k - 1):
            parent = list(range(k))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            cyclic = False
            for a, b in selection:
                ra, rb = find(a), find(b)
                if ra == rb:
                    cyclic = True
                    break
                parent[ra] = rb
            if not cyclic and len({find(x) for x in range(k)}) == 1:
                count += 1
        return count

    @pytest.mark.parametrize("k,expected", [(2, 1), (3, 3), (4, 16)])
    def test_cayley_counts(self, k, expected):
        trees = spanning_trees(k)
        assert len(trees) == expected == k ** (k - 2)
        assert len(trees) == self.brute_force_count(k)
        assert len(set(trees)) == len(trees)


class TestQueryTranslationScore:
    def make_query(self, score_lists):
        sets = [
            ConceptSet(
                f"n{i}",
                f"n{i}",
                [ExpandedConcept(f"C{i}_{j}", s) for j, s in enumerate(scores)],
            )
            for i, scores in enumerate(score_lists)
        ]
        if len(sets) == 1:
            from docgraph.query import DisjunctiveQuery

            return DisjunctiveQuery(sets, (), text="t")
        from docgraph.query import DisjunctiveQuery, FactPattern, NarrativeQuery, PredicateSlot

        patterns = [
            FactPattern(sets[i], PredicateSlot.wildcard(), sets[i + 1])
            for i in range(len(sets) - 1)
        ]
        return DisjunctiveQuery(sets, (NarrativeQuery(patterns),), text="t")

    def test_min_of_maxes(self):
        query = self.make_query([[1.0], [0.9, 0.4], [0.95]])
        assert query_translation_score(query) == 0.9

    def test_all_perfect(self):
        query = self.make_query([[1.0], [1.0, 0.3]])
        assert query_translation_score(query) == 1.0

    def test_permutation_invariance(self):
        rng = random.Random(17)
        for _ in range(50):
            lists = [
                [round(rng.uniform(0.1, 1.0), 3) for _ in range(rng.randint(1, 4))]
                for _ in range(rng.randint(2, 4))
            ]
            base = query_translation_score(self.make_query(lists))
            rng.shuffle(lists)
            assert query_translation_score(self.make_query(lists)) == base
            assert base == min(max(scores) for scores in lists)


class TestCompileFreetext:
    def test_flu_coronavirus(self, topic_vocabulary):
        query = compile_freetext_topic(
            "differences between flu and coronavirus", topic_vocabulary
        )
        assert len(query.components) == 2
        assert len(query.alternatives) == 1
        assert query.alternatives[0].patterns[0].predicate.is_wildcard
        assert query.text == "differences between flu and coronavirus"

    def test_single_known_concept_untranslatable(self, topic_vocabulary):
        with pytest.raises(UntranslatableTopicError, match="only 1"):
            compile_freetext_topic("school closings during coronavirus", topic_vocabulary)

    def test_substring_only_word_is_skipped(self, fix1_vocabulary):
        # "a" is inside "metformin" and "diabetes mellitus" but is no word of either.
        query = compile_freetext_topic("a metformin for hypertension", fix1_vocabulary)
        assert [sorted(c.concept_ids()) for c in query.components] == [["M"], ["H"]]

    def test_no_known_concepts(self, topic_vocabulary):
        with pytest.raises(UntranslatableTopicError, match="only 0"):
            compile_freetext_topic("zzz qqq www", topic_vocabulary)


class TestTopicsFile:
    def test_parse_and_compile(self, tmp_path, topic_vocabulary):
        path = tmp_path / "topics.tsv"
        path.write_text(
            "T1\tkeyword\tmelanoma:disease | braf:gene\n"
            "T2\tfreetext\tflu and coronavirus\n",
            encoding="utf-8",
        )
        topics = parse_topics_file(path)
        assert [t.topic_id for t in topics] == ["T1", "T2"]
        assert topics[0].components == (("melanoma", "disease"), ("braf", "gene"))
        for topic in topics:
            compiled = compile_topic(topic, topic_vocabulary)
            assert len(compiled.components) == 2

    def test_component_without_type(self, tmp_path):
        path = tmp_path / "topics.tsv"
        path.write_text("T1\tkeyword\tmelanoma | some:thing\n", encoding="utf-8")
        topics = parse_topics_file(path)
        # "some:thing" has no known type suffix; kept verbatim
        assert topics[0].components == (("melanoma", None), ("some:thing", None))

    def test_keyword_components_shared_parser(self):
        assert parse_keyword_components(" melanoma:disease |some:thing| braf ", "x") == (
            ("melanoma", "disease"), ("some:thing", None), ("braf", None)
        )
        with pytest.raises(TopicsFormatError, match="^where:3: empty component$"):
            parse_keyword_components("a |  | b", "where:3")

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "topics.tsv"
        path.write_text("T1\tgraph\tx\n", encoding="utf-8")
        with pytest.raises(TopicsFormatError, match="unknown topic kind"):
            parse_topics_file(path)

    def test_duplicate_topic_id(self, tmp_path):
        path = tmp_path / "topics.tsv"
        path.write_text("T1\tfreetext\ta\nT1\tfreetext\tb\n", encoding="utf-8")
        with pytest.raises(TopicsFormatError, match="duplicate"):
            parse_topics_file(path)
