import itertools
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from baitline.corpus import Label, NewsArticle
from baitline.features import (
    FEATURE_NAMES,
    HeuristicTagger,
    N_FEATURES,
    POS_TAGS,
    cl_score,
    export_features,
    extract_features,
    feature_matrix,
    fit_standardizer,
    lix,
    pos_counts,
    punctuation_counts,
    question_word_count,
    rix,
    Standardizer,
)
from baitline.features import (
    _ADJ_SUFFIXES,
    _CLOSED_CLASS_LEXICONS,
    _NOUN_SUFFIXES,
    _VERB_SUFFIXES,
)
from baitline.textproc import tokenize
from synthetic import generate_topic_pair_corpus

TWO_SENTENCE = "ana are mere. mihai cumpara portocale delicioase."


class TestReadability:
    def test_lix_hand_computed(self):
        doc = tokenize(TWO_SENTENCE)
        # W=7, S=2, LW=3 (cumpara, portocale, delicioase)
        assert lix(doc) == pytest.approx(7 / 2 + 100 * 3 / 7, abs=1e-12)
        assert lix(doc) == pytest.approx(46.357, abs=1e-3)

    def test_lix_single_short_word(self):
        assert lix(tokenize("a.")) == pytest.approx(1.0)

    def test_lix_errors(self):
        with pytest.raises(ValueError):
            lix(tokenize(""))
        with pytest.raises(ValueError):
            lix(tokenize("..."))  # punctuation only, zero words

    def test_rix_hand_computed(self):
        assert rix(tokenize(TWO_SENTENCE)) == pytest.approx(1.5)

    def test_rix_no_long_words(self):
        assert rix(tokenize("ana are mere.")) == 0.0

    def test_rix_empty(self):
        with pytest.raises(ValueError):
            rix(tokenize(""))

    def test_cl_score_hand_computed(self):
        doc = tokenize(TWO_SENTENCE)
        # 41 letters, 7 words, 2 sentences
        expected = 0.0588 * (4100 / 7) - 0.296 * (200 / 7) - 15.8
        assert cl_score(doc) == pytest.approx(expected, abs=1e-12)
        assert cl_score(doc) == pytest.approx(10.18, abs=1e-2)

    def test_cl_score_hundred_one_letter_words(self):
        doc = tokenize(" ".join(["a"] * 100) + ".")
        assert cl_score(doc) == pytest.approx(0.0588 * 100 - 0.296 * 1 - 15.8, abs=1e-12)
        assert cl_score(doc) == pytest.approx(-10.216, abs=1e-12)

    def test_cl_score_empty(self):
        with pytest.raises(ValueError):
            cl_score(tokenize(""))


class TestQuestionWords:
    def test_single_interrogative(self):
        assert question_word_count(tokenize("cum a slăbit")) == 1

    def test_none(self):
        assert question_word_count(tokenize("ana are mere")) == 0

    def test_multiword_de_ce_counts_once(self):
        assert question_word_count(tokenize("de ce oare")) == 2

    def test_de_alone_not_counted(self):
        assert question_word_count(tokenize("de unde vii")) == 1  # just "unde"

    def test_case_insensitive(self):
        assert question_word_count(tokenize("Cine Unde CUM")) == 3


class TestPunctuationCounts:
    def test_exclamations(self):
        counts = punctuation_counts("Șoc!!!")
        assert counts["!"] == 3
        assert sum(v for k, v in counts.items() if k != "!") == 0

    def test_empty(self):
        assert all(v == 0 for v in punctuation_counts("").values())

    def test_question_marks(self):
        assert punctuation_counts("a? b?")["?"] == 2

    def test_counted_before_stripping(self):
        counts = punctuation_counts('"Exclusiv": marea dezvăluire!')
        assert counts['"'] == 2
        assert counts[":"] == 1
        assert counts["!"] == 1


# Each sentence is tagged as its own doc; expected tags follow the documented
# heuristic rules and were assigned by hand.
HAND_TAGGED = [
    ("Maria are mere.", ["PROPN", "VERB", "NOUN", "PUNCT"]),
    ("ana cumpara paine.", ["NOUN", "NOUN", "NOUN", "PUNCT"]),
    ("El vine la Ana acum.", ["PRON", "VERB", "ADP", "PROPN", "ADV", "PUNCT"]),
    ("noi alergăm la mare!", ["PRON", "VERB", "ADP", "NOUN", "PUNCT"]),
    ("cine vine mâine?", ["PRON", "VERB", "ADV", "PUNCT"]),
    ("Ion și Dan sunt aici.", ["PROPN", "CONJ", "PROPN", "VERB", "ADV", "PUNCT"]),
    ("guvernul lucrează azi.", ["NOUN", "VERB", "ADV", "PUNCT"]),
    ("decizia este frumoasă.", ["NOUN", "VERB", "ADJ", "PUNCT"]),
    ("2024 are 3 schimbări.", ["NUM", "VERB", "NUM", "NOUN", "PUNCT"]),
    ("covid19 este periculos.", ["X", "VERB", "ADJ", "PUNCT"]),
    ('"Vlad muncește", spune Maria.',
     ["PUNCT", "PROPN", "VERB", "PUNCT", "PUNCT", "VERB", "PROPN", "PUNCT"]),
    ("ea citește o carte frumoasă.", ["PRON", "VERB", "DET", "NOUN", "ADJ", "PUNCT"]),
    ("nu va fi bine!", ["ADV", "VERB", "VERB", "ADV", "PUNCT"]),
    ("cum au reușit oare?", ["ADV", "VERB", "NOUN", "ADV", "PUNCT"]),
    ("acolo erau mulți oameni.", ["ADV", "VERB", "DET", "NOUN", "PUNCT"]),
    ("prețul crește din nou.", ["NOUN", "VERB", "ADP", "NOUN", "PUNCT"]),
    ("Bucureștiul are multe parcuri.", ["PROPN", "VERB", "DET", "NOUN", "PUNCT"]),
    ("ministerul vorbește pentru voi.", ["NOUN", "VERB", "ADP", "PRON", "PUNCT"]),
    ("ziarista lucrează la ziar.", ["NOUN", "VERB", "ADP", "NOUN", "PUNCT"]),
    ("Unde ești tu acum?", ["ADV", "VERB", "PRON", "ADV", "PUNCT"]),
]


class TestHeuristicTagger:
    def test_hand_tagged_fixture(self):
        tagger = HeuristicTagger()
        assert len(HAND_TAGGED) == 20
        for sentence, expected in HAND_TAGGED:
            doc = tokenize(sentence)
            got = tagger.tag(doc)
            assert got == expected, f"{sentence!r}: {got} != {expected}"

    def test_sentence_initial_proper_noun_via_absent_lowercase(self):
        tagger = HeuristicTagger()
        hist, common, proper = pos_counts(tokenize("Maria are mere"), tagger)
        assert proper == 1
        assert common >= 1

    def test_sentence_initial_common_with_lowercase_variant_present(self):
        tagger = HeuristicTagger()
        tags = tagger.tag(tokenize("Situația pare grea. situația continuă."))
        assert tags[0] == "NOUN"  # lowercase variant later in the doc

    def test_mixed_case_token_is_a_lowercase_variant(self):
        tagger = HeuristicTagger()
        # "aȘ" and "ǅa" do not start capitalized and lowercase to "aș" and "ǆa"
        assert tagger.tag(tokenize("Aș vine. aȘ pleacă."))[0] == "NOUN"
        assert tagger.tag(tokenize("Ǆa vine. ǅa pleacă."))[0] == "NOUN"
        assert tagger.tag(tokenize("Aș vine. ǅa pleacă."))[0] == "PROPN"
        # "ϒa" lowercases to itself, which is capitalized: no lowercase variant
        assert tagger.tag(tokenize("ϒa vine. ϒa pleacă."))[0] == "PROPN"

    def test_capitalized_non_initial_is_proper(self):
        tagger = HeuristicTagger()
        tags = tagger.tag(tokenize("azi vine Vlad"))
        assert tags[2] == "PROPN"

    def test_empty_doc_all_zeros(self):
        hist, common, proper = pos_counts(tokenize(""), HeuristicTagger())
        assert common == 0 and proper == 0
        assert all(v == 0 for v in hist.values())

    def test_histogram_covers_full_tag_set(self):
        hist, _, _ = pos_counts(tokenize("ana."), HeuristicTagger())
        assert set(hist) == set(POS_TAGS)
        assert len(POS_TAGS) == 12


def article(title="nu vei crede ce a pățit!", content="ana are mere. mere multe."):
    return NewsArticle(id="f1", title=title, content=content,
                       source="alfa", label=Label.CLICKBAIT)


class TestExtractFeatures:
    def test_dimension_and_names(self):
        vec = extract_features(article(), HeuristicTagger())
        assert vec.shape == (N_FEATURES,)
        assert len(FEATURE_NAMES) == N_FEATURES
        assert N_FEATURES == 12 + 1 + 6 + 2 + 3 + 2

    def test_deterministic(self):
        a = article()
        tagger = HeuristicTagger()  # the second call reads the tags the first memoized
        assert np.array_equal(extract_features(a, tagger), extract_features(a, tagger))

    def test_component_composition(self):
        a = article(title="cum? De ce oare!", content=TWO_SENTENCE)
        vec = extract_features(a, HeuristicTagger())
        names = dict(zip(FEATURE_NAMES, vec))
        title_doc = tokenize(a.title)
        assert names["title_question_words"] == question_word_count(title_doc)
        assert names["title_punct_question"] == 1
        assert names["title_punct_exclam"] == 1
        assert names["body_lix"] == pytest.approx(lix(tokenize(a.content)))
        assert names["body_rix"] == pytest.approx(rix(tokenize(a.content)))
        assert names["body_clscore"] == pytest.approx(cl_score(tokenize(a.content)))

    def test_question_free_title_has_zero_slot(self):
        vec = extract_features(article(title="ana are mere"), HeuristicTagger())
        assert dict(zip(FEATURE_NAMES, vec))["title_question_words"] == 0.0

    def test_body_rix_scales_with_repetition(self):
        base = "portocalele delicioase strălucesc frumos."
        a1 = article(content=base)
        a10 = article(content=" ".join([base] * 10))
        rix1 = dict(zip(FEATURE_NAMES, extract_features(a1, HeuristicTagger())))["body_rix"]
        rix10 = dict(zip(FEATURE_NAMES, extract_features(a10, HeuristicTagger())))["body_rix"]
        # long words per sentence stays constant under repetition
        assert rix10 == pytest.approx(rix1)
        # hand count: portocalele(11), delicioase(10), strălucesc(10) -> 3 long words
        assert rix1 == pytest.approx(3.0)

    def test_counts_non_negative_and_finite(self):
        corpus = generate_topic_pair_corpus(30, seed=8)
        matrix = feature_matrix(corpus.articles)
        assert np.all(np.isfinite(matrix))
        count_cols = [i for i, name in enumerate(FEATURE_NAMES)
                      if name.startswith(("title_pos_", "title_punct_", "title_question",
                                          "common_", "proper_"))]
        assert np.all(matrix[:, count_cols] >= 0)
        assert np.allclose(matrix[:, count_cols], np.round(matrix[:, count_cols]))

    def test_noun_counts_cover_title_and_content(self):
        a = article(title="Maria are mere", content="ana cumpara paine.")
        names = dict(zip(FEATURE_NAMES, extract_features(a, HeuristicTagger())))
        # title: mere; content: ana, cumpara, paine
        assert names["common_nouns"] == 4.0
        assert names["proper_nouns"] == 1.0


# Words for drawn articles: diacritics, closed-class entries, suffix-rule
# words, digits, letter-digit mixtures, non-Latin letters, tokens that are
# not words ("½", "_") or are digit words ("²", "³¹"), and tokens whose case
# mapping is unusual: mixed-case tokens that do not start capitalized ("aȘ",
# "ǅa"), titlecase ǅ, final sigma ("aΣ" lowercases to "aς"), İ, which
# lowercases to two characters, and ϒ, an uppercase letter with no lowercase.
LETTER_WORDS = ["ana", "situația", "ce", "de", "cine", "în", "frumoasă", "lucrează",
                "ștefan", "țară", "mâine", "oraș", "esc", "tor", "os", "Ωμέγα", "жена", "字",
                "aș", "aς", "ǆa", "ϒa"]
OTHER_WORDS = ["2024", "x2", "½", "²", "³¹", "a_b", "_", "covid19", "4b", "a½", "b²c", "ж7",
               "aȘ", "aΣ", "ǅa", "aǅ", "İa", "i̇a"]
word = st.sampled_from(LETTER_WORDS + OTHER_WORDS) | st.text(
    alphabet="aăâîșțbcdeÎȘȚ0123½²³¹_αΩжЖ字ǅΣςİ", min_size=1, max_size=8)


def cased(words):
    return st.tuples(words, st.booleans()).map(lambda wc: wc[0].capitalize() if wc[1] else wc[0])


# Every sentence has a letter word, after an optional non-word opener, so
# every text has a word token; words repeat across sentences, so a capitalized
# word shows up both sentence-initial and inside a sentence, with and without
# its lowercase form nearby.
sentence = st.builds(
    lambda opener, first, rest, end: opener + " ".join([first, *rest]) + end,
    st.sampled_from(["", '"', "- ", "½ "]),
    cased(st.sampled_from(LETTER_WORDS)),
    st.lists(cased(word), max_size=8),
    st.sampled_from(["", ".", "!", "?", "?!", " .", ":"]),
)
text = st.lists(sentence, min_size=1, max_size=5).map(" ".join)

# Spellings of a few words, tried in every pair below, so that a capitalized
# sentence opener meets each lowercase variant of itself and each near miss.
CASE_VARIANTS = ["aș", "aȘ", "Aș", "AȘ", "ǆa", "ǅa", "Ǆa", "aς", "aΣ", "Aς", "ΑΣ", "ϒa",
                 "i̇a", "İa", "aȘ½", "Aș½", "ana", "Ana", "Ce", "ce"]


def reference_tags(doc):
    """The tagger's rules applied token by token, with no memo."""
    def is_word(token):
        return any(c.isalpha() or c.isdigit() for c in token)

    def closed_class(lower):
        for tag, words in _CLOSED_CLASS_LEXICONS:  # rule order: the first listing wins
            if lower in words:
                return tag
        return None

    def lexical(lower):
        closed = closed_class(lower)
        if closed is not None:
            return closed, True
        for tag, suffixes in (("VERB", _VERB_SUFFIXES), ("NOUN", _NOUN_SUFFIXES),
                              ("ADJ", _ADJ_SUFFIXES)):
            if any(lower.endswith(s) and len(lower) > len(s) for s in suffixes):
                return tag, False
        return "NOUN", False

    initial, start = set(), 0
    for end in doc.sentence_boundaries:
        words = [i for i in range(start, end) if is_word(doc.tokens[i])]
        initial.update(words[:1])
        start = end
    lower_forms = {t.lower() for t in doc.tokens if not t[0].isupper()}
    tags = []
    for i, token in enumerate(doc.tokens):
        if not is_word(token):
            tags.append("PUNCT")
        elif token.isdigit():
            tags.append("NUM")
        elif any(c.isdigit() for c in token):
            tags.append("X")
        elif not token[0].isupper():
            tags.append(lexical(token.lower())[0])
        else:
            tag, closed = lexical(token.lower())
            explained = closed or token.lower() in lower_forms
            tags.append(tag if i in initial and explained else "PROPN")
    return tags


def reference_word_stats(doc):
    words = [t for t in doc.tokens if any(c.isalpha() or c.isdigit() for c in t)]
    letters = [sum(c.isalpha() for c in w) for w in words]
    return len(words), sum(n > 6 for n in letters), sum(letters)


def rows_with_fresh_taggers(articles):
    return np.stack([extract_features(a, HeuristicTagger()) for a in articles])


class TestFeatureMatrixMemo:
    @given(st.lists(st.tuples(text, text), min_size=1, max_size=4))
    def test_equals_fresh_tagger_per_article(self, texts):
        articles = [NewsArticle(id=f"a{i}", title=title, content=content,
                                source="alfa", label=Label.CLICKBAIT)
                    for i, (title, content) in enumerate(texts)]
        matrix = feature_matrix(articles)
        assert matrix.tobytes() == rows_with_fresh_taggers(articles).tobytes()

    @given(st.lists(text, min_size=1, max_size=4))
    def test_tags_and_readability_follow_reference_rules(self, texts):
        tagger = HeuristicTagger()  # one instance, so its memo is in play
        for doc in map(tokenize, texts):
            tags = tagger.tag(doc)
            assert len(tags) == len(doc.tokens) and set(tags) <= set(POS_TAGS)
            assert tags == reference_tags(doc)
            n_words, n_long, n_letters = reference_word_stats(doc)
            n_sentences = doc.n_sentences
            assert lix(doc) == n_words / n_sentences + 100.0 * n_long / n_words
            assert rix(doc) == n_long / n_sentences
            assert cl_score(doc) == (0.0588 * (100.0 * n_letters / n_words)
                                     - 0.296 * (100.0 * n_sentences / n_words) - 15.8)

    def test_case_variant_pairs_follow_reference_rules(self):
        tagger = HeuristicTagger()  # one instance, so its memo is in play
        for opener, other in itertools.product(CASE_VARIANTS, repeat=2):
            # each word opens one sentence, after punctuation in the second
            doc = tokenize(f"{opener} {other}. - {other} {opener}.")
            assert tagger.tag(doc) == reference_tags(doc), (opener, other)

    def test_capitalized_tag_does_not_leak_across_articles(self):
        # "Zorel" opens a sentence in both articles; only the second also has
        # "zorel", so it is a proper noun in the first and a common noun in the second
        first = article(title="ana vine.", content="Zorel pleacă. ana vine.")
        second = article(title="ana vine.", content="Zorel pleacă. zorel vine.")
        for articles in ([first, second], [second, first], [first, second, first]):
            matrix = feature_matrix(articles)
            assert matrix.tobytes() == rows_with_fresh_taggers(articles).tobytes()
        proper = FEATURE_NAMES.index("proper_nouns")
        assert feature_matrix([first, second])[:, proper].tolist() == [1.0, 0.0]
        assert feature_matrix([second, first])[:, proper].tolist() == [0.0, 1.0]


class TestStandardizer:
    def test_two_point_column(self):
        std = fit_standardizer(np.array([[1.0], [3.0]]))
        assert std.mean[0] == 2.0
        assert std.std[0] == 1.0
        assert std.apply(np.array([[1.0], [3.0]])).ravel().tolist() == [-1.0, 1.0]

    def test_constant_column_forced_unit_std(self):
        std = fit_standardizer(np.array([[5.0, 1.0], [5.0, 3.0]]))
        assert std.std[0] == 1.0
        out = std.apply(np.array([[5.0, 2.0]]))
        assert out[0, 0] == 0.0

    def test_fitted_data_zero_mean_unit_var(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(50, 6)) * rng.uniform(0.5, 4.0, size=6)
        std = fit_standardizer(X)
        Z = std.apply(X)
        assert np.all(np.abs(Z.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(Z.var(axis=0) - 1.0) < 1e-9)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            fit_standardizer(np.array([[1.0, 2.0]]))

    def test_save_load_round_trip(self, tmp_path):
        std = fit_standardizer(np.random.default_rng(3).normal(size=(4, N_FEATURES)))
        path = tmp_path / "std.json"
        std.save(path)
        loaded = Standardizer.from_fields(path, json.loads(path.read_text()))
        assert np.array_equal(loaded.mean, std.mean)
        assert np.array_equal(loaded.std, std.std)


class TestExport:
    def test_header_and_rows(self, tmp_path):
        matrix = feature_matrix([article()])
        path = tmp_path / "features.tsv"
        export_features(matrix, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].split("\t") == list(FEATURE_NAMES)
        assert len(lines) == 2
        parsed = [float(v) for v in lines[1].split("\t")]
        assert parsed == pytest.approx(matrix[0].tolist())
