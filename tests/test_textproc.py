import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from baitline.neural.heads import join_with_separator
from baitline.textproc import (
    KEPT_PUNCTUATION,
    OOV_ID,
    PAD_ID,
    SEPARATOR_TOKEN,
    build_vocab,
    encode,
    encode_ids,
    normalize,
    tokenize,
    vocab_from_tokens,
)


class TestNormalize:
    def test_lowercases_and_keeps_punctuation(self):
        assert normalize("Șoc TOTAL!!!") == "șoc total!!!"

    def test_strips_special_characters(self):
        assert normalize("a@#b") == "ab"

    def test_collapses_whitespace(self):
        assert normalize("  A   b ") == "a b"

    def test_total_on_junk(self):
        assert normalize("@#$%^&*") == ""

    def test_preserves_diacritics(self):
        assert normalize("Țâșnit În Șanț") == "țâșnit în șanț"


def loop_normalize(text: str) -> str:
    """``normalize`` one character at a time: its oracle."""
    kept = []
    for ch in text.lower():
        if ch.isalpha() or ch.isdigit() or ch.isspace() or ch in KEPT_PUNCTUATION:
            kept.append(ch)
    return " ".join("".join(kept).split())


# Romanian diacritics, a dotted capital I (two code points in lower case),
# non-ASCII digits and numerics, superscripts, combining marks, the separator,
# kept and dropped punctuation, and unusual whitespace
AWKWARD = "ȘșȚțĂăÎîÂâİßΣ٣۷०²½Ⅻ〇\u0301\u0327\u0308␟.,!?:;\"'-_@#\t\n\u00a0\u2028\u3000"
UNICODE_TEXT = st.text(st.one_of(st.characters(), st.sampled_from(AWKWARD)), max_size=80)


class TestFastPathOracles:
    @given(UNICODE_TEXT)
    def test_normalize_equals_character_loop(self, text):
        assert normalize(text) == loop_normalize(text)

    @pytest.mark.parametrize("symbols", [1, 400])
    def test_normalize_equals_character_loop_with_many_dropped(self, symbols):
        """``symbols`` distinct arrows and math signs plus ½, each deleted."""
        text = "".join(f"{chr(0x2190 + i)}Șa½ {chr(0x2190 + i)}9" for i in range(symbols))
        assert normalize(text) == loop_normalize(text)

    @given(UNICODE_TEXT)
    def test_word_tokens_equal_per_character_test(self, text):
        for doc in (tokenize(text), tokenize(normalize(text))):
            assert doc.word_tokens() == [
                t for t in doc.tokens if any(c.isalpha() or c.isdigit() for c in t)]


class TestTokenize:
    def test_sentence_with_period(self):
        doc = tokenize("ana are mere.")
        assert doc.tokens == ("ana", "are", "mere", ".")
        assert doc.sentence_boundaries == (4,)

    def test_two_terminated_sentences(self):
        doc = tokenize("da? nu!")
        assert len(doc.tokens) == 4
        assert doc.sentence_boundaries == (2, 4)

    def test_empty_text(self):
        doc = tokenize("")
        assert doc.tokens == ()
        assert doc.sentence_boundaries == ()

    def test_end_of_text_boundary(self):
        doc = tokenize("fara punct final")
        assert doc.sentence_boundaries == (3,)

    def test_deterministic(self):
        text = "Ce zi! E, chiar; o zi: buna?"
        assert tokenize(text) == tokenize(text)

    def test_boundaries_strictly_increasing_end_at_len(self):
        rng = np.random.default_rng(0)
        words = ["ana", "are", "mere", "si", "pere"]
        for _ in range(50):
            n = int(rng.integers(1, 12))
            parts = [str(rng.choice(words)) for _ in range(n)]
            if rng.random() < 0.5:
                parts.append(".")
            doc = tokenize(" ".join(parts))
            bounds = doc.sentence_boundaries
            assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
            assert bounds[-1] == len(doc.tokens)

    def test_word_content_round_trip(self):
        # texts without stripped characters: joining word tokens recovers words
        text = "ana are mere si pere multe"
        doc = tokenize(text)
        assert " ".join(doc.word_tokens()) == text


class TestBuildVocab:
    def docs(self):
        return [tokenize("a a a b b c")]

    def test_frequency_cutoff(self):
        vocab = build_vocab(self.docs(), max_size=2)
        assert set(vocab.token_to_id) == {"a", "b"}
        assert vocab.size == 4  # includes pad and oov

    def test_max_size_larger_than_distinct(self):
        vocab = build_vocab(self.docs(), max_size=100)
        assert set(vocab.token_to_id) == {"a", "b", "c"}

    def test_lexicographic_tie(self):
        vocab = build_vocab([tokenize("a b a b")], max_size=1)
        assert set(vocab.token_to_id) == {"a"}

    def test_empty_doc_list_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([], max_size=5)

    def test_punctuation_excluded(self):
        vocab = build_vocab([tokenize("a! a? b.")], max_size=10)
        assert set(vocab.token_to_id) == {"a", "b"}

    def test_reserved_ids_never_assigned(self):
        vocab = build_vocab([tokenize("x y z w q")], max_size=5)
        assert PAD_ID not in vocab.token_to_id.values()
        assert OOV_ID not in vocab.token_to_id.values()
        assert sorted(vocab.token_to_id.values()) == list(range(2, 7))

    def test_separator_occupies_slot(self):
        vocab = build_vocab(self.docs(), max_size=2, include_separator=True)
        assert vocab.separator_id == 2
        assert vocab.size <= 2 + 2
        assert "a" in vocab.token_to_id  # most frequent token still kept


class TestEncode:
    def test_oov_and_padding(self):
        vocab = build_vocab([tokenize("a a")], max_size=4)
        ids = encode([tokenize("a z")], vocab, max_len=4)
        assert ids.tolist() == [[vocab.id_for("a"), OOV_ID, PAD_ID, PAD_ID]]
        assert (ids != PAD_ID).tolist() == [[True, True, False, False]]

    def test_truncation_keeps_head(self):
        vocab = build_vocab([tokenize("a b c d e")], max_size=10)
        ids = encode([tokenize("a b c d e")], vocab, max_len=3)
        assert ids.tolist() == [[vocab.id_for("a"), vocab.id_for("b"), vocab.id_for("c")]]

    def test_empty_doc_all_pad(self):
        vocab = build_vocab([tokenize("a")], max_size=2)
        ids = encode([tokenize(""), tokenize("a")], vocab, max_len=3)
        assert ids.tolist() == [[PAD_ID] * 3, [vocab.id_for("a"), PAD_ID, PAD_ID]]

    def test_lengths_and_mask_sum(self):
        rng = np.random.default_rng(1)
        vocab = build_vocab([tokenize("a b c d")], max_size=10)
        for _ in range(50):
            n = int(rng.integers(0, 12))
            doc = tokenize(" ".join("abcdz"[int(rng.integers(5))] for _ in range(n)))
            max_len = int(rng.integers(1, 10))
            ids = encode([doc], vocab, max_len)
            assert ids.shape == (1, max_len) and ids.dtype == np.int64
            assert (ids != PAD_ID).sum() == min(len(doc.tokens), max_len)

    def test_encode_ids_helper(self):
        ids = encode_ids([[5, 6], [7, 8, 9, 10, 11]], max_len=4)
        assert ids.tolist() == [[5, 6, 0, 0], [7, 8, 9, 10]]


# Words, a word the drawn vocabularies may leave out, and punctuation, which
# build_vocab never keeps: real tokens that encode to OOV_ID.
TOKENS = st.sampled_from(["ana", "are", "mere", "pere", "șoc", "7", "x", ".", "!", ","])
DOCS = st.lists(st.lists(TOKENS, max_size=12).map(lambda words: tokenize(" ".join(words))),
                min_size=1, max_size=6)


def assert_padding_is_the_tail(ids, rows, max_len):
    """Row i holds ``rows[i]`` truncated to max_len, then PAD_ID: the real
    positions are exactly the first min(len, max_len), each an id >= 1."""
    lengths = np.array([min(len(row), max_len) for row in rows])
    assert ids.shape == (len(rows), max_len) and ids.dtype == np.int64
    assert np.array_equal(ids != PAD_ID, np.arange(max_len) < lengths[:, None])
    assert (ids[ids != PAD_ID] >= 1).all()
    assert all(ids[i, :n].tolist() == list(rows[i][:n]) for i, n in enumerate(lengths))


@given(DOCS, DOCS, st.integers(1, 8), st.booleans(), st.integers(1, 16))
def test_encode_pads_with_id_zero_only(vocab_docs, docs, max_size, separator, max_len):
    vocab = build_vocab(vocab_docs, max_size, include_separator=separator)
    rows = [[vocab.id_for(token) for token in doc.tokens] for doc in docs]
    assert_padding_is_the_tail(encode(docs, vocab, max_len), rows, max_len)


@given(DOCS, DOCS, DOCS, st.integers(1, 8), st.integers(1, 16))
def test_join_with_separator_pads_with_id_zero_only(vocab_docs, titles, contents, max_size,
                                                    max_len):
    vocab = build_vocab(vocab_docs, max_size, include_separator=True)
    titles, contents = titles[: len(contents)], contents[: len(titles)]
    rows = [[vocab.id_for(token) for token in title.tokens] + [vocab.separator_id]
            + [vocab.id_for(token) for token in content.tokens]
            for title, content in zip(titles, contents)]
    assert_padding_is_the_tail(join_with_separator(titles, contents, vocab, max_len), rows, max_len)


class TestVocabSerialization:
    def test_round_trip(self):
        vocab = build_vocab([tokenize("ana are mere si pere")], max_size=4,
                            include_separator=True)
        loaded = vocab_from_tokens("model.json", "vocab", list(vocab.tokens))
        assert loaded.token_to_id == vocab.token_to_id
        assert loaded.separator_id == vocab.separator_id

    @pytest.mark.parametrize("tokens,culprit", [
        (["ana", "are", "", "mere"], "entry 2, '', is empty, not a string or a repeat"),
        (["ana", "are", ""], "entry 2, '', is empty, not a string or a repeat"),
        (["ana", "are", "ana", "mere"], "entry 2, 'ana', is empty, not a string or a repeat"),
        (["ana", None], "entry 1, None, is empty"),
        (["ana", ["are"]], r"entry 1, \['are'\], is empty"),
        ("ana are", "is not a list of tokens"),
        ({"ana": 2}, "is not a list of tokens"),
    ], ids=["empty", "trailing_empty", "repeated", "not_a_string", "unhashable", "string", "object"])
    def test_bad_field_rejected(self, tokens, culprit):
        with pytest.raises(ValueError, match=f"^model.json: field 'vocab' {culprit}"):
            vocab_from_tokens("model.json", "vocab", tokens)

    def test_index_is_id_minus_two(self):
        vocab = build_vocab([tokenize("b a a")], max_size=5)
        for index, token in enumerate(vocab.tokens):
            assert vocab.token_to_id[token] == index + 2
