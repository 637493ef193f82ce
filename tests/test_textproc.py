import numpy as np
import pytest

from baitline.tensor.checkpoint import CheckpointVersionError
from baitline.textproc import (
    OOV_ID,
    PAD_ID,
    SEPARATOR_TOKEN,
    Vocabulary,
    build_vocab,
    encode,
    encode_ids,
    load_vocab,
    normalize,
    save_vocab,
    tokenize,
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
        ids, mask = encode(tokenize("a z"), vocab, max_len=4)
        assert ids.tolist() == [vocab.id_for("a"), OOV_ID, PAD_ID, PAD_ID]
        assert mask.tolist() == [1, 1, 0, 0]

    def test_truncation_keeps_head(self):
        vocab = build_vocab([tokenize("a b c d e")], max_size=10)
        doc = tokenize("a b c d e")
        ids, mask = encode(doc, vocab, max_len=3)
        assert ids.tolist() == [vocab.id_for("a"), vocab.id_for("b"), vocab.id_for("c")]
        assert mask.tolist() == [1, 1, 1]

    def test_empty_doc_all_pad(self):
        vocab = build_vocab([tokenize("a")], max_size=2)
        ids, mask = encode(tokenize(""), vocab, max_len=3)
        assert ids.tolist() == [PAD_ID] * 3
        assert mask.tolist() == [0, 0, 0]

    def test_lengths_and_mask_sum(self):
        rng = np.random.default_rng(1)
        vocab = build_vocab([tokenize("a b c d")], max_size=10)
        for _ in range(50):
            n = int(rng.integers(0, 12))
            doc = tokenize(" ".join("abcdz"[int(rng.integers(5))] for _ in range(n)))
            max_len = int(rng.integers(1, 10))
            ids, mask = encode(doc, vocab, max_len)
            assert len(ids) == max_len and len(mask) == max_len
            assert mask.sum() == min(len(doc.tokens), max_len)

    def test_encode_ids_helper(self):
        ids, mask = encode_ids([5, 6], max_len=4)
        assert ids.tolist() == [5, 6, 0, 0]
        assert mask.tolist() == [1, 1, 0, 0]


class TestVocabSerialization:
    def test_round_trip(self, tmp_path):
        vocab = build_vocab([tokenize("ana are mere si pere")], max_size=4,
                            include_separator=True)
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, path)
        loaded = load_vocab(path)
        assert loaded.token_to_id == vocab.token_to_id
        assert loaded.separator_id == vocab.separator_id

    @pytest.mark.parametrize("lines,culprit", [
        ("ana\nare\n\nmere\n", "vocab.txt:3: blank line"),
        ("ana\nare\nana\nmere\n", "vocab.txt:3: token 'ana' repeats line 1"),
        ("ana\nare\n\n", "vocab.txt:3: blank line"),
    ])
    def test_gap_in_ids_rejected(self, tmp_path, lines, culprit):
        path = tmp_path / "vocab.txt"
        path.write_text(lines, encoding="utf-8")
        with pytest.raises(CheckpointVersionError, match=culprit):
            load_vocab(path)

    def test_line_number_is_id_minus_two(self, tmp_path):
        vocab = build_vocab([tokenize("b a a")], max_size=5)
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        for line_no, token in enumerate(lines):
            assert vocab.token_to_id[token] == line_no + 2

    def test_reserved_token_constructor_guard(self):
        with pytest.raises(ValueError):
            Vocabulary(token_to_id={"x": PAD_ID})
