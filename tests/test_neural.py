import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from baitline.corpus import Corpus, Label, NewsArticle, label_from_clickbait_proba
from baitline.neural.embeddings import load_pretrained_embeddings
from baitline.neural.encoder import Params
from baitline.neural.heads import (
    EncoderHead,
    EncoderHeadConfig,
    join_with_separator,
    train_encoder_head,
)
from baitline.neural.lstm import BiLstmBranch, BiLstmClassifier, BiLstmConfig, train_bilstm
from baitline.neural.siamese import (
    SiameseConfig,
    SiameseEncoder,
    contrastive_loss_graph,
    contrastive_predict,
    cosine_dissimilarity_graph,
    similarity_to_prediction,
    train_contrastive,
)
from baitline.neural.trainer import tokenize_sides, trim_padding
from baitline.tensor import (
    Tensor,
    backward,
    bilstm_sequence,
    embedding_lookup,
    max_pool_over_time,
    no_grad,
)
from baitline.tensor.checkpoint import load_tensors
from baitline.textproc import OOV_ID, PAD_ID, Vocabulary, build_vocab, tokenize
from gradcheck import check_gradients
from synthetic import generate_class_marked_corpus, generate_topic_pair_corpus

CB = Label.CLICKBAIT
NCB = Label.NON_CLICKBAIT


def cosine_dissimilarity(u, v):
    """``cosine_dissimilarity_graph`` on plain vectors, or on batches of rows."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    out = cosine_dissimilarity_graph(Tensor(np.atleast_2d(u)), Tensor(np.atleast_2d(v))).data
    return float(out[0]) if u.ndim == 1 else out


def contrastive_loss(v_t, v_c, y, margin=1.0):
    """``contrastive_loss_graph``'s value for plain arrays (rows are embeddings)."""
    return contrastive_loss_graph(
        Tensor(np.atleast_2d(np.asarray(v_t, dtype=np.float64))),
        Tensor(np.atleast_2d(np.asarray(v_c, dtype=np.float64))),
        np.atleast_1d(y),
        margin,
    ).item()


def reloaded(bundle, family, run_dir):
    """``bundle`` saved into ``run_dir`` and loaded back, given the
    ``model.json`` fields that ``save`` returns."""
    fields = bundle.save(run_dir)
    return type(bundle).load(run_dir, {"family": family, "config": bundle.config, **fields})


def small_bilstm_config(**overrides):
    base = dict(
        title_vocab_size=200, content_vocab_size=200, embed_dim=10,
        title_units=5, content_units=6, dense1=12, dense2=8, dropout_rate=0.3,
        epochs=2, batch_size=8, learning_rate=0.02, title_max_len=8,
        content_max_len=16, seed=0,
    )
    base.update(overrides)
    return BiLstmConfig(**base)


class TestBiLstm:
    def test_forward_simplex(self):
        corpus = generate_class_marked_corpus(12, seed=1)
        bundle = train_bilstm(corpus, small_bilstm_config(epochs=0))
        t_ids, c_ids = bundle.encode_articles(corpus.articles)
        probs = bundle.forward(t_ids, c_ids)
        assert np.all(np.abs(probs.data.sum(axis=1) - 1.0) < 1e-9)
        assert np.all((probs.data > 0) & (probs.data < 1))

    def test_all_pad_input_defined(self):
        corpus = generate_class_marked_corpus(6, seed=2)
        bundle = train_bilstm(corpus, small_bilstm_config(epochs=0))
        batch = 2
        t_ids = np.zeros((batch, 8), dtype=np.int64)
        c_ids = np.zeros((batch, 16), dtype=np.int64)
        probs = bundle.forward(t_ids, c_ids)
        assert np.all(np.abs(probs.data.sum(axis=1) - 1.0) < 1e-9)

    def test_padding_trim_is_exact(self):
        rng = np.random.default_rng(8)
        branch = BiLstmBranch("t", 20, 20, 6, 4, 2, Params(np.random.default_rng(3)))
        ids = rng.integers(2, 20, size=(3, 5))
        mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 0], [0, 0, 0, 0, 0]])
        ids[mask == 0] = 0
        trimmed = branch.run(ids).data
        wide_ids = np.concatenate([ids, np.zeros((3, 7), dtype=ids.dtype)], axis=1)
        wide_mask = np.concatenate([mask, np.zeros((3, 7), dtype=mask.dtype)], axis=1)
        assert np.array_equal(branch.run(wide_ids).data, trimmed)
        # the same layers run over every column, padding included
        x = embedding_lookup(branch.embedding, wide_ids, wide_mask)
        for weights in branch.layers:
            x = bilstm_sequence(x, weights[:3], weights[3:], wide_mask)
        assert np.array_equal(max_pool_over_time(x, wide_mask).data, trimmed)

    def test_overfits_small_corpus(self):
        corpus = generate_class_marked_corpus(20, seed=3)
        config = small_bilstm_config(epochs=25, batch_size=32, learning_rate=0.03,
                                     dropout_rate=0.0, seed=4)
        bundle = train_bilstm(corpus, config)
        probs = bundle.scores(corpus.articles)
        preds = [label_from_clickbait_proba(p) for p in probs]
        accuracy = np.mean([p == a.label for p, a in zip(preds, corpus)])
        assert accuracy == 1.0

    def test_synthetic_separable_generalizes(self):
        corpus = generate_class_marked_corpus(160, seed=4)
        from baitline.corpus import split_by_source

        train, test = split_by_source(
            corpus, {"alfa-news", "beta-press", "gama-post"}, {"delta-zilnic"}
        )
        config = small_bilstm_config(epochs=6, batch_size=16, learning_rate=0.02,
                                     embed_dim=12, title_units=6, content_units=8,
                                     seed=2)
        bundle = train_bilstm(train, config)
        probs = bundle.scores(test.articles)
        preds = [label_from_clickbait_proba(p) for p in probs]
        accuracy = np.mean([p == a.label for p, a in zip(preds, test)])
        assert accuracy >= 0.95

    def test_zero_epochs_returns_initialized_model(self):
        corpus = generate_class_marked_corpus(10, seed=5)
        bundle = train_bilstm(corpus, small_bilstm_config(epochs=0))
        assert bundle.train_losses == []
        assert bundle.scores(corpus.articles).shape == (10,)

    def test_fixed_seed_bit_reproducible(self):
        corpus = generate_class_marked_corpus(16, seed=6)
        config = small_bilstm_config(epochs=2, seed=11)
        a = train_bilstm(corpus, config)
        b = train_bilstm(corpus, config)
        for name, param in a.params().items():
            assert np.array_equal(param.data, b.params()[name].data), name
        assert a.train_losses == b.train_losses

    def test_empty_and_single_class_rejected(self):
        with pytest.raises(ValueError):
            train_bilstm(Corpus((), name="empty"), small_bilstm_config())
        single = Corpus(
            tuple(
                NewsArticle(id=f"s{i}", title="t aici", content="c mare.",
                            source="s", label=CB)
                for i in range(4)
            ),
            name="single",
        )
        with pytest.raises(ValueError):
            train_bilstm(single, small_bilstm_config())

    def test_save_load_round_trip(self, tmp_path):
        corpus = generate_class_marked_corpus(12, seed=7)
        bundle = train_bilstm(corpus, small_bilstm_config(epochs=1))
        loaded = reloaded(bundle, "bilstm", tmp_path / "run")
        assert np.allclose(
            loaded.scores(corpus.articles),
            bundle.scores(corpus.articles),
        )

    def test_training_peak_memory_follows_the_kept_state(self):
        """A full-profile forward and backward on 16 articles of 256 content
        steps holds at most what the two content layers keep for backward
        (both directions' gates, the cell states and the output), plus one
        direction's gate block for the backward rule's working arrays, with
        a quarter more for the rest."""
        config = BiLstmConfig()
        words = tuple(f"w{i}" for i in range(50))
        vocab = Vocabulary(words)
        bundle = BiLstmClassifier(config, Params(np.random.default_rng(3)), title_vocab=vocab,
                                  content_vocab=vocab)
        rng = np.random.default_rng(4)
        articles = [NewsArticle(id=f"m{i}", title=" ".join(rng.choice(words, 40)),
                                content=" ".join(rng.choice(words, 300)), source="s")
                    for i in range(16)]
        arrays = bundle.encode_articles(articles)
        rows, steps, units = 16, config.content_max_len, config.content_units
        gate_block = steps * rows * 4 * units * 8
        kept = 2 * gate_block + 2 * (steps * rows * units * 8) + rows * steps * 2 * units * 8
        bound = 1.25 * (2 * kept + gate_block)
        tracemalloc.start()
        try:
            backward(bundle.batch_loss(arrays, np.arange(rows) % 2, np.random.default_rng(5)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"{peak / 2**20:.1f} MiB > {bound / 2**20:.1f} MiB"


class TestEncoderHead:
    def config(self, **overrides):
        base = dict(vocab_size=200, embed_dim=16, encoder_dim=16, dense=16,
                    epochs=0, batch_size=8, learning_rate=0.02,
                    weight_decay=0.001, max_len=40, seed=1)
        base.update(overrides)
        return EncoderHeadConfig(**base)

    def test_forward_simplex(self):
        corpus = generate_class_marked_corpus(10, seed=8)
        bundle = train_encoder_head(corpus, self.config())
        probs = bundle.scores(corpus.articles)
        assert np.all((probs > 0) & (probs < 1))

    def test_argmax_tie_rule(self):
        assert label_from_clickbait_proba(0.5) is NCB
        assert label_from_clickbait_proba(0.5 + 1e-9) is CB

    def test_missing_separator_rejected(self):
        vocab = build_vocab([tokenize("ana are mere")], max_size=10)
        with pytest.raises(ValueError, match="separator"):
            join_with_separator([tokenize("ana are")], [tokenize("mere")], vocab, max_len=8)

    def test_join_layout(self):
        vocab = build_vocab([tokenize("ana are mere")], max_size=10,
                            include_separator=True)
        sep, id_for = vocab.separator_id, vocab.id_for
        ids = join_with_separator([tokenize("ana are"), tokenize("")],
                                  [tokenize("mere"), tokenize("ana pere")], vocab, max_len=6)
        assert ids.tolist() == [[id_for("ana"), id_for("are"), sep, id_for("mere"), 0, 0],
                                [sep, id_for("ana"), OOV_ID, 0, 0, 0]]

    def test_overfits_small_corpus(self):
        corpus = generate_class_marked_corpus(20, seed=9)
        bundle = train_encoder_head(corpus, self.config(epochs=40))
        probs = bundle.scores(corpus.articles)
        preds = [label_from_clickbait_proba(p) for p in probs]
        accuracy = np.mean([p == a.label for p, a in zip(preds, corpus)])
        assert accuracy == 1.0

    def test_save_load_round_trip(self, tmp_path):
        corpus = generate_class_marked_corpus(10, seed=10)
        bundle = train_encoder_head(corpus, self.config(epochs=2))
        loaded = reloaded(bundle, "encoder-head", tmp_path / "run")
        assert np.allclose(
            loaded.scores(corpus.articles),
            bundle.scores(corpus.articles),
        )


def siamese_config(**overrides):
    base = dict(vocab_size=150, embed_dim=12, out_dim=8, epochs=0, batch_size=4,
                learning_rate=0.02, margin=1.0, max_len=24, seed=3)
    base.update(overrides)
    return SiameseConfig(**base)


def capped_vocab(size):
    """A vocabulary of ``size`` tokens, so its tables have the cap's rows."""
    return Vocabulary(tuple(f"w{i}" for i in range(size)))


def fresh_encoder(config=None):
    config = config or siamese_config()
    return SiameseEncoder(config, Params(np.random.default_rng(config.seed)),
                          capped_vocab(config.vocab_size))


def encode(encoder, ids):
    return encoder.encode_graph(ids).data


class TestSiameseEncode:
    def test_unit_norm(self):
        encoder = fresh_encoder()
        rng = np.random.default_rng(0)
        ids = rng.integers(1, 100, size=(6, 24))
        out = encode(encoder, ids)
        assert np.all(np.abs((out**2).sum(axis=1) - 1.0) < 1e-9)

    def test_identical_inputs_identical_outputs(self):
        encoder = fresh_encoder()
        ids = np.array([[4, 5, 6, 0]])
        assert np.array_equal(encode(encoder, ids), encode(encoder, ids))

    def test_padding_length_invariance(self):
        encoder = fresh_encoder()
        a = encode(encoder, np.array([[4, 5, 6]]))
        b = encode(encoder, np.array([[4, 5, 6, 0, 0, 0, 0]]))
        assert np.allclose(a, b, atol=1e-12)

    def test_all_pad_rejected(self):
        encoder = fresh_encoder()
        with pytest.raises(ValueError, match="padding"):
            encode(encoder, np.zeros((1, 4), dtype=np.int64))


class TestCosineDissimilarity:
    def test_identical_orthogonal_opposite(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        assert cosine_dissimilarity(u, u) == pytest.approx(0.0, abs=1e-12)
        assert cosine_dissimilarity(u, v) == pytest.approx(1.0, abs=1e-12)
        assert cosine_dissimilarity(u, -u) == pytest.approx(2.0, abs=1e-12)

    def test_range_and_monotonicity(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=(500, 6))
        v = rng.normal(size=(500, 6))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        deltas = cosine_dissimilarity(u, v)
        dots = (u * v).sum(axis=1)
        assert np.all(deltas >= -1e-12) and np.all(deltas <= 2.0 + 1e-12)
        order = np.argsort(dots)
        assert np.all(np.diff(deltas[order]) <= 1e-12)  # decreasing in the dot

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine_dissimilarity(np.zeros(3), np.ones(3))


class TestContrastiveLoss:
    def test_trivial_cases(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        assert contrastive_loss(u, u, [1]) == pytest.approx(0.0, abs=1e-12)
        assert contrastive_loss(u, u, [0]) == pytest.approx(1.0, abs=1e-12)
        assert contrastive_loss(u, v, [0]) == pytest.approx(0.0, abs=1e-12)

    def test_zero_exactly_when_conditions_met(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        batch_t = np.stack([u, u])
        batch_c = np.stack([u, v])
        # y=1 pair with delta 0, y=0 pair with delta 1 >= margin
        assert contrastive_loss(batch_t, batch_c, [1, 0]) == pytest.approx(0.0, abs=1e-12)
        # violating either side makes it positive
        assert contrastive_loss(batch_t, batch_c, [0, 1]) > 0.5

    def test_upper_bound_per_pair(self):
        rng = np.random.default_rng(2)
        for margin in (0.5, 1.0, 2.5):
            u = rng.normal(size=(200, 5))
            v = rng.normal(size=(200, 5))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            y = rng.integers(0, 2, size=200)
            loss = contrastive_loss(u, v, y, margin)
            assert 0.0 <= loss <= max(margin, 2.0)

    def test_non_negative_on_random_batches(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            u = rng.normal(size=(n, 4))
            v = rng.normal(size=(n, 4))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            y = rng.integers(0, 2, size=n)
            assert contrastive_loss(u, v, y) >= 0.0

    def test_invalid_labels_rejected(self):
        u = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError):
            contrastive_loss(u, u, [2])


class TestContrastiveTraining:
    def test_zero_epochs_initialized_encoder(self):
        corpus = generate_topic_pair_corpus(12, seed=1)
        bundle = train_contrastive(corpus, siamese_config(epochs=0))
        assert bundle.train_losses == []
        label, score = contrastive_predict(bundle, corpus.articles[0])
        assert label in (CB, NCB)
        assert 0.0 <= score <= 1.0

    def test_loss_non_negative_every_epoch(self):
        corpus = generate_topic_pair_corpus(24, seed=2)
        bundle = train_contrastive(corpus, siamese_config(epochs=5))
        assert all(loss >= 0.0 for loss in bundle.train_losses)

    def test_separation_on_synthetic_pairs(self):
        corpus = generate_topic_pair_corpus(120, seed=3)
        bundle = train_contrastive(
            corpus, siamese_config(epochs=15, batch_size=8, vocab_size=400)
        )
        deltas_cb, deltas_ncb = [], []
        for art, s in zip(corpus, bundle.scores(corpus.articles)):
            (deltas_cb if art.label is CB else deltas_ncb).append(1.0 - s)
        assert np.mean(deltas_ncb) < np.mean(deltas_cb)

    def test_fixed_seed_bit_reproducible(self):
        corpus = generate_topic_pair_corpus(16, seed=4)
        config = siamese_config(epochs=3)
        a = train_contrastive(corpus, config)
        b = train_contrastive(corpus, config)
        for name, param in a.params().items():
            assert np.array_equal(param.data, b.params()[name].data), name

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_contrastive(Corpus((), name="empty"), siamese_config())
        single = Corpus(
            tuple(
                NewsArticle(id=f"s{i}", title="t aici", content="c mare.",
                            source="s", label=NCB)
                for i in range(4)
            ),
            name="single",
        )
        with pytest.raises(ValueError, match="both classes"):
            train_contrastive(single, siamese_config())

    def test_end_to_end_gradient_two_sample_batch(self):
        config = siamese_config()
        encoder = fresh_encoder(config)
        rng = np.random.default_rng(5)
        t_ids = rng.integers(2, 100, size=(2, 10))
        c_ids = rng.integers(2, 100, size=(2, 10))
        y = np.array([1, 0])

        def forward():
            v_t = encoder.encode_graph(t_ids)
            v_c = encoder.encode_graph(c_ids)
            return contrastive_loss_graph(v_t, v_c, y, config.margin)

        report = check_gradients(forward, encoder.params(),
                                 max_coords_per_param=40, rng=np.random.default_rng(6))
        assert report.passed, report.failures[:3]

    def test_save_load_round_trip(self, tmp_path):
        corpus = generate_topic_pair_corpus(16, seed=6)
        bundle = train_contrastive(corpus, siamese_config(epochs=2))
        loaded = reloaded(bundle, "contrastive", tmp_path / "run")
        articles = corpus.articles[:4]
        assert loaded.scores(articles) == pytest.approx(bundle.scores(articles), abs=1e-12)


class TestContrastivePredict:
    def test_high_similarity_non_clickbait(self):
        label, score = similarity_to_prediction(0.9)
        assert label is NCB
        assert score == pytest.approx(0.05, abs=1e-12)

    def test_low_similarity_clickbait(self):
        label, score = similarity_to_prediction(0.3)
        assert label is CB
        assert score == pytest.approx(0.35, abs=1e-12)

    def test_boundary_inclusive_non_clickbait(self):
        label, _ = similarity_to_prediction(0.75)
        assert label is NCB

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            s = float(rng.uniform(-1, 1))
            label, score = similarity_to_prediction(s)
            assert label is (NCB if s >= 0.75 else CB)
            assert 0.0 <= score <= 1.0

    def test_empty_side_rejected_at_construction(self):
        with pytest.raises(ValueError, match="title"):
            NewsArticle(id="b", title=" ", content="c.", source="s", label=CB)
        with pytest.raises(ValueError, match="content"):
            NewsArticle(id="b", title="t", content="  ", source="s", label=CB)

    def test_predict_uses_bundle_threshold(self):
        """Every similarity clears a -1 threshold, and none clears 2."""
        corpus = generate_topic_pair_corpus(8, seed=9)
        art = corpus.articles[0]
        for threshold, label in ((-1.0, NCB), (2.0, CB)):
            bundle = train_contrastive(corpus, siamese_config(epochs=0, threshold=threshold))
            assert contrastive_predict(bundle, art) == (label, bundle.predictions([art])[1][0])


class TestPretrainedEmbeddings:
    def test_file_initialization(self, tmp_path):
        vocab = build_vocab([tokenize("ana are mere")], max_size=5)
        path = tmp_path / "vectors.txt"
        vec = [round(0.01 * i, 2) for i in range(4)]
        path.write_text(f"ana {' '.join(str(v) for v in vec)}\n", encoding="utf-8")
        table = np.random.default_rng(0).uniform(-0.1, 0.1, size=(vocab.size + 3, 4))
        before = table.copy()
        load_pretrained_embeddings(path, vocab, table)
        assert table.shape == (vocab.size + 3, 4)  # the model's table keeps its shape
        assert table[vocab.id_for("ana")].tolist() == vec
        others = np.arange(len(table)) != vocab.id_for("ana")
        assert np.array_equal(table[others], before[others])

    def test_dimension_mismatch_rejected(self, tmp_path):
        vocab = build_vocab([tokenize("ana")], max_size=2)
        path = tmp_path / "vectors.txt"
        path.write_text("ana 0.1 0.2\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_pretrained_embeddings(path, vocab, np.zeros((vocab.size, 4)))

    @pytest.mark.parametrize("value", ["abc", "nan", "-inf"])
    def test_value_that_is_not_a_finite_number_names_the_line(self, tmp_path, value):
        """Only vocabulary tokens' values are read; a bad one names the file and line."""
        vocab = build_vocab([tokenize("ana are")], max_size=4)
        path = tmp_path / "vectors.txt"
        path.write_text(f"zzz {value} 0.2\nana 0.1 0.2\nare 0.3 {value}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: a value of 'are' is not"):
            load_pretrained_embeddings(path, vocab, np.zeros((vocab.size, 2)))


def built_family(family):
    """(model class, config, vocabularies, table name -> vocabulary field)
    for a small model of ``family`` over a 16-article corpus."""
    titles, contents = tokenize_sides(generate_class_marked_corpus(16, seed=12).articles)
    if family == "bilstm":
        config = small_bilstm_config()
        vocabs = {"title_vocab": build_vocab(titles, config.title_vocab_size),
                  "content_vocab": build_vocab(contents, config.content_vocab_size)}
        tables = {"title.embedding": "title_vocab", "content.embedding": "content_vocab"}
        return BiLstmClassifier, config, vocabs, tables
    if family == "contrastive":
        config = siamese_config()
        vocabs = {"vocab": build_vocab(titles + contents, config.vocab_size)}
        return SiameseEncoder, config, vocabs, {"siamese.embedding": "vocab"}
    config = EncoderHeadConfig(vocab_size=200, embed_dim=16, encoder_dim=16, dense=16, seed=1)
    vocabs = {"vocab": build_vocab(titles + contents, config.vocab_size, include_separator=True)}
    return EncoderHead, config, vocabs, {"encoder.embedding": "vocab"}


class TestVocabSizedTables:
    @pytest.mark.parametrize("family", ["bilstm", "contrastive", "encoder-head"])
    def test_live_rows_and_rng_stream_match_capped_tables(self, capped_tables, family):
        bundle_cls, config, vocabs, tables = built_family(family)
        rng = np.random.default_rng(21)
        sized = bundle_cls(config, Params(rng), **vocabs).params()
        sized_next = rng.random(4)
        with capped_tables():
            rng = np.random.default_rng(21)
            capped = bundle_cls(config, Params(rng), **vocabs).params()
            capped_next = rng.random(4)
        assert np.array_equal(sized_next, capped_next)
        assert sized.keys() == capped.keys()
        for name, param in sized.items():
            if name in tables:
                vocab = vocabs[tables[name]]
                assert param.data.shape == (vocab.size, config.embed_dim)
                assert capped[name].data.shape[0] > vocab.size  # the cap really is larger
            assert np.array_equal(param.data, capped[name].data[: len(param.data)]), name

    @pytest.mark.parametrize("family", ["bilstm", "contrastive", "encoder-head"])
    def test_loaded_tables_share_the_stored_arrays(self, tmp_path, monkeypatch, family):
        """A loaded model's tables have one row per vocabulary id, and every
        parameter is the array ``load_tensors`` read, not a copy."""
        bundle_cls, config, vocabs, tables = built_family(family)
        model = {"config": config,
                 **bundle_cls(config, Params(np.random.default_rng(2)), **vocabs).save(tmp_path)}
        stored = {}
        monkeypatch.setattr("baitline.neural.trainer.load_tensors",
                            lambda path: stored.setdefault("arrays", load_tensors(path)))
        params = bundle_cls.load(tmp_path, model).params()
        for name, field in tables.items():
            assert params[name].data.shape == (vocabs[field].size, config.embed_dim)
        assert params.keys() == stored["arrays"].keys()
        for name, param in params.items():
            assert np.shares_memory(param.data, stored["arrays"][name]), name

    def test_more_rows_than_the_cap_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            Params(np.random.default_rng(0))("table", (5, 3), cap_rows=4)

def chunk_rows(arrays):
    """The scoring layout: row indices sorted by real ids over all sides
    (stable, longest first), cut into runs of 16, each padded to a multiple
    of 4 rows by repeating its last row."""
    lengths = [sum(int((a[i] != PAD_ID).sum()) for a in arrays) for i in range(len(arrays[0]))]
    order = sorted(range(len(lengths)), key=lambda i: -lengths[i])
    chunks = [order[start : start + 16] for start in range(0, len(order), 16)]
    return [chunk + chunk[-1:] * (-len(chunk) % 4) for chunk in chunks]


def scores_64_at_a_time(bundle, articles):
    """The scoring loop that length-sorted chunks replaced, kept as an
    oracle: 64 articles at a time in file order, each batch cut to its last
    column with a real id."""
    arrays = bundle.encode_articles(articles)
    with no_grad():
        return np.concatenate([
            bundle.batch_scores(*(trim_padding(a[start : start + 64]) for a in arrays))
            for start in range(0, len(articles), 64)
        ])


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def labels_of(bundle, scores):
    """The labels ``predictions`` gives for ``scores``."""
    if isinstance(bundle, SiameseEncoder):
        return [similarity_to_prediction(float(s), bundle.config.threshold)[0] for s in scores]
    return [label_from_clickbait_proba(float(p)) for p in scores]


# The largest move of a score against the 64-at-a-time oracle, for an article
# that the oracle scored in a batch of 1 or in a batch's last, partial 4-row
# tile.  Measured: at most 2.2e-16 with weights at their initial scale and
# 1.8e-15 with saturating ones, at 1 and 2 BLAS threads; large logits can
# amplify a last-bit move in the output GEMM, hence the room.
ORACLE_BOUND = 1e-13

ARTICLE_SHAPES = {  # (title words, content words) ranges, upper bounds exclusive
    "feed": ((5, 16), (40, 81)),
    "real-length": ((10, 26), (150, 401)),
    "one-token title": ((1, 2), (1, 301)),
}


@st.composite
def scored_files(draw):
    """(article shapes, word seed, weight scale, shuffle seed) for one file."""
    shapes = draw(st.lists(st.sampled_from(sorted(ARTICLE_SHAPES)), min_size=1, max_size=40))
    return (shapes, draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([1.0, 40.0])),
            draw(st.integers(0, 2**32 - 1)))


def file_articles(shapes, seed, words):
    rng = np.random.default_rng(seed)
    articles = []
    for i, shape in enumerate(shapes):
        title, content = (" ".join(rng.choice(words, int(rng.integers(lo, hi))))
                          for lo, hi in ARTICLE_SHAPES[shape])
        articles.append(NewsArticle(id=f"p{i}", title=title, content=content, source="s"))
    return articles


def property_bundle(family, scale):
    """A small model of ``family`` whose weights are scaled by ``scale``, and
    the words of its vocabularies plus one out-of-vocabulary word."""
    bundle_cls, config, vocabs, _ = built_family(family)
    if family == "bilstm":  # caps that leave titles and short contents their own lengths
        config = dataclasses.replace(config, title_max_len=12, content_max_len=40)
    bundle = bundle_cls(config, Params(np.random.default_rng(17)), **vocabs)
    for param in bundle.params().values():
        param.data = param.data * scale
    words = sorted({t for v in vocabs.values() for t in v.tokens if t.isalnum()} | {"zzzoov"})
    return bundle, words


class TestScoring:
    @pytest.mark.parametrize("family", ["bilstm", "contrastive", "encoder-head"])
    def test_scores_build_no_graph_and_match_the_graph_forward(self, family):
        bundle_cls, config, vocabs, _ = built_family(family)
        bundle = bundle_cls(config, Params(np.random.default_rng(13)), **vocabs)
        articles = generate_class_marked_corpus(70, seed=14).articles  # five chunks
        arrays = bundle.encode_articles(articles)
        graph_scores = np.empty(len(articles))
        for rows in chunk_rows(arrays):
            real = rows[: len(set(rows))]
            graph_scores[real] = bundle.batch_scores(*(trim_padding(a[rows]) for a in arrays))[: len(real)]
        graph_kept = []
        batch_scores = bundle.batch_scores

        def spy(*batch):
            graph_kept.append(bool((Tensor(1.0) + Tensor(1.0)).parents))
            return batch_scores(*batch)

        bundle.batch_scores = spy
        assert np.array_equal(bundle.scores(articles), graph_scores)
        assert graph_kept == [False] * 5
        assert (Tensor(1.0) + Tensor(1.0)).parents  # the mode is back on after scoring

    @pytest.mark.parametrize("family", ["bilstm", "contrastive", "encoder-head"])
    def test_batches_come_trimmed(self, family):
        """Every family's ``batch_scores`` gets 16-row chunks of the articles
        sorted longest first, the last one padded to 8 rows with its last
        article, each side without the chunk's trailing all-padding columns."""
        bundle_cls, config, vocabs, _ = built_family(family)
        lengths = {key: 300 for key in ("max_len", "title_max_len", "content_max_len")
                   if hasattr(config, key)}
        bundle = bundle_cls(dataclasses.replace(config, **lengths),
                            Params(np.random.default_rng(13)), **vocabs)
        articles = generate_class_marked_corpus(70, seed=14).articles
        padded = bundle.encode_articles(articles)
        assert any((a[:, -1] == PAD_ID).all() for a in padded)  # there is padding to trim
        batches = []
        batch_scores = bundle.batch_scores
        bundle.batch_scores = lambda *batch: batches.append(batch) or batch_scores(*batch)
        bundle.scores(articles)
        assert [len(batch[0]) for batch in batches] == [16, 16, 16, 16, 8]
        for rows, batch in zip(chunk_rows(padded), batches):
            for ids, full in zip(batch, padded):
                assert (ids[:, -1] != PAD_ID).any()
                assert np.array_equal(ids, full[rows, : ids.shape[1]])

    @pytest.mark.parametrize("family", ["bilstm", "contrastive", "encoder-head"])
    @given(scored_files())
    def test_score_does_not_depend_on_the_other_articles(self, family, drawn):
        """An article's score has the same bits alone, in its file and in the
        shuffled file; against the 64-at-a-time oracle it is the same when
        every oracle batch has a multiple of 4 rows, and otherwise within
        ``ORACLE_BOUND`` with the same label."""
        shapes, word_seed, scale, shuffle_seed = drawn
        bundle, words = property_bundle(family, scale)
        articles = file_articles(shapes, word_seed, words)
        scores = bundle.scores(articles)
        for article, score in zip(articles, scores):
            assert same_bits(bundle.scores([article]), [score])
        order = np.random.default_rng(shuffle_seed).permutation(len(articles))
        assert same_bits(bundle.scores([articles[i] for i in order]), scores[order])
        oracle = scores_64_at_a_time(bundle, articles)
        if len(articles) % 4 == 0:
            assert same_bits(scores, oracle)
        else:
            assert np.abs(scores - oracle).max() <= ORACLE_BOUND
            assert labels_of(bundle, scores) == labels_of(bundle, oracle)

    def test_peak_memory_follows_one_chunk(self):
        """Scoring 64 full-length articles with the full-profile BiLSTM holds
        at most what one 16-row chunk's first content layer needs at once:
        its embeddings, its gate block and one direction's input projection,
        with a quarter more for the rest."""
        config = BiLstmConfig()
        words = tuple(f"w{i}" for i in range(50))
        vocab = Vocabulary(words)
        bundle = BiLstmClassifier(config, Params(np.random.default_rng(3)), title_vocab=vocab,
                                  content_vocab=vocab)
        rng = np.random.default_rng(4)
        articles = [NewsArticle(id=f"m{i}", title=" ".join(rng.choice(words, 40)),
                                content=" ".join(rng.choice(words, 300)), source="s")
                    for i in range(64)]
        rows, steps, units = 16, config.content_max_len, config.content_units
        embeddings = rows * steps * config.embed_dim * 8
        gates = steps * 2 * rows * 4 * units * 8
        projection = rows * steps * 4 * units * 8
        bound = 1.25 * (embeddings + gates + projection)
        tracemalloc.start()
        try:
            bundle.scores(articles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"{peak / 2**20:.1f} MiB > {bound / 2**20:.1f} MiB"


# Trains (one epoch) and predicts every neural family at both profiles in the
# directory argv[1], then prints one JSON line: path -> sha256 of every file.
NEURAL_RUNS = """
import hashlib, json, os, sys
from pathlib import Path

from baitline.cli import run

os.chdir(sys.argv[1])
for profile in ("desk", "full"):
    for family in ("bilstm", "contrastive", "encoder-head"):
        out = f"{profile}/{family}"
        for argv in (["train", "--model", family, "--corpus", "corpus.jsonl", "--out", out,
                      "--profile", profile, "--seed", "5", "--epochs", "1"],
                     ["predict", "--model-dir", out, "--corpus", "corpus.jsonl", "--out", out + ".tsv"]):
            if run(argv) != 0:
                sys.exit(f"{argv} failed")
print(json.dumps({path.as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                  for path in sorted(Path(".").rglob("*")) if path.is_file()}))
"""


def test_neural_runs_byte_identical_at_one_and_two_blas_threads(tmp_path, data_dir):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    digests = {}
    for threads in ("1", "2"):
        work = tmp_path / f"blas{threads}"
        work.mkdir()
        shutil.copyfile(data_dir / "synthetic60.jsonl", work / "corpus.jsonl")
        done = subprocess.run([sys.executable, "-c", NEURAL_RUNS, str(work)],
                              env={**env, "OPENBLAS_NUM_THREADS": threads}, capture_output=True,
                              text=True, timeout=300, check=True)
        digests[threads] = json.loads(done.stdout.splitlines()[-1])
    assert sorted(p for p in digests["1"] if p.endswith(".tsv")) == [
        f"{profile}/{family}.tsv" for profile in ("desk", "full")
        for family in ("bilstm", "contrastive", "encoder-head")]
    # OpenBLAS's threaded matrix products are not bit-equal to its single-
    # threaded ones; on this corpus only the full-profile BiLSTM's weights show
    # it, so that one file only has to exist
    for run_digests in digests.values():
        del run_digests["full/bilstm/model.tensors"]
    assert digests["1"] == digests["2"]
