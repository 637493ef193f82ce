import numpy as np
import pytest

from baitline.corpus import Corpus, Label, NewsArticle, label_from_clickbait_proba
from baitline.neural.embeddings import load_pretrained_embeddings
from baitline.neural.encoder import embedding_table
from baitline.neural.heads import (
    EncoderHeadBundle,
    EncoderHeadConfig,
    join_with_separator,
    train_encoder_head,
)
from baitline.neural.lstm import BiLstmBranch, BiLstmBundle, BiLstmConfig, train_bilstm
from baitline.neural.siamese import (
    SiameseBundle,
    SiameseConfig,
    SiameseEncoder,
    contrastive_loss_graph,
    contrastive_predict,
    cosine_dissimilarity_graph,
    similarity_to_prediction,
    train_contrastive,
)
from baitline.neural.trainer import tokenize_sides
from baitline.synthetic import generate_class_marked_corpus, generate_topic_pair_corpus
from baitline.tensor import Tensor, check_gradients, embedding_lookup, max_pool_over_time
from baitline.textproc import build_vocab, tokenize

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
        t_ids, t_mask, c_ids, c_mask = bundle.encode_articles(corpus.articles)
        probs = bundle.model.forward(t_ids, t_mask, c_ids, c_mask)
        assert np.all(np.abs(probs.data.sum(axis=1) - 1.0) < 1e-9)
        assert np.all((probs.data > 0) & (probs.data < 1))

    def test_all_pad_input_defined(self):
        corpus = generate_class_marked_corpus(6, seed=2)
        bundle = train_bilstm(corpus, small_bilstm_config(epochs=0))
        batch = 2
        t_ids = np.zeros((batch, 8), dtype=np.int64)
        c_ids = np.zeros((batch, 16), dtype=np.int64)
        t_mask = np.zeros((batch, 8), dtype=np.int64)
        c_mask = np.zeros((batch, 16), dtype=np.int64)
        probs = bundle.model.forward(t_ids, t_mask, c_ids, c_mask)
        assert np.all(np.abs(probs.data.sum(axis=1) - 1.0) < 1e-9)

    def test_padding_trim_is_exact(self):
        rng = np.random.default_rng(8)
        branch = BiLstmBranch("t", 20, 20, 6, 4, 2, np.random.default_rng(3))
        ids = rng.integers(2, 20, size=(3, 5))
        mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 0], [0, 0, 0, 0, 0]])
        ids[mask == 0] = 0
        trimmed = branch.run(ids, mask).data
        wide_ids = np.concatenate([ids, np.zeros((3, 7), dtype=ids.dtype)], axis=1)
        wide_mask = np.concatenate([mask, np.zeros((3, 7), dtype=mask.dtype)], axis=1)
        assert np.array_equal(branch.run(wide_ids, wide_mask).data, trimmed)
        # the same layers run over every column, padding included
        x = embedding_lookup(branch.embedding, wide_ids, wide_mask)
        for layer in branch.layers:
            x = layer.run(x, wide_mask)
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
        for name, param in a.model.params().items():
            assert np.array_equal(param.data, b.model.params()[name].data), name
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
        bundle.save(tmp_path / "run")
        loaded = BiLstmBundle.load(tmp_path / "run")
        assert np.allclose(
            loaded.scores(corpus.articles),
            bundle.scores(corpus.articles),
        )


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
            join_with_separator([2, 3], [4], vocab, max_len=8)

    def test_join_layout(self):
        vocab = build_vocab([tokenize("ana are mere")], max_size=10,
                            include_separator=True)
        sep = vocab.separator_id
        ids, mask = join_with_separator([7, 8], [9], vocab, max_len=6)
        assert ids.tolist() == [7, 8, sep, 9, 0, 0]
        assert mask.tolist() == [1, 1, 1, 1, 0, 0]

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
        bundle.save(tmp_path / "run")
        loaded = EncoderHeadBundle.load(tmp_path / "run")
        assert np.allclose(
            loaded.scores(corpus.articles),
            bundle.scores(corpus.articles),
        )


def siamese_config(**overrides):
    base = dict(vocab_size=150, embed_dim=12, out_dim=8, epochs=0, batch_size=4,
                learning_rate=0.02, margin=1.0, max_len=24, seed=3)
    base.update(overrides)
    return SiameseConfig(**base)


def fresh_encoder(config=None):
    config = config or siamese_config()
    return SiameseEncoder(config, config.vocab_size + 2, np.random.default_rng(config.seed))


class TestSiameseEncode:
    def test_unit_norm(self):
        encoder = fresh_encoder()
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 100, size=(6, 24))
        mask = np.ones((6, 24), dtype=np.int64)
        out = encoder.encode(ids, mask)
        assert np.all(np.abs((out**2).sum(axis=1) - 1.0) < 1e-9)

    def test_identical_inputs_identical_outputs(self):
        encoder = fresh_encoder()
        ids = np.array([[4, 5, 6, 0]])
        mask = np.array([[1, 1, 1, 0]])
        assert np.array_equal(encoder.encode(ids, mask), encoder.encode(ids, mask))

    def test_padding_length_invariance(self):
        encoder = fresh_encoder()
        short_ids = np.array([[4, 5, 6]])
        short_mask = np.array([[1, 1, 1]])
        long_ids = np.array([[4, 5, 6, 0, 0, 0, 0]])
        long_mask = np.array([[1, 1, 1, 0, 0, 0, 0]])
        a = encoder.encode(short_ids, short_mask)
        b = encoder.encode(long_ids, long_mask)
        assert np.allclose(a, b, atol=1e-12)

    def test_all_pad_rejected(self):
        encoder = fresh_encoder()
        with pytest.raises(ValueError, match="padding"):
            encoder.encode(np.zeros((1, 4), dtype=np.int64), np.zeros((1, 4), dtype=np.int64))


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
        label, score = contrastive_predict(bundle, corpus.articles[0], bundle.config.threshold)
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
        for name, param in a.encoder.params().items():
            assert np.array_equal(param.data, b.encoder.params()[name].data), name

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
        t_mask = np.ones((2, 10), dtype=np.int64)
        c_mask = np.ones((2, 10), dtype=np.int64)
        y = np.array([1, 0])

        def forward():
            v_t = encoder.encode_graph(t_ids, t_mask)
            v_c = encoder.encode_graph(c_ids, c_mask)
            return contrastive_loss_graph(v_t, v_c, y, config.margin)

        report = check_gradients(forward, encoder.params(),
                                 max_coords_per_param=40, rng=np.random.default_rng(6))
        assert report.passed, report.failures[:3]

    def test_save_load_round_trip(self, tmp_path):
        corpus = generate_topic_pair_corpus(16, seed=6)
        bundle = train_contrastive(corpus, siamese_config(epochs=2))
        bundle.save(tmp_path / "run")
        loaded = SiameseBundle.load(tmp_path / "run")
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
        from baitline.corpus import CorpusFormatError

        with pytest.raises(CorpusFormatError, match="title"):
            NewsArticle(id="b", title=" ", content="c.", source="s", label=CB)
        with pytest.raises(CorpusFormatError, match="content"):
            NewsArticle(id="b", title="t", content="  ", source="s", label=CB)

    def test_predict_uses_bundle_threshold(self):
        corpus = generate_topic_pair_corpus(8, seed=9)
        bundle = train_contrastive(corpus, siamese_config(epochs=0))
        art = corpus.articles[0]
        label, score = contrastive_predict(bundle, art, threshold=-1.0)
        assert label is NCB  # every similarity clears a -1 threshold


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


def built_family(family):
    """(bundle class, config, vocabularies, table name -> vocabulary field)
    for a small model of ``family`` over a 16-article corpus."""
    titles, contents = tokenize_sides(generate_class_marked_corpus(16, seed=12).articles)
    if family == "bilstm":
        config = small_bilstm_config()
        vocabs = {"title_vocab": build_vocab(titles, config.title_vocab_size),
                  "content_vocab": build_vocab(contents, config.content_vocab_size)}
        tables = {"title.embedding": "title_vocab", "content.embedding": "content_vocab"}
        return BiLstmBundle, config, vocabs, tables
    if family == "contrastive":
        config = siamese_config()
        vocabs = {"vocab": build_vocab(titles + contents, config.vocab_size)}
        return SiameseBundle, config, vocabs, {"siamese.embedding": "vocab"}
    config = EncoderHeadConfig(vocab_size=200, embed_dim=16, encoder_dim=16, dense=16, seed=1)
    vocabs = {"vocab": build_vocab(titles + contents, config.vocab_size, include_separator=True)}
    return EncoderHeadBundle, config, vocabs, {"encoder.embedding": "vocab"}


class TestVocabSizedTables:
    @pytest.mark.parametrize("family", ["bilstm", "contrastive", "encoder-head"])
    def test_live_rows_and_rng_stream_match_capped_tables(self, capped_tables, family):
        bundle_cls, config, vocabs, tables = built_family(family)
        rng = np.random.default_rng(21)
        sized = bundle_cls.build(config, rng, **vocabs).params()
        sized_next = rng.random(4)
        with capped_tables():
            rng = np.random.default_rng(21)
            capped = bundle_cls.build(config, rng, **vocabs).params()
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
    def test_load_builds_vocab_sized_zero_tables(self, family):
        bundle_cls, config, vocabs, tables = built_family(family)
        params = bundle_cls.build(config, None, **vocabs).params()
        for name, field in tables.items():
            assert params[name].data.shape == (vocabs[field].size, config.embed_dim)
        assert not any(p.data.any() for p in params.values())

    def test_more_rows_than_the_cap_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            embedding_table(np.random.default_rng(0), 5, 4, 3)


class TestScoring:
    @pytest.mark.parametrize("family", ["bilstm", "contrastive", "encoder-head"])
    def test_scores_build_no_graph_and_match_the_graph_forward(self, family):
        bundle_cls, config, vocabs, _ = built_family(family)
        bundle = bundle_cls.build(config, np.random.default_rng(13), **vocabs)
        articles = generate_class_marked_corpus(70, seed=14).articles  # two batches
        arrays = bundle.encode_articles(articles)
        graph_scores = np.concatenate([bundle.batch_scores(*(a[start : start + 64] for a in arrays))
                                       for start in (0, 64)])
        graph_kept = []
        batch_scores = bundle.batch_scores

        def spy(*batch):
            graph_kept.append(bool((Tensor(1.0) + Tensor(1.0)).parents))
            return batch_scores(*batch)

        bundle.batch_scores = spy
        assert np.array_equal(bundle.scores(articles), graph_scores)
        assert graph_kept == [False, False]
        assert (Tensor(1.0) + Tensor(1.0)).parents  # the mode is back on after scoring
