"""What the neural families share: tokenization, the train path and its
minibatch loop, length-sorted chunked scoring, and the model directory.

A model directory holds ``model.tensors`` beside ``model.json``, which keeps
the config, the per-epoch losses and each vocabulary's tokens in id order.
Loading is strict: the checkpoint must hold exactly the tensors, with the
same shapes, of the model that the stored config and vocabularies build.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..corpus import Corpus, Label, argmax_predictions
from ..tensor import GraphOptimizer, Tensor, backward, cross_entropy, no_grad
from ..tensor.checkpoint import MODEL_FILE, load_tensors, require_same_names, save_tensors
from ..textproc import PAD_ID, TokenizedDoc, normalize, tokenize, vocab_from_tokens
from .embeddings import load_pretrained_embeddings

PREDICT_BATCH = 16  # rows per scoring chunk
ROW_TILE = 4  # a scored chunk's rows are a multiple of this


def tokenize_sides(articles) -> tuple[list[TokenizedDoc], list[TokenizedDoc]]:
    """Normalized title docs and content docs, tokenizing each side once."""
    return (
        [tokenize(normalize(a.title)) for a in articles],
        [tokenize(normalize(a.content)) for a in articles],
    )


def trim_padding(ids: np.ndarray) -> np.ndarray:
    """Drop the batch's trailing all-padding columns, keeping at least one."""
    real = np.flatnonzero((ids != PAD_ID).any(axis=0))
    return ids[:, : real[-1] + 1 if len(real) else 1]


class NeuralBundle:
    """A neural model family: its network, vocabularies, config and per-epoch
    losses.

    Subclasses name their vocabularies in ``vocab_fields`` (each is an
    ``__init__`` argument, an attribute and a ``model.json`` field) and
    implement ``__init__(config, rng, **vocabs)`` (each embedding table gets
    one row per id of its vocabulary; with ``rng`` None the parameters are
    read-only zeros that allocate nothing, ready to be loaded), the static
    ``vocabularies(config, title_docs, content_docs)`` (the ``vocabs``),
    ``params()``, ``encode_docs(articles, title_docs, content_docs)`` (one
    (n, max_len) id matrix per encoded side, padded with ``PAD_ID``;
    ``articles`` only names an article in errors) and
    ``forward(*arrays, train=False, rng=None)``, each row's two class
    probabilities, or else ``batch_loss`` and ``batch_scores``.  A family
    whose config has ``embedding_file`` also implements ``embedding_tables()``:
    (vocabulary, table) pairs for pretrained vectors.
    """

    vocab_fields = ("vocab",)

    @classmethod
    def train(cls, corpus: Corpus, config):
        """A model built and fitted on ``corpus``; bit-reproducible under a
        fixed ``config.seed``, and freshly initialized with ``epochs`` 0."""
        labels = corpus.training_labels()
        rng = np.random.default_rng(config.seed)
        title_docs, content_docs = tokenize_sides(corpus.articles)
        bundle = cls(config, rng, **cls.vocabularies(config, title_docs, content_docs))
        if getattr(config, "embedding_file", None):
            for vocab, table in bundle.embedding_tables():
                load_pretrained_embeddings(config.embedding_file, vocab, table.data)
        return bundle.fit(bundle.encode_docs(corpus.articles, title_docs, content_docs), labels, rng)

    def encode_articles(self, articles) -> tuple[np.ndarray, ...]:
        return self.encode_docs(articles, *tokenize_sides(articles))

    def fit(self, arrays, labels: np.ndarray, rng: np.random.Generator):
        """Minibatch training in place; returns the bundle.

        Each epoch draws one permutation from ``rng``, takes one optimizer
        step per ``batch_size`` slice of it and logs the mean batch loss.  The
        optimizer is AdamW when the config sets a ``weight_decay``, else Adam.
        """
        config = self.config
        optimizer = GraphOptimizer(self.params(), config.learning_rate,
                                   getattr(config, "weight_decay", 0.0))
        for _ in range(config.epochs):
            order = rng.permutation(len(labels))
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, len(labels), config.batch_size):
                batch = order[start : start + config.batch_size]
                loss = self.batch_loss([a[batch] for a in arrays], labels[batch], rng)
                optimizer.zero_grad()
                backward(loss)
                optimizer.step()
                epoch_loss += loss.item()
                n_batches += 1
            self.train_losses.append(epoch_loss / n_batches)
        return self

    def batch_loss(self, arrays, labels: np.ndarray, rng: np.random.Generator) -> Tensor:
        """Cross-entropy of ``forward`` in training mode against the labels."""
        return cross_entropy(self.forward(*arrays, train=True, rng=rng), np.eye(2)[labels])

    def batch_scores(self, *arrays) -> np.ndarray:
        """Clickbait (class 0) probabilities."""
        return self.forward(*arrays).data[:, 0]

    def scores(self, articles) -> np.ndarray:
        """``batch_scores`` of every article under ``no_grad``, so scoring
        builds no graph.  The articles are encoded once and sorted by their
        real ids over all sides (stable, longest first); each run of
        ``PREDICT_BATCH`` of them is scored as one chunk, cut to its own
        longest row, so a chunk holds little padding and memory follows the
        chunk, not the file.

        An article's score does not depend on the others in the file: every
        scoring op treats rows alike and apart, trailing padding is masked
        out of every pool, and a chunk is padded to a multiple of
        ``ROW_TILE`` rows by repeating its last row, since OpenBLAS's
        two-column output GEMMs give a row the same bits only at such sizes."""
        arrays = self.encode_articles(articles)
        lengths = sum((a != PAD_ID).sum(axis=1) for a in arrays)
        order = np.argsort(-lengths, kind="stable")
        out = np.empty(len(order))
        with no_grad():
            for start in range(0, len(order), PREDICT_BATCH):
                rows = order[start : start + PREDICT_BATCH]
                tiled = np.pad(rows, (0, -len(rows) % ROW_TILE), mode="edge")
                out[rows] = self.batch_scores(*(trim_padding(a[tiled]) for a in arrays))[: len(rows)]
        return out

    def predictions(self, articles) -> tuple[list[Label], list[float]]:
        """Labels and clickbait scores; the argmax rule unless overridden."""
        return argmax_predictions(self.scores(articles))

    def save(self, out_dir) -> dict[str, list[str]]:
        """Write the weights into ``out_dir``; returns the ``model.json``
        fields: each vocabulary's tokens in id order."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_tensors(out_dir / "model.tensors", {k: v.data for k, v in self.params().items()})
        return {name: list(getattr(self, name).tokens) for name in self.vocab_fields}

    @classmethod
    def load(cls, model_dir, model: dict):
        """The model that ``save`` wrote into ``model_dir``, given ``model``,
        its parsed ``model.json``: built by the stored config and vocabularies,
        its checkpoint must hold exactly the model's tensors, in their shapes.
        ``train_losses`` stays empty: the losses are kept in ``model.json``."""
        model_dir = Path(model_dir)
        model_path = model_dir / MODEL_FILE
        vocabs = {name: vocab_from_tokens(model_path, name, model[name]) for name in cls.vocab_fields}
        try:
            bundle = cls(model["config"], None, **vocabs)
        except ValueError as exc:  # a shape past numpy's index range, even as a view
            raise ValueError(f"{model_path}: the config builds no model: {exc}") from None
        path, params = model_dir / "model.tensors", bundle.params()
        values = load_tensors(path)
        require_same_names(path, "tensor", set(params), set(values))
        for name, param in params.items():
            if values[name].shape != param.data.shape:
                raise ValueError(f"{path}: tensor {name!r} has shape "
                                 f"{values[name].shape}, expected {param.data.shape}")
            param.data = values[name]
        return bundle
