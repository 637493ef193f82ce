"""What the neural families share: tokenization, the train path and its
minibatch loop, length-sorted chunked scoring, and the model directory.

A model directory holds ``model.tensors`` beside ``model.json``, which keeps
the config, the per-epoch losses and each vocabulary's tokens in id order.
Loading is strict: the checkpoint must hold exactly the tensors, with the
same shapes, of the model that the stored config and vocabularies build,
and the model takes each one from the checkpoint as it is built.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..corpus import Corpus, Label, argmax_predictions
from ..tensor.checkpoint import MODEL_FILE, load_tensors, require_same_names, save_tensors
from ..tensor.core import Tensor, backward, cross_entropy, no_grad
from ..tensor.optim import GraphOptimizer
from ..textproc import PAD_ID, TokenizedDoc, Vocabulary, normalize, tokenize, vocab_from_tokens
from .embeddings import load_pretrained_embeddings
from .encoder import Params

PREDICT_BATCH = 16  # rows per scoring chunk
ROW_TILE = 4  # a scored chunk's rows are a multiple of this


def tokenize_sides(articles) -> tuple[list[TokenizedDoc], list[TokenizedDoc]]:
    """Normalized title docs and content docs, tokenizing each side once."""
    return (
        [tokenize(normalize(a.title)) for a in articles],
        [tokenize(normalize(a.content)) for a in articles],
    )


def _chunks(order: np.ndarray):
    """Each run of ``PREDICT_BATCH`` rows of ``order``, and the same run
    padded to a multiple of ``ROW_TILE`` rows by repeating its last row."""
    for start in range(0, len(order), PREDICT_BATCH):
        rows = order[start : start + PREDICT_BATCH]
        yield rows, np.pad(rows, (0, -len(rows) % ROW_TILE), mode="edge")


def trim_padding(ids: np.ndarray) -> np.ndarray:
    """Drop the batch's trailing all-padding columns, keeping at least one."""
    real = np.flatnonzero((ids != PAD_ID).any(axis=0))
    return ids[:, : real[-1] + 1 if len(real) else 1]


class NeuralBundle:
    """A neural model family: its network, vocabularies, config and per-epoch
    losses.

    Subclasses name their vocabularies in ``vocab_fields`` (each is an
    ``__init__`` argument, an attribute and a ``model.json`` field) and
    implement ``__init__(config, param, **vocabs)``, which passes its
    arguments to this class's and then makes every parameter by calling
    ``param``, a ``Params`` (each embedding table gets one row per id of its
    vocabulary; the bundle keeps it as ``params``, every parameter by name in
    the order the model made them), the static ``vocabularies(config, title_docs,
    content_docs)`` (the ``vocabs``), ``encode_docs(articles, title_docs,
    content_docs, trim=False)`` (one (n, max_len) id matrix per encoded
    side, padded with ``PAD_ID``, and with ``trim`` only as wide as its
    longest row; ``articles`` only names an article in errors),
    ``encode_side(side, ids)`` (a (B, d) encoding of side ``side``'s ids)
    and ``head(*encoded, train=False, rng=None)`` (each row's two class
    probabilities from every side's encoding), composed as ``forward(*arrays,
    train=False, rng=None)``; or else ``batch_loss`` and ``head_scores``.  A
    family whose config has ``embedding_file`` also implements
    ``embedding_tables()``: (vocabulary, table) pairs for pretrained vectors.
    """

    vocab_fields = ("vocab",)

    def __init__(self, config, param: Params, **vocabs: Vocabulary):
        self.config = config
        self.__dict__.update(vocabs)
        self.train_losses: list[float] = []
        self.params = param

    @classmethod
    def train(cls, corpus: Corpus, config):
        """A model built and fitted on ``corpus``; bit-reproducible under a
        fixed ``config.seed``, and freshly initialized with ``epochs`` 0."""
        labels = corpus.training_labels()
        rng = np.random.default_rng(config.seed)
        title_docs, content_docs = tokenize_sides(corpus.articles)
        bundle = cls(config, Params(rng), **cls.vocabularies(config, title_docs, content_docs))
        if getattr(config, "embedding_file", None):
            for vocab, table in bundle.embedding_tables():
                load_pretrained_embeddings(config.embedding_file, vocab, table.data)
        return bundle.fit(bundle.encode_docs(corpus.articles, title_docs, content_docs), labels, rng)

    def encode_articles(self, articles) -> tuple[np.ndarray, ...]:
        """The scored id matrices: each only as wide as its longest row."""
        return self.encode_docs(articles, *tokenize_sides(articles), trim=True)

    def fit(self, arrays, labels: np.ndarray, rng: np.random.Generator):
        """Minibatch training in place; returns the bundle.

        Each epoch draws one permutation from ``rng``, takes one optimizer
        step per ``batch_size`` slice of it and logs the mean batch loss.  The
        optimizer is AdamW when the config sets a ``weight_decay``, else Adam.
        """
        config = self.config
        optimizer = GraphOptimizer(self.params, config.learning_rate,
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

    def head_scores(self, *encoded: Tensor) -> np.ndarray:
        """Clickbait (class 0) probabilities of the sides' encodings."""
        return self.head(*encoded).data[:, 0]

    def scores(self, articles) -> np.ndarray:
        """``head_scores`` of every article under ``no_grad``, so scoring
        builds no graph.  The articles are encoded once, each side only as
        wide as its longest row.  Each side is sorted by its real ids
        (stable, longest first) and each run of ``PREDICT_BATCH`` of its rows
        encoded as one chunk, cut to its own longest row, so a chunk holds
        little padding and memory follows the chunk, not the file.  The head
        then scores the encodings ``PREDICT_BATCH`` articles at a time in
        file order.

        An article's score does not depend on the others in the file: every
        scoring op treats rows alike and apart, trailing padding is masked
        out of every pool, and each chunk is padded to a multiple of
        ``ROW_TILE`` rows by repeating its last row, since OpenBLAS's
        two-column output GEMMs give a row the same bits only at such sizes."""
        arrays = self.encode_articles(articles)
        with no_grad():
            encoded = [self._encode_sorted(side, ids) for side, ids in enumerate(arrays)]
            out = np.empty(len(articles))
            for rows, tiled in _chunks(np.arange(len(articles))):
                out[rows] = self.head_scores(*(Tensor(e[tiled]) for e in encoded))[: len(rows)]
        return out

    def _encode_sorted(self, side: int, ids: np.ndarray) -> np.ndarray:
        """``encode_side`` of every row of one side's ids, in length-sorted
        chunks, back in row order."""
        order = np.argsort(-(ids != PAD_ID).sum(axis=1), kind="stable")
        encoded = np.concatenate([self.encode_side(side, trim_padding(ids[tiled])).data[: len(rows)]
                                  for rows, tiled in _chunks(order)])
        out = np.empty_like(encoded)
        out[order] = encoded
        return out

    def predictions(self, articles) -> tuple[list[Label], list[float]]:
        """Labels and clickbait scores; the argmax rule unless overridden."""
        return argmax_predictions(self.scores(articles))

    def save(self, out_dir) -> dict[str, list[str]]:
        """Write the weights into ``out_dir``; returns the ``model.json``
        fields: each vocabulary's tokens in id order."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_tensors(out_dir / "model.tensors", {k: v.data for k, v in self.params.items()})
        return {name: list(getattr(self, name).tokens) for name in self.vocab_fields}

    @classmethod
    def load(cls, model_dir, model: dict):
        """The model that ``save`` wrote into ``model_dir``, given ``model``,
        its parsed ``model.json``: built by the stored config and vocabularies,
        each parameter taken from the checkpoint, which must hold exactly the
        model's tensors, in their shapes.  ``train_losses`` stays empty: the
        losses are kept in ``model.json``."""
        model_dir = Path(model_dir)
        model_path = model_dir / MODEL_FILE
        vocabs = {name: vocab_from_tokens(model_path, name, model[name]) for name in cls.vocab_fields}
        path = model_dir / "model.tensors"
        stored = load_tensors(path)
        bundle = cls(model["config"], Params(stored=stored, path=path), **vocabs)
        require_same_names(path, "tensor", set(bundle.params), set(stored))
        return bundle
