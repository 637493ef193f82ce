"""Dual-branch bidirectional LSTM classifier over titles and contents.

Each branch runs its own embedding table through two stacked bidirectional
LSTM layers and a masked global max pool; the pooled branch vectors are
concatenated and passed through two dense+dropout blocks into a softmax over
the two classes.  Padded time steps carry hidden state through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..corpus import Corpus
from ..tensor.core import (
    Tensor,
    backward,  # noqa: F401  (benchmark/test_selftest.py checks tracing rebinds it here)
    bilstm_sequence,
    concat,
    dropout,
    max_pool_over_time,
    relu,
    softmax,
)
from ..textproc import PAD_ID, Vocabulary, build_vocab, encode
from .encoder import Params
from .trainer import NeuralBundle, trim_padding


@dataclass
class BiLstmConfig:
    title_vocab_size: int = 12000
    content_vocab_size: int = 25000
    embed_dim: int = 300
    title_units: int = 32
    content_units: int = 64
    n_layers: int = 2
    dense1: int = 128
    dense2: int = 64
    dropout_rate: float = 0.6
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 1e-3
    title_max_len: int = 32
    content_max_len: int = 256
    seed: int = 0
    embedding_file: str | None = None  # optional pretrained word vectors


class BiLstmBranch:
    """Embedding table + stacked bidirectional layers + masked global max pool.

    The table has ``rows`` rows, one per vocabulary id; see ``Params`` for
    ``cap_rows``.  Each layer holds, per direction (``fwd``, then ``bwd``),
    the input weights W, the recurrent weights U and the bias b.
    """

    def __init__(self, name: str, rows: int, cap_rows: int, embed_dim: int, units: int,
                 n_layers: int, param: Params):
        self.embedding = param(f"{name}.embedding", (rows, embed_dim), cap_rows)
        self.layers: list[list[Tensor]] = []
        in_dim = embed_dim
        for i in range(n_layers):
            shapes = {"W": (in_dim, 4 * units), "U": (units, 4 * units), "b": (4 * units,)}
            self.layers.append([param(f"{name}.layer{i}.{side}.{key}", shape)
                                for side in ("fwd", "bwd") for key, shape in shapes.items()])
            in_dim = 2 * units

    def run(self, ids: np.ndarray) -> Tensor:
        # Trailing all-padding columns only carry state and are ignored by
        # the pool, so dropping them leaves the output bit for bit the same.
        ids = trim_padding(ids)
        mask = ids != PAD_ID
        x = self.embedding  # the first layer reads its rows of the table itself
        for i, weights in enumerate(self.layers):
            x = bilstm_sequence(x, weights[:3], weights[3:], mask, ids=None if i else ids)
        return max_pool_over_time(x, mask)


class BiLstmClassifier(NeuralBundle):
    """Title and content branches, each with one embedding row per id of its
    vocabulary, and the dense head over their pooled vectors."""

    vocab_fields = ("title_vocab", "content_vocab")

    def __init__(self, config: BiLstmConfig, param: Params,
                 title_vocab: Vocabulary, content_vocab: Vocabulary):
        super().__init__(config, param, title_vocab=title_vocab, content_vocab=content_vocab)
        self.title_branch = BiLstmBranch(
            "title", title_vocab.size, config.title_vocab_size + 2, config.embed_dim,
            config.title_units, config.n_layers, param,
        )
        self.content_branch = BiLstmBranch(
            "content", content_vocab.size, config.content_vocab_size + 2, config.embed_dim,
            config.content_units, config.n_layers, param,
        )
        concat_dim = 2 * config.title_units + 2 * config.content_units
        self.dense1_w = param("head.dense1_w", (concat_dim, config.dense1))
        self.dense1_b = param("head.dense1_b", (config.dense1,))
        self.dense2_w = param("head.dense2_w", (config.dense1, config.dense2))
        self.dense2_b = param("head.dense2_b", (config.dense2,))
        self.out_w = param("head.out_w", (config.dense2, 2))
        self.out_b = param("head.out_b", (2,))

    @staticmethod
    def vocabularies(config: BiLstmConfig, title_docs, content_docs) -> dict[str, Vocabulary]:
        return {"title_vocab": build_vocab(title_docs, config.title_vocab_size),
                "content_vocab": build_vocab(content_docs, config.content_vocab_size)}

    def embedding_tables(self):
        return ((self.title_vocab, self.title_branch.embedding),
                (self.content_vocab, self.content_branch.embedding))

    def encode_side(self, side: int, ids: np.ndarray) -> Tensor:
        return (self.title_branch, self.content_branch)[side].run(ids)

    def head(self, pooled_title: Tensor, pooled_content: Tensor, train: bool = False,
             rng: np.random.Generator | None = None) -> Tensor:
        """Class probability rows (softmax simplex) from the pooled branches."""
        x = concat([pooled_title, pooled_content], axis=1)
        rate = self.config.dropout_rate
        h1 = dropout(relu(x @ self.dense1_w + self.dense1_b), rate, train, rng)
        h2 = dropout(relu(h1 @ self.dense2_w + self.dense2_b), rate, train, rng)
        return softmax(h2 @ self.out_w + self.out_b, axis=-1)

    def forward(self, title_ids: np.ndarray, content_ids: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        """Class probability rows (softmax simplex) for a batch."""
        return self.head(self.title_branch.run(title_ids), self.content_branch.run(content_ids),
                         train, rng)

    def encode_docs(self, articles, title_docs, content_docs,
                    trim: bool = False) -> tuple[np.ndarray, ...]:
        cfg = self.config
        return (encode(title_docs, self.title_vocab, cfg.title_max_len, trim),
                encode(content_docs, self.content_vocab, cfg.content_max_len, trim))


def train_bilstm(corpus: Corpus, config: BiLstmConfig) -> BiLstmClassifier:
    """Cross-entropy training with Adam; bit-reproducible under a fixed seed."""
    return BiLstmClassifier.train(corpus, config)
