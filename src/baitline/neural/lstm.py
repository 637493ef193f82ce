"""Dual-branch bidirectional LSTM classifier over titles and contents.

Each branch runs its own embedding table through two stacked bidirectional
LSTM layers and a masked global max pool; the pooled branch vectors are
concatenated and passed through two dense+dropout blocks into a softmax over
the two classes.  Padded time steps carry hidden state through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..corpus import Corpus
from ..tensor import (
    Tensor,
    backward,  # noqa: F401  (benchmark/test_selftest.py checks tracing rebinds it here)
    concat,
    cross_entropy,
    dropout,
    embedding_lookup,
    max_pool_over_time,
    narrow,
    relu,
    reshape,
    sigmoid,
    softmax,
    stack_steps,
    tanh,
)
from ..textproc import Vocabulary, build_vocab, encode
from .embeddings import load_pretrained_embeddings
from .encoder import uniform_param
from .trainer import NeuralBundle, stack_encoded, tokenize_sides


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


class LstmDirection:
    """Single-direction LSTM over a list of per-step (B, in_dim) tensors."""

    def __init__(self, name: str, in_dim: int, units: int, rng: np.random.Generator):
        self.name = name
        self.units = units
        self.W = uniform_param(rng, (in_dim, 4 * units))
        self.U = uniform_param(rng, (units, 4 * units))
        self.b = uniform_param(rng, (4 * units,))

    def params(self) -> dict[str, Tensor]:
        return {f"{self.name}.W": self.W, f"{self.name}.U": self.U, f"{self.name}.b": self.b}

    def run(self, steps: list[Tensor], mask: np.ndarray, reverse: bool = False) -> list[Tensor]:
        batch = steps[0].shape[0]
        units = self.units
        h = Tensor(np.zeros((batch, units)))
        c = Tensor(np.zeros((batch, units)))
        order = range(len(steps) - 1, -1, -1) if reverse else range(len(steps))
        outputs: list[Tensor | None] = [None] * len(steps)
        for t in order:
            z = steps[t] @ self.W + h @ self.U + self.b
            i = sigmoid(narrow(z, 1, 0, units))
            f = sigmoid(narrow(z, 1, units, units))
            g = tanh(narrow(z, 1, 2 * units, units))
            o = sigmoid(narrow(z, 1, 3 * units, units))
            c_new = f * c + i * g
            h_new = o * tanh(c_new)
            m = Tensor(mask[:, t : t + 1].astype(np.float64))
            keep = Tensor(1.0 - mask[:, t : t + 1].astype(np.float64))
            c = m * c_new + keep * c
            h = m * h_new + keep * h
            outputs[t] = h
        return outputs


class BiLstmLayer:
    def __init__(self, name: str, in_dim: int, units: int, rng: np.random.Generator):
        self.fwd = LstmDirection(f"{name}.fwd", in_dim, units, rng)
        self.bwd = LstmDirection(f"{name}.bwd", in_dim, units, rng)

    def params(self) -> dict[str, Tensor]:
        return {**self.fwd.params(), **self.bwd.params()}

    def run(self, steps: list[Tensor], mask: np.ndarray) -> list[Tensor]:
        forward = self.fwd.run(steps, mask, reverse=False)
        backward_ = self.bwd.run(steps, mask, reverse=True)
        return [concat([f, b], axis=1) for f, b in zip(forward, backward_)]


class BiLstmBranch:
    """Embedding table + stacked bidirectional layers + masked global max pool."""

    def __init__(self, name: str, vocab_size: int, embed_dim: int, units: int,
                 n_layers: int, rng: np.random.Generator):
        self.name = name
        self.embed_dim = embed_dim
        self.embedding = uniform_param(rng, (vocab_size, embed_dim))
        self.layers = []
        in_dim = embed_dim
        for i in range(n_layers):
            self.layers.append(BiLstmLayer(f"{name}.layer{i}", in_dim, units, rng))
            in_dim = 2 * units

    def params(self) -> dict[str, Tensor]:
        out = {f"{self.name}.embedding": self.embedding}
        for layer in self.layers:
            out.update(layer.params())
        return out

    def run(self, ids: np.ndarray, mask: np.ndarray) -> Tensor:
        batch, seq_len = ids.shape
        emb = embedding_lookup(self.embedding, ids, mask)
        steps = [
            reshape(narrow(emb, 1, t, 1), (batch, self.embed_dim)) for t in range(seq_len)
        ]
        for layer in self.layers:
            steps = layer.run(steps, mask)
        return max_pool_over_time(stack_steps(steps), mask)


class BiLstmClassifier:
    def __init__(self, config: BiLstmConfig, rng: np.random.Generator):
        self.config = config
        self.title_branch = BiLstmBranch(
            "title", config.title_vocab_size + 2, config.embed_dim,
            config.title_units, config.n_layers, rng,
        )
        self.content_branch = BiLstmBranch(
            "content", config.content_vocab_size + 2, config.embed_dim,
            config.content_units, config.n_layers, rng,
        )
        concat_dim = 2 * config.title_units + 2 * config.content_units
        self.dense1_w = uniform_param(rng, (concat_dim, config.dense1))
        self.dense1_b = uniform_param(rng, (config.dense1,))
        self.dense2_w = uniform_param(rng, (config.dense1, config.dense2))
        self.dense2_b = uniform_param(rng, (config.dense2,))
        self.out_w = uniform_param(rng, (config.dense2, 2))
        self.out_b = uniform_param(rng, (2,))

    def params(self) -> dict[str, Tensor]:
        out = {**self.title_branch.params(), **self.content_branch.params()}
        out.update({
            "head.dense1_w": self.dense1_w, "head.dense1_b": self.dense1_b,
            "head.dense2_w": self.dense2_w, "head.dense2_b": self.dense2_b,
            "head.out_w": self.out_w, "head.out_b": self.out_b,
        })
        return out

    def forward(
        self,
        title_ids: np.ndarray,
        title_mask: np.ndarray,
        content_ids: np.ndarray,
        content_mask: np.ndarray,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Class probability rows (softmax simplex) for a batch."""
        pooled_title = self.title_branch.run(title_ids, title_mask)
        pooled_content = self.content_branch.run(content_ids, content_mask)
        x = concat([pooled_title, pooled_content], axis=1)
        rate = self.config.dropout_rate
        h1 = dropout(relu(x @ self.dense1_w + self.dense1_b), rate, train, rng)
        h2 = dropout(relu(h1 @ self.dense2_w + self.dense2_b), rate, train, rng)
        return softmax(h2 @ self.out_w + self.out_b, axis=-1)


@dataclass
class BiLstmBundle(NeuralBundle):
    model: BiLstmClassifier
    title_vocab: Vocabulary
    content_vocab: Vocabulary
    config: BiLstmConfig
    train_losses: list[float] = field(default_factory=list)

    family = "bilstm"
    config_type = BiLstmConfig
    vocab_files = {"vocab_title.txt": "title_vocab", "vocab_content.txt": "content_vocab"}

    @classmethod
    def build(cls, config: BiLstmConfig, rng: np.random.Generator, **vocabs) -> "BiLstmBundle":
        return cls(BiLstmClassifier(config, rng), config=config, **vocabs)

    def params(self) -> dict[str, Tensor]:
        return self.model.params()

    def encode_docs(self, articles, title_docs, content_docs) -> tuple[np.ndarray, ...]:
        cfg = self.config
        return (
            *stack_encoded([encode(d, self.title_vocab, cfg.title_max_len) for d in title_docs]),
            *stack_encoded([encode(d, self.content_vocab, cfg.content_max_len) for d in content_docs]),
        )

    def batch_loss(self, arrays, labels: np.ndarray, rng: np.random.Generator) -> Tensor:
        return cross_entropy(self.model.forward(*arrays, train=True, rng=rng), np.eye(2)[labels])

    def batch_scores(self, *arrays) -> np.ndarray:
        return self.model.forward(*arrays).data[:, 0]

    predict_clickbait_proba = NeuralBundle.scores


def train_bilstm(corpus: Corpus, config: BiLstmConfig | None = None) -> BiLstmBundle:
    """Cross-entropy training with Adam; bit-reproducible under a fixed seed."""
    if config is None:
        config = BiLstmConfig()
    labels = corpus.training_labels()
    rng = np.random.default_rng(config.seed)
    title_docs, content_docs = tokenize_sides(corpus.articles)
    bundle = BiLstmBundle.build(
        config, rng,
        title_vocab=build_vocab(title_docs, config.title_vocab_size),
        content_vocab=build_vocab(content_docs, config.content_vocab_size),
    )
    if config.embedding_file:
        for vocab, branch in ((bundle.title_vocab, bundle.model.title_branch),
                              (bundle.content_vocab, bundle.model.content_branch)):
            load_pretrained_embeddings(config.embedding_file, vocab, branch.embedding.data)
    return bundle.fit(bundle.encode_docs(corpus.articles, title_docs, content_docs), labels, rng)
