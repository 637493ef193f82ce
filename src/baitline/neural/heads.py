"""Classification head over the pooled text encoder.

The input is the title and content joined into one sequence by a reserved
separator id, mirroring single-sequence fine-tuning setups.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from ..corpus import Corpus
from ..tensor.core import Tensor, dropout, relu, softmax
from ..tensor.checkpoint import MODEL_FILE
from ..textproc import SEPARATOR_TOKEN, TokenizedDoc, Vocabulary, build_vocab, encode_ids
from .encoder import Params, PooledTextEncoder
from .trainer import NeuralBundle


@dataclass
class EncoderHeadConfig:
    dropout_rate: float = 0.2
    dense: int = 128
    epochs: int = 10
    batch_size: int = 4
    learning_rate: float = 2e-5
    weight_decay: float = 0.01
    max_len: int = 256
    vocab_size: int = 25000
    embed_dim: int = 300
    encoder_dim: int = 128
    seed: int = 0


def join_with_separator(title_docs: list[TokenizedDoc], content_docs: list[TokenizedDoc],
                        vocab: Vocabulary, max_len: int, trim: bool = False) -> np.ndarray:
    """One ``encode_ids`` matrix whose row i is title i's ids + [separator] +
    content i's ids, truncated to max_len and padded."""
    sep = vocab.separator_id
    if sep is None:
        raise ValueError("vocabulary has no separator id; build it with include_separator")
    id_for = vocab.id_for
    return encode_ids((chain(map(id_for, title.tokens), [sep], map(id_for, content.tokens))
                       for title, content in zip(title_docs, content_docs)), max_len, trim)


class EncoderHead(NeuralBundle):
    """Pooled text encoder -> dropout -> dense -> softmax over the two classes."""

    def __init__(self, config: EncoderHeadConfig, param: Params, vocab: Vocabulary):
        super().__init__(config, param, vocab=vocab)
        self.encoder = PooledTextEncoder("encoder", vocab.size, config.vocab_size + 2,
                                         config.embed_dim, config.encoder_dim, param)
        self.dense_w = param("head.dense_w", (config.encoder_dim, config.dense))
        self.dense_b = param("head.dense_b", (config.dense,))
        self.out_w = param("head.out_w", (config.dense, 2))
        self.out_b = param("head.out_b", (2,))

    @staticmethod
    def vocabularies(config: EncoderHeadConfig, title_docs, content_docs) -> dict[str, Vocabulary]:
        return {"vocab": build_vocab(title_docs + content_docs, config.vocab_size,
                                     include_separator=True)}

    @classmethod
    def load(cls, model_dir, model: dict):
        """As ``NeuralBundle.load``; the vocabulary must also hold the
        separator token that joins title and content."""
        tokens = model.get("vocab")
        if type(tokens) is list and SEPARATOR_TOKEN not in tokens:
            raise ValueError(f"{Path(model_dir) / MODEL_FILE}: field 'vocab' has no "
                             f"separator token {SEPARATOR_TOKEN!r}")
        return super().load(model_dir, model)

    def encode_side(self, side: int, ids: np.ndarray) -> Tensor:
        return self.encoder.encode(ids)

    def head(self, summary: Tensor, train: bool = False,
             rng: np.random.Generator | None = None) -> Tensor:
        x = dropout(summary, self.config.dropout_rate, train, rng)
        h = relu(x @ self.dense_w + self.dense_b)
        return softmax(h @ self.out_w + self.out_b, axis=-1)

    def forward(self, ids: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        return self.head(self.encoder.encode(ids), train, rng)

    def encode_docs(self, articles, title_docs, content_docs,
                    trim: bool = False) -> tuple[np.ndarray, ...]:
        return (join_with_separator(title_docs, content_docs, self.vocab, self.config.max_len,
                                    trim),)


def train_encoder_head(corpus: Corpus, config: EncoderHeadConfig) -> EncoderHead:
    """Cross-entropy training with AdamW at the config's ``weight_decay``
    (plain Adam at 0)."""
    return EncoderHead.train(corpus, config)
