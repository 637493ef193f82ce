"""Siamese title-content model trained with a cosine contrastive loss.

One shared encoder maps titles and contents into a metric space of unit
vectors.  Training pulls non-clickbait (label 1) title-content pairs together
and pushes clickbait (label 0) pairs apart until their cosine dissimilarity
reaches the margin; each article is its own pair, so no mining is needed.
Inference thresholds the title-content cosine similarity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..corpus import Corpus, Label, NewsArticle
from ..tensor import (
    Tensor,
    concat,
    cosine_similarity,
    l2_normalize,
    relu,
    tmean,
)
from ..textproc import PAD_ID, Vocabulary, build_vocab, encode
from .encoder import Params, PooledTextEncoder
from .trainer import NeuralBundle


@dataclass
class SiameseConfig:
    epochs: int = 5
    batch_size: int = 4
    learning_rate: float = 1e-6
    margin: float = 1.0
    max_len: int = 256
    threshold: float = 0.75
    vocab_size: int = 25000
    embed_dim: int = 300
    out_dim: int = 128
    seed: int = 0
    embedding_file: str | None = None  # optional pretrained word vectors


class SiameseEncoder(NeuralBundle):
    """Shared encoder producing L2-normalized sequence embeddings.

    A small constant anchor coordinate is appended to the pooled vector
    before normalization, keeping the pre-normalization norm bounded away
    from zero; without it, saturated tanh outputs can cancel in the mean pool
    to an exact zero vector, which has no direction to normalize.  The anchor
    is kept small so similarities stay close to the pure cosine of the pooled
    parts.  The embedding table has one row per vocabulary id.
    """

    ANCHOR = 0.1

    def __init__(self, config: SiameseConfig, param: Params, vocab: Vocabulary):
        super().__init__(config, param, vocab=vocab)
        self.core = PooledTextEncoder("siamese", vocab.size, config.vocab_size + 2,
                                      config.embed_dim, config.out_dim, param)

    @staticmethod
    def vocabularies(config: SiameseConfig, title_docs, content_docs) -> dict[str, Vocabulary]:
        return {"vocab": build_vocab(title_docs + content_docs, config.vocab_size)}

    def embedding_tables(self):
        return ((self.vocab, self.core.embedding),)

    def encode_graph(self, ids: np.ndarray) -> Tensor:
        pooled = self.core.encode(ids)
        anchor = Tensor(np.full((pooled.shape[0], 1), self.ANCHOR))
        return l2_normalize(concat([pooled, anchor], axis=1))

    def encode_docs(self, articles, title_docs, content_docs) -> tuple[np.ndarray, ...]:
        """Title ids and content ids; every side needs a token."""
        t_ids = encode(title_docs, self.vocab, self.config.max_len)
        c_ids = encode(content_docs, self.vocab, self.config.max_len)
        empty = np.flatnonzero((t_ids == PAD_ID).all(axis=1) | (c_ids == PAD_ID).all(axis=1))
        if len(empty):
            raise ValueError(f"article {articles[empty[0]].id!r}: cannot encode an all-padding sequence")
        return t_ids, c_ids

    def batch_loss(self, arrays, labels: np.ndarray, rng: np.random.Generator) -> Tensor:
        t_ids, c_ids = arrays
        return contrastive_loss_graph(self.encode_graph(t_ids), self.encode_graph(c_ids), labels,
                                      self.config.margin)

    def batch_scores(self, t_ids, c_ids) -> np.ndarray:
        """Cosine similarity between each title and its content."""
        return cosine_similarity(self.encode_graph(t_ids), self.encode_graph(c_ids)).data

    def predictions(self, articles) -> tuple[list[Label], list[float]]:
        pairs = [similarity_to_prediction(float(s), self.config.threshold)
                 for s in self.scores(articles)]
        return [label for label, _ in pairs], [score for _, score in pairs]


def cosine_dissimilarity_graph(u: Tensor, v: Tensor) -> Tensor:
    """delta = 1 - cos(u, v), elementwise over batch rows; range [0, 2]."""
    return 1.0 - cosine_similarity(u, v)


def contrastive_loss_graph(v_t: Tensor, v_c: Tensor, y: np.ndarray, margin: float = 1.0) -> Tensor:
    """Mean over the batch of y*delta + (1-y)*max(0, margin - delta)."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be a flat 0/1 vector")
    delta = cosine_dissimilarity_graph(v_t, v_c)
    pull = Tensor(y) * delta
    push = Tensor(1.0 - y) * relu(margin - delta)
    return tmean(pull + push)


def similarity_to_prediction(s: float, threshold: float = 0.75) -> tuple[Label, float]:
    """Label and clickbait score from a title-content cosine similarity.

    Non-clickbait iff s >= threshold (boundary inclusive); the soft clickbait
    score maps s to clamp((1 - s)/2, 0, 1) so ensembles can consume it.
    """
    label = Label.NON_CLICKBAIT if s >= threshold else Label.CLICKBAIT
    score = min(max((1.0 - s) / 2.0, 0.0), 1.0)
    return label, score


def contrastive_predict(bundle: SiameseEncoder, article: NewsArticle) -> tuple[Label, float]:
    """The article's label and clickbait score, at the bundle's threshold."""
    (label,), (score,) = bundle.predictions([article])
    return label, score


def train_contrastive(corpus: Corpus, config: SiameseConfig) -> SiameseEncoder:
    """Minimize the contrastive loss over (title, content, label) triples.

    Every article contributes exactly one pair.  With a fixed seed the whole
    run (init, shuffling) is bit-reproducible; epochs=0 returns the freshly
    initialized encoder.
    """
    return SiameseEncoder.train(corpus, config)
