"""Siamese title-content model trained with a cosine contrastive loss.

One shared encoder maps titles and contents into a metric space of unit
vectors.  Training pulls non-clickbait (label 1) title-content pairs together
and pushes clickbait (label 0) pairs apart until their cosine dissimilarity
reaches the margin; each article is its own pair, so no mining is needed.
Inference thresholds the title-content cosine similarity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from ..textproc import Vocabulary, build_vocab, encode
from .embeddings import load_pretrained_embeddings
from .encoder import PooledTextEncoder
from .trainer import NeuralBundle, stack_encoded, tokenize_sides, trim_padding


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


class SiameseEncoder:
    """Shared encoder producing L2-normalized sequence embeddings.

    A small constant anchor coordinate is appended to the pooled vector
    before normalization, keeping the pre-normalization norm bounded away
    from zero; without it, saturated tanh outputs can cancel in the mean pool
    to an exact zero vector, which has no direction to normalize.  The anchor
    is kept small so similarities stay close to the pure cosine of the pooled
    parts.  The embedding table has ``rows`` rows, one per vocabulary id.
    """

    ANCHOR = 0.1

    def __init__(self, config: SiameseConfig, rows: int, rng: np.random.Generator | None):
        self.config = config
        self.core = PooledTextEncoder(
            rows=rows,
            cap_rows=config.vocab_size + 2,
            embed_dim=config.embed_dim,
            out_dim=config.out_dim,
            rng=rng,
        )

    def params(self) -> dict[str, Tensor]:
        return self.core.params(prefix="siamese")

    def encode_graph(self, ids: np.ndarray, mask: np.ndarray) -> Tensor:
        pooled = self.core.encode(ids, mask)
        anchor = Tensor(np.full((pooled.shape[0], 1), self.ANCHOR))
        return l2_normalize(concat([pooled, anchor], axis=1))

    def encode(self, ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
        return self.encode_graph(ids, mask).data


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


@dataclass
class SiameseBundle(NeuralBundle):
    """Trained encoder plus the preprocessing state needed for inference."""

    encoder: SiameseEncoder
    vocab: Vocabulary
    config: SiameseConfig
    train_losses: list[float] = field(default_factory=list)

    family = "contrastive"
    config_type = SiameseConfig
    vocab_files = {"vocab.txt": "vocab"}

    @classmethod
    def build(cls, config: SiameseConfig, rng: np.random.Generator | None,
              vocab: Vocabulary) -> "SiameseBundle":
        return cls(SiameseEncoder(config, vocab.size, rng), vocab, config)

    def params(self) -> dict[str, Tensor]:
        return self.encoder.params()

    def encode_docs(self, articles, title_docs, content_docs) -> tuple[np.ndarray, ...]:
        """Title and content ids and masks; every side needs a token."""
        t_ids, t_masks = stack_encoded([encode(d, self.vocab, self.config.max_len) for d in title_docs])
        c_ids, c_masks = stack_encoded([encode(d, self.vocab, self.config.max_len) for d in content_docs])
        empty = np.flatnonzero((t_masks.sum(axis=1) == 0) | (c_masks.sum(axis=1) == 0))
        if len(empty):
            raise ValueError(f"article {articles[empty[0]].id!r}: cannot encode an all-padding sequence")
        return t_ids, t_masks, c_ids, c_masks

    def batch_loss(self, arrays, labels: np.ndarray, rng: np.random.Generator) -> Tensor:
        t_ids, t_masks, c_ids, c_masks = arrays
        v_t = self.encoder.encode_graph(t_ids, t_masks)
        v_c = self.encoder.encode_graph(c_ids, c_masks)
        return contrastive_loss_graph(v_t, v_c, labels, self.config.margin)

    def batch_scores(self, t_ids, t_masks, c_ids, c_masks) -> np.ndarray:
        """Cosine similarity between each title and its content."""
        # The masked pools ignore trailing all-padding columns; a 64-row
        # batch at full length is slower than scoring one article at a time.
        v_t = self.encoder.encode(*trim_padding(t_ids, t_masks))
        v_c = self.encoder.encode(*trim_padding(c_ids, c_masks))
        return cosine_similarity(Tensor(v_t), Tensor(v_c)).data

    def predictions(self, articles) -> tuple[list[Label], list[float]]:
        pairs = [similarity_to_prediction(float(s), self.config.threshold)
                 for s in self.scores(articles)]
        return [label for label, _ in pairs], [score for _, score in pairs]


def similarity_to_prediction(s: float, threshold: float = 0.75) -> tuple[Label, float]:
    """Label and clickbait score from a title-content cosine similarity.

    Non-clickbait iff s >= threshold (boundary inclusive); the soft clickbait
    score maps s to clamp((1 - s)/2, 0, 1) so ensembles can consume it.
    """
    label = Label.NON_CLICKBAIT if s >= threshold else Label.CLICKBAIT
    score = min(max((1.0 - s) / 2.0, 0.0), 1.0)
    return label, score


def contrastive_predict(
    bundle: SiameseBundle, article: NewsArticle, threshold: float = 0.75
) -> tuple[Label, float]:
    """Threshold the article's title-content similarity."""
    return similarity_to_prediction(float(bundle.scores([article])[0]), threshold)


def train_contrastive(corpus: Corpus, config: SiameseConfig | None = None) -> SiameseBundle:
    """Minimize the contrastive loss over (title, content, label) triples.

    Every article contributes exactly one pair.  With a fixed seed the whole
    run (init, shuffling) is bit-reproducible; epochs=0 returns the freshly
    initialized encoder.
    """
    if config is None:
        config = SiameseConfig()
    labels = corpus.training_labels()
    rng = np.random.default_rng(config.seed)
    title_docs, content_docs = tokenize_sides(corpus.articles)
    vocab = build_vocab(title_docs + content_docs, config.vocab_size)
    bundle = SiameseBundle.build(config, rng, vocab=vocab)
    if config.embedding_file:
        load_pretrained_embeddings(config.embedding_file, vocab, bundle.encoder.core.embedding.data)
    return bundle.fit(bundle.encode_docs(corpus.articles, title_docs, content_docs), labels, rng)
