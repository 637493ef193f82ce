"""Trainable pooled text encoder shared by the Siamese and head classifiers.

Pipeline per sequence: embedding lookup, centering by the mean embedding of
the non-padding tokens, a per-token tanh projection, then a masked mean pool.
Two placement choices keep the pipeline non-degenerate: the projection sits
between centering and pooling (mean-pooling centered embeddings directly is
identically zero), and the sequence-mean embedding re-enters the projection
as a context term (with static embeddings, the centered residuals alone
carry no sequence-level content to pool).
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, pooled_encode
from ..textproc import PAD_ID


def uniform_param(rng: np.random.Generator | None, shape, scale: float = 0.1) -> Tensor:
    """Uniform(-scale, scale) values; without ``rng``, zeros for a model
    whose values are about to be loaded: a read-only zero-stride view that
    allocates nothing, so a stored config naming a huge size is refused by
    the load's shape check, not by the allocator."""
    if rng is None:
        param = Tensor(0.0)  # a finiteness scan of the view would allocate its shape
        param.data = np.broadcast_to(param.data, shape)
        return param
    return Tensor(rng.uniform(-scale, scale, size=shape))


def embedding_table(rng: np.random.Generator | None, rows: int, cap_rows: int,
                    embed_dim: int) -> Tensor:
    """A (rows, embed_dim) ``uniform_param`` table that leaves ``rng`` where a
    (cap_rows, embed_dim) draw would.

    ``rows`` is the vocabulary size and ``cap_rows`` the configured cap + 2.
    The live rows are the first rows of the capped draw, and the skipped rows
    are one ``advance`` of the bit generator (PCG64 spends one 64-bit output
    per uniform value), so every later draw matches a full-size table.
    """
    if rng is None:
        return uniform_param(None, (rows, embed_dim))
    if rows > cap_rows:  # a negative advance would rewind the stream
        raise ValueError(f"{rows} embedding rows exceed the cap of {cap_rows}")
    table = uniform_param(rng, (rows, embed_dim))
    rng.bit_generator.advance((cap_rows - rows) * embed_dim)
    return table


class PooledTextEncoder:
    """Token ids, padded with ``PAD_ID``, -> (B, out_dim) summary vectors.

    The embedding table has ``rows`` rows, one per vocabulary id; see
    ``embedding_table`` for ``cap_rows``.
    """

    def __init__(self, rows: int, cap_rows: int, embed_dim: int, out_dim: int,
                 rng: np.random.Generator | None):
        self.embedding = embedding_table(rng, rows, cap_rows, embed_dim)
        self.proj_w = uniform_param(rng, (embed_dim, out_dim))
        self.ctx_w = uniform_param(rng, (embed_dim, out_dim))
        self.proj_b = uniform_param(rng, (out_dim,))

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}.embedding": self.embedding,
            f"{prefix}.proj_w": self.proj_w,
            f"{prefix}.ctx_w": self.ctx_w,
            f"{prefix}.proj_b": self.proj_b,
        }

    def encode(self, ids: np.ndarray) -> Tensor:
        """Encode a batch as one ``pooled_encode`` node; every row needs a real token."""
        ids = np.atleast_2d(np.asarray(ids, dtype=np.int64))
        mask = ids != PAD_ID
        if not mask.any(axis=1).all():
            raise ValueError("cannot encode an all-padding sequence")
        return pooled_encode(self.embedding, self.proj_w, self.ctx_w, self.proj_b, ids, mask)
