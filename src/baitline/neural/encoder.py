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

from ..tensor.core import Tensor, pooled_encode
from ..textproc import PAD_ID


class Params(dict):
    """Every parameter of a model, by name, in the order the model makes them.

    ``param(name, shape, cap_rows=None)`` makes one.  Built on an rng
    (training), it draws Uniform(-0.1, 0.1) values in call order; an
    embedding table is a call with ``cap_rows``, the configured cap + 2,
    and leaves the rng where a (cap_rows, embed_dim) draw would: the skipped
    rows are one ``advance`` of the bit generator (PCG64 spends one 64-bit
    output per uniform value), so every later draw matches a full-size table.
    Built on ``stored``, the arrays read from the checkpoint ``path``
    (loading), it takes the array of that name, which must have that shape,
    without copying it; so a config that names more than the file holds is
    refused at its first missing tensor, in time bounded by the file.
    """

    def __init__(self, rng: np.random.Generator | None = None, *,
                 stored: dict[str, np.ndarray] | None = None, path=None):
        super().__init__()
        self.rng, self.stored, self.path = rng, stored, path

    def __call__(self, name: str, shape: tuple[int, ...], cap_rows: int | None = None) -> Tensor:
        if self.stored is None:
            if cap_rows is not None and shape[0] > cap_rows:  # a negative advance would rewind
                raise ValueError(f"{shape[0]} embedding rows exceed the cap of {cap_rows}")
            value = self.rng.uniform(-0.1, 0.1, size=shape)
            if cap_rows is not None:
                self.rng.bit_generator.advance((cap_rows - shape[0]) * shape[1])
        else:
            value = self.stored.get(name)
            if value is None:
                raise ValueError(f"{self.path}: missing tensor {name!r}")
            if value.shape != shape:
                raise ValueError(f"{self.path}: tensor {name!r} has shape {value.shape}, "
                                 f"expected {shape}")
        param = self[name] = Tensor(value)
        return param


class PooledTextEncoder:
    """Token ids, padded with ``PAD_ID``, -> (B, out_dim) summary vectors.

    The embedding table has ``rows`` rows, one per vocabulary id; see
    ``Params`` for ``cap_rows``.  Each parameter's name starts with ``prefix``.
    """

    def __init__(self, prefix: str, rows: int, cap_rows: int, embed_dim: int, out_dim: int,
                 param: Params):
        self.embedding = param(f"{prefix}.embedding", (rows, embed_dim), cap_rows)
        self.proj_w = param(f"{prefix}.proj_w", (embed_dim, out_dim))
        self.ctx_w = param(f"{prefix}.ctx_w", (embed_dim, out_dim))
        self.proj_b = param(f"{prefix}.proj_b", (out_dim,))

    def encode(self, ids: np.ndarray) -> Tensor:
        """Encode a batch as one ``pooled_encode`` node; every row needs a real token."""
        ids = np.atleast_2d(np.asarray(ids, dtype=np.int64))
        mask = ids != PAD_ID
        if not mask.any(axis=1).all():
            raise ValueError("cannot encode an all-padding sequence")
        return pooled_encode(self.embedding, self.proj_w, self.ctx_w, self.proj_b, ids, mask)
