"""Optional pretrained word-vector initialization for embedding tables.

File format: one token per line followed by its vector components, whitespace
separated.  Tokens missing from the file keep their random initialization;
pad and oov rows are always random.
"""

from __future__ import annotations

import numpy as np

from ..textproc import Vocabulary


def load_pretrained_embeddings(path, vocab: Vocabulary, table: np.ndarray) -> None:
    """Write the file's vectors into the rows of ``table`` for vocabulary tokens.

    ``table`` is the model's own (rows, embed_dim) embedding table; it is
    changed in place.
    """
    embed_dim = table.shape[1]
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split()
            if not parts:
                continue
            if len(parts) != embed_dim + 1:
                raise ValueError(
                    f"{path}:{line_no}: expected token + {embed_dim} values, got {len(parts) - 1}"
                )
            token = parts[0]
            idx = vocab.token_to_id.get(token)
            if idx is not None:
                table[idx] = [float(v) for v in parts[1:]]
