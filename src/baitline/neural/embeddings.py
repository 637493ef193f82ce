"""Optional pretrained word-vector initialization for embedding tables.

File format: one token per line followed by its vector components, whitespace
separated.  Tokens missing from the file keep their random initialization;
pad and oov rows are always random.
"""

from __future__ import annotations

import numpy as np

from ..tensor.checkpoint import numbered_lines
from ..textproc import Vocabulary


def load_pretrained_embeddings(path, vocab: Vocabulary, table: np.ndarray) -> None:
    """Write the file's vectors into the rows of ``table``, the model's own
    (rows, embed_dim) embedding table, for vocabulary tokens, in place."""
    embed_dim = table.shape[1]
    for line_no, line in numbered_lines(path):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != embed_dim + 1:
            raise ValueError(
                f"{path}:{line_no}: expected token + {embed_dim} values, got {len(parts) - 1}"
            )
        idx = vocab.token_to_id.get(parts[0])
        if idx is None:
            continue
        try:
            table[idx] = [float(v) for v in parts[1:]]
        except ValueError:  # not a number
            table[idx] = np.nan
        if not np.isfinite(table[idx]).all():
            raise ValueError(f"{path}:{line_no}: a value of {parts[0]!r} is not a finite number")
