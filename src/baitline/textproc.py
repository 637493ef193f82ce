"""Deterministic text normalization, tokenization, and integer encoding.

A single tokenizer feeds every downstream consumer (corpus statistics,
readability features, neural encoders) so that all derived numbers are
reproducible from the raw text alone.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .tensor.checkpoint import CheckpointVersionError

PAD_ID = 0
OOV_ID = 1

# Reserved token string used to join title and content for single-sequence
# classifiers.  U+241F never survives normalize() and tokenize() always splits
# multi-character symbols, so it cannot collide with a corpus token.
SEPARATOR_TOKEN = "␟"

# Punctuation kept by normalize(); everything else outside letters, digits
# and whitespace is stripped.
KEPT_PUNCTUATION = set('.,!?:;"\'-')

SENTENCE_TERMINATORS = {".", "!", "?"}

# Alnum runs (underscore excluded), otherwise any single non-space character.
_TOKEN_RE = re.compile(r"[^\W_]+|[^\w\s]|_", re.UNICODE)


def normalize(text: str) -> str:
    """Lowercase, drop characters outside the kept set, collapse whitespace.

    Unicode-aware: Romanian diacritics are letters and survive unchanged.
    Total function; returns "" for input with no kept characters.
    """
    lowered = text.lower()
    dropped = [ch for ch in set(lowered)
               if not (ch.isalpha() or ch.isdigit() or ch.isspace() or ch in KEPT_PUNCTUATION)]
    for ch in dropped:
        lowered = lowered.replace(ch, "")
    return " ".join(lowered.split())


@dataclass(frozen=True)
class TokenizedDoc:
    """Token list plus sentence boundaries (token-index offsets).

    ``sentence_boundaries`` is strictly increasing and, for non-empty docs,
    ends at ``len(tokens)``.
    """

    tokens: tuple[str, ...]
    sentence_boundaries: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def n_sentences(self) -> int:
        return len(self.sentence_boundaries)

    def word_tokens(self) -> list[str]:
        """Tokens that carry word content (letters/digits), skipping punctuation."""
        return [t for t in self.tokens if t.isalpha() or _is_word(t)]


def _is_word(token: str) -> bool:
    return any(c.isalpha() or c.isdigit() for c in token)


def tokenize(text: str) -> TokenizedDoc:
    """Split text into alnum-run tokens and single-character punctuation tokens.

    A sentence boundary is recorded after every '.', '!' or '?' token and at
    the end of the text.  Works on raw or normalized input; deterministic and
    total.
    """
    tokens = _TOKEN_RE.findall(text)
    boundaries: list[int] = []
    for i, tok in enumerate(tokens):
        if tok in SENTENCE_TERMINATORS:
            boundaries.append(i + 1)
    if tokens and (not boundaries or boundaries[-1] != len(tokens)):
        boundaries.append(len(tokens))
    return TokenizedDoc(tuple(tokens), tuple(boundaries))


@dataclass(frozen=True)
class Vocabulary:
    """Token-to-id map with reserved pad (0) and oov (1) slots.

    Ids are dense in [0, size).  An optional separator token (used to join
    title and content into one sequence) occupies a regular token slot.
    """

    token_to_id: dict[str, int] = field(repr=False)

    def __post_init__(self):
        for token, idx in self.token_to_id.items():
            if idx in (PAD_ID, OOV_ID):
                raise ValueError(f"token {token!r} assigned reserved id {idx}")

    @property
    def size(self) -> int:
        """Total id count including pad and oov."""
        return len(self.token_to_id) + 2

    @property
    def separator_id(self) -> int | None:
        return self.token_to_id.get(SEPARATOR_TOKEN)

    def id_for(self, token: str) -> int:
        return self.token_to_id.get(token, OOV_ID)

    def ordered_tokens(self) -> list[str]:
        """Tokens sorted by id; line number in the text format is id - 2."""
        return [t for t, _ in sorted(self.token_to_id.items(), key=lambda kv: kv[1])]


def build_vocab(
    docs: list[TokenizedDoc], max_size: int, include_separator: bool = False
) -> Vocabulary:
    """Keep the ``max_size`` most frequent word tokens across ``docs``.

    Punctuation tokens are excluded; frequency ties break lexicographically
    (smaller string wins).  When ``include_separator`` is set, the separator
    token is inserted at id 2 and counts against ``max_size``.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    if not docs:
        raise ValueError("cannot build a vocabulary from an empty doc list")
    counts: Counter[str] = Counter()
    for doc in docs:
        counts.update(doc.word_tokens())
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    budget = max_size - 1 if include_separator else max_size
    chosen = [tok for tok, _ in ranked[: max(budget, 0)]]
    token_to_id: dict[str, int] = {}
    next_id = 2
    if include_separator:
        token_to_id[SEPARATOR_TOKEN] = next_id
        next_id += 1
    for tok in chosen:
        token_to_id[tok] = next_id
        next_id += 1
    return Vocabulary(token_to_id=token_to_id)


def encode(
    doc: TokenizedDoc, vocab: Vocabulary, max_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """Map tokens to ids, truncating past ``max_len`` and right-padding.

    Truncation keeps the head of the sequence.  Returns ``(ids, mask)`` of
    length ``max_len``; the mask is 1 on real tokens and 0 on padding.
    """
    return encode_ids([vocab.id_for(tok) for tok in doc.tokens[:max_len]], max_len)


def encode_ids(ids: list[int], max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Pad/truncate a pre-built id list to ``max_len`` with its mask."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    out = np.full(max_len, PAD_ID, dtype=np.int64)
    mask = np.zeros(max_len, dtype=np.int64)
    for i, idx in enumerate(ids[:max_len]):
        out[i] = idx
        mask[i] = 1
    return out, mask


def save_vocab(vocab: Vocabulary, path) -> None:
    """Write the ordered token list, one token per line (line = id - 2)."""
    with open(path, "w", encoding="utf-8") as fh:
        for token in vocab.ordered_tokens():
            fh.write(token + "\n")


def load_vocab(path) -> Vocabulary:
    """Read a ``save_vocab`` file of a model directory.

    Ids must stay dense, because a model's embedding table has one row per
    id: a blank or repeated line raises ``CheckpointVersionError`` naming the
    file and the line.
    """
    token_to_id: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            token = line.rstrip("\n")
            if not token:
                raise CheckpointVersionError(f"{path}:{line_no}: blank line in a vocabulary file")
            if token in token_to_id:
                raise CheckpointVersionError(
                    f"{path}:{line_no}: token {token!r} repeats line {token_to_id[token] - 1}"
                )
            token_to_id[token] = line_no + 1
    return Vocabulary(token_to_id=token_to_id)
