"""Deterministic text normalization, tokenization, and integer encoding.

One tokenizer feeds every consumer, so all derived numbers are reproducible
from the raw text alone.  It runs twice per article: corpus statistics and
features tokenize the raw text, the neural encoders its ``normalize`` form.
One pass cannot serve both, since ``normalize`` drops characters and so joins
their neighbours: ``tokenize("a(b c")`` gives ``a ( b c``, while
``tokenize(normalize("a(b c"))`` gives ``ab c``.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

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
    """Distinct tokens after the reserved pad (0) and oov (1) ids: the token at
    index i has id i + 2, so ids are dense in [0, size).  An optional
    separator token (used to join title and content into one sequence)
    occupies a regular token slot."""

    tokens: tuple[str, ...]
    token_to_id: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # an instance attribute, not a cached_property: id_for runs once per token
        object.__setattr__(self, "token_to_id",
                           {token: index for index, token in enumerate(self.tokens, start=2)})

    @property
    def size(self) -> int:
        """Total id count including pad and oov."""
        return len(self.tokens) + 2

    @property
    def separator_id(self) -> int | None:
        return self.token_to_id.get(SEPARATOR_TOKEN)

    def id_for(self, token: str) -> int:
        return self.token_to_id.get(token, OOV_ID)


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
    reserved = (SEPARATOR_TOKEN,) if include_separator else ()
    return Vocabulary(reserved + tuple(tok for tok, _ in ranked[: max_size - len(reserved)]))


def encode(docs: list[TokenizedDoc], vocab: Vocabulary, max_len: int,
           trim: bool = False) -> np.ndarray:
    """One (len(docs), max_len) id matrix: each doc's token ids, truncated to
    the head ``max_len`` and right-padded with ``PAD_ID``; with ``trim``,
    only as wide as the longest truncated doc.

    Every token id is at least 1 (``OOV_ID`` when the token is not in the
    vocabulary), so ``ids != PAD_ID`` marks exactly the real positions.
    """
    return encode_ids((map(vocab.id_for, doc.tokens) for doc in docs), max_len, trim)


def encode_ids(rows, max_len: int, trim: bool = False) -> np.ndarray:
    """Stack id rows, each cut to its first ``max_len`` ids and right-padded
    with ``PAD_ID``, into one (n, max_len) int64 matrix; with ``trim``, it is
    only as wide as its longest cut row, and at least one column.  A row may
    be any iterable of ids: it is read only up to ``max_len``."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    cut = [np.fromiter(islice(row, max_len), np.int64) for row in rows]
    width = max(max((len(ids) for ids in cut), default=0), 1) if trim else max_len
    out = np.full((len(cut), width), PAD_ID, dtype=np.int64)
    for row, ids in zip(out, cut):
        row[: len(ids)] = ids
    return out


def vocab_from_tokens(path, name: str, tokens) -> Vocabulary:
    """The vocabulary that field ``name`` of the model file ``path`` holds as
    its ``tokens``.  Ids must stay dense, since an embedding table has one row
    per id: anything but a list of distinct non-empty strings raises
    ValueError naming the file, the field and the first bad entry."""
    if type(tokens) is not list:
        raise ValueError(f"{path}: field {name!r} is not a list of tokens")
    seen: set[str] = set()
    for index, token in enumerate(tokens):
        if not (isinstance(token, str) and token) or token in seen:
            raise ValueError(f"{path}: field {name!r} entry {index}, {token!r}, "
                             "is empty, not a string or a repeat")
        seen.add(token)
    return Vocabulary(tuple(tokens))
