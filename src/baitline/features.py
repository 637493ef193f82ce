"""Handcrafted morphological, syntactical, and readability features.

The feature vector layout is fixed and exported through ``FEATURE_NAMES``:
title part-of-speech counts, the question-word count, per-character
punctuation counts, title LIX/RIX, body LIX/RIX/Coleman-Liau, and common and
proper noun counts over title plus content.

Part-of-speech tags come from a deterministic heuristic (closed-class
lexicons, suffix rules, capitalization), so the pipeline has no external
tagger dependency and every feature value is reproducible.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import parallel
from .corpus import NewsArticle
from .tensor.checkpoint import finite_array
from .textproc import TokenizedDoc, _is_word, tokenize

# Fixed 12-tag universal-style tag set.
POS_TAGS = (
    "NOUN", "PROPN", "VERB", "ADJ", "ADV", "PRON",
    "DET", "ADP", "NUM", "CONJ", "PUNCT", "X",
)

LONG_WORD_LETTERS = 6  # words longer than this count as "long" for LIX/RIX

PUNCTUATION_FEATURES = ("?", "!", ".", ":", '"', "'")

# Romanian interrogatives; "de ce" is matched on adjacent tokens and the
# consumed "ce" is not double counted.
QUESTION_WORDS = {
    "cine", "ce", "care", "când", "unde", "cum", "cât", "câte", "câți", "oare",
}


# Closed-class lexicons for the heuristic tagger (lowercase forms), in rule
# order: a word listed under two tags takes the first.
_CLOSED_CLASS_LEXICONS = (
    ("ADP", (
        "de", "la", "în", "pe", "cu", "din", "pentru", "prin", "fără", "despre",
        "sub", "peste", "între", "către", "după", "până", "lângă", "spre", "ca",
        "printre", "asupra", "contra",
    )),
    ("CONJ", (
        "și", "sau", "dar", "iar", "că", "dacă", "deși", "însă", "ori", "nici",
        "ci", "precum", "fiindcă", "deoarece", "să",
    )),
    ("DET", (
        "un", "o", "niște", "acest", "această", "acele", "acel", "acea", "cel",
        "cea", "cei", "cele", "al", "a", "ai", "ale", "orice", "fiecare", "alt",
        "altă", "alți", "alte", "mult", "multă", "mulți", "multe", "puțin",
    )),
    ("PRON", (
        "eu", "tu", "el", "ea", "noi", "voi", "ei", "ele", "se", "îi", "le",
        "ne", "vă", "mă", "te", "îl", "își", "sine", "acesta", "aceasta",
        "aceștia", "acestea", "cineva", "ceva", "nimeni", "nimic", "toți", "toate",
        "cine", "ce", "care",
    )),
    ("ADV", (
        "nu", "mai", "foarte", "doar", "chiar", "azi", "ieri", "mâine", "aici",
        "acolo", "așa", "atunci", "când", "unde", "cum", "deja", "tot", "prea",
        "bine", "acum", "apoi", "totuși", "niciodată", "mereu", "oare",
    )),
    ("VERB", (
        "e", "este", "ești", "sunt", "suntem", "sunteți", "era", "erau", "fost",
        "fi", "fie", "are", "am", "au", "avea", "aveau", "va", "vor", "vei",
        "vom", "poate", "trebuie", "face", "fac", "spune", "spus", "vrea",
        "vine", "zis",
    )),
)
# lowercase word -> closed-class tag; built last rule first so the first rule wins
_CLOSED_CLASS = {word: tag for tag, words in reversed(_CLOSED_CLASS_LEXICONS) for word in words}

# Suffix rules, tried in order after the lexicons; first match wins.
_VERB_SUFFIXES = ("ează", "ește", "esc", "eze", "ând", "ind", "ăm", "im")
_ADJ_SUFFIXES = ("os", "oasă", "oși", "oase", "ică", "ici", "ice", "iv",
                 "ivă", "nic", "nică", "bil", "bilă")
_NOUN_SUFFIXES = ("ție", "ții", "ția", "are", "ări", "ere", "eri", "ire",
                  "iri", "tate", "tatea", "tăți", "ment", "ist", "istă",
                  "tor", "toare", "ură", "uri", "eală")


class HeuristicTagger:
    """Deterministic rule tagger over the fixed 12-tag set.

    Rules, in order: punctuation tokens tag PUNCT; all-digit tokens NUM;
    digit-letter mixtures X; capitalized tokens tag PROPN when they are not
    the first word of their sentence, and sentence-initial capitalized tokens
    tag PROPN only when neither a closed-class entry nor a lowercase variant
    elsewhere in the doc explains them; remaining tokens go through the
    closed-class lexicons, then suffix rules, and default to NOUN.

    Every rule except the sentence-initial one depends on the token alone, so
    an instance memoizes each token's tag (PROPN for capitalized words) and
    revisits only the first word of each sentence.  Use one instance per batch
    of docs.
    """

    def __init__(self):
        self._tags: dict[str, str] = {}  # token -> tag wherever it stands
        # Non-capitalized tokens that lowercase to another string ("aȘ", "ǅa"):
        # the only tokens whose lowercase variant is not the token itself.
        self._mixed_case: set[str] = set()

    def tag(self, doc: TokenizedDoc) -> list[str]:
        tokens = doc.tokens
        memo = self._tags
        distinct = set(tokens)
        for token in distinct.difference(memo):
            memo[token] = self._token_tag(token)
            if not token[0].isupper() and token.lower() != token:
                self._mixed_case.add(token)
        tags = list(map(memo.__getitem__, tokens))
        first = 0
        for end in doc.sentence_boundaries:
            while first < end and tags[first] == "PUNCT":  # the sentence's first word
                first += 1
            if first < end and tags[first] == "PROPN":
                lower = tokens[first].lower()
                lexical, closed = self._lexical_class(lower)
                if closed or self._has_lowercase_variant(lower, distinct):
                    tags[first] = lexical
            first = end
        return tags

    def _has_lowercase_variant(self, lower: str, distinct: set[str]) -> bool:
        """Whether a non-capitalized token of the doc lowercases to ``lower``."""
        # str.lower is idempotent, so ``lower`` itself qualifies unless it still
        # starts with an uppercase letter that has no lowercase form ("ϒ")
        if lower in distinct and not lower[:1].isupper():
            return True
        return any(t.lower() == lower for t in self._mixed_case.intersection(distinct))

    def _token_tag(self, token: str) -> str:
        """The tag of a token wherever it stands; PROPN for capitalized words."""
        if not token.isalpha():  # a token of letters only skips the per-character scans
            if not _is_word(token):
                return "PUNCT"
            if token.isdigit():
                return "NUM"
            if any(c.isdigit() for c in token):
                return "X"
        if token[0].isupper():
            return "PROPN"
        return self._lexical_class(token.lower())[0]

    @staticmethod
    def _lexical_class(lower: str) -> tuple[str, bool]:
        """(closed-class tag, True) if the lexicons list it, else (open-class tag, False)."""
        closed = _CLOSED_CLASS.get(lower)
        if closed is not None:
            return closed, True
        # a suffix counts only when something precedes it, so match on lower[1:]
        stem = lower[1:]
        if stem.endswith(_VERB_SUFFIXES):
            return "VERB", False
        if stem.endswith(_NOUN_SUFFIXES):
            return "NOUN", False
        if stem.endswith(_ADJ_SUFFIXES):
            return "ADJ", False
        return "NOUN", False


WordStats = tuple[int, int, int]  # (words, long words, letters), or one token's share


def _token_stats(token: str) -> WordStats:
    """(is word, is long, letter count) of one token, as 0/1 flags and a count."""
    if token.isalpha():
        return 1, int(len(token) > LONG_WORD_LETTERS), len(token)
    if not _is_word(token):
        return 0, 0, 0
    n_alpha = sum(1 for c in token if c.isalpha())
    return 1, int(n_alpha > LONG_WORD_LETTERS), n_alpha


def _word_stats(doc: TokenizedDoc, memo: dict[str, WordStats] | None = None) -> WordStats:
    """(word count, long-word count, letter count) over word tokens.

    Each distinct token's stats count once, times its frequency.  ``memo``
    maps tokens to their ``_token_stats``; pass one dict to share it across
    docs.
    """
    if memo is None:
        memo = {}
    n_words = n_long = n_letters = 0
    for token, count in Counter(doc.tokens).items():
        stats = memo.get(token)
        if stats is None:
            stats = memo[token] = _token_stats(token)
        is_word, is_long, letters = stats
        n_words += is_word * count
        n_long += is_long * count
        n_letters += letters * count
    return n_words, n_long, n_letters


def lix(doc: TokenizedDoc, stats: WordStats | None = None) -> float:
    """W/S + 100*LW/W with long words defined as more than 6 letters.

    ``stats`` is the doc's ``_word_stats`` when the caller already has it; the
    same holds for ``rix`` and ``cl_score``.
    """
    n_words, n_long, _ = _word_stats(doc) if stats is None else stats
    n_sentences = doc.n_sentences
    if n_words == 0:
        raise ValueError("LIX needs at least one word token")
    if n_sentences == 0:
        raise ValueError("LIX needs at least one sentence")
    return n_words / n_sentences + 100.0 * n_long / n_words


def rix(doc: TokenizedDoc, stats: WordStats | None = None) -> float:
    """Long words per sentence."""
    _, n_long, _ = _word_stats(doc) if stats is None else stats
    n_sentences = doc.n_sentences
    if n_sentences == 0:
        raise ValueError("RIX needs at least one sentence")
    return n_long / n_sentences


def cl_score(doc: TokenizedDoc, stats: WordStats | None = None) -> float:
    """Coleman-Liau index: 0.0588*L - 0.296*S - 15.8.

    L is letters per 100 words, S is sentences per 100 words.
    """
    n_words, _, n_letters = _word_stats(doc) if stats is None else stats
    if n_words == 0:
        raise ValueError("Coleman-Liau needs at least one word token")
    letters_per_100 = 100.0 * n_letters / n_words
    sentences_per_100 = 100.0 * doc.n_sentences / n_words
    return 0.0588 * letters_per_100 - 0.296 * sentences_per_100 - 15.8


def question_word_count(doc: TokenizedDoc) -> int:
    """Count interrogative tokens; adjacent "de ce" counts once."""
    tokens = [t.lower() for t in doc.tokens]
    count = 0
    i = 0
    while i < len(tokens):
        if tokens[i] == "de" and i + 1 < len(tokens) and tokens[i + 1] == "ce":
            count += 1
            i += 2
            continue
        if tokens[i] in QUESTION_WORDS:
            count += 1
        i += 1
    return count


def punctuation_counts(title_text: str) -> dict[str, int]:
    """Per-character counts of ? ! . : \" ' in the raw (unstripped) title."""
    return {ch: title_text.count(ch) for ch in PUNCTUATION_FEATURES}


def pos_counts(doc: TokenizedDoc, tagger: HeuristicTagger) -> tuple[dict[str, int], int, int]:
    """Histogram over the tag set plus (common noun, proper noun) counts."""
    histogram = dict.fromkeys(POS_TAGS, 0)
    histogram.update(Counter(tagger.tag(doc)))
    return histogram, histogram["NOUN"], histogram["PROPN"]


FEATURE_NAMES: tuple[str, ...] = (
    *(f"title_pos_{tag.lower()}" for tag in POS_TAGS),
    "title_question_words",
    *(f"title_punct_{name}" for name in ("question", "exclam", "period", "colon", "dquote", "squote")),
    "title_lix",
    "title_rix",
    "body_lix",
    "body_rix",
    "body_clscore",
    "common_nouns",
    "proper_nouns",
)

N_FEATURES = len(FEATURE_NAMES)

# Characters of title and content below which a chunk of articles is
# featurized faster in the calling process than in a forked child.
FORK_MIN_CHARS = 48_000


def extract_features(
    article: NewsArticle,
    tagger: HeuristicTagger,
    word_memo: dict[str, WordStats] | None = None,
) -> np.ndarray:
    """Assemble the fixed-order feature vector for one article.

    Title readability is computed on the title, body readability on the
    content, and noun counts on title plus content combined.  Raises when a
    component is undefined (e.g. a title with no word tokens).  ``tagger``
    memoizes tags and ``word_memo`` per-token word statistics;
    ``feature_matrix`` shares one of each across a chunk of articles.
    """
    title_doc = tokenize(article.title)
    content_doc = tokenize(article.content)

    title_hist, title_common, title_proper = pos_counts(title_doc, tagger)
    _, content_common, content_proper = pos_counts(content_doc, tagger)
    punct = punctuation_counts(article.title)
    title_stats = _word_stats(title_doc, word_memo)
    content_stats = _word_stats(content_doc, word_memo)

    values = [
        *(float(title_hist[tag]) for tag in POS_TAGS),
        float(question_word_count(title_doc)),
        *(float(punct[ch]) for ch in PUNCTUATION_FEATURES),
        lix(title_doc, title_stats),
        rix(title_doc, title_stats),
        lix(content_doc, content_stats),
        rix(content_doc, content_stats),
        cl_score(content_doc, content_stats),
        float(title_common + content_common),
        float(title_proper + content_proper),
    ]
    vector = np.array(values, dtype=np.float64)
    if not np.all(np.isfinite(vector)):
        raise ValueError("non-finite feature value")
    return vector


def feature_matrix(articles: Sequence[NewsArticle]) -> np.ndarray:
    """One feature row per article; an undefined feature names its article,
    the first such in input order.

    Contiguous chunks of articles, balanced by characters of title and
    content, run on the CPUs this process may use (``parallel.fork_join``), at
    most one chunk per ``FORK_MIN_CHARS`` characters; every row depends on its
    article alone, so the matrix does not depend on the split.
    """
    chunks = parallel.split([len(a.title) + len(a.content) for a in articles], FORK_MIN_CHARS)
    rows = parallel.fork_join(lambda chunk: _feature_rows(articles[chunk]), chunks)
    return np.concatenate(rows)


def _feature_rows(articles: Sequence[NewsArticle]) -> np.ndarray:
    """``feature_matrix`` of ``articles`` in this process."""
    tagger = HeuristicTagger()
    word_memo: dict[str, WordStats] = {}
    rows = []
    for article in articles:
        try:
            rows.append(extract_features(article, tagger, word_memo))
        except ValueError as exc:
            raise ValueError(f"article {article.id!r}: {exc}") from None
    return np.stack(rows)


@dataclass(frozen=True)
class Standardizer:
    """Per-dimension z-scoring parameters fitted on training data."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        return (np.asarray(vectors, dtype=np.float64) - self.mean) / self.std

    def fields(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    def save(self, path) -> None:
        """Export ``fields()`` as JSON; a model keeps them in its ``model.json``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.fields(), fh)

    @classmethod
    def from_fields(cls, path, payload: dict) -> "Standardizer":
        """The standardizer in ``payload``, read from the file ``path``:
        ``N_FEATURES`` finite means and positive finite deviations, else
        ValueError naming the file and the key."""
        arrays = {key: finite_array(path, f"standardizer {key!r}", payload.get(key), N_FEATURES)
                  for key in ("mean", "std")}
        if (arrays["std"] <= 0).any():
            raise ValueError(f"{path}: standardizer 'std' has a value <= 0")
        return cls(**arrays)


def fit_standardizer(matrix: np.ndarray) -> Standardizer:
    """Fit per-column mean/std; zero-variance columns get std forced to 1."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise ValueError("standardizer needs a matrix with at least 2 rows")
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return Standardizer(mean=mean, std=std)


def export_features(matrix: np.ndarray, path, names: Sequence[str] = FEATURE_NAMES) -> None:
    """Write a delimited text export with a header row naming each dimension."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[1] != len(names):
        raise ValueError(
            f"matrix has {matrix.shape} columns, expected {len(names)}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(names) + "\n")
        for row in matrix:
            fh.write("\t".join(repr(float(v)) for v in row) + "\n")
