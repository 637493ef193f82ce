"""Handcrafted morphological, syntactical, and readability features.

The feature vector layout is fixed and exported through ``FEATURE_NAMES``:
title part-of-speech counts, the question-word count, per-character
punctuation counts, title LIX/RIX, body LIX/RIX/Coleman-Liau, and common and
proper noun counts over title plus content.

Part-of-speech tagging is pluggable; the default is a deterministic heuristic
(closed-class lexicons, suffix rules, capitalization) so the pipeline has no
external tagger dependency and every feature value is reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .corpus import NewsArticle
from .textproc import TokenizedDoc, tokenize

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


class Tagger(Protocol):
    """Anything that maps a tokenized doc to one tag per token."""

    def tag(self, doc: TokenizedDoc) -> list[str]: ...


# Closed-class lexicons for the heuristic tagger (lowercase forms).
_PRONOUNS = {
    "eu", "tu", "el", "ea", "noi", "voi", "ei", "ele", "se", "îi", "le",
    "ne", "vă", "mă", "te", "îl", "își", "sine", "acesta", "aceasta",
    "aceștia", "acestea", "cineva", "ceva", "nimeni", "nimic", "toți", "toate",
    "cine", "ce", "care",
}
_DETERMINERS = {
    "un", "o", "niște", "acest", "această", "acele", "acel", "acea", "cel",
    "cea", "cei", "cele", "al", "a", "ai", "ale", "orice", "fiecare", "alt",
    "altă", "alți", "alte", "mult", "multă", "mulți", "multe", "puțin",
}
_ADPOSITIONS = {
    "de", "la", "în", "pe", "cu", "din", "pentru", "prin", "fără", "despre",
    "sub", "peste", "între", "către", "după", "până", "lângă", "spre", "ca",
    "printre", "asupra", "contra",
}
_CONJUNCTIONS = {
    "și", "sau", "dar", "iar", "că", "dacă", "deși", "însă", "ori", "nici",
    "ci", "precum", "fiindcă", "deoarece", "să",
}
_ADVERBS = {
    "nu", "mai", "foarte", "doar", "chiar", "azi", "ieri", "mâine", "aici",
    "acolo", "așa", "atunci", "când", "unde", "cum", "deja", "tot", "prea",
    "bine", "acum", "apoi", "totuși", "niciodată", "mereu", "oare",
}
_VERBS = {
    "e", "este", "ești", "sunt", "suntem", "sunteți", "era", "erau", "fost",
    "fi", "fie", "are", "am", "au", "avea", "aveau", "va", "vor", "vei",
    "vom", "poate", "trebuie", "face", "fac", "spune", "spus", "vrea",
    "vine", "zis",
}

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
    """

    def tag(self, doc: TokenizedDoc) -> list[str]:
        tokens = doc.tokens
        lower_forms = {t.lower() for t in tokens if not t[:1].isupper()} if tokens else set()
        initial_positions = _sentence_initial_positions(doc)
        tags = []
        for i, token in enumerate(tokens):
            tags.append(self._tag_one(token, i in initial_positions, lower_forms))
        return tags

    def _tag_one(self, token: str, sentence_initial: bool, lower_forms: set[str]) -> str:
        if not any(c.isalpha() or c.isdigit() for c in token):
            return "PUNCT"
        if token.isdigit():
            return "NUM"
        if any(c.isdigit() for c in token):
            return "X"
        lower = token.lower()
        if token[0].isupper():
            if not sentence_initial:
                return "PROPN"
            closed = self._closed_class(lower)
            if closed is not None:
                return closed
            if lower in lower_forms:
                return self._open_class(lower)
            return "PROPN"
        closed = self._closed_class(lower)
        if closed is not None:
            return closed
        return self._open_class(lower)

    @staticmethod
    def _closed_class(lower: str) -> str | None:
        if lower in _ADPOSITIONS:
            return "ADP"
        if lower in _CONJUNCTIONS:
            return "CONJ"
        if lower in _DETERMINERS:
            return "DET"
        if lower in _PRONOUNS:
            return "PRON"
        if lower in _ADVERBS:
            return "ADV"
        if lower in _VERBS:
            return "VERB"
        return None

    @staticmethod
    def _open_class(lower: str) -> str:
        for suffix in _VERB_SUFFIXES:
            if lower.endswith(suffix) and len(lower) > len(suffix):
                return "VERB"
        for suffix in _NOUN_SUFFIXES:
            if lower.endswith(suffix) and len(lower) > len(suffix):
                return "NOUN"
        for suffix in _ADJ_SUFFIXES:
            if lower.endswith(suffix) and len(lower) > len(suffix):
                return "ADJ"
        return "NOUN"


def _sentence_initial_positions(doc: TokenizedDoc) -> set[int]:
    """Index of the first word token in each sentence (leading punctuation skipped)."""
    positions = set()
    start = 0
    for end in doc.sentence_boundaries:
        for i in range(start, end):
            if any(c.isalpha() or c.isdigit() for c in doc.tokens[i]):
                positions.add(i)
                break
        start = end
    return positions


class StubTagger:
    """Constant-tag tagger for tests and pipeline plumbing checks."""

    def __init__(self, tag: str = "NOUN"):
        if tag not in POS_TAGS:
            raise ValueError(f"unknown tag {tag!r}")
        self.constant = tag

    def tag(self, doc: TokenizedDoc) -> list[str]:
        return [self.constant] * len(doc.tokens)


def _word_stats(doc: TokenizedDoc) -> tuple[int, int, int]:
    """(word count, long-word count, letter count) over word tokens."""
    words = doc.word_tokens()
    long_words = 0
    letters = 0
    for w in words:
        n_alpha = sum(1 for c in w if c.isalpha())
        letters += n_alpha
        if n_alpha > LONG_WORD_LETTERS:
            long_words += 1
    return len(words), long_words, letters


def lix(doc: TokenizedDoc) -> float:
    """W/S + 100*LW/W with long words defined as more than 6 letters."""
    n_words, n_long, _ = _word_stats(doc)
    n_sentences = doc.n_sentences
    if n_words == 0:
        raise ValueError("LIX needs at least one word token")
    if n_sentences == 0:
        raise ValueError("LIX needs at least one sentence")
    return n_words / n_sentences + 100.0 * n_long / n_words


def rix(doc: TokenizedDoc) -> float:
    """Long words per sentence."""
    _, n_long, _ = _word_stats(doc)
    n_sentences = doc.n_sentences
    if n_sentences == 0:
        raise ValueError("RIX needs at least one sentence")
    return n_long / n_sentences


def cl_score(doc: TokenizedDoc) -> float:
    """Coleman-Liau index: 0.0588*L - 0.296*S - 15.8.

    L is letters per 100 words, S is sentences per 100 words.
    """
    n_words, _, n_letters = _word_stats(doc)
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


def pos_counts(
    doc: TokenizedDoc, tagger: Tagger
) -> tuple[dict[str, int], int, int]:
    """Histogram over the tag set plus (common noun, proper noun) counts."""
    tags = tagger.tag(doc)
    if len(tags) != len(doc.tokens):
        raise ValueError(
            f"tagger returned {len(tags)} tags for {len(doc.tokens)} tokens"
        )
    histogram = {tag: 0 for tag in POS_TAGS}
    for tag in tags:
        if tag not in histogram:
            raise ValueError(f"tagger produced unknown tag {tag!r}")
        histogram[tag] += 1
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


def extract_features(article: NewsArticle, tagger: Tagger | None = None) -> np.ndarray:
    """Assemble the fixed-order feature vector for one article.

    Title readability is computed on the title, body readability on the
    content, and noun counts on title plus content combined.  Raises when a
    component is undefined (e.g. a title with no word tokens).
    """
    if tagger is None:
        tagger = HeuristicTagger()
    title_doc = tokenize(article.title)
    content_doc = tokenize(article.content)

    title_hist, title_common, title_proper = pos_counts(title_doc, tagger)
    _, content_common, content_proper = pos_counts(content_doc, tagger)
    punct = punctuation_counts(article.title)

    values = [
        *(float(title_hist[tag]) for tag in POS_TAGS),
        float(question_word_count(title_doc)),
        *(float(punct[ch]) for ch in PUNCTUATION_FEATURES),
        lix(title_doc),
        rix(title_doc),
        lix(content_doc),
        rix(content_doc),
        cl_score(content_doc),
        float(title_common + content_common),
        float(title_proper + content_proper),
    ]
    vector = np.array(values, dtype=np.float64)
    if not np.all(np.isfinite(vector)):
        raise ValueError("non-finite feature value")
    return vector


def feature_matrix(
    articles: Sequence[NewsArticle], tagger: Tagger | None = None
) -> np.ndarray:
    """One feature row per article; an undefined feature names its article."""
    if tagger is None:
        tagger = HeuristicTagger()
    rows = []
    for article in articles:
        try:
            rows.append(extract_features(article, tagger))
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

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"mean": self.mean.tolist(), "std": self.std.tolist()}, fh)

    @classmethod
    def load(cls, path) -> "Standardizer":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        return cls(
            mean=np.array(payload["mean"], dtype=np.float64),
            std=np.array(payload["std"], dtype=np.float64),
        )


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
