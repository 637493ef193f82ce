"""Seeded synthetic news articles for the benchmark workloads.

Real-length articles follow the published means of the Romanian clickbait
corpus: titles of about 21 tokens, contents of about 454 tokens in about 28
sentences, and 3,720 / 8,313 clickbait.  Feed items keep the title but carry
only a lead of 40 to 80 tokens.  Words come from a Zipf-ranked lexicon, so a
vocabulary keeps growing with the corpus the way news text does.  A clickbait
title is drawn from another topic than its content; every article is
well-formed (malformed input is a robustness concern, not a speed one).

Only ``baitline.corpus.NewsArticle`` and ``Corpus`` are used from the package,
so the generator never depends on the code being measured.  All token draws
for a corpus are made in a few vectorized numpy calls.
"""

from __future__ import annotations

import numpy as np

from baitline.corpus import Corpus, Label, NewsArticle

CLICKBAIT_SHARE = 3720 / 8313
LEXICON_SIZE = 40_000
TOPIC_WORDS = 2_000
N_TOPICS = 24
ZIPF_EXPONENT = 1.07
FUNCTION_SHARE = 0.35  # share of word tokens that are closed-class words
TOPIC_SHARE = 0.6  # share of content words drawn from the article's topic
PROPER_SHARE = 0.03  # share of the lexicon written capitalized

# Sentence shapes, in word tokens; punctuation tokens come on top.
TITLE_WORDS = 20.0  # 1 + Poisson(mean) words, plus about one punctuation mark
CONTENT_SENTENCES = 27.0  # 1 + Poisson(mean) sentences
SENTENCE_WORDS = 15.2  # 1 + Poisson(mean) words, then a period
COMMA_RATE = 0.2  # commas per sentence
LEAD_TOKENS = (40, 80)  # feed-item lead length, uniform, in tokens

SOURCES = ("alfa-news", "beta-press", "gama-post", "delta-zilnic", "epsilon-info")

_FUNCTION_WORDS = (
    "de", "la", "în", "și", "că", "pe", "cu", "a", "nu", "se", "din", "să",
    "o", "un", "care", "este", "mai", "pentru", "au", "ce", "sunt", "fost",
    "dar", "după", "iar", "prin", "către", "despre", "acest", "această",
    "cel", "ale", "al", "foarte", "doar", "chiar", "acum", "va", "poate", "sau",
)
_SYLLABLES = (
    "ba", "be", "ca", "ce", "da", "de", "fa", "ga", "la", "le", "ma", "me",
    "na", "ne", "pa", "pe", "ra", "re", "sa", "se", "ta", "te", "va", "ve",
    "ri", "mi", "ti", "ni", "lo", "ro", "to", "mu", "ru", "tu", "bă", "mă",
    "ță", "șa", "șe", "ză", "câ", "mâ", "în", "ăr", "ân", "iu", "ea", "oa",
    "ion", "ter", "man", "sto", "pri", "cre", "gra", "str", "var", "tor",
)
_TITLE_ENDS = ("", "?", "!", ".")


def _zipf_cdf(n: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** ZIPF_EXPONENT
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def _draw(cdf: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, rng.random(size)), len(cdf) - 1)


class NewsGenerator:
    """Lexicon and topics fixed by one seed; draws articles and feed items."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.lexicon = self._make_lexicon()
        self.topics = np.stack([
            self.rng.permutation(LEXICON_SIZE)[:TOPIC_WORDS] for _ in range(N_TOPICS)
        ])
        self.lexicon_cdf = _zipf_cdf(LEXICON_SIZE)
        self.topic_cdf = _zipf_cdf(TOPIC_WORDS)
        self.function_cdf = _zipf_cdf(len(_FUNCTION_WORDS))
        self.function_words = np.array(_FUNCTION_WORDS, dtype=object)

    def _make_lexicon(self) -> np.ndarray:
        n = 2 * LEXICON_SIZE
        lengths = self.rng.integers(2, 5, size=n)
        picks = self.rng.integers(0, len(_SYLLABLES), size=int(lengths.sum()))
        words, seen, pos = [], set(_FUNCTION_WORDS), 0
        for length in lengths:
            word = "".join(_SYLLABLES[k] for k in picks[pos:pos + length])
            pos += length
            if word not in seen:
                seen.add(word)
                words.append(word)
        if len(words) < LEXICON_SIZE:
            raise RuntimeError("syllable inventory too small for the lexicon")
        lexicon = np.array(words[:LEXICON_SIZE], dtype=object)
        proper = self.rng.random(LEXICON_SIZE) < PROPER_SHARE
        lexicon[proper] = [w.capitalize() for w in lexicon[proper]]
        return lexicon

    def _words(self, topics: np.ndarray) -> np.ndarray:
        """One word per entry of ``topics`` (the topic each word is drawn for)."""
        n = len(topics)
        kind = self.rng.random(n)
        function = kind < FUNCTION_SHARE
        on_topic = ~function & (kind < FUNCTION_SHARE + (1 - FUNCTION_SHARE) * TOPIC_SHARE)
        out = self.lexicon[_draw(self.lexicon_cdf, self.rng, n)]  # background words
        ranks = _draw(self.topic_cdf, self.rng, int(on_topic.sum()))
        out[on_topic] = self.lexicon[self.topics[topics[on_topic], ranks]]
        out[function] = self.function_words[_draw(self.function_cdf, self.rng, int(function.sum()))]
        return out

    def _sentences(self, sentence_topics: np.ndarray) -> list[str]:
        """One rendered sentence (ending in a period) per entry."""
        lengths = 1 + self.rng.poisson(SENTENCE_WORDS, size=len(sentence_topics))
        words = self._words(np.repeat(sentence_topics, lengths))
        commas = self.rng.random(len(sentence_topics)) < COMMA_RATE
        comma_at = (self.rng.random(len(sentence_topics)) * lengths).astype(np.int64)
        out, pos = [], 0
        for length, comma, at in zip(lengths, commas, comma_at):
            sentence = list(words[pos:pos + length])
            pos += length
            if comma and 0 < at < length:
                sentence[at - 1] += ","
            sentence[0] = sentence[0].capitalize()
            out.append(" ".join(sentence) + ".")
        return out

    def _titles(self, topics: np.ndarray, clickbait: np.ndarray) -> list[str]:
        lengths = 1 + self.rng.poisson(TITLE_WORDS, size=len(topics))
        words = self._words(np.repeat(topics, lengths))
        colon_at = (self.rng.random(len(topics)) * lengths).astype(np.int64)
        # clickbait titles end in '?' or '!' more often, as in news feeds
        end_p = np.where(clickbait[:, None], [0.3, 0.3, 0.3, 0.1], [0.55, 0.05, 0.05, 0.35])
        ends = (self.rng.random(len(topics))[:, None] > np.cumsum(end_p, axis=1)).sum(axis=1)
        out, pos = [], 0
        for length, at, end in zip(lengths, colon_at, ends):
            title = list(words[pos:pos + length])
            pos += length
            if 0 < at < length and at % 2 == 0:
                title[at - 1] += ":"
            title[0] = title[0].capitalize()
            out.append(" ".join(title) + _TITLE_ENDS[min(end, 3)])
        return out

    def _labels_and_topics(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        clickbait = self.rng.random(n) < CLICKBAIT_SHARE
        # every prefix of two or more articles holds both classes, so each
        # slice the workloads train on can be trained on
        clickbait[:2] = [True, False][:n]
        content_topic = self.rng.integers(0, N_TOPICS, size=n)
        shift = self.rng.integers(1, N_TOPICS, size=n)
        title_topic = np.where(clickbait, (content_topic + shift) % N_TOPICS, content_topic)
        return clickbait, title_topic, content_topic

    def _corpus(self, prefix: str, name: str, titles, contents, clickbait) -> Corpus:
        sources = self.rng.integers(0, len(SOURCES), size=len(titles))
        articles = tuple(
            NewsArticle(
                id=f"{prefix}-{i:05d}",
                title=title,
                content=content,
                source=SOURCES[src],
                label=Label.CLICKBAIT if cb else Label.NON_CLICKBAIT,
            )
            for i, (title, content, cb, src) in enumerate(zip(titles, contents, clickbait, sources))
        )
        return Corpus(articles, name=name)

    def articles(self, n: int, prefix: str = "art", name: str = "articles") -> Corpus:
        """Real-length labeled articles."""
        clickbait, title_topic, content_topic = self._labels_and_topics(n)
        counts = 1 + self.rng.poisson(CONTENT_SENTENCES, size=n)
        sentences = self._sentences(np.repeat(content_topic, counts))
        contents, pos = [], 0
        for count in counts:
            contents.append(" ".join(sentences[pos:pos + count]))
            pos += count
        return self._corpus(prefix, name, self._titles(title_topic, clickbait), contents, clickbait)

    def feed(self, n: int, prefix: str = "feed", name: str = "feed") -> Corpus:
        """Labeled feed items: a real-length title and a short lead."""
        clickbait, title_topic, content_topic = self._labels_and_topics(n)
        budgets = self.rng.integers(LEAD_TOKENS[0], LEAD_TOKENS[1] + 1, size=n)
        # four sentences average about 65 tokens; a budget cut ends with '.'
        sentences = self._sentences(np.repeat(content_topic, 5))
        leads = []
        for i, budget in enumerate(budgets):
            words = " ".join(sentences[5 * i:5 * i + 5]).split()
            lead = words[: max(int(budget) - 1, 1)]
            lead[-1] = lead[-1].rstrip(",.")
            leads.append(" ".join(lead) + ".")
        return self._corpus(prefix, name, self._titles(title_topic, clickbait), leads, clickbait)
