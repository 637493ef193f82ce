"""Deterministic synthetic corpora for pipeline tests and capacity checks.

Topic-pair corpora encode the clickbait relationship structurally: each topic
owns a disjoint word pool, non-clickbait articles draw title and content from
the same topic, clickbait articles from two different topics.  Class-marked
corpora instead give each class its own pool, which makes plain supervised
classifiers separable.
"""

from __future__ import annotations

import numpy as np

from baitline.corpus import Corpus, Label, NewsArticle

_SYLLABLES = (
    "ba", "re", "mi", "lo", "tu", "san", "ve", "cor", "dul", "pa",
    "nes", "ria", "gon", "fel", "zu", "mar", "tin", "ol", "da", "pre",
)

_TOPIC_PREFIXES = ("zan", "bel", "cro", "dex", "fal", "gri", "hul", "jom")

DEFAULT_SOURCES = ("alfa-news", "beta-press", "gama-post", "delta-zilnic")


def _topic_words(topic: int, n_words: int, rng: np.random.Generator) -> list[str]:
    prefix = _TOPIC_PREFIXES[topic % len(_TOPIC_PREFIXES)]
    words = set()
    while len(words) < n_words:
        body = "".join(rng.choice(_SYLLABLES) for _ in range(int(rng.integers(2, 4))))
        words.add(prefix + body)
    return sorted(words)


def _sentence(pool: list[str], n_words: int, rng: np.random.Generator) -> str:
    return " ".join(rng.choice(pool) for _ in range(n_words))


def generate_topic_pair_corpus(
    n_articles: int,
    seed: int = 0,
    n_topics: int = 6,
    clickbait_fraction: float = 0.5,
    sources: tuple[str, ...] = DEFAULT_SOURCES,
    name: str = "synthetic",
) -> Corpus:
    """Corpus where the title-content topic match determines the label."""
    if n_topics < 2:
        raise ValueError("need at least two topics for clickbait pairs")
    rng = np.random.default_rng(seed)
    pools = [_topic_words(t, 40, rng) for t in range(n_topics)]
    articles = []
    for i in range(n_articles):
        is_clickbait = rng.random() < clickbait_fraction
        content_topic = int(rng.integers(n_topics))
        if is_clickbait:
            title_topic = int((content_topic + 1 + rng.integers(n_topics - 1)) % n_topics)
        else:
            title_topic = content_topic
        title = _sentence(pools[title_topic], int(rng.integers(4, 9)), rng)
        if rng.random() < 0.3:
            title += "!"
        sentences = [
            _sentence(pools[content_topic], int(rng.integers(6, 13)), rng)
            for _ in range(int(rng.integers(3, 7)))
        ]
        content = ". ".join(sentences) + "."
        articles.append(
            NewsArticle(
                id=f"syn-{i:05d}",
                title=title,
                content=content,
                source=str(rng.choice(sources)),
                label=Label.CLICKBAIT if is_clickbait else Label.NON_CLICKBAIT,
            )
        )
    return Corpus(tuple(articles), name=name)


def generate_class_marked_corpus(
    n_articles: int,
    seed: int = 0,
    sources: tuple[str, ...] = DEFAULT_SOURCES,
    name: str = "synthetic-marked",
) -> Corpus:
    """Corpus whose two classes use disjoint word pools (easily separable)."""
    rng = np.random.default_rng(seed)
    pools = {
        Label.CLICKBAIT: _topic_words(0, 60, rng),
        Label.NON_CLICKBAIT: _topic_words(1, 60, rng),
    }
    articles = []
    for i in range(n_articles):
        label = Label.CLICKBAIT if rng.random() < 0.5 else Label.NON_CLICKBAIT
        pool = pools[label]
        title = _sentence(pool, int(rng.integers(4, 9)), rng)
        sentences = [
            _sentence(pool, int(rng.integers(6, 13)), rng)
            for _ in range(int(rng.integers(2, 5)))
        ]
        content = ". ".join(sentences) + "."
        articles.append(
            NewsArticle(
                id=f"mark-{i:05d}",
                title=title,
                content=content,
                source=str(rng.choice(sources)),
                label=label,
            )
        )
    return Corpus(tuple(articles), name=name)
