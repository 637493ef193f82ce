"""Corpus loading, validation, source-separated splitting, and corpus statistics.

The on-disk format is UTF-8 JSON lines: one object per article with fields
``id``, ``title``, ``content``, ``source`` and optional ``label`` (string
"clickbait" or "non-clickbait").  Label encoding is fixed everywhere in the
toolkit: clickbait = 0, non-clickbait = 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import Iterable

import numpy as np

from .tensor.checkpoint import numbered_lines, read_json
from .textproc import tokenize


class Label(IntEnum):
    CLICKBAIT = 0
    NON_CLICKBAIT = 1

    @classmethod
    def from_string(cls, value: str) -> "Label":
        try:
            return _LABEL_FROM_STRING[value]
        except KeyError:
            raise ValueError(f"unknown label string: {value!r}") from None

    def to_string(self) -> str:
        return "clickbait" if self is Label.CLICKBAIT else "non-clickbait"


_LABEL_FROM_STRING = {"clickbait": Label.CLICKBAIT, "non-clickbait": Label.NON_CLICKBAIT}


def label_from_clickbait_proba(p: float) -> Label:
    """Argmax label for a clickbait probability; ties go to non-clickbait."""
    return Label.CLICKBAIT if p > 0.5 else Label.NON_CLICKBAIT


def argmax_predictions(probs: Iterable[float]) -> tuple[list[Label], list[float]]:
    """Argmax labels and float scores for a run of clickbait probabilities."""
    probs = [float(p) for p in probs]
    return [label_from_clickbait_proba(p) for p in probs], probs


@dataclass(frozen=True)
class NewsArticle:
    """One labeled (or unlabeled) news sample."""

    id: str
    title: str
    content: str
    source: str
    label: Label | None = None

    def __post_init__(self):
        if not self.title.strip():
            raise ValueError(f"article {self.id!r}: empty title")
        if not self.content.strip():
            raise ValueError(f"article {self.id!r}: empty content")


@dataclass(frozen=True)
class Corpus:
    """Ordered, immutable collection of articles with unique ids.

    Articles are either all labeled or all unlabeled; mixed corpora are
    rejected so train/eval misconfigurations fail at load time.
    """

    articles: tuple[NewsArticle, ...]
    name: str = ""

    def __post_init__(self):
        seen: set[str] = set()
        for art in self.articles:
            if art.id in seen:
                raise ValueError(f"duplicate article id: {art.id!r}")
            seen.add(art.id)
        labeled = [a for a in self.articles if a.label is not None]
        if labeled and len(labeled) != len(self.articles):
            raise ValueError(f"corpus {self.name!r} mixes labeled and unlabeled articles")

    def __len__(self) -> int:
        return len(self.articles)

    def __iter__(self):
        return iter(self.articles)

    @property
    def is_labeled(self) -> bool:
        return bool(self.articles) and self.articles[0].label is not None

    def training_labels(self) -> np.ndarray:
        """Integer labels, for a corpus that is non-empty, labeled and has both classes."""
        if not self.articles:
            raise ValueError("cannot train on an empty corpus")
        if not self.is_labeled:
            raise ValueError("training needs a labeled corpus")
        labels = np.array([int(a.label) for a in self.articles], dtype=np.int64)
        if len(np.unique(labels)) < 2:
            raise ValueError("training needs both classes present")
        return labels

    def sources(self) -> set[str]:
        return {a.source for a in self.articles}

    def count(self, label: Label) -> int:
        return sum(1 for a in self.articles if a.label is label)


@dataclass(frozen=True)
class CorpusStats:
    total: int
    per_class: dict[Label, int]
    per_source_clickbait_ratio: dict[str, float]
    token_total: int
    avg_title_tokens: float
    avg_content_tokens: float
    avg_sentences: float
    sentence_range: tuple[int, int]


def load_corpus(path, name: str | None = None) -> Corpus:
    """Load a JSON-lines corpus file, validating every record.

    Errors report the 1-based line number and the offending value, or both
    lines of a repeated id; file order is preserved.
    """
    path = Path(path)
    articles: list[NewsArticle] = []
    first_line: dict[str, int] = {}  # article id -> the line it is on
    for line_no, line in numbered_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            article = _article_from_record(json.loads(line))
        except ValueError as exc:  # a schema defect, or a JSONDecodeError
            raise ValueError(f"{path}:{line_no}: {exc}") from None
        except RecursionError:
            raise ValueError(f"{path}:{line_no}: not JSON: nested too deeply") from None
        first = first_line.setdefault(article.id, line_no)
        if first != line_no:
            raise ValueError(
                f"{path}:{line_no}: duplicate article id {article.id!r}, first on line {first}")
        articles.append(article)
    return Corpus(tuple(articles), name=name if name is not None else path.stem)


def _article_from_record(record) -> NewsArticle:
    if not isinstance(record, dict):
        raise ValueError("record is not an object")
    for field_name in ("id", "title", "content", "source"):
        if field_name not in record:
            raise ValueError(f"missing field {field_name!r}")
        if not isinstance(record[field_name], str):
            raise ValueError(f"field {field_name!r} must be a string")
    label = None
    if record.get("label") is not None:
        if not isinstance(record["label"], str):
            raise ValueError(f"field 'label' must be a string")
        label = Label.from_string(record["label"])
    return NewsArticle(
        id=record["id"],
        title=record["title"],
        content=record["content"],
        source=record["source"],
        label=label,
    )


def save_corpus(corpus: Corpus, path) -> None:
    """Write the corpus in the JSON-lines format read by :func:`load_corpus`."""
    with open(path, "w", encoding="utf-8") as fh:
        for art in corpus:
            record = {
                "id": art.id,
                "title": art.title,
                "content": art.content,
                "source": art.source,
            }
            if art.label is not None:
                record["label"] = art.label.to_string()
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def split_by_source(
    corpus: Corpus, train_sources: set[str], test_sources: set[str]
) -> tuple[Corpus, Corpus]:
    """Partition a corpus so no publication source appears on both sides."""
    overlap = train_sources & test_sources
    if overlap:
        raise ValueError(f"sources assigned to both sides: {sorted(overlap)}")
    unassigned = sorted(corpus.sources() - train_sources - test_sources)
    if unassigned:
        raise ValueError(f"sources missing from the split manifest: {unassigned}")
    train = [a for a in corpus if a.source in train_sources]
    test = [a for a in corpus if a.source in test_sources]
    return (
        Corpus(tuple(train), name=f"{corpus.name}-train"),
        Corpus(tuple(test), name=f"{corpus.name}-test"),
    )


def load_split_manifest(path) -> tuple[set[str], set[str]]:
    """Read a JSON manifest mapping source name -> "train" | "test"."""
    mapping = read_json(path)
    if not isinstance(mapping, dict):
        raise ValueError(f"{path}: manifest must be an object")
    train, test = set(), set()
    for source, side in mapping.items():
        if side == "train":
            train.add(source)
        elif side == "test":
            test.add(source)
        else:
            raise ValueError(f"{path}: source {source!r} assigned to unknown side {side!r}")
    return train, test


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Token/sentence statistics of a labeled corpus.

    Token counts include word tokens only (punctuation tokens are not
    counted); sentence counts are computed on article contents.
    """
    if len(corpus) == 0:
        raise ValueError("cannot compute statistics of an empty corpus")
    if not corpus.is_labeled:
        raise ValueError("corpus statistics require a labeled corpus")
    per_class = {Label.CLICKBAIT: 0, Label.NON_CLICKBAIT: 0}
    per_source_total: dict[str, int] = {}
    per_source_clickbait: dict[str, int] = {}
    title_tokens = 0
    content_tokens = 0
    sentence_counts: list[int] = []
    for art in corpus:
        per_class[art.label] += 1
        per_source_total[art.source] = per_source_total.get(art.source, 0) + 1
        if art.label is Label.CLICKBAIT:
            per_source_clickbait[art.source] = per_source_clickbait.get(art.source, 0) + 1
        title_doc = tokenize(art.title)
        content_doc = tokenize(art.content)
        title_tokens += len(title_doc.word_tokens())
        content_tokens += len(content_doc.word_tokens())
        sentence_counts.append(content_doc.n_sentences)
    n = len(corpus)
    ratios = {
        source: per_source_clickbait.get(source, 0) / total
        for source, total in per_source_total.items()
    }
    return CorpusStats(
        total=n,
        per_class=per_class,
        per_source_clickbait_ratio=ratios,
        token_total=title_tokens + content_tokens,
        avg_title_tokens=title_tokens / n,
        avg_content_tokens=content_tokens / n,
        avg_sentences=sum(sentence_counts) / n,
        sentence_range=(min(sentence_counts), max(sentence_counts)),
    )
