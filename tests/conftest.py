import contextlib
from pathlib import Path

import pytest
from hypothesis import settings

from baitline.corpus import Corpus, Label, NewsArticle
from baitline.neural.encoder import uniform_param

DATA_DIR = Path(__file__).parent / "data"

# Property tests draw the same bounded set of cases on every run, with no
# example database and no per-example time limit.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                          max_examples=100)
# The same, drawn 20 times deeper: pytest --hypothesis-profile=ci-deep
settings.register_profile("ci-deep", settings.get_profile("tier1"), max_examples=2000)
settings.load_profile("tier1")


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


def _capped_table(rng, rows, cap_rows, embed_dim):
    return uniform_param(rng, (cap_rows, embed_dim))


@pytest.fixture
def capped_tables(monkeypatch):
    """A context manager inside which every embedding table is drawn with the
    configured cap + 2 rows, whatever the vocabulary: the reference that a
    vocabulary-sized table has to match on its live rows."""

    @contextlib.contextmanager
    def patched():
        with monkeypatch.context() as m:
            for module in ("baitline.neural.encoder", "baitline.neural.lstm"):
                m.setattr(f"{module}.embedding_table", _capped_table)
            yield

    return patched


def make_article(i: int, label=Label.NON_CLICKBAIT, source="alfa-news",
                 title="ana are mere bune", content="ana cumpara mere. merele sunt bune."):
    return NewsArticle(id=f"a{i}", title=title, content=content, source=source, label=label)


@pytest.fixture
def tiny_corpus() -> Corpus:
    return Corpus(
        (
            make_article(0, Label.CLICKBAIT, "alfa-news", title="nu vei crede ce a urmat!"),
            make_article(1, Label.NON_CLICKBAIT, "beta-press"),
            make_article(2, Label.CLICKBAIT, "beta-press", title="secretul care schimba totul?"),
            make_article(3, Label.NON_CLICKBAIT, "alfa-news"),
        ),
        name="tiny",
    )
