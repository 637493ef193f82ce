"""The benchmark's workloads: what each round generates, times and checks.

Every workload runs all five model families, so every end-to-end metric is
measured on every workload; the workloads differ in what the families do and
on which inputs.  Every round draws fresh text from the seeded generator, so
no two timed passes of a run see the same articles.

* ``train-real``: ``train`` at the ``full`` profile on real-length articles.
  rf and svm fit on the round corpus; the three neural families fit one
  epoch on a slice of it (one BiLSTM batch, four batches of four for the
  pooled models), with full-shape tables and 256-step contents.
* ``predict-feed``: ``predict`` with all five families on short feed items,
  then ``ensemble apply`` and ``eval``.  Set-up prepares three model sets:
  full-shape neural models from ``train --epochs 0``, rf and svm trained on
  a small split, and an ensemble fitted on a small validation split.  Rounds
  cycle through the sets, each with a fresh feed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from baitline import config as cfg
from baitline.corpus import Corpus
from baitline.textproc import normalize, tokenize

import checks
from generator import NewsGenerator

FAMILIES = ("rf", "svm", "bilstm", "contrastive", "encoder-head")
NEURAL = ("bilstm", "contrastive", "encoder-head")

# Corpus sizes per round.  Each family gets a comparable share of the timed
# pass: svm fits on more articles than rf because it costs far less per
# article, and the neural slice is one BiLSTM batch and four of four.
TRAIN_RF_ARTICLES = 64
TRAIN_SVM_ARTICLES = 400
TRAIN_NEURAL_ARTICLES = 16
PROBE_ARTICLES = 4  # read-back check of every trained model
FEED_TRAIN, FEED_VAL, FEED_TEST = 32, 8, 64  # FEED_TEST is one predict batch
MODEL_SETS = 3  # predict-feed model preparations; rounds cycle through them


@dataclass
class Call:
    """One timed CLI call; ``family`` names the per-family metric it feeds."""

    argv: list[str]
    family: str | None
    articles: int


@dataclass
class Round:
    dir: Path
    corpora: dict[str, Corpus]
    paths: dict[str, Path]
    models: dict[str, Path] = field(default_factory=dict)
    ensemble: Path | None = None


def write_corpus(corpus: Corpus, path: Path) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for art in corpus:
            record = {"id": art.id, "title": art.title, "content": art.content,
                      "source": art.source, "label": art.label.to_string()}
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    return path


def _ids_golds(corpus: Corpus) -> tuple[list[str], list[str]]:
    return [a.id for a in corpus], [a.label.to_string() for a in corpus]


def _expected_epochs(family: str, epochs: int | None) -> int:
    if family == "rf":
        return 1  # the out-of-bag score stands in for a loss
    if epochs is not None:
        return epochs
    return cfg.build_model_config(family, "full").epochs


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.gen = NewsGenerator(seed)
        self.setup_times: list[float] = []  # shared preparations, in seconds

    def _train_argv(self, family: str, corpus: Path, out: Path, epochs: int | None) -> list[str]:
        argv = ["train", "--model", family, "--profile", "full", "--seed", str(self.seed),
                "--corpus", str(corpus), "--out", str(out)]
        return argv + (["--epochs", str(epochs)] if epochs is not None else [])

    def setup(self, work_dir: Path, run_cli) -> None:
        """Preparations shared by all rounds; their times go to ``setup_times``."""

    def prepare(self, round_dir: Path, index: int) -> Round:
        """Fresh inputs for one round."""
        raise NotImplementedError

    def timed_calls(self, rnd: Round, out: Path) -> list[Call]:
        raise NotImplementedError

    def check(self, rnd: Round, out: Path, run_cli) -> tuple[list[str], dict[str, str]]:
        """Problems found, and fingerprints of the pass's outputs."""
        raise NotImplementedError

    def facts(self, rnd: Round) -> dict:
        raise NotImplementedError


class TrainReal(Workload):
    name = "train-real"
    EPOCHS = {"rf": None, "svm": None, "bilstm": 1, "contrastive": 1, "encoder-head": 1}
    CORPUS = {"rf": "rf", "svm": "svm", "bilstm": "neural", "contrastive": "neural",
              "encoder-head": "neural"}

    def prepare(self, round_dir: Path, index: int) -> Round:
        round_dir.mkdir(parents=True)
        corpus = self.gen.articles(TRAIN_SVM_ARTICLES + PROBE_ARTICLES, name="train")
        svm = corpus.articles[:TRAIN_SVM_ARTICLES]
        corpora = {
            "svm": Corpus(svm, name="svm"),
            "rf": Corpus(svm[:TRAIN_RF_ARTICLES], name="rf"),
            "neural": Corpus(svm[:TRAIN_NEURAL_ARTICLES], name="neural"),
            "probe": Corpus(corpus.articles[TRAIN_SVM_ARTICLES:], name="probe"),
        }
        paths = {key: write_corpus(c, round_dir / f"{key}.jsonl") for key, c in corpora.items()}
        return Round(round_dir, corpora, paths)

    def timed_calls(self, rnd: Round, out: Path) -> list[Call]:
        calls = []
        for family in FAMILIES:
            key = self.CORPUS[family]
            argv = self._train_argv(family, rnd.paths[key], out / family, self.EPOCHS[family])
            calls.append(Call(argv, family, len(rnd.corpora[key])))
        return calls

    def check(self, rnd: Round, out: Path, run_cli) -> tuple[list[str], dict[str, str]]:
        problems, prints = [], {}
        ids, golds = _ids_golds(rnd.corpora["probe"])
        for family in FAMILIES:
            problems += checks.check_losses(out / family, _expected_epochs(family, self.EPOCHS[family]))
            prints[f"losses.{family}"] = ",".join(checks.read_losses(out / family))
            preds = out / f"readback-{family}.tsv"
            run_cli(["predict", "--model-dir", str(out / family),
                     "--corpus", str(rnd.paths["probe"]), "--out", str(preds)])
            problems += checks.check_predictions(preds, ids, golds, checks.LABEL_RULES[family])
            if preds.exists():
                prints[f"readback.{family}"] = checks.sha256(preds)
        return problems, prints

    def facts(self, rnd: Round) -> dict:
        return {
            "svm": corpus_facts(rnd.corpora["svm"]),
            "neural": corpus_facts(rnd.corpora["neural"], rnd.corpora["neural"]),
        }


class PredictFeed(Workload):
    name = "predict-feed"

    def setup(self, work_dir: Path, run_cli) -> None:
        self.model_sets = []
        for index in range(MODEL_SETS):
            start = time.perf_counter()
            self.model_sets.append(self._prepare_models(work_dir / f"models{index}", run_cli))
            self.setup_times.append(time.perf_counter() - start)

    def _prepare_models(self, model_dir: Path, run_cli) -> Round:
        """Train rf and svm, initialize the neural models, fit the ensemble."""
        model_dir.mkdir(parents=True)
        corpora = {
            "train": self.gen.feed(FEED_TRAIN, prefix="feed-train", name="feed-train"),
            "val": self.gen.feed(FEED_VAL, prefix="feed-val", name="feed-val"),
        }
        paths = {key: write_corpus(c, model_dir / f"{key}.jsonl") for key, c in corpora.items()}
        models = Round(model_dir, corpora, paths)
        val_preds = []
        for family in FAMILIES:
            epochs = 0 if family in NEURAL else None
            models.models[family] = model_dir / family
            run_cli(self._train_argv(family, paths["train"], model_dir / family, epochs))
            preds = model_dir / f"val-{family}.tsv"
            run_cli(["predict", "--model-dir", str(model_dir / family),
                     "--corpus", str(paths["val"]), "--out", str(preds)])
            val_preds.append(f"{family}={preds}")
        models.ensemble = model_dir / "ensemble.json"
        run_cli(["ensemble", "fit", "--preds", *val_preds, "--out", str(models.ensemble)])
        return models

    def prepare(self, round_dir: Path, index: int) -> Round:
        round_dir.mkdir(parents=True)
        models = self.model_sets[index % MODEL_SETS]
        test = self.gen.feed(FEED_TEST, prefix="feed", name="feed")
        corpora = {**models.corpora, "test": test}
        paths = {**models.paths, "test": write_corpus(test, round_dir / "test.jsonl")}
        return Round(round_dir, corpora, paths, models.models, models.ensemble)

    def timed_calls(self, rnd: Round, out: Path) -> list[Call]:
        out.mkdir(parents=True, exist_ok=True)
        n = len(rnd.corpora["test"])
        calls = [
            Call(["predict", "--model-dir", str(rnd.models[family]),
                  "--corpus", str(rnd.paths["test"]), "--out", str(out / f"{family}.tsv")],
                 family, n)
            for family in FAMILIES
        ]
        members = [f"{family}={out / f'{family}.tsv'}" for family in FAMILIES]
        calls.append(Call(["ensemble", "apply", "--config", str(rnd.ensemble),
                           "--preds", *members, "--out", str(out / "ensemble.tsv")], None, n))
        calls.append(Call(["eval", "--preds", str(out / "ensemble.tsv"),
                           "--out-dir", str(out / "eval")], None, n))
        return calls

    def check(self, rnd: Round, out: Path, run_cli) -> tuple[list[str], dict[str, str]]:
        problems, prints = [], {}
        val_ids, val_golds = _ids_golds(rnd.corpora["val"])
        for family in FAMILIES:
            epochs = 0 if family in NEURAL else None
            problems += checks.check_losses(rnd.models[family], _expected_epochs(family, epochs))
            problems += checks.check_predictions(rnd.models[family].parent / f"val-{family}.tsv",
                                                 val_ids, val_golds, checks.LABEL_RULES[family])
        ids, golds = _ids_golds(rnd.corpora["test"])
        for member in (*FAMILIES, "ensemble"):
            preds = out / f"{member}.tsv"
            problems += checks.check_predictions(preds, ids, golds, checks.LABEL_RULES[member])
            if preds.exists():
                prints[f"predict.{member}"] = checks.sha256(preds)
        report = out / "eval" / "report.json"
        if not report.exists():
            problems.append(f"{report}: missing")
        else:
            prints["eval.report"] = checks.sha256(report)
        return problems, prints

    def facts(self, rnd: Round) -> dict:
        return {"test": corpus_facts(rnd.corpora["test"], rnd.corpora["train"])}


WORKLOADS = {w.name: w for w in (TrainReal, PredictFeed)}


# ---------------------------------------------------------------------------
# workload facts
# ---------------------------------------------------------------------------

def _is_word(token: str) -> bool:
    return any(c.isalpha() or c.isdigit() for c in token)


def corpus_facts(corpus: Corpus, vocab_corpus: Corpus | None = None) -> dict:
    """Class balance, lengths, and what each neural family's shapes make of them.

    Truncation and padding use the token sequences the neural models encode
    (normalized text, punctuation included).  ``table_fill`` is the count of
    distinct word tokens of ``vocab_corpus`` (the corpus a vocabulary is built
    from) divided by the rows of the family's embedding table.
    """
    n = len(corpus)
    titles = [tokenize(normalize(a.title)).tokens for a in corpus]
    contents = [tokenize(normalize(a.content)).tokens for a in corpus]
    t_len = np.array([len(t) for t in titles])
    c_len = np.array([len(c) for c in contents])
    facts = {
        "articles": n,
        "clickbait_share": sum(a.label.to_string() == "clickbait" for a in corpus) / n,
        "mean_title_word_tokens": float(np.mean([len(tokenize(a.title).word_tokens()) for a in corpus])),
        "mean_content_word_tokens": float(np.mean([len(tokenize(a.content).word_tokens()) for a in corpus])),
        "mean_content_sentences": float(np.mean([tokenize(a.content).n_sentences for a in corpus])),
    }
    bl = cfg.build_model_config("bilstm", "full")
    co = cfg.build_model_config("contrastive", "full")
    eh = cfg.build_model_config("encoder-head", "full")

    def pad_share(lengths_and_caps) -> float:
        real = sum(np.minimum(lengths, cap).sum() for lengths, cap in lengths_and_caps)
        steps = sum(cap * len(lengths) for lengths, cap in lengths_and_caps)
        return float(1.0 - real / steps)

    joined = t_len + 1 + c_len
    facts["bilstm"] = {
        "title_truncated_share": float(np.mean(t_len > bl.title_max_len)),
        "content_truncated_share": float(np.mean(c_len > bl.content_max_len)),
        "padding_share": pad_share([(t_len, bl.title_max_len), (c_len, bl.content_max_len)]),
    }
    facts["contrastive"] = {
        "title_truncated_share": float(np.mean(t_len > co.max_len)),
        "content_truncated_share": float(np.mean(c_len > co.max_len)),
        "padding_share": pad_share([(t_len, co.max_len), (c_len, co.max_len)]),
    }
    facts["encoder-head"] = {
        "truncated_share": float(np.mean(joined > eh.max_len)),
        "padding_share": pad_share([(joined, eh.max_len)]),
    }
    if vocab_corpus is not None:
        v_titles = {t for a in vocab_corpus for t in tokenize(normalize(a.title)).tokens if _is_word(t)}
        v_contents = {t for a in vocab_corpus for t in tokenize(normalize(a.content)).tokens if _is_word(t)}
        facts["bilstm"]["title_table_fill"] = len(v_titles) / (bl.title_vocab_size + 2)
        facts["bilstm"]["content_table_fill"] = len(v_contents) / (bl.content_vocab_size + 2)
        facts["contrastive"]["table_fill"] = len(v_titles | v_contents) / (co.vocab_size + 2)
        facts["encoder-head"]["table_fill"] = len(v_titles | v_contents) / (eh.vocab_size + 2)
    return facts
