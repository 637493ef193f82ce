"""Regenerate the fixture files shipped under tests/data/.

Run from the repository root:  PYTHONPATH=src python3 tools/generate_fixtures.py

Outputs:
  tests/data/synthetic60.jsonl        60-article topic-pair corpus
  tests/data/split_manifest.json      source -> side manifest for it
  tests/data/preds_contrastive_reference.tsv  \  aligned reference prediction
  tests/data/preds_finetuned_reference.tsv    /  files on a 441/1066 test set

The reference prediction files realize fixed confusion counts (contrastive
tp=378 fp=35 fn=63 tn=1031; fine-tuned tp=318 fp=19 fn=123 tn=1047) with a
discordance alignment of b=53, c=97, which the regression tests in
tests/test_metrics.py assert against.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from baitline.corpus import Label, save_corpus
from baitline.metrics import PredictionRow, save_predictions

TESTS_DIR = Path(__file__).resolve().parent.parent / "tests"
DATA_DIR = TESTS_DIR / "data"

sys.path.insert(0, str(TESTS_DIR))  # the synthetic corpus generator lives with the tests
from synthetic import generate_topic_pair_corpus  # noqa: E402


def write_synthetic60() -> None:
    corpus = generate_topic_pair_corpus(60, seed=1, name="synthetic60")
    save_corpus(corpus, DATA_DIR / "synthetic60.jsonl")
    manifest = {
        "alfa-news": "train",
        "beta-press": "train",
        "gama-post": "train",
        "delta-zilnic": "test",
    }
    with open(DATA_DIR / "split_manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def write_reference_predictions() -> None:
    # item groups: (count, gold, contrastive pred correct?, fine-tuned pred correct?)
    groups = [
        (300, Label.CLICKBAIT, True, True),
        (78, Label.CLICKBAIT, True, False),
        (18, Label.CLICKBAIT, False, True),
        (45, Label.CLICKBAIT, False, False),
        (1012, Label.NON_CLICKBAIT, True, True),
        (35, Label.NON_CLICKBAIT, False, True),
        (19, Label.NON_CLICKBAIT, True, False),
    ]
    rng = np.random.default_rng(2024)
    rows_contrastive: list[PredictionRow] = []
    rows_finetuned: list[PredictionRow] = []
    item = 0
    for count, gold, c_ok, f_ok in groups:
        for _ in range(count):
            article_id = f"ref-{item:04d}"
            item += 1
            c_pred = gold if c_ok else _flip(gold)
            f_pred = gold if f_ok else _flip(gold)
            rows_contrastive.append(
                PredictionRow(article_id, gold, c_pred, _score(c_pred, rng))
            )
            rows_finetuned.append(
                PredictionRow(article_id, gold, f_pred, _score(f_pred, rng))
            )
    save_predictions(rows_contrastive, DATA_DIR / "preds_contrastive_reference.tsv")
    save_predictions(rows_finetuned, DATA_DIR / "preds_finetuned_reference.tsv")


def _flip(label: Label) -> Label:
    return Label.NON_CLICKBAIT if label is Label.CLICKBAIT else Label.CLICKBAIT


def _score(pred: Label, rng: np.random.Generator) -> float:
    # clickbait scores consistent with the predicted label
    if pred is Label.CLICKBAIT:
        return round(float(rng.uniform(0.55, 0.95)), 6)
    return round(float(rng.uniform(0.05, 0.45)), 6)


if __name__ == "__main__":
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    write_synthetic60()
    write_reference_predictions()
    print(f"fixtures written to {DATA_DIR}")
