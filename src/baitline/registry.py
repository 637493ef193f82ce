"""The model-family registry that the config and the CLI read.

Adding a family takes one ``FAMILIES`` entry: its config dataclass, its
``desk`` profile overrides, ``train(corpus, config, out_dir) -> (losses,
fields)``, which writes any tensor file and returns the lines of
``training.log`` and the family's ``model.json`` fields, the names of those
fields, which ``model.json`` must hold exactly, and ``load(model_dir, model)``,
which takes the parsed ``model.json`` and returns a model whose batched
``predictions(articles)`` gives ``(labels, scores)``; a defect in the model
directory raises ValueError naming the file.  Trainers are called as
attributes of their modules, so code that rebinds module-level functions
(``benchmark/tracer.py``) sees them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

from .classical import forest, svm
from .corpus import Corpus, Label, argmax_predictions
from .features import N_FEATURES, Standardizer, feature_matrix, fit_standardizer
from .neural import heads, lstm, siamese
from .tensor.checkpoint import MODEL_FILE


@dataclass(frozen=True)
class ModelFamily:
    config_type: type
    desk: dict[str, Any]
    train: Callable[[Corpus, Any, Path], tuple[list[float], dict]]
    fields: tuple[str, ...]
    load: Callable[[Path, dict], Any]


def _standardized_features(corpus: Corpus):
    """Labels, and features standardized by statistics fitted here, which
    are returned as ``model.json`` fields."""
    y = corpus.training_labels()
    X_raw = feature_matrix(corpus.articles)
    standardizer = fit_standardizer(X_raw)
    return standardizer.apply(X_raw), y, standardizer.fields()


def _train_rf(corpus: Corpus, config, out_dir: Path):
    X, y, fields = _standardized_features(corpus)
    model = forest.train_random_forest(X, y, config)
    return [model.oob_score], {**fields, **forest.rf_fields(model)}


def _train_svm(corpus: Corpus, config, out_dir: Path):
    X, y, fields = _standardized_features(corpus)
    model = svm.train_svm(X, y, config)
    return model.objective_by_epoch, {**fields, **svm.svm_fields(model)}


@dataclass(frozen=True)
class _Standardized:
    """An rf or svm model behind the standardizer fitted with it."""

    standardizer: Standardizer
    model: Any

    def predictions(self, articles) -> tuple[list[Label], list[float]]:
        X = self.standardizer.apply(feature_matrix(articles))
        return argmax_predictions(self.model.predict_clickbait_proba(X))


def _load_classical(load, model_dir: Path, model: dict) -> _Standardized:
    path = model_dir / MODEL_FILE
    return _Standardized(Standardizer.from_fields(path, model), load(path, model, N_FEATURES))


def _saved(bundle, out_dir: Path):
    return bundle.train_losses, bundle.save(out_dir)


# The desk profile shrinks capacity and sequence lengths so full training
# runs finish in seconds while keeping every architectural shape in place.
FAMILIES: dict[str, ModelFamily] = {
    "rf": ModelFamily(
        forest.RandomForestConfig, {"n_estimators": 30},
        _train_rf, ("mean", "std", "trees"), partial(_load_classical, forest.load_rf),
    ),
    "svm": ModelFamily(
        svm.SvmConfig, {"epochs": 120},
        _train_svm, ("mean", "std", "w", "b", "platt"), partial(_load_classical, svm.load_svm),
    ),
    "bilstm": ModelFamily(
        lstm.BiLstmConfig,
        {
            "title_vocab_size": 500,
            "content_vocab_size": 1000,
            "embed_dim": 16,
            "title_units": 8,
            "content_units": 12,
            "dense1": 32,
            "dense2": 16,
            "epochs": 8,
            "batch_size": 16,
            "learning_rate": 0.01,
            "title_max_len": 12,
            "content_max_len": 32,
        },
        lambda corpus, config, out_dir: _saved(lstm.train_bilstm(corpus, config), out_dir),
        lstm.BiLstmClassifier.vocab_fields, lstm.BiLstmClassifier.load,
    ),
    "contrastive": ModelFamily(
        siamese.SiameseConfig,
        {
            "vocab_size": 800,
            "embed_dim": 32,
            "out_dim": 16,
            "epochs": 30,
            "batch_size": 8,
            "learning_rate": 0.02,
            "max_len": 48,
        },
        lambda corpus, config, out_dir: _saved(siamese.train_contrastive(corpus, config), out_dir),
        siamese.SiameseEncoder.vocab_fields, siamese.SiameseEncoder.load,
    ),
    "encoder-head": ModelFamily(
        heads.EncoderHeadConfig,
        {
            "vocab_size": 800,
            "embed_dim": 32,
            "encoder_dim": 32,
            "dense": 32,
            "epochs": 30,
            "batch_size": 8,
            "learning_rate": 0.01,
            "weight_decay": 0.001,
            "max_len": 80,
        },
        lambda corpus, config, out_dir: _saved(heads.train_encoder_head(corpus, config), out_dir),
        heads.EncoderHead.vocab_fields, heads.EncoderHead.load,
    ),
}
