"""Weighted soft voting over the base models' clickbait scores."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

from .corpus import Label
from .metrics import confusion_counts
from .tensor.checkpoint import check_header, is_finite_number, read_json, require_same_names

ENSEMBLE_HEADER = {"format": "baitline-ensemble", "version": 1}


@dataclass(frozen=True)
class EnsembleConfig:
    model_ids: tuple[str, ...]
    weights: tuple[float, ...]
    threshold: float = 0.5

    def __post_init__(self):
        if len(self.model_ids) != len(self.weights):
            raise ValueError(
                f"{len(self.model_ids)} models but {len(self.weights)} weights"
            )
        if not all(0.0 <= w < math.inf for w in self.weights):
            raise ValueError(f"weights must be finite and non-negative, got {self.weights}")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(self.weights)}")
        if not math.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold}")

    def save(self, path) -> None:
        payload = {**ENSEMBLE_HEADER, "threshold": self.threshold,
                   "weights": dict(zip(self.model_ids, self.weights))}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "EnsembleConfig":
        """The config in JSON file ``path``: the header of this format and
        version, then exactly a threshold and weights; any defect raises
        ValueError naming the file."""
        payload = read_json(path)
        check_header(path, "ensemble config", payload, ENSEMBLE_HEADER)
        require_same_names(path, "ensemble config key", {*ENSEMBLE_HEADER, "threshold", "weights"},
                           set(payload))
        weights, threshold = payload["weights"], payload["threshold"]
        if not isinstance(weights, dict):
            raise ValueError(f'{path}: ensemble config needs a "weights" object')
        for what, value in [*((f"weight {k!r}", v) for k, v in weights.items()),
                            ("threshold", threshold)]:
            if not is_finite_number(value):
                raise ValueError(f"{path}: {what} must be a finite number, got {value!r}")
        try:
            return cls(tuple(weights), tuple(float(v) for v in weights.values()), float(threshold))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def fit_weights(
    model_ids: Sequence[str],
    validation_preds: Sequence[Sequence[Label]],
    golds: Sequence[Label],
    threshold: float = 0.5,
) -> EnsembleConfig:
    """Weights are per-model validation accuracies normalized to sum 1."""
    if len(golds) == 0:
        raise ValueError("cannot fit ensemble weights on an empty validation set")
    if len(model_ids) != len(validation_preds):
        raise ValueError("one prediction list per model id is required")
    accuracies = [confusion_counts(preds, golds, Label.CLICKBAIT).accuracy
                  for preds in validation_preds]
    total = sum(accuracies)
    if total == 0:
        raise ValueError("every model scored zero accuracy; weights undefined")
    weights = tuple(a / total for a in accuracies)
    return EnsembleConfig(model_ids=tuple(model_ids), weights=weights, threshold=threshold)


def ensemble_predict(
    scores: Sequence[float], config: EnsembleConfig
) -> tuple[Label, float]:
    """Convex combination of per-model clickbait scores, thresholded.

    The combined score at exactly the threshold classifies as clickbait
    (boundary inclusive).  Summation runs in model order so recomputation is
    bit-stable.
    """
    if len(scores) != len(config.weights):
        raise ValueError(
            f"{len(scores)} scores for {len(config.weights)} ensemble weights"
        )
    combined = 0.0
    for w, s in zip(config.weights, scores):
        s = float(s)
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"clickbait score {s} outside [0, 1]")
        combined += w * s
    label = Label.CLICKBAIT if combined >= config.threshold else Label.NON_CLICKBAIT
    return label, combined
