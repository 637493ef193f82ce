"""Random forest over handcrafted feature vectors with out-of-bag scoring."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tree import DecisionTree


@dataclass
class RandomForestConfig:
    n_estimators: int = 150
    seed: int = 0
    max_features: str = "sqrt"


@dataclass
class RandomForestModel:
    trees: DecisionTree  # the whole forest, packed
    oob_score: float  # training's estimate; a loaded model keeps the stored one

    def predict_clickbait_proba(self, X: np.ndarray) -> np.ndarray:
        return self.trees.predict_proba(X)[:, 0]


def balanced_class_weights(y: np.ndarray) -> np.ndarray:
    """n / (2 * n_class) per class; requires both classes present."""
    y = np.asarray(y, dtype=np.int64)
    counts = np.bincount(y, minlength=2)
    if counts[0] == 0 or counts[1] == 0:
        raise ValueError("class weighting needs both classes present")
    n = len(y)
    return np.array([n / (2.0 * counts[0]), n / (2.0 * counts[1])])


def train_random_forest(
    X: np.ndarray, y: np.ndarray, config: RandomForestConfig | None = None
) -> RandomForestModel:
    """Bootstrap-aggregated entropy trees with sqrt(d) feature subsampling.

    Per-tree RNGs are spawned deterministically from the run seed, so a fixed
    seed reproduces the forest exactly.
    """
    if config is None:
        config = RandomForestConfig()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = X.shape[0]
    if n < 2 or len(y) != n:
        raise ValueError("need at least 2 aligned samples")
    class_weights = balanced_class_weights(y)  # also rejects a single class

    if config.max_features == "sqrt":
        max_features = max(1, int(math.isqrt(X.shape[1])))
    elif config.max_features == "all":
        max_features = X.shape[1]
    else:
        raise ValueError(f"unsupported max_features {config.max_features!r}")

    rngs = [np.random.default_rng(seed)
            for seed in np.random.SeedSequence(config.seed).spawn(config.n_estimators)]
    bootstraps = [rng.integers(0, n, size=n) for rng in rngs]
    oob_indices = [np.setdiff1d(np.arange(n), bootstrap) for bootstrap in bootstraps]
    trees = DecisionTree.fit(X, y, class_weights, rngs, bootstraps, max_features)
    return RandomForestModel(trees, compute_oob_score(trees, oob_indices, X, y))


def compute_oob_score(trees: DecisionTree, oob_indices: list[np.ndarray], X: np.ndarray,
                      y: np.ndarray) -> float:
    """Accuracy of out-of-bag votes over samples left out by at least one tree.

    Votes are mean leaf probabilities across the trees that never saw the
    sample; exact probability ties resolve to non-clickbait.  Rows descend
    ``DecisionTree.ROW_BLOCK`` at a time, each summing its votes in tree order.
    """
    n = X.shape[0]
    vote_sums = np.zeros((n, 2))
    vote_counts = np.zeros(n, dtype=np.int64)
    for start in range(0, n, trees.ROW_BLOCK):
        stop = min(start + trees.ROW_BLOCK, n)
        for values, oob in zip(trees.value[trees.leaves(X[start:stop])], oob_indices):
            rows = oob[(oob >= start) & (oob < stop)]
            vote_sums[rows] += values[rows - start]
            vote_counts[rows] += 1
    covered = vote_counts > 0
    if not covered.any():
        return float("nan")
    mean_probs = vote_sums[covered] / vote_counts[covered, None]
    preds = np.where(mean_probs[:, 0] > mean_probs[:, 1], 0, 1)
    return float((preds == y[covered]).sum() / covered.sum())


def rf_fields(model: RandomForestModel) -> dict:
    """The ``model.json`` fields of an rf model besides its config and its
    losses, which hold the OOB score."""
    return {"trees": model.trees.to_preorder()}


def load_rf(path, model: dict, n_features: int) -> RandomForestModel:
    """The rf model in ``model``, the parsed ``model.json`` at ``path``, whose
    trees split inputs of ``n_features`` features."""
    losses = model["losses"]
    # NaN is what a forest with no out-of-bag sample stores
    if not (len(losses) == 1 and (math.isnan(losses[0]) or 0 <= losses[0] <= 1)):
        raise ValueError(f"{path}: rf field 'losses' is not one OOB score, in [0, 1] or NaN")
    try:
        trees = DecisionTree.from_preorder(model["trees"], n_features)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return RandomForestModel(trees, float(losses[0]))
