"""CART-style decision tree with entropy criterion and class weighting.

Splits maximize weighted information gain over midpoints of sorted distinct
feature values; ties break toward the lowest feature index, then the lowest
threshold, so training is fully deterministic given the candidate features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def entropy(class_counts) -> float:
    """Shannon entropy in bits of a (possibly weighted) count vector."""
    counts = np.asarray(class_counts, dtype=np.float64)
    if np.any(counts < 0):
        raise ValueError("negative class counts")
    total = counts.sum()
    if total <= 0:
        raise ValueError("entropy of an empty count vector")
    probs = counts[counts > 0] / total
    return float(-(probs * np.log2(probs)).sum())


def _weighted_counts(labels: np.ndarray, weights: np.ndarray) -> np.ndarray:
    counts = np.zeros(2)
    np.add.at(counts, labels, weights)
    return counts


def _plogp(p: np.ndarray) -> np.ndarray:
    """p * log2(p) elementwise, with 0 for p == 0."""
    return p * np.log2(np.where(p > 0, p, 1.0))


def _entropy2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``entropy([a, b])`` elementwise, bit for bit: a zero mass adds +0.0."""
    total = a + b
    return -(_plogp(a / total) + _plogp(b / total))


def best_split(
    rows: np.ndarray,
    labels: np.ndarray,
    feature_indices,
    class_weights: np.ndarray,
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, gain) among the candidate features.

    Samples with feature value <= threshold go left.  Returns None when no
    candidate feature admits a split (all rows identical on them), which
    signals a leaf.

    Weighted class masses are always formed as integer count * class weight,
    so mathematically equal gains are bit-equal no matter how the counts were
    obtained; ties then deterministically keep the lowest feature index and
    lowest threshold.  All candidate (feature, threshold) pairs are scored at
    once, from one sort of the candidate columns and one cumulative count.
    """
    rows = np.asarray(rows, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = rows.shape[0]
    features = sorted({int(f) for f in feature_indices})
    if n < 2 or not features:
        return None
    w0 = float(class_weights[0])
    w1 = float(class_weights[1])
    n0_total = int((labels == 0).sum())
    n1_total = int((labels == 1).sum())
    total_weight = n0_total * w0 + n1_total * w1
    parent_entropy = entropy([n0_total * w0, n1_total * w1])

    columns = rows[:, features].T  # (feature, sample)
    order = np.argsort(columns, axis=1, kind="stable")
    values = np.take_along_axis(columns, order, axis=1)
    lo, hi = values[:, :-1], values[:, 1:]
    thresholds = (lo + hi) / 2.0
    # a midpoint that collapses onto a data value (equal neighbours included)
    valid = ~((thresholds <= lo) | (thresholds >= hi))
    if not valid.any():
        return None
    l0 = np.cumsum(labels[order] == 0, axis=1)[:, :-1]  # class-0 count left of each cut
    l1 = np.arange(1, n) - l0
    r0 = n0_total - l0
    r1 = n1_total - l1
    wl = l0 * w0 + l1 * w1
    wr = r0 * w0 + r1 * w1
    h_left = _entropy2(l0 * w0, l1 * w1)
    h_right = _entropy2(r0 * w0, r1 * w1)
    gains = parent_entropy - (wl * h_left + wr * h_right) / total_weight
    gains[~valid] = -np.inf
    # argmax keeps the first maximum: lowest feature, then lowest threshold
    f, i = divmod(int(np.argmax(gains)), n - 1)
    return features[f], float(thresholds[f, i]), float(gains[f, i])


@dataclass
class TreeNode:
    """Internal node (feature/threshold/children) or leaf (class probabilities)."""

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    probs: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.probs is not None


class DecisionTree:
    """Single entropy tree grown to purity (or until no split is possible).

    Growing, serializing and loading walk the tree with an explicit stack, in
    preorder (node, left subtree, right subtree), so depth is not limited by
    the interpreter's recursion limit.
    """

    def __init__(self, root: TreeNode):
        self.root = root

    @classmethod
    def fit(
        cls,
        X: np.ndarray,
        y: np.ndarray,
        class_weights: np.ndarray,
        rng: np.random.Generator,
        max_features: int | None = None,
    ) -> "DecisionTree":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        n_features = X.shape[1]
        if max_features is None:
            max_features = n_features

        root = TreeNode()
        stack = [(np.arange(X.shape[0]), root)]
        while stack:
            indices, node = stack.pop()
            labels = y[indices]
            counts = _weighted_counts(labels, class_weights[labels])
            split = None
            if counts[0] != 0.0 and counts[1] != 0.0:
                if max_features < n_features:
                    subset = rng.choice(n_features, size=max_features, replace=False)
                else:
                    subset = np.arange(n_features)
                split = best_split(X[indices], labels, subset, class_weights)
                if split is None and max_features < n_features:
                    # sampled features were all constant here; retry with every feature
                    split = best_split(X[indices], labels, np.arange(n_features), class_weights)
            if split is None:
                node.probs = counts / counts.sum()
                continue
            node.feature, node.threshold, _ = split
            go_left = X[indices, node.feature] <= node.threshold
            node.left, node.right = TreeNode(), TreeNode()
            # the left subtree is grown first, so rng draws follow preorder
            stack.append((indices[~go_left], node.right))
            stack.append((indices[go_left], node.left))
        return cls(root)

    def predict_proba_one(self, x: np.ndarray) -> np.ndarray:
        node = self.root
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.probs

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return np.stack([self.predict_proba_one(row) for row in X])

    def to_preorder(self) -> list[dict]:
        """Serialize nodes in preorder (parent, left subtree, right subtree)."""
        out: list[dict] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append({"p": [float(v) for v in node.probs]})
                continue
            out.append({"f": node.feature, "t": node.threshold})
            stack.append(node.right)
            stack.append(node.left)
        return out

    @classmethod
    def from_preorder(cls, nodes: list[dict], n_features: int) -> "DecisionTree":
        """Read ``to_preorder`` output for inputs of ``n_features`` features; a
        malformed node list or a split on a feature out of range raises
        ValueError."""
        root = TreeNode()
        stack = [root]  # nodes still to be read, next one on top
        for position, entry in enumerate(nodes):
            if not stack:
                raise ValueError(f"tree has {len(nodes) - position} entries past its last leaf")
            node = stack.pop()
            try:
                if "p" in entry:
                    node.probs = np.array(entry["p"], dtype=np.float64).reshape(2)
                    continue
                node.feature, node.threshold = int(entry["f"]), float(entry["t"])
            except (KeyError, TypeError, ValueError):
                raise ValueError(
                    f"node {position} is neither a leaf {{'p': [p0, p1]}} nor a split "
                    f"{{'f': feature, 't': threshold}}: {entry!r}"
                ) from None
            if not 0 <= node.feature < n_features:
                raise ValueError(f"node {position} splits on feature {node.feature}, "
                                 f"but there are {n_features} features")
            node.left, node.right = TreeNode(), TreeNode()
            stack.append(node.right)
            stack.append(node.left)
        if stack:
            raise ValueError("tree ends before its last leaf")
        return cls(root)
