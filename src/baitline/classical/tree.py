"""CART-style decision tree with entropy criterion and class weighting.

Splits maximize weighted information gain over midpoints of sorted distinct
feature values; ties break toward the lowest feature index, then the lowest
threshold, so training is fully deterministic given the candidate features.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from ..tensor.checkpoint import is_finite_number


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


@dataclass(eq=False)  # arrays do not compare to one truth value
class DecisionTree:
    """Entropy trees grown to purity (or until no split is possible), held as
    flat arrays: the struct-of-arrays layout of scikit-learn's ``Tree``.

    Each tree's nodes lie in preorder (node, left subtree, right subtree), the
    trees of a forest one after another.  ``fit`` grows a forest of one tree
    and ``join`` packs forests into one.  Growing and reading walk the preorder
    with an explicit stack, so depth is not limited by the recursion limit.
    """

    feature: np.ndarray  # (nodes,) the feature a split tests
    threshold: np.ndarray  # (nodes,) a row whose feature value is <= this goes left
    left: np.ndarray  # (nodes,) where rows go left; a leaf's own index, so rows stay
    right: np.ndarray  # (nodes,) where the other rows go; a leaf's own index too
    value: np.ndarray  # (nodes, 2) leaf class probabilities, zero at a split
    roots: np.ndarray  # (trees,) the first node of each tree

    @classmethod
    def _from_rows(cls, rows: list[list], roots: list[int]) -> "DecisionTree":
        """Pack node rows ``[feature, threshold, left, right, p0, p1]``."""
        feature, threshold, left, right, p0, p1 = (np.array(column) for column in zip(*rows))
        return cls(feature, threshold, left, right, np.column_stack([p0, p1]), np.array(roots))

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

        rows: list[list] = []
        # the samples reaching a node, and the split whose right child it is (or -1)
        stack = [(np.arange(X.shape[0]), -1)]
        while stack:
            indices, parent = stack.pop()
            node = len(rows)
            if parent >= 0:
                rows[parent][3] = node
            labels = y[indices]
            # summed one sample at a time, in sample order
            counts = np.bincount(labels, class_weights[labels], minlength=2)
            split = None
            if counts[0] != 0.0 and counts[1] != 0.0:
                subset = (rng.choice(n_features, size=max_features, replace=False)
                          if max_features < n_features else np.arange(n_features))
                split = best_split(X[indices], labels, subset, class_weights)
                if split is None and max_features < n_features:
                    # sampled features were all constant here; retry with every feature
                    split = best_split(X[indices], labels, np.arange(n_features), class_weights)
            if split is None:
                rows.append([0, 0.0, node, node, *(counts / counts.sum())])
                continue
            feature, threshold, _ = split
            rows.append([feature, threshold, node + 1, -1, 0.0, 0.0])
            go_left = X[indices, feature] <= threshold
            # the left subtree is grown first, so rng draws follow preorder
            stack.append((indices[~go_left], node))
            stack.append((indices[go_left], -1))
        return cls._from_rows(rows, [0])

    @classmethod
    def join(cls, forests: list["DecisionTree"]) -> "DecisionTree":
        """One forest holding the trees of ``forests``, in order."""
        starts = np.cumsum([0] + [len(forest.left) for forest in forests[:-1]])
        forests = [replace(forest, left=forest.left + start, right=forest.right + start,
                           roots=forest.roots + start) for forest, start in zip(forests, starts)]
        return cls(*(np.concatenate([getattr(forest, field.name) for forest in forests])
                     for field in fields(cls)))

    def leaves(self, X: np.ndarray) -> np.ndarray:
        """The leaf each row reaches in each tree, shape (trees, rows): every
        row of every tree goes down one level per pass, until none moves."""
        X = np.asarray(X, dtype=np.float64)
        rows = np.arange(X.shape[0])
        node = np.repeat(self.roots[:, None], X.shape[0], axis=1)
        while True:
            below = np.where(X[rows, self.feature[node]] <= self.threshold[node],
                             self.left[node], self.right[node])
            if np.array_equal(below, node):
                return node
            node = below

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean of the trees' leaf class probabilities, shape (rows, 2).  The
        sum runs in tree order, so a forest of one returns its leaf values."""
        acc = np.zeros((len(X), 2))
        for values in self.value[self.leaves(X)]:
            acc += values
        return acc / len(self.roots)

    def to_preorder(self) -> list[list[dict]]:
        """Each tree's nodes in preorder (parent, left subtree, right subtree)."""
        leaf = self.left == np.arange(len(self.left))
        nodes = [{"p": p} if is_leaf else {"f": f, "t": t} for is_leaf, f, t, p in zip(
            leaf.tolist(), self.feature.tolist(), self.threshold.tolist(), self.value.tolist())]
        ends = [*self.roots[1:].tolist(), len(nodes)]
        return [nodes[start:end] for start, end in zip(self.roots.tolist(), ends)]

    @classmethod
    def from_preorder(cls, trees: list[list[dict]], n_features: int) -> "DecisionTree":
        """Read ``to_preorder`` output for inputs of ``n_features`` features.

        Raises ValueError, naming the tree and the node, when there is no tree,
        a tree is not one whole list of preorder nodes, or a node is neither a
        leaf of two finite probabilities in [0, 1] that sum to 1 nor a split on
        an integer feature in [0, n_features) at a finite threshold.
        """
        if type(trees) is not list or not trees or any(type(nodes) is not list for nodes in trees):
            raise ValueError("the trees are not a non-empty list of node lists")
        rows, roots = [], []
        for index, nodes in enumerate(trees):
            roots.append(len(rows))
            stack = [-1]  # per node still to be read: the split whose right child it is, or -1
            for position, entry in enumerate(nodes):
                if not stack:
                    raise ValueError(f"tree {index} has entries past its last leaf")
                parent, node = stack.pop(), len(rows)
                if parent >= 0:
                    rows[parent][3] = node
                try:
                    rows.append(_node_row(entry, node, n_features))
                except ValueError as exc:
                    raise ValueError(f"tree {index}: node {position}: {exc}") from None
                if rows[node][2] != node:
                    stack += [node, -1]
            if stack:
                raise ValueError(f"tree {index} ends before its last leaf")
        return cls._from_rows(rows, roots)


def _node_row(entry, node: int, n_features: int) -> list:
    """The node row of one ``to_preorder`` entry, read as node ``node``."""
    if type(entry) is dict and "p" in entry:
        p = entry["p"]
        p0, p1 = p if type(p) is list and len(p) == 2 else (None, None)
        # a value within [0, 1] is finite
        if (type(p0) in (int, float) and type(p1) in (int, float) and 0 <= p0 <= 1 and 0 <= p1 <= 1
                and abs(p0 + p1 - 1) <= 1e-12):
            return [0, 0.0, node, node, float(p0), float(p1)]
        raise ValueError(f"leaf probabilities {p!r} are not two finite values in [0, 1] that sum to 1")
    feature, threshold = (entry.get("f"), entry.get("t")) if type(entry) is dict else (None, None)
    if type(feature) is not int or not is_finite_number(threshold):
        raise ValueError(f"neither a leaf {{'p': [p0, p1]}} nor a split "
                         f"{{'f': integer feature, 't': finite threshold}}: {entry!r}")
    if not 0 <= feature < n_features:
        raise ValueError(f"split on feature {feature}, but there are {n_features} features")
    return [feature, float(threshold), node + 1, -1, 0.0, 0.0]
