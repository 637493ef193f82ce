"""CART-style decision tree with entropy criterion and class weighting.

Splits maximize weighted information gain over midpoints of sorted distinct
feature values; ties break toward the lowest feature index, then the lowest
threshold, so training is fully deterministic given the candidate features.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .. import parallel
from ..tensor.checkpoint import is_finite_number


def _plogp(p: np.ndarray) -> np.ndarray:
    """p * log2(p) elementwise, with 0 for p == 0."""
    return p * np.log2(np.where(p > 0, p, 1.0))


def _entropy2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of the two-class masses (a, b), elementwise;
    a zero mass adds +0.0.  ``a + b`` must be positive."""
    total = a + b
    return -(_plogp(a / total) + _plogp(b / total))


_RUN_VALUES = 1 << 11

# Sample rows, summed over a group's trees, below which a group of trees grows
# faster in the calling process than in a forked child.
FORK_MIN_ROW_TREES = 2_000


def best_split(X: np.ndarray, y: np.ndarray, samples: list, features: list,
               class_weights: np.ndarray) -> list[tuple[int, float, float] | None]:
    """Per node k, the best (feature, threshold, gain) over the rows ``samples[k]``
    of ``X`` and the features ``features[k]`` (any order, repeats allowed), or
    None if no candidate feature admits a split: a leaf.  Rows with feature value
    <= threshold go left.  Masses are integer count * class weight, so equal gains
    are bit-equal; ties keep the lowest feature, then the lowest threshold.  Nodes
    share a pass in runs of at most ``_RUN_VALUES`` values, or one node, so a pass
    needs no more memory than a search over one large node."""
    splits, start, held = [], 0, 0
    for end, (rows, candidates) in enumerate(zip(samples, features)):
        values = len(rows) * len(candidates)
        if held + values > _RUN_VALUES and end > start:
            splits += _search_run(X, y, samples[start:end], features[start:end], class_weights)
            start, held = end, 0
        held += values
    if start < len(samples):
        splits += _search_run(X, y, samples[start:], features[start:], class_weights)
    return splits


def _search_run(X: np.ndarray, y: np.ndarray, samples: list, features: list,
                class_weights: np.ndarray) -> list[tuple[int, float, float] | None]:
    """``best_split`` of a run of nodes in one pass: each (node, feature) column
    is a segment of one array, sorted by value within segments, and one
    cumulative class-0 count and one gain formula score every cut at once."""
    w0, w1 = float(class_weights[0]), float(class_weights[1])
    n_features = X.shape[1]
    sizes = np.array([len(rows) for rows in samples], dtype=np.int64)
    lists = [np.asarray(f, dtype=np.int64) for f in features]
    # the distinct (node, feature) pairs in node, then feature order: one segment each
    pairs = np.unique(np.repeat(np.arange(len(lists)), list(map(len, lists))) * n_features
                      + np.concatenate(lists))
    seg_node, seg_feature = np.divmod(pairs, n_features)
    seg_size = sizes[seg_node]
    seg_end = np.cumsum(seg_size)
    seg_start = seg_end - seg_size
    total = int(seg_end[-1]) if len(pairs) else 0
    if not total:
        return [None] * len(sizes)
    seg = np.repeat(np.arange(len(pairs)), seg_size)
    # element i of segment s is row i of its node
    node_rows = np.concatenate([np.asarray(rows, dtype=np.int64) for rows in samples])
    rows = node_rows[np.arange(total) + np.repeat((np.cumsum(sizes) - sizes)[seg_node] - seg_start,
                                                  seg_size)]
    values = X[rows, seg_feature[seg]]
    order = np.lexsort((values, seg))  # stable: equal values keep sample order
    values = values[order]
    c0 = np.concatenate([[0], np.cumsum(y[rows[order]] == 0)])  # class-0 count before each element

    # cut i sends elements seg_start..i of its segment left
    lo, hi = values, np.append(values[1:], 0.0)
    thresholds = (lo + hi) / 2.0
    # a midpoint that collapses onto a data value (equal neighbours included)
    valid = ~((thresholds <= lo) | (thresholds >= hi))
    valid[seg_end - 1] = False  # the cut after a segment's last value crosses into the next
    n0 = c0[seg_end] - c0[seg_start]
    m0, m1 = n0 * w0, (seg_size - n0) * w1
    l0 = c0[1:] - c0[seg_start][seg]
    l1 = np.arange(1, total + 1) - seg_start[seg] - l0
    r0 = n0[seg] - l0
    r1 = (seg_size - n0)[seg] - l1
    with np.errstate(invalid="ignore"):  # a crossing cut has nothing on its right
        h_left = _entropy2(l0 * w0, l1 * w1)
        h_right = _entropy2(r0 * w0, r1 * w1)
    wl = l0 * w0 + l1 * w1
    wr = r0 * w0 + r1 * w1
    gains = _entropy2(m0, m1)[seg] - (wl * h_left + wr * h_right) / (m0 + m1)[seg]
    gains[~valid] = -np.inf

    # each node's cuts lie together, in feature-then-threshold order; the first
    # maximum keeps the lowest feature, then the lowest threshold
    extent = sizes * np.bincount(seg_node, minlength=len(sizes))
    live = np.flatnonzero(extent)
    starts = (np.cumsum(extent) - extent)[live]
    best = np.maximum.reduceat(gains, starts)
    first = np.minimum.reduceat(np.where(gains == np.repeat(best, extent[live]), np.arange(total),
                                         total), starts)
    found = {node: (int(seg_feature[seg[i]]), float(thresholds[i]), float(gains[i]))
             for node, i, gain in zip(live.tolist(), first.tolist(), best.tolist()) if gain > -np.inf}
    return [found.get(node) for node in range(len(sizes))]


@dataclass(eq=False)  # arrays do not compare to one truth value
class DecisionTree:
    """Entropy trees grown to purity (or until no split is possible), held as
    flat arrays: the struct-of-arrays layout of scikit-learn's ``Tree``.

    Each tree's nodes lie in preorder (node, left subtree, right subtree), the
    trees of a forest one after another.  Growing and reading walk the
    preorder with an explicit stack, so depth is not limited by the recursion
    limit.
    """

    feature: np.ndarray  # (nodes,) the feature a split tests
    threshold: np.ndarray  # (nodes,) a row whose feature value is <= this goes left
    left: np.ndarray  # (nodes,) where rows go left; a leaf's own index, so rows stay
    right: np.ndarray  # (nodes,) where the other rows go; a leaf's own index too
    value: np.ndarray  # (nodes, 2) leaf class probabilities, zero at a split
    roots: np.ndarray  # (trees,) the first node of each tree

    # rows per descent in predict_proba and the OOB score, so that the
    # descent's (trees, rows) arrays do not grow with the corpus
    ROW_BLOCK = 1024

    @classmethod
    def _pack(cls, grown: list[array]) -> "DecisionTree":
        """The forest of each tree's flat node rows [feature, threshold, left, right, p0, p1]."""
        sizes = [len(rows) // 6 for rows in grown]
        table = np.concatenate([np.frombuffer(rows) for rows in grown]).reshape(-1, 6)
        roots = np.cumsum([0, *sizes[:-1]])
        shift = np.repeat(roots, sizes)  # tree-local child indices to forest ones
        return cls(table[:, 0].astype(np.int64), table[:, 1].copy(),
                   table[:, 2].astype(np.int64) + shift, table[:, 3].astype(np.int64) + shift,
                   table[:, 4:].copy(), roots)

    @classmethod
    def fit(
        cls,
        X: np.ndarray,
        y: np.ndarray,
        class_weights: np.ndarray,
        rngs: list[np.random.Generator],
        samples: list[np.ndarray],
        max_features: int,
    ) -> "DecisionTree":
        """A forest of one tree per generator in ``rngs``: tree t grows on the rows
        ``samples[t]`` of ``X``, and its impure nodes try ``max_features`` features
        drawn from ``rngs[t]`` (every feature, with no draw, if that is all of them).

        Contiguous groups of trees grow on the CPUs this process may use
        (``parallel.fork_join``), at most one group per ``FORK_MIN_ROW_TREES``
        sample rows summed over all trees.  A tree depends only on its own
        generator and samples, so the forest does not depend on the grouping."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        groups = parallel.split([len(rows) for rows in samples], FORK_MIN_ROW_TREES)

        def grow(group: slice) -> list[array]:
            return _grow(X, y, class_weights, rngs[group], samples[group], max_features)

        return cls._pack([rows for part in parallel.fork_join(grow, groups) for rows in part])

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
        sum runs in tree order, so a forest of one returns its leaf values.
        Rows descend ``ROW_BLOCK`` at a time."""
        acc = np.zeros((len(X), 2))
        for start in range(0, len(X), self.ROW_BLOCK):
            block = acc[start : start + self.ROW_BLOCK]
            for values in self.value[self.leaves(X[start : start + self.ROW_BLOCK])]:
                block += values
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
        grown = [array("d") for _ in trees]
        for index, (nodes, rows) in enumerate(zip(trees, grown)):
            stack = [-1]  # per node still to be read: the split whose right child it is, or -1
            for position, entry in enumerate(nodes):
                if not stack:
                    raise ValueError(f"tree {index} has entries past its last leaf")
                parent, node = stack.pop(), len(rows) // 6
                if parent >= 0:
                    rows[6 * parent + 3] = node
                try:
                    rows.extend(_node_row(entry, node, n_features))
                except ValueError as exc:
                    raise ValueError(f"tree {index}: node {position}: {exc}") from None
                if rows[6 * node + 2] != node:
                    stack += [node, -1]
            if stack:
                raise ValueError(f"tree {index} ends before its last leaf")
        return cls._pack(grown)


def _grow(X: np.ndarray, y: np.ndarray, class_weights: np.ndarray,
          rngs: list[np.random.Generator], samples: list[np.ndarray],
          max_features: int) -> list[array]:
    """Each tree's flat node rows, as ``DecisionTree._pack`` takes them, grown in
    lockstep: at each step every tree takes the next node of its preorder
    stack, and those nodes share one ``best_split`` call."""
    n_features = X.shape[1]
    grown = [array("d") for _ in rngs]  # compact: every tree's nodes are held to the end
    # per tree: the samples reaching a node, and the split whose right child it is (or -1)
    stacks = [[(np.asarray(rows), -1)] for rows in samples]
    while any(stacks):
        impure = []  # (tree, node, samples) to split at this step
        for tree, (rows, stack) in enumerate(zip(grown, stacks)):
            if not stack:
                continue
            indices, parent = stack.pop()
            node = len(rows) // 6
            if parent >= 0:
                rows[6 * parent + 3] = node
            labels = y[indices]
            # summed one sample at a time, in sample order
            counts = np.bincount(labels, class_weights[labels], minlength=2)
            rows.extend((0, 0.0, node, node, *(counts / counts.sum())))  # a leaf, unless split
            if counts[0] != 0.0 and counts[1] != 0.0:
                impure.append((tree, node, indices))
        if not impure:
            continue
        subsets = [rngs[tree].choice(n_features, size=max_features, replace=False)
                   if max_features < n_features else range(n_features) for tree, _, _ in impure]
        splits = best_split(X, y, [indices for _, _, indices in impure], subsets, class_weights)
        retry = [k for k, split in enumerate(splits) if split is None]
        if retry and max_features < n_features:
            # sampled features were all constant here; retry with every feature
            found = best_split(X, y, [impure[k][2] for k in retry],
                               [range(n_features)] * len(retry), class_weights)
            for k, split in zip(retry, found):
                splits[k] = split
        for (tree, node, indices), split in zip(impure, splits):
            if split is None:
                continue
            feature, threshold, _ = split
            grown[tree][6 * node:6 * node + 6] = array("d", (feature, threshold, node + 1, -1, 0, 0))
            go_left = X[indices, feature] <= threshold
            # the left subtree is grown first, so rng draws follow preorder
            stacks[tree].append((indices[~go_left], node))
            stacks[tree].append((indices[go_left], -1))
    return grown


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
