"""Random-forest sensitivity analysis on accumulated stability labels.

Bagged CART trees with Gini-impurity splits and sqrt(d) feature
subsampling per node.  Feature importances (mean decrease in impurity)
rank the operating-space dimensions for split selection; stratified k-fold
accuracy quantifies dataset quality.  Fully deterministic for a fixed
(data, hyperparameters, seed).

The random stream is a contract in which no tree's draws depend on another
tree's shape.  One ``integers(0, n, (n_trees, n))`` draw gives every
bootstrap.  Then each level draws ``random((nodes, d))``, a key per feature
for each of its splittable nodes in (tree, left-to-right) order; a node's
candidates are its ``n_sub`` lowest-key features, ascending.  A split takes
the first maximum of the Gini gain in (feature, position) order if it
exceeds 1e-12, puts its threshold midway between the two values and
partitions by value.  A tree adds its gains level by level, left to right.

So all trees grow breadth-first in lock step: a level scores every
splittable node of every tree in a few array passes, in chunks of at most
``LEVEL_ROWS`` rows.  Its keys are drawn before it is chunked, so the
chunking never moves a byte.  Trees are flat node arrays in the order their
nodes are made; a forest votes by stepping every (tree, row) pair down its
trees' stacked arrays at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Rows scored in one pass of a level, summed over its nodes; a larger node
# is scored alone.  It bounds the working set and never changes a result.
LEVEL_ROWS = 2048


class SensitivityUnavailableError(ValueError):
    """Training data carries a single class; importances are undefined."""


@dataclass
class LabeledDataset:
    features: np.ndarray       # (n, d) dimension values of feasible samples
    labels: np.ndarray         # (n,) binary stable/unstable
    feature_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.ndim != 2 or len(self.labels) != len(self.features):
            raise ValueError("features must be (n, d) with one label per row")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite values")


@dataclass(frozen=True)
class Tree:
    """One CART tree as flat node arrays; node 0 is the root.

    A leaf has feature -1 and is its own left and right child, so a
    prediction can step every row down ``depth`` levels without branching.
    """
    feature: np.ndarray        # (nodes,) split feature, -1 at a leaf
    threshold: np.ndarray      # (nodes,) rows with x[feature] <= threshold go left
    left: np.ndarray           # (nodes,) child node indices
    right: np.ndarray
    prediction: np.ndarray     # (nodes,) majority class, ties to 0
    depth: int                 # deepest node's level


def _side(k, ones):
    """``k * gini(ones / k)``: a split side's impurity term, elementwise."""
    p = ones / k
    return k * (1.0 - p ** 2 - (1.0 - p) ** 2)


def _best_splits(rows, m, ones, cand, code, vals):
    """The nodes of one chunk of a level that split, and their splits.

    ``rows`` holds the nodes' rows, node after node; ``m``, ``ones`` and
    ``cand`` are each node's row count, count of ones and candidates.
    ``vals[f]`` holds feature ``f``'s distinct values, ascending, and
    ``code[f * n + r]`` is twice the index of row ``r``'s value in it plus
    the row's label.  Returns the splitting nodes, their gains, features,
    thresholds and highest value indices that go left.
    """
    s, n_sub = cand.shape
    n = vals.shape[1]
    shift = n.bit_length() + 1
    node = np.repeat(np.arange(s), m)
    # Segment node * n_sub + c holds the node's rows sorted by their codes of
    # candidate c; ties in any order, since no split falls inside a tie.
    # Laid out (n_sub, rows), numpy's inner loops stay long.
    key = (node * n_sub + np.arange(n_sub)[:, None]) << shift
    key += code[cand.T[:, node] * n + rows]
    key = key.ravel()
    key.sort()
    # A split falls after a segment's last row of each value but its largest.
    step = key[1:] ^ key[:-1]
    pos = np.flatnonzero((step > 1) & (step < 1 << shift))
    del step
    sg = key[pos] >> shift
    size = np.repeat(m, n_sub)
    first = np.cumsum(size) - size
    cum = np.cumsum(key & 1)
    ones_left = cum[pos] - (cum[first] - (key[first] & 1))[sg]
    del cum
    n_left = pos - first[sg] + 1
    at = sg // n_sub
    m_at = m[at]
    impurity = _side(n_left, ones_left)
    impurity += _side(m_at - n_left, ones[at] - ones_left)
    del n_left, ones_left
    impurity /= m_at
    p0 = (m - ones) / m
    p1 = ones / m
    gain = np.subtract((1.0 - (p0 * p0 + p1 * p1))[at], impurity, out=impurity)
    # The first maximum of each node in (feature, position) order; a node
    # whose candidates each hold a single value has no position.
    count = np.bincount(at, minlength=s)
    node = np.flatnonzero(count)
    start = (np.cumsum(count) - count)[node]
    best = np.maximum.reduceat(gain, start)
    hits = np.flatnonzero(gain == np.repeat(best, count[node]))
    j = hits[np.searchsorted(hits, start)]
    keep = best > 1e-12
    node, best, j = node[keep], best[keep], j[keep]
    f = cand[node, sg[j] % n_sub]
    lo = key[pos[j]] >> 1 & (1 << shift - 1) - 1
    hi = key[pos[j] + 1] >> 1 & (1 << shift - 1) - 1
    thr = 0.5 * (vals[f, lo] + vals[f, hi])
    # The midpoint of adjacent floats can round up to the upper value, whose
    # rows then go left too.
    return node, best, f, thr, np.where(thr < vals[f, hi], lo, hi)


def _grow(y, n_trees, max_depth, code, vals, rng):
    """Grow ``n_trees`` trees breadth-first in lock step; returns the trees
    and each tree's importances before normalisation.  A level's nodes, and
    the children their splits make, are in (tree, left-to-right) order."""
    d, n = vals.shape
    n_sub = max(1, int(round(np.sqrt(d))))
    imp = np.zeros((n_trees, d))
    tree = np.arange(n_trees)
    m = np.full(n_trees, n)
    rows = rng.integers(0, n, (n_trees, n)).ravel()
    ones = y[rows].reshape(n_trees, n).sum(axis=1)
    levels = []    # per level: tree, prediction, feature, threshold, first child
    while len(m):
        feature = np.full(len(m), -1)
        threshold = np.zeros(len(m))
        child = np.full(len(m), -1)
        is_live = (0 < ones) & (ones < m) & (len(levels) < max_depth)
        live = np.flatnonzero(is_live)
        rows = rows[np.repeat(is_live, m)]
        live_m, live_ones = m[live], ones[live]
        keys = rng.random((len(live), d))
        cand = np.sort(np.argsort(keys, axis=1, kind="stable")[:, :n_sub], axis=1)
        end = np.cumsum(live_m)
        # The next level, chunk by chunk: split nodes and their children's
        # sizes and ones.  The children's rows overwrite ``rows`` from its
        # start, child after child, never past the chunk just scored.
        nxt = [[live[:0]], [m[:0]], [m[:0]]]
        made = filled = a = 0
        while a < len(live):
            begin = end[a] - live_m[a]
            b = max(a + 1, int(np.searchsorted(end, begin + LEVEL_ROWS, "right")))
            chunk = rows[begin:end[b - 1]]
            node, gain, f, thr, cut = _best_splits(chunk, live_m[a:b], live_ones[a:b],
                                                   cand[a:b], code, vals)
            at = live[a + node]
            feature[at], threshold[at] = f, thr
            child[at] = np.arange(made, made + 2 * len(at), 2)
            made += 2 * len(at)
            np.add.at(imp, (tree[at], f), gain * m[at] / n)
            # Each split node's rows, stably partitioned by value into its
            # left and right child.
            split = np.zeros(b - a, dtype=bool)
            split[node] = True
            part = chunk[np.repeat(split, live_m[a:b])]
            c = code[np.repeat(f, m[at]) * n + part]
            side = 2 * np.repeat(np.arange(len(at)), m[at]) + (c >> 1 > np.repeat(cut, m[at]))
            nxt[0].append(at)
            nxt[1].append(np.bincount(side, minlength=2 * len(at)))
            nxt[2].append(np.bincount(side[(c & 1) == 1], minlength=2 * len(at)))
            rows[filled:filled + len(part)] = part[np.argsort(side, kind="stable")]
            filled += len(part)
            a = b
        levels.append((tree, (2 * ones > m).astype(int), feature, threshold, child))
        at, m, ones = map(np.concatenate, nxt)
        rows = rows[:filled]
        tree = np.repeat(tree[at], 2)
    return _trees(levels), imp


def _trees(levels):
    """Each tree's flat node arrays, its nodes in the order they were made."""
    tree, prediction, feature, threshold, child = map(np.concatenate, zip(*levels))
    sizes = [len(level[0]) for level in levels]
    node = np.arange(len(tree))
    # A level's first child indices count from the start of the next level.
    first = child + np.repeat(np.cumsum(sizes), sizes)
    left = np.where(child < 0, node, first)
    right = left + (child >= 0)
    depth = np.repeat(np.arange(len(levels)), sizes)
    order = np.argsort(tree, kind="stable")
    counts = np.bincount(tree)
    starts = np.cumsum(counts) - counts
    local = np.empty_like(node)
    local[order] = node - np.repeat(starts, counts)
    deepest = np.maximum.reduceat(depth[order], starts)
    fe, th, le, ri, pr = (feature[order], threshold[order], local[left[order]],
                          local[right[order]], prediction[order])
    return [Tree(fe[a:b], th[a:b], le[a:b], ri[a:b], pr[a:b], deep) for a, b, deep in
            zip(starts.tolist(), (starts + counts).tolist(), deepest.tolist())]


@dataclass
class ForestModel:
    trees: list[Tree]
    importances: np.ndarray    # normalized, sums to 1
    feature_names: list[str]
    seed: int

    def votes(self, x: np.ndarray) -> np.ndarray:
        """How many trees predict 1 for each row of ``x``.

        Every (tree, row) pair steps down at once, over the trees' node
        arrays stacked with each tree's child indices shifted by its offset.
        A leaf loops to itself, so a pair that reaches one early stays there.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n, d = x.shape
        trees = self.trees
        sizes = [len(t.feature) for t in trees]
        roots = np.cumsum([0] + sizes[:-1])
        shift = np.repeat(roots, sizes)
        feature = np.concatenate([t.feature for t in trees])
        threshold = np.concatenate([t.threshold for t in trees])
        left = np.concatenate([t.left for t in trees]) + shift
        right = np.concatenate([t.right for t in trees]) + shift
        prediction = np.concatenate([t.prediction for t in trees])
        # A leaf's feature -1 reads some cell of x; it goes to itself either way.
        cells = x.ravel()
        row = np.tile(np.arange(0, n * d, d), len(trees))
        node = np.repeat(roots, n)
        for _ in range(max(t.depth for t in trees)):
            go_left = cells[row + feature[node]] <= threshold[node]
            node = np.where(go_left, left[node], right[node])
        return prediction[node].reshape(len(trees), n).sum(axis=0)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return (self.votes(x) * 2 > len(self.trees)).astype(int)


def _value_ranks(xt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``xt`` (one feature), each value's rank among the row's
    distinct values, and those values ascending, zero-padded: what
    ``np.unique(row, return_inverse=True)`` gives, from one stable sort."""
    order = np.argsort(xt, axis=1, kind="stable")
    ordered = np.take_along_axis(xt, order, axis=1)
    first = np.ones(xt.shape, dtype=bool)  # the first of each run of equal values
    first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    ordered_rank = np.cumsum(first, axis=1) - 1
    rank = np.empty(xt.shape, dtype=np.intp)
    np.put_along_axis(rank, order, ordered_rank, axis=1)
    vals = np.zeros(xt.shape)
    vals[first.nonzero()[0], ordered_rank[first]] = ordered[first]
    return rank, vals


def train_forest(data: LabeledDataset, n_trees: int = 100, max_depth: int = 8,
                 seed: int = 0) -> ForestModel:
    """Bagged CART forest with Gini splits and sqrt(d) feature subsampling."""
    x, y = data.features, data.labels
    if np.count_nonzero(np.bincount(y)) < 2:
        raise SensitivityUnavailableError("sensitivity unavailable: single-class data")
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    d = x.shape[1]
    rank, vals = _value_ranks(x.T)
    rng = np.random.default_rng(seed)
    trees, imp = _grow(y, n_trees, max_depth, (2 * rank + y).ravel(), vals, rng)
    tot = imp.sum(axis=1, keepdims=True)
    raw = np.divide(imp, tot, out=imp, where=tot > 0).sum(axis=0)
    total = raw.sum()
    importances = raw / total if total > 0 else np.full(d, 1.0 / d)
    return ForestModel(trees, importances, list(data.feature_names), seed)


def feature_importance(forest: ForestModel) -> np.ndarray:
    """Mean decrease in Gini impurity per feature, normalized to sum 1."""
    return forest.importances.copy()


def kfold_folds(labels: np.ndarray, k: int = 5, seed: int = 0) -> np.ndarray:
    """Each row's fold in stratified ``k``-fold cross validation: every
    class's rows, shuffled by ``seed``'s stream, dealt round-robin."""
    if k < 2:
        raise ValueError("k must be >= 2")
    counts = np.bincount(labels)
    classes = counts.nonzero()[0]
    if len(classes) < 2:
        raise SensitivityUnavailableError("sensitivity unavailable: single-class data")
    smallest = counts[classes].min()
    if smallest < k:
        raise ValueError(f"smallest class has {smallest} samples, cannot stratify into {k} folds")
    rng = np.random.default_rng(seed)
    fold = np.empty(len(labels), dtype=int)
    for c in classes:
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        fold[idx] = np.arange(len(idx)) % k
    return fold


def fold_accuracy(data: LabeledDataset, fold: np.ndarray, i: int, n_trees: int = 100,
                  max_depth: int = 8, seed: int = 0) -> float:
    """Accuracy on fold ``i`` of a forest trained on the other folds, with
    seed ``seed + 1 + i``."""
    test = np.flatnonzero(fold == i)
    train = np.flatnonzero(fold != i)
    sub = LabeledDataset(data.features[train], data.labels[train], data.feature_names)
    model = train_forest(sub, n_trees, max_depth, seed + 1 + i)
    return float(np.mean(model.predict(data.features[test]) == data.labels[test]))


def fold_summary(accs: list[float]) -> tuple[float, float]:
    """The (mean, std) of the fold accuracies, in fold order."""
    return float(np.mean(accs)), float(np.std(accs))


def kfold_accuracy(data: LabeledDataset, k: int = 5, n_trees: int = 100,
                   max_depth: int = 8, seed: int = 0) -> tuple[float, float]:
    """Stratified k-fold cross-validated accuracy (mean, std): the
    ``fold_accuracy`` of each of ``kfold_folds``' folds, in turn."""
    fold = kfold_folds(data.labels, k, seed)
    return fold_summary([fold_accuracy(data, fold, i, n_trees, max_depth, seed)
                         for i in range(k)])
