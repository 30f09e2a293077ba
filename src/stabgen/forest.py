"""Random-forest sensitivity analysis on accumulated stability labels.

Bagged CART trees with Gini-impurity splits and sqrt(d) feature
subsampling per node.  Feature importances (mean decrease in impurity)
rank the operating-space dimensions for split selection; stratified k-fold
accuracy quantifies dataset quality.  Fully deterministic for a fixed
(data, hyperparameters, seed).

Each tree sorts its bootstrap sample once per feature and grows from those
presorted rows: a split partitions them stably, and every candidate
feature of a node is scored in one array pass.  A split side with ``k``
rows and ``o`` ones adds ``k * gini(o / k)`` to the gain; for sides of at
most ``SIDE_CAP`` rows that value comes from a table built, on first need,
with the node's own expression, so every gain keeps its bits.  A tree is
stored as flat node arrays; a forest votes by stepping every (tree, row)
pair down its trees' stacked arrays at once.  The random stream is a contract:
per tree one ``integers(0, n, n)`` bootstrap, then one
``choice(d, n_sub, replace=False)`` per splittable node, depth-first and
left-first.  Together with the 1e-12 gain floor, the first strict maximum
over ascending features, midpoint thresholds and partitions by value, it
fixes every split, so output bytes do not depend on how a tree is grown.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Sides of at most this many rows take their impurity term from the table
# (33 152 entries, 265 kB at the cap); larger sides, near the roots of big
# forests only, compute it.
SIDE_CAP = 256

# k * gini(o / k) at [k * (k + 1) // 2 - 1 + o] for 1 <= k and 0 <= o <= k,
# grown on demand up to SIDE_CAP rows per side, never at import.
_sides = np.empty(0)


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


def _side_table(size: int) -> tuple[np.ndarray, np.ndarray]:
    """The side impurity table, grown to cover sides of ``size`` rows, and
    where side k's row of it begins for k <= size (index 0 is unused)."""
    global _sides
    start = np.arange(size + 1) * np.arange(1, size + 2) // 2 - 1
    if len(_sides) < size * (size + 3) // 2:
        # Row by row, so that no temporary outgrows a row.
        table = np.empty(size * (size + 3) // 2)
        for k in range(1, size + 1):
            p = np.arange(k + 1) / k
            table[start[k]:start[k] + k + 1] = k * (1.0 - p ** 2 - (1.0 - p) ** 2)
        _sides = table
    return _sides, start


def _grow_tree(xt: np.ndarray, y: np.ndarray, max_depth: int, n_sub: int,
               importances: np.ndarray, rng: np.random.Generator,
               sides: np.ndarray, start: np.ndarray) -> Tree:
    """Grow one tree on a bootstrap sample, depth-first and left-first.

    ``xt`` holds the sample's feature columns as rows, (d, n).  ``sides``
    and ``start`` are ``_side_table``'s, for sides of fewer than
    ``len(start)`` rows.

    ``rows[j]`` lists a node's rows in ascending order of feature j, ties in
    row order: the order a stable argsort of that node's values gives.  A
    split partitions every such list stably, so no node sorts again.  Each
    splittable node draws its candidate features when it leaves the stack,
    and the left child is popped first, so the draws come in the order of
    a recursive depth-first, left-first growth.
    """
    d, n = xt.shape
    sizes = np.arange(n + 1)
    ones = int(y.sum())
    # One [feature, threshold, left, right, prediction] per node; a node is
    # made a leaf and becomes a split when its turn in the stack comes.
    nodes = [[-1, 0.0, 0, 0, int(2 * ones > n)]]
    deepest = 0
    stack = [(0, np.argsort(xt, axis=1, kind="stable"), ones, 0)]
    while stack:
        i, rows, ones, depth = stack.pop()
        m = rows.shape[1]
        if depth >= max_depth or ones == 0 or ones == m:
            continue
        fs = rng.choice(d, size=n_sub, replace=False)
        fs.sort()
        cand = rows[fs]
        xs = xt[fs[:, None], cand]
        cum = y[cand].cumsum(axis=1)
        ones_left = cum[:, :-1]
        p0 = (m - ones) / m
        p1 = ones / m
        parent = 1.0 - (p0 * p0 + p1 * p1)
        if m <= len(start):
            # Left sides of 1 .. m-1 rows, right sides of m-1 .. 1.
            impurity = sides[start[1:m] + ones_left]
            impurity += sides[start[m - 1:0:-1] + ones - ones_left]
        else:
            n_left = sizes[1:m]                # 1 .. m-1
            n_right = sizes[m - 1:0:-1]        # m-1 .. 1
            p1l = ones_left / n_left
            p1r = (ones - ones_left) / n_right
            impurity = n_left * (1.0 - p1l ** 2 - (1.0 - p1l) ** 2)
            impurity += n_right * (1.0 - p1r ** 2 - (1.0 - p1r) ** 2)
        impurity /= m
        gain = np.subtract(parent, impurity, out=impurity)
        gain[xs[:, 1:] == xs[:, :-1]] = -1.0
        # The first maximum in (feature, position) order: features ascend.
        c, k = divmod(int(gain.argmax()), m - 1)
        best = float(gain[c, k])
        if not best > 1e-12:
            continue
        f = int(fs[c])
        thr = float(0.5 * (xs[c, k] + xs[c, k + 1]))
        importances[f] += best * m / n
        # Partition by value: the midpoint of adjacent floats can round up
        # to xs[c, k + 1], which then goes left with every row equal to it.
        if thr < xs[c, k + 1]:
            m_left = k + 1
        else:
            m_left = int(xs[c].searchsorted(thr, side="right"))
        ones_l = int(cum[c, m_left - 1])
        j = len(nodes)
        nodes[i][:4] = f, thr, j, j + 1
        nodes.append([-1, 0.0, j, j, int(2 * ones_l > m_left)])
        nodes.append([-1, 0.0, j + 1, j + 1,
                      int(2 * (ones - ones_l) > m - m_left)])
        deepest = max(deepest, depth + 1)
        # A child that is a leaf by depth or purity needs no rows.
        if depth + 1 < max_depth and (0 < ones_l < m_left
                                      or 0 < ones - ones_l < m - m_left):
            go_left = (xt[f] <= thr)[rows]
            stack.append((j + 1, rows[~go_left].reshape(d, m - m_left),
                          ones - ones_l, depth + 1))
            stack.append((j, rows[go_left].reshape(d, m_left), ones_l,
                          depth + 1))
    feature, threshold, left, right, prediction = map(np.array, zip(*nodes))
    return Tree(feature, threshold, left, right, prediction, deepest)


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


def train_forest(data: LabeledDataset, n_trees: int = 100, max_depth: int = 8,
                 seed: int = 0) -> ForestModel:
    """Bagged CART forest with Gini splits and sqrt(d) feature subsampling."""
    x, y = data.features, data.labels
    if len(np.unique(y)) < 2:
        raise SensitivityUnavailableError("sensitivity unavailable: single-class data")
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    n, d = x.shape
    n_sub = max(1, int(round(np.sqrt(d))))
    # A split side holds at most n - 1 of a bootstrap's n rows.
    sides, start = _side_table(min(n - 1, SIDE_CAP))
    xt = np.ascontiguousarray(x.T)
    rng = np.random.default_rng(seed)
    trees: list[Tree] = []
    raw = np.zeros(d)
    for _ in range(n_trees):
        boot = rng.integers(0, n, n)
        imp = np.zeros(d)
        trees.append(_grow_tree(xt[:, boot], y[boot], max_depth, n_sub, imp,
                                rng, sides, start))
        tot = imp.sum()
        raw += imp / tot if tot > 0 else imp
    total = raw.sum()
    importances = raw / total if total > 0 else np.full(d, 1.0 / d)
    return ForestModel(trees, importances, list(data.feature_names), seed)


def feature_importance(forest: ForestModel) -> np.ndarray:
    """Mean decrease in Gini impurity per feature, normalized to sum 1."""
    return forest.importances.copy()


def kfold_accuracy(data: LabeledDataset, k: int = 5, n_trees: int = 100,
                   max_depth: int = 8, seed: int = 0) -> tuple[float, float]:
    """Stratified k-fold cross-validated accuracy (mean, std)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    y = data.labels
    classes, counts = np.unique(y, return_counts=True)
    if len(classes) < 2:
        raise SensitivityUnavailableError("sensitivity unavailable: single-class data")
    if counts.min() < k:
        raise ValueError(f"smallest class has {counts.min()} samples, cannot stratify into {k} folds")
    rng = np.random.default_rng(seed)
    fold = np.empty(len(y), dtype=int)
    for c in classes:
        idx = np.flatnonzero(y == c)
        rng.shuffle(idx)
        fold[idx] = np.arange(len(idx)) % k
    accs = []
    for i in range(k):
        test = np.flatnonzero(fold == i)
        train = np.flatnonzero(fold != i)
        sub = LabeledDataset(data.features[train], y[train], data.feature_names)
        model = train_forest(sub, n_trees, max_depth, seed + 1 + i)
        accs.append(float(np.mean(model.predict(data.features[test]) == y[test])))
    return float(np.mean(accs)), float(np.std(accs))
