import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabgen import forest
from stabgen.forest import (LabeledDataset, SensitivityUnavailableError,
                            feature_importance, kfold_accuracy, train_forest)

from oracles import ReferenceForest, reference_kfold, tree_predict


def _threshold_data(n=300, d=4, seed=0, noise=0.0):
    """Labels determined by x0 > 0.5; remaining features are noise."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, d))
    y = (x[:, 0] > 0.5).astype(int)
    if noise > 0:
        flip = rng.random(n) < noise
        y[flip] = 1 - y[flip]
    return LabeledDataset(x, y, [f"x{i}" for i in range(d)])


def test_informative_feature_dominates():
    for seed in range(5):
        data = _threshold_data(seed=seed)
        model = train_forest(data, n_trees=50, seed=seed)
        imp = feature_importance(model)
        assert imp[0] >= 0.8
        assert imp.sum() == pytest.approx(1.0)
        assert np.all(imp >= 0)


def test_separable_data_cross_validates_cleanly():
    data = _threshold_data(seed=1)
    mean, std = kfold_accuracy(data, k=5, n_trees=30)
    assert mean > 0.95
    assert std < 0.05


def test_shuffled_labels_score_at_chance():
    data = _threshold_data(seed=2)
    rng = np.random.default_rng(7)
    shuffled = LabeledDataset(data.features, rng.permutation(data.labels),
                              data.feature_names)
    mean, _ = kfold_accuracy(shuffled, k=5, n_trees=30)
    assert abs(mean - 0.5) < 0.1


def test_permuting_informative_feature_destroys_importance():
    data = _threshold_data(seed=3)
    rng = np.random.default_rng(3)
    x = data.features.copy()
    x[:, 0] = rng.permutation(x[:, 0])
    broken = LabeledDataset(x, data.labels, data.feature_names)
    imp = feature_importance(train_forest(broken, n_trees=50))
    assert imp[0] < 0.5  # no longer dominant once decoupled from the labels


def test_single_tree_forest_equals_tree():
    data = _threshold_data(seed=4)
    model = train_forest(data, n_trees=1, seed=11)
    tree_pred = tree_predict(model.trees[0], data.features)
    assert np.array_equal(model.predict(data.features), tree_pred)


def test_stacked_vote_equals_per_tree_votes():
    # Two ones in ten rows: about one bootstrap in nine draws neither and
    # grows a single leaf, and the other trees stop at different depths.
    rng = np.random.default_rng(12)
    x = rng.random((10, 3))
    y = np.zeros(10, dtype=int)
    y[[2, 7]] = 1
    model = train_forest(LabeledDataset(x, y), n_trees=25, max_depth=3, seed=4)
    assert any(len(t.feature) == 1 for t in model.trees)
    assert len({t.depth for t in model.trees}) >= 3
    probe = np.vstack([x, rng.random((40, 3))])
    per_tree = sum(tree_predict(t, probe) for t in model.trees)
    assert np.array_equal(model.votes(probe), per_tree)
    assert np.array_equal(model.predict(probe), (per_tree * 2 > 25).astype(int))


def test_forest_is_equal_at_any_row_limit(monkeypatch):
    # 330 rows: at the default limit a level runs in chunks of several
    # nodes; at 37 rows every root is larger than a chunk and is scored
    # alone, and deeper nodes share chunks again.
    data = _threshold_data(n=330, d=4, seed=13, noise=0.2)
    ref = train_forest(data, n_trees=6, max_depth=6, seed=21)
    monkeypatch.setattr(forest, "LEVEL_ROWS", 37)
    model = train_forest(data, n_trees=6, max_depth=6, seed=21)
    assert model.importances.tobytes() == ref.importances.tobytes()
    for a, b in zip(model.trees, ref.trees):
        assert a.depth == b.depth
        for name in ("feature", "threshold", "left", "right", "prediction"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_depth_one_stump_finds_threshold():
    data = _threshold_data(n=2000, seed=5)
    model = train_forest(data, n_trees=200, max_depth=1, seed=0)
    roots = [t for t in model.trees if t.feature[0] == 0]
    assert roots
    thresholds = np.array([t.threshold[0] for t in roots])
    assert abs(np.median(thresholds) - 0.5) < 0.05


def test_deterministic_for_fixed_seed():
    data = _threshold_data(seed=6)
    a = train_forest(data, n_trees=20, seed=9)
    b = train_forest(data, n_trees=20, seed=9)
    assert np.array_equal(a.importances, b.importances)
    probe = np.random.default_rng(0).random((50, 4))
    assert np.array_equal(a.predict(probe), b.predict(probe))


def test_single_class_raises():
    x = np.random.default_rng(0).random((30, 3))
    data = LabeledDataset(x, np.zeros(30, dtype=int), ["a", "b", "c"])
    with pytest.raises(SensitivityUnavailableError):
        train_forest(data)
    with pytest.raises(SensitivityUnavailableError):
        kfold_accuracy(data)


def test_validation_errors():
    data = _threshold_data(n=40)
    with pytest.raises(ValueError):
        train_forest(data, n_trees=0)
    with pytest.raises(ValueError):
        kfold_accuracy(data, k=1)
    # class too small to stratify
    x = np.random.default_rng(1).random((10, 2))
    y = np.array([1, 0, 0, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        kfold_accuracy(LabeledDataset(x, y), k=5)
    with pytest.raises(ValueError):
        LabeledDataset(np.ones(5), np.ones(5))
    with pytest.raises(ValueError):
        LabeledDataset(np.full((5, 2), np.nan), np.ones(5))


def test_noise_tolerance():
    data = _threshold_data(n=500, seed=8, noise=0.1)
    model = train_forest(data, n_trees=50, seed=8)
    assert feature_importance(model)[0] >= 0.5
    mean, _ = kfold_accuracy(data, k=5, n_trees=30, seed=8)
    assert mean > 0.8


@st.composite
def _small_datasets(draw):
    """Rounded ties, a column of adjacent floats and both classes."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(6, 60))
    d = draw(st.integers(1, 9))
    x = rng.random((n, d))
    if draw(st.booleans()):
        x = np.round(x, 1)
    if draw(st.booleans()):
        # A midpoint of two adjacent floats can round up to the upper one,
        # so the split must partition by value, not by sorted position.
        col = np.full(n, 1.0 + rng.random())
        for i, steps in enumerate(rng.integers(0, 4, n)):
            for _ in range(steps):
                col[i] = np.nextafter(col[i], 2.0)
        x[:, rng.integers(d)] = col
    y = (rng.random(n) < draw(st.floats(0.2, 0.8))).astype(int)
    y[:3], y[3:6] = 0, 1    # three of each class, enough for 3 folds
    depth = draw(st.integers(1, 70))
    return x, y, depth, draw(st.integers(0, 1000))


@settings(max_examples=60, deadline=None)
@given(_small_datasets(), st.integers(1, 12), st.sampled_from([1, 2, 7, 40, forest.LEVEL_ROWS]))
def test_forest_equals_breadth_first_reference(case, n_trees, row_limit):
    x, y, depth, seed = case
    data = LabeledDataset(x, y)
    with pytest.MonkeyPatch.context() as mp:
        # Small limits split a level into chunks of one or a few nodes.
        mp.setattr(forest, "LEVEL_ROWS", row_limit)
        model = train_forest(data, n_trees=n_trees, max_depth=depth, seed=seed)
        accuracy = kfold_accuracy(data, 3, n_trees, depth, seed)
    ref = ReferenceForest(x, y, n_trees=n_trees, max_depth=depth, seed=seed)
    assert model.importances.tobytes() == ref.importances.tobytes()
    probe = np.vstack([x, np.random.default_rng(seed).random((20, x.shape[1]))])
    assert np.array_equal(model.predict(probe), ref.predict(probe))
    assert accuracy == reference_kfold(x, y, 3, n_trees, depth, seed)
