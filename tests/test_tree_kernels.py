"""The batched tree engine and predict against the scalar scans they replaced.

``ReferenceTree`` keeps the recursive preorder build, the per-node
``argsort`` and the sequential ``_scan_splits_sse`` / ``_scan_splits_gini``
loops, and ``reference_forest`` grows a forest from it tree by tree.  The
NumPy kernels add in the same order and draw the same feature subsets, so the
grown trees must match exactly, not within a tolerance.
"""

import json
import math

import numpy as np
import pytest

import simfarm.models.tree as tree_module
from simfarm.errors import TrainingError
from simfarm.models import CartTree, RandomForest
from simfarm.models.tree import feature_draws
from simfarm.rng import substream


def _separates(a, b):
    """Whether the cut ``0.5 * (a + b)`` puts ``a`` left and ``b`` right under ``x <= t``."""
    t = 0.5 * (a + b)
    return a <= t < b


def _scan_splits_sse(xs, ys, min_leaf):
    n = xs.shape[0]
    total = 0.0
    total_sq = 0.0
    for i in range(n):
        total += ys[i]
        total_sq += ys[i] * ys[i]
    best_score = math.inf
    best_thr = 0.0
    found = False
    left = 0.0
    left_sq = 0.0
    for i in range(n - 1):
        left += ys[i]
        left_sq += ys[i] * ys[i]
        if not _separates(xs[i], xs[i + 1]):
            continue
        nl = i + 1
        nr = n - nl
        if nl < min_leaf or nr < min_leaf:
            continue
        right = total - left
        right_sq = total_sq - left_sq
        sse = (left_sq - left * left / nl) + (right_sq - right * right / nr)
        if sse < 0.0:
            sse = 0.0
        if sse < best_score:
            best_score = sse
            best_thr = 0.5 * (xs[i] + xs[i + 1])
            found = True
    return best_score, best_thr, found


def _scan_splits_gini(xs, codes, n_classes, min_leaf):
    n = xs.shape[0]
    total_counts = np.zeros(n_classes, dtype=np.int64)
    for i in range(n):
        total_counts[codes[i]] += 1
    left_counts = np.zeros(n_classes, dtype=np.int64)
    best_score = math.inf
    best_thr = 0.0
    found = False
    for i in range(n - 1):
        left_counts[codes[i]] += 1
        if not _separates(xs[i], xs[i + 1]):
            continue
        nl = i + 1
        nr = n - nl
        if nl < min_leaf or nr < min_leaf:
            continue
        sl = 0.0
        sr = 0.0
        for c in range(n_classes):
            lc = left_counts[c]
            rc = total_counts[c] - lc
            sl += lc * lc
            sr += rc * rc
        score = nl * (1.0 - sl / (nl * nl)) + nr * (1.0 - sr / (nr * nr))
        if score < best_score:
            best_score = score
            best_thr = 0.5 * (xs[i] + xs[i + 1])
            found = True
    return best_score, best_thr, found


class ReferenceTree(CartTree):
    """The recursive build with a per-node argsort and scalar scans."""

    def _new_node(self):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _ref_leaf_value(self, y):
        if self.task == "regression":
            return float(y.mean())
        return float(np.argmax(np.bincount(y, minlength=len(self.classes_))))

    def _ref_best_split(self, X, y, feature_ids):
        best = None
        for f in feature_ids:
            order = np.argsort(X[:, f], kind="stable")
            xs = np.ascontiguousarray(X[order, f])
            if self.task == "regression":
                ys = np.ascontiguousarray(y[order].astype(np.float64))
                score, thr, found = _scan_splits_sse(xs, ys, self.min_leaf)
            else:
                codes = np.ascontiguousarray(y[order].astype(np.int64))
                score, thr, found = _scan_splits_gini(
                    xs, codes, len(self.classes_), self.min_leaf
                )
            if found and (best is None or score < best[0]):
                best = (score, int(f), float(thr))
        if best is None:
            return None
        return best[1], best[2]

    def _ref_build(self, X, y, depth, rng, feature_fraction):
        node = self._new_node()
        self.value[node] = self._ref_leaf_value(y)
        if depth >= self.max_depth or len(y) < 2 * self.min_leaf or bool(np.all(y == y[0])):
            return node
        p = X.shape[1]
        if feature_fraction < 1.0:
            m = max(1, int(round(feature_fraction * p)))
            feature_ids = np.sort(rng.choice(p, size=m, replace=False))
        else:
            feature_ids = np.arange(p)
        split = self._ref_best_split(X, y, feature_ids)
        if split is None:
            return node
        f, thr = split
        mask = X[:, f] <= thr
        self.feature[node] = f
        self.threshold[node] = thr
        self.left[node] = self._ref_build(X[mask], y[mask], depth + 1, rng, feature_fraction)
        self.right[node] = self._ref_build(X[~mask], y[~mask], depth + 1, rng, feature_fraction)
        return node

    def fit(self, X, y, rng=None, feature_fraction=1.0):
        X = np.asarray(X, dtype=np.float64)
        self.set_nodes(([], [], [], [], []))  # built node by node, then kept as arrays
        if self.task == "classification":
            y = np.asarray(y)
            self.classes_ = np.unique(y)
            codes = np.searchsorted(self.classes_, y)
            self._ref_build(X, codes.astype(np.int64), 0, rng, feature_fraction)
        else:
            self._ref_build(X, np.asarray(y, dtype=np.float64), 0, rng, feature_fraction)
        return self.set_nodes(tuple(np.asarray(a) for a in (
            self.feature, self.threshold, self.left, self.right, self.value)))


def walk_rows(tree: CartTree, X: np.ndarray) -> np.ndarray:
    """The per-row ``while`` walk that ``CartTree.predict`` replaced."""
    out = np.empty(len(X), dtype=np.float64)
    for i, row in enumerate(np.asarray(X, dtype=np.float64)):
        node = 0
        while tree.feature[node] >= 0:
            f = tree.feature[node]
            node = tree.left[node] if row[f] <= tree.threshold[node] else tree.right[node]
        out[i] = tree.value[node]
    if tree.task == "classification":
        return tree.classes_[out.astype(np.int64)]
    return out


def dataset(kind: str, task: str, n: int = 240, seed: int = 3):
    """Integer features with many ties; targets with constant-y pockets or noise."""
    rng = substream(seed, 0)
    X = rng.integers(0, 6, size=(n, 4)).astype(np.float64)
    if kind == "continuous":
        X[:, 1] = rng.normal(size=n)  # one untied feature among the tied ones
    if kind == "twin":
        X[:, 3] = X[:, 0]  # equal scores on both: the lower feature must win
    if kind == "duplicates":
        X = X[rng.integers(0, 6, size=n)]  # six distinct rows: impure nodes with no legal cut
    if task == "classification":
        y = (X[:, 0] + X[:, 2] > 5).astype(np.int64) + 2 * (X[:, 3] == 0)
        flip = rng.random(n) < 0.15
        y[flip] = rng.integers(0, 3, size=int(flip.sum()))
        return X, y
    if kind == "constant":
        y = np.floor(X[:, 0] / 2.0) * 1.5  # constant on every X0 pair: pure nodes
    else:
        y = X[:, 0] * 0.3 - X[:, 2] + rng.normal(scale=0.7, size=n)
    return X, y


@pytest.mark.parametrize("task", ["regression", "classification"])
@pytest.mark.parametrize("kind", ["constant", "continuous", "twin", "duplicates"])
@pytest.mark.parametrize("min_leaf", [1, 3, 9])
@pytest.mark.parametrize("max_depth", [1, 5, 12])
def test_tree_state_matches_scalar_scan(task, kind, min_leaf, max_depth):
    X, y = dataset(kind, task)
    got = CartTree(max_depth=max_depth, min_leaf=min_leaf, task=task).fit(X, y)
    ref = ReferenceTree(max_depth=max_depth, min_leaf=min_leaf, task=task).fit(X, y)
    assert got.to_state() == ref.to_state()
    X_test, _ = dataset(kind, task, n=150, seed=11)
    assert np.array_equal(got.predict(X_test), walk_rows(ref, X_test))


def reference_forest(X, y, seed, n_trees, max_depth, min_leaf, feature_fraction, bootstrap,
                     task):
    """The per-tree loop: tree t draws its bootstrap and then its feature subsets from
    ``substream(seed, t)`` and is grown on its own by the recursive reference build."""
    states = []
    for t in range(n_trees):
        rng = substream(seed, t)
        xt, yt = X, y
        if bootstrap:
            idx = rng.integers(0, len(X), size=len(X))
            if task == "regression" or len(np.unique(y[idx])) >= 2:
                xt, yt = X[idx], y[idx]  # a one-class draw keeps the full sample
        tree = ReferenceTree(max_depth=max_depth, min_leaf=min_leaf, task=task)
        states.append(tree.fit(xt, yt, rng=rng, feature_fraction=feature_fraction).to_state())
    return states


@pytest.mark.parametrize("task", ["regression", "classification"])
@pytest.mark.parametrize("feature_fraction", [0.25, 0.5, 0.75])
def test_forest_state_matches_scalar_scan(task, feature_fraction):
    X, y = dataset("continuous", task, n=180, seed=5)
    params = dict(n_trees=4, max_depth=6, min_leaf=2, feature_fraction=feature_fraction, task=task)
    got = RandomForest(**params).fit(X, y, seed=9)
    ref = reference_forest(X, y, 9, bootstrap=True, **params)
    assert got.to_state()["trees"] == ref


@pytest.mark.parametrize("task", ["regression", "classification"])
@pytest.mark.parametrize("kind", ["constant", "continuous", "twin", "duplicates"])
@pytest.mark.parametrize("feature_fraction", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("bootstrap", [True, False])
def test_forest_matches_reference_forest(task, kind, feature_fraction, bootstrap):
    X, y = dataset(kind, task, n=150, seed=6)
    params = dict(n_trees=3, max_depth=7, min_leaf=2, feature_fraction=feature_fraction,
                  bootstrap=bootstrap, task=task)
    got = RandomForest(**params).fit(X, y, seed=4)
    assert got.to_state()["trees"] == reference_forest(X, y, 4, **params)


def test_forest_trees_keep_their_own_classes():
    # tiny samples: some bootstrap draws miss a class, some hold one class only
    X = np.arange(12.0).reshape(6, 2)
    y = np.array([0, 0, 0, 0, 1, 2])
    params = dict(n_trees=12, max_depth=3, min_leaf=1, feature_fraction=0.5,
                  bootstrap=True, task="classification")
    draws = [y[substream(3, t).integers(0, 6, size=6)] for t in range(12)]
    assert any(len(np.unique(d)) == 1 for d in draws)  # the full-sample fallback runs
    got = RandomForest(**params).fit(X, y, seed=3).to_state()["trees"]
    assert got == reference_forest(X, y, 3, **params)
    assert {tuple(t["classes"]) for t in got} >= {(0, 1, 2), (0, 1), (0, 2)}


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_forest_is_independent_of_block_and_batch_sizes(monkeypatch, task):
    X, y = dataset("continuous", task, n=200, seed=7)
    params = dict(n_trees=5, max_depth=8, min_leaf=1, feature_fraction=0.5, task=task)
    default = RandomForest(**params).fit(X, y, seed=2).to_state()
    # one tree per batch, and every split search or partition in many small calls
    monkeypatch.setattr(tree_module, "_BATCH_IDS", 1)
    monkeypatch.setattr(tree_module, "_SPLIT_BLOCK", 64)
    monkeypatch.setattr(tree_module, "_FIRST_DRAWS", 1)
    assert RandomForest(**params).fit(X, y, seed=2).to_state() == default


def stacked(kind, task, seeds, n):
    """``dataset`` problems of one shape as (K, n, p) and (K, n) arrays."""
    X, y = zip(*(dataset(kind, task, n=n, seed=seed) for seed in seeds))
    return np.stack(X), np.stack(y)


@pytest.mark.parametrize("task", ["regression", "classification"])
@pytest.mark.parametrize("kind", ["constant", "continuous", "duplicates"])
def test_cart_stack_matches_per_problem_fits(task, kind):
    X, y = stacked(kind, task, seeds=(4, 7, 9), n=240)  # each holds classes 0-3
    params = dict(max_depth=6, min_leaf=2, task=task)
    got = CartTree(**params).fit_stack(X, y)
    assert len(got) == 3
    for tree, x, yk in zip(got, X, y, strict=True):
        alone = CartTree(**params).fit(x, yk)
        assert json.dumps(tree.to_state()) == json.dumps(alone.to_state())
        assert tree.to_state() == ReferenceTree(**params).fit(x, yk).to_state()


@pytest.mark.parametrize("task", ["regression", "classification"])
@pytest.mark.parametrize("feature_fraction", [0.5, 1.0])  # lockstep preorder, level-wise
@pytest.mark.parametrize("bootstrap", [True, False])
def test_forest_stack_matches_per_problem_fits(task, feature_fraction, bootstrap):
    X, y = stacked("continuous", task, seeds=(6, 7, 8), n=150)
    params = dict(n_trees=3, max_depth=7, min_leaf=2, feature_fraction=feature_fraction,
                  bootstrap=bootstrap, task=task)
    got = RandomForest(**params).fit_stack(X, y, seed=4)
    assert len(got) == 3
    for forest, x, yk in zip(got, X, y, strict=True):
        alone = RandomForest(**params).fit(x, yk, seed=4)
        assert json.dumps(forest.to_state()) == json.dumps(alone.to_state())
        assert forest.to_state()["trees"] == reference_forest(x, yk, 4, **params)


def test_forest_stack_keeps_each_problems_one_class_fallback():
    X = np.arange(12.0).reshape(6, 2)
    X = np.stack([X, X[::-1]])
    y = np.array([[0, 0, 0, 0, 1, 2], [0, 1, 0, 0, 0, 2]])
    params = dict(n_trees=12, max_depth=3, min_leaf=1, feature_fraction=0.5,
                  bootstrap=True, task="classification")
    got = RandomForest(**params).fit_stack(X, y, seed=3)
    for forest, x, yk in zip(got, X, y, strict=True):
        draws = [yk[substream(3, t).integers(0, 6, size=6)] for t in range(12)]
        assert any(len(np.unique(d)) == 1 for d in draws)  # the full-sample fallback runs
        assert forest.to_state()["trees"] == reference_forest(x, yk, 3, **params)


@pytest.mark.parametrize("cls", [CartTree, RandomForest])
def test_stack_with_different_classes_rejected(cls):
    X = np.zeros((2, 6, 2))
    y = np.array([[0, 1, 2, 0, 1, 2], [0, 1, 0, 1, 0, 1]])
    with pytest.raises(TrainingError, match="same classes"):
        cls(task="classification").fit_stack(X, y)


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_forest_stack_is_independent_of_batch_size(monkeypatch, task):
    X, y = stacked("continuous", task, seeds=(6, 7), n=200)
    params = dict(n_trees=5, max_depth=8, min_leaf=1, feature_fraction=0.5, task=task)
    default = [f.to_state() for f in RandomForest(**params).fit_stack(X, y, seed=2)]
    # batches of 3 trees: one batch holds trees of both problems
    monkeypatch.setattr(tree_module, "_BATCH_IDS", 3 * 5 * 200)
    assert [f.to_state() for f in RandomForest(**params).fit_stack(X, y, seed=2)] == default


@pytest.mark.filterwarnings("ignore:Mean of empty slice:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("task", ["regression", "classification"])
@pytest.mark.parametrize("edge", [np.inf, np.nan])
def test_cut_beside_inf_or_nan_leaves_an_empty_child(task, edge):
    # the cut between 1.0 and inf would sit at inf (every row left), beside NaN at
    # NaN (every row right), and leave the other child an empty leaf with a NaN
    # mean; neither is a legal cut, so no leaf is empty and no value is NaN
    X = np.c_[np.r_[np.ones(30), np.full(30, edge)], np.arange(60.0) % 7]
    y = np.r_[np.zeros(30), np.ones(30)] + (np.arange(60) % 3) * 0.1
    if task == "classification":
        y = (y > 0.5).astype(np.int64) + np.arange(60) % 2
    got = CartTree(max_depth=4, task=task).fit(X, y).to_state()
    ref = ReferenceTree(max_depth=4, task=task).fit(X, y).to_state()
    assert json.dumps(got) == json.dumps(ref)
    assert all(math.isfinite(t) for t in got["threshold"])
    assert not any(math.isnan(v) for v in got["value"])
    assert 0 not in got["feature"]  # feature 0 has no legal cut
    params = dict(n_trees=3, max_depth=4, min_leaf=1, feature_fraction=0.5, bootstrap=True,
                  task=task)
    forest = RandomForest(**params).fit(X, y, seed=1).to_state()["trees"]
    assert json.dumps(forest) == json.dumps(reference_forest(X, y, 1, **params))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_cut_beside_minus_inf_splits_and_an_overflowing_cut_does_not():
    y = np.r_[np.zeros(10), np.ones(10)]
    X = np.r_[np.full(10, -np.inf), np.zeros(10)][:, None]
    tree = CartTree(max_depth=1).fit(X, y)
    assert (tree.feature[0], tree.threshold[0]) == (0, -np.inf)
    assert np.array_equal(tree.predict(X), y)
    # 1e308 + 1.7e308 overflows, so its midpoint is inf and sends every row left
    X = np.r_[np.full(10, 1e308), np.full(10, 1.7e308)][:, None]
    for tree in (CartTree(max_depth=1).fit(X, y), ReferenceTree(max_depth=1).fit(X, y)):
        assert tree.feature == [-1] and tree.value == [0.5]


@pytest.mark.parametrize("p", [1, 2, 3, 8, 20])
def test_feature_draws_match_sequential_choice(p):
    for m in range(1, p + 1):
        for seed in range(25):
            got = substream(seed, p, m)
            table = feature_draws(got, p, m, 40)
            rng = substream(seed, p, m)
            ref = [np.sort(rng.choice(p, m, replace=False)) for _ in range(40)]
            assert np.array_equal(table, ref), (p, m, seed)
            assert got.integers(0, 2**62) == rng.integers(0, 2**62)  # the streams end in step


@pytest.mark.parametrize("m", [200, 201])  # NumPy's Floyd path, then its tail-shuffle path
def test_feature_draws_for_many_features(m):
    p = 10_001
    got = substream(8, m)
    table = feature_draws(got, p, m, 3)
    ref = substream(8, m)
    assert np.array_equal(table, [np.sort(ref.choice(p, m, replace=False)) for _ in range(3)])
    assert got.integers(0, 2**62) == ref.integers(0, 2**62)  # the streams end in step


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_level_wise_predict_matches_row_walk(task):
    X, y = dataset("continuous", task, n=400, seed=8)
    tree = CartTree(max_depth=12, min_leaf=1, task=task).fit(X, y)
    loaded = CartTree.from_state(tree.to_state())
    X_test, _ = dataset("continuous", task, n=300, seed=13)
    X_test[:7] = X[:7]  # rows that sit exactly on training values and thresholds
    for model in (tree, loaded):
        assert np.array_equal(model.predict(X_test), walk_rows(model, X_test))


def test_predict_on_a_stump_and_on_no_rows():
    X, y = dataset("constant", "regression")
    stump = CartTree(max_depth=1).fit(X, y)
    assert len(stump.feature) == 3
    assert np.array_equal(stump.predict(X), walk_rows(stump, X))
    assert stump.predict(np.empty((0, 4))).shape == (0,)


def test_constant_target_is_a_single_leaf():
    X, _ = dataset("continuous", "regression")
    tree = CartTree(max_depth=5).fit(X, np.full(len(X), 2.5))
    assert tree.feature == [-1] and tree.value == [2.5]


def vote_rows(forest: RandomForest, X: np.ndarray) -> np.ndarray:
    """The per-row ``np.unique`` vote that ``RandomForest.predict`` replaced."""
    votes = np.stack([tree.predict(X) for tree in forest.trees])
    out = np.empty(votes.shape[1], dtype=forest.classes_.dtype)
    for i in range(votes.shape[1]):
        labels, counts = np.unique(votes[:, i], return_counts=True)
        out[i] = labels[np.argmax(counts)]  # ties to the smallest label
    return out


def test_forest_vote_matches_row_loop():
    X, codes = dataset("continuous", "classification", n=300, seed=4)
    y = np.array([2, 5, 9, 11])[codes]  # labels that are not class codes
    forest = RandomForest(n_trees=4, max_depth=3, feature_fraction=0.5, task="classification")
    forest.fit(X, y, seed=2)
    X_test, _ = dataset("continuous", "classification", n=500, seed=21)
    votes = np.stack([tree.predict(X_test) for tree in forest.trees])
    tied = [len(set(np.unique(c, return_counts=True)[1])) == 1 and len(set(c)) > 1 for c in votes.T]
    assert any(tied)  # the tie rule is exercised
    for model in (forest, RandomForest.from_state(forest.to_state())):
        got = model.predict(X_test)
        assert got.dtype == model.classes_.dtype
        assert np.array_equal(got, vote_rows(model, X_test))
