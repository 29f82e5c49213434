"""The vectorised tree split search and predict against the scalar scans they replaced.

``ReferenceTree`` keeps the per-node ``argsort`` and the sequential
``_scan_splits_sse`` / ``_scan_splits_gini`` loops.  The NumPy kernels add in
the same order, so the grown trees must match exactly, not within a tolerance.
"""

import math

import numpy as np
import pytest

import simfarm.models.forest as forest_module
from simfarm.models import CartTree, RandomForest
from simfarm.rng import substream


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
        if xs[i + 1] == xs[i]:
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
        if xs[i + 1] == xs[i]:
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
        if self.task == "classification":
            y = np.asarray(y)
            self.classes_ = np.unique(y)
            codes = np.searchsorted(self.classes_, y)
            self._ref_build(X, codes.astype(np.int64), 0, rng, feature_fraction)
        else:
            self._ref_build(X, np.asarray(y, dtype=np.float64), 0, rng, feature_fraction)
        return self


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
@pytest.mark.parametrize("kind", ["constant", "continuous", "twin"])
@pytest.mark.parametrize("min_leaf", [1, 3, 9])
@pytest.mark.parametrize("max_depth", [1, 5, 12])
def test_tree_state_matches_scalar_scan(task, kind, min_leaf, max_depth):
    X, y = dataset(kind, task)
    got = CartTree(max_depth=max_depth, min_leaf=min_leaf, task=task).fit(X, y)
    ref = ReferenceTree(max_depth=max_depth, min_leaf=min_leaf, task=task).fit(X, y)
    assert got.to_state() == ref.to_state()
    X_test, _ = dataset(kind, task, n=150, seed=11)
    assert np.array_equal(got.predict(X_test), walk_rows(ref, X_test))


@pytest.mark.parametrize("task", ["regression", "classification"])
@pytest.mark.parametrize("feature_fraction", [0.25, 0.5, 0.75])
def test_forest_state_matches_scalar_scan(monkeypatch, task, feature_fraction):
    X, y = dataset("continuous", task, n=180, seed=5)
    params = dict(n_trees=4, max_depth=6, min_leaf=2, feature_fraction=feature_fraction, task=task)
    got = RandomForest(**params).fit(X, y, seed=9)
    monkeypatch.setattr(forest_module, "CartTree", ReferenceTree)
    ref = RandomForest(**params).fit(X, y, seed=9)
    assert got.to_state() == ref.to_state()


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
