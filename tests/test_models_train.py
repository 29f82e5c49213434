import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import simfarm.models.mlp as mlp_module
import simfarm.models.neighbors as neighbors_module
import simfarm.models.tree as tree_module
from simfarm.errors import InvalidArgumentError, ModelSpecError, TrainingError
from simfarm.models import KnnModel, ModelSpec, kfold_split, train
from simfarm.models.forest import RandomForest
from simfarm.models.mlp import (MlpModel, _backward_pass, _forward_pass, _layer_views,
                                _softmax)
from simfarm.models.preprocess import fit_data
from simfarm.models.serialize import model_to_dict
from simfarm.models.train import train_folds
from simfarm.models.tree import CartTree
from simfarm.rng import substream


class TestRidge:
    def test_exact_line_recovered(self):
        x = np.linspace(-3, 3, 20).reshape(-1, 1)
        y = 2.0 * x.ravel() + 1.0
        model = train(ModelSpec("linear_ridge", "regression", {"lam": 0.0}), x, y)
        assert model.model.coef_[0] == pytest.approx(2.0, abs=1e-9)
        assert model.model.intercept_ == pytest.approx(1.0, abs=1e-9)

    def test_penalty_shrinks_coefficients(self):
        g = substream(0, 0)
        x = g.normal(0, 1, (100, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + g.normal(0, 0.1, 100)
        small = train(ModelSpec("linear_ridge", "regression", {"lam": 1e-6}), x, y)
        large = train(ModelSpec("linear_ridge", "regression", {"lam": 1e3}), x, y)
        assert np.linalg.norm(large.model.coef_) < np.linalg.norm(small.model.coef_)

    def test_collinear_with_lam_zero_falls_back(self):
        x = np.column_stack([np.arange(10.0), np.arange(10.0)])  # singular gram
        y = np.arange(10.0)
        model = train(ModelSpec("linear_ridge", "regression", {"lam": 0.0}), x, y)
        assert np.allclose(model.predict(x), y, atol=1e-8)

    def test_classification_task_rejected(self):
        with pytest.raises(ModelSpecError):
            ModelSpec("linear_ridge", "classification", {}).validate()


class TestKnn:
    def test_k1_zero_training_error(self):
        g = substream(1, 0)
        x = g.random((30, 2))
        y = g.normal(0, 1, 30)
        model = train(ModelSpec("knn", "regression", {"k": 1}), x, y)
        assert np.allclose(model.predict(x), y)

    def test_k1_classification_zero_training_error(self):
        g = substream(2, 0)
        x = g.random((40, 2))
        y = (x[:, 0] > 0.5).astype(np.int64)
        model = train(ModelSpec("knn", "classification", {"k": 1}), x, y)
        assert np.array_equal(model.predict(x), y)

    def test_regression_mean_of_neighbors(self):
        x = np.array([[0.0], [1.0], [10.0]])
        y = np.array([0.0, 2.0, 100.0])
        model = train(ModelSpec("knn", "regression", {"k": 2}), x, y)
        assert model.predict(np.array([[0.4]]))[0] == pytest.approx(1.0)

    def test_k_larger_than_train_rejected(self):
        with pytest.raises(TrainingError):
            train(ModelSpec("knn", "regression", {"k": 10}), np.zeros((3, 1)), np.zeros(3))

    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("block", [1 << 20, 1])
    def test_blocked_predict_matches_full_distance_matrix(self, monkeypatch, task, block):
        # p = 9 makes each distance a pairwise sum; block 1 puts every test row
        # in its own block.  Coarse grid values give distance ties and vote ties.
        g = substream(16, 0)
        x = np.round(g.normal(0, 1, (120, 9)), 1)
        if task == "classification":
            y = np.array([3, 7, 11])[g.integers(0, 3, 120)]
        else:
            y = g.normal(0, 1, 120)
        x_test = np.vstack([x[:10], np.round(g.normal(0, 1, (190, 9)), 1)])
        monkeypatch.setattr(neighbors_module, "_BLOCK", block)
        for k in (1, 4, 6):
            model = KnnModel(k=k, task=task).fit(x, y)
            got = model.predict(x_test)
            want = knn_predict_rows(model, x_test)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("p", range(1, 13))
    def test_partial_selection_matches_stable_argsort(self, monkeypatch, task, p):
        # Features in {0, 1, 2} tie many distances; 50 test rows go in blocks of
        # 16, and a NaN feature makes one row's distances all NaN.
        g = substream(23, p)
        x = g.integers(0, 3, (40, p)).astype(np.float64)
        if task == "classification":
            y = np.array([2, 5, 9])[g.integers(0, 3, 40)]
        else:
            y = g.normal(0, 1, 40)
        x_test = np.vstack([x[:5], g.integers(0, 3, (45, p))]).astype(np.float64)
        x_test[7, 0] = np.nan
        monkeypatch.setattr(neighbors_module, "_BLOCK", 16 * x.size)
        for k in (1, 3, len(x)):
            model = KnnModel(k=k, task=task).fit(x, y)
            got = model.predict(x_test)
            want = knn_predict_rows(model, x_test)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def knn_predict_rows(model: KnnModel, X: np.ndarray) -> np.ndarray:
    """The full distance matrix and per-row dict vote that ``KnnModel.predict`` replaced."""
    d2 = ((X[:, None, :] - model._X[None, :, :]) ** 2).sum(axis=2)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, : model.k]
    if model.task == "regression":
        return model._y[nearest].astype(np.float64).mean(axis=1)
    preds = np.empty(len(X), dtype=model._y.dtype)
    for i, idx in enumerate(nearest):
        counts = {c: 0 for c in model.classes_}
        for v in model._y[idx]:
            counts[v] += 1
        preds[i] = max(sorted(counts), key=lambda c: counts[c])
    return preds


class TestCartTree:
    def test_xor_at_depth_two(self):
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0], dtype=np.int64)
        model = train(
            ModelSpec("cart_tree", "classification", {"max_depth": 2, "min_leaf": 1}),
            x, y,
        )
        assert np.array_equal(model.predict(x), y)

    def test_depth_one_stump(self):
        x = np.linspace(0, 1, 50).reshape(-1, 1)
        y = (x.ravel() > 0.5).astype(float)
        model = train(
            ModelSpec("cart_tree", "regression", {"max_depth": 1, "min_leaf": 1}), x, y
        )
        tree = model.model
        internal = [f for f in tree.feature if f >= 0]
        assert len(internal) == 1  # a single split

    def test_min_leaf_respected(self):
        g = substream(3, 0)
        x = g.random((60, 2))
        y = g.normal(0, 1, 60)
        model = train(
            ModelSpec("cart_tree", "regression", {"max_depth": 10, "min_leaf": 10}), x, y
        )
        tree = model.model

        def leaf_sizes(node, rows):
            if tree.feature[node] < 0:
                return [len(rows)]
            mask = x[rows, tree.feature[node]] <= tree.threshold[node]
            return leaf_sizes(tree.left[node], rows[mask]) + leaf_sizes(
                tree.right[node], rows[~mask]
            )

        assert min(leaf_sizes(0, np.arange(60))) >= 10

    def test_regression_reduces_sse(self):
        g = substream(4, 0)
        x = g.random((200, 1))
        y = np.where(x.ravel() > 0.5, 5.0, -5.0) + g.normal(0, 0.2, 200)
        model = train(
            ModelSpec("cart_tree", "regression", {"max_depth": 3, "min_leaf": 5}), x, y
        )
        mse = float(np.mean((model.predict(x) - y) ** 2))
        assert mse < 1.0

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError):
            train(
                ModelSpec("cart_tree", "classification", {"max_depth": 2}),
                np.random.default_rng(0).random((10, 2)),
                np.zeros(10, dtype=np.int64),
            )

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_blocked_split_search_matches_one_block(self, monkeypatch, task):
        # 2^10 cells hold two 400-row features at the root (one with 3 classes);
        # feature 4 copies feature 1 into a later block, so the tie rule
        # (lower feature first) is exercised across blocks.
        g = substream(17, 0)
        x = np.round(g.normal(0, 1, (400, 7)), 1)
        x[:, 4] = x[:, 1]
        y = 3.0 * x[:, 1] + x[:, 5] + g.normal(0, 0.3, 400)
        if task == "classification":
            y = np.digitize(y, [-1.0, 1.0])

        def grow(block):
            monkeypatch.setattr(tree_module, "_SPLIT_BLOCK", block)
            return CartTree(max_depth=6, min_leaf=2, task=task).fit(x, y).to_state()

        blocked = grow(1 << 10)
        assert blocked["feature"][0] == 1
        assert blocked == grow(1 << 40)

    def test_forest_fit_memory_is_bounded(self):
        # Scoring all 8 features of the root at once peaked at 15.6 MiB;
        # blocks of about 2^16 cells peak near 9 MiB.
        g = substream(18, 0)
        x = g.normal(0, 1, (20_000, 8))
        y = x[:, 0] + g.normal(0, 0.1, 20_000)
        tracemalloc.start()
        try:
            RandomForest(n_trees=3, max_depth=4, task="regression").fit(x, y, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 11 * 2**20


class TestRandomForest:
    def test_single_tree_no_bootstrap_equals_cart(self):
        g = substream(5, 0)
        x = g.random((120, 4))
        y = np.sin(x[:, 0] * 6) + x[:, 1] + g.normal(0, 0.05, 120)
        params = {"max_depth": 6, "min_leaf": 2}
        forest = RandomForest(
            n_trees=1, feature_fraction=1.0, bootstrap=False, task="regression", **params
        ).fit(x, y, seed=123)
        tree = CartTree(task="regression", **params).fit(x, y)
        probe = g.random((50, 4))
        assert np.array_equal(forest.predict(probe), tree.predict(probe))

    def test_seed_determinism(self):
        g = substream(6, 0)
        x = g.random((80, 3))
        y = g.normal(0, 1, 80)
        spec = ModelSpec(
            "random_forest", "regression",
            {"n_trees": 12, "feature_fraction": 0.6, "max_depth": 5},
        )
        p1 = train(spec, x, y, seed=9).predict(x)
        p2 = train(spec, x, y, seed=9).predict(x)
        assert np.array_equal(p1, p2)
        p3 = train(spec, x, y, seed=10).predict(x)
        assert not np.array_equal(p1, p3)

    def test_classification_majority(self):
        g = substream(7, 0)
        x = g.random((150, 2))
        y = ((x[:, 0] + x[:, 1]) > 1.0).astype(np.int64)
        spec = ModelSpec("random_forest", "classification", {"n_trees": 15, "max_depth": 4})
        model = train(spec, x, y, seed=1)
        acc = float(np.mean(model.predict(x) == y))
        assert acc > 0.9


    @staticmethod
    def _fold_stack(k):
        g = substream(19, 0)
        x = g.normal(0, 1, (k, 800, 3))
        return x, x[..., 0] + np.sin(3.0 * x[..., 1]) + g.normal(0, 0.1, (k, 800))

    def test_fold_stack_memory_is_bounded(self):
        # 5 folds of a 42-tree forest at 800 x 3 grow as one batch of 210 trees:
        # 2.6 MiB of row lists, 0.6 MiB of samples and about 3 MiB of node data
        # for 62 000 nodes; the peak is 6.8 MiB
        x, y = self._fold_stack(5)
        forest = RandomForest(n_trees=42, max_depth=8, min_leaf=2, feature_fraction=0.68)
        tracemalloc.start()
        try:
            forest.fit_stack(x, y, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.5 * 2**20

    def test_batch_memory_grows_with_its_own_trees_and_rows(self, monkeypatch):
        # k = 10: 420 trees of 800 rows.  A batch's row lists and left flags are
        # sized by its own trees and one fold's rows, never by the k folds of the stack.
        batches = []
        init = tree_module._Batch.__init__

        def watched_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            batches.append((self.T, self.rows.nbytes, self.goes_left.nbytes))

        monkeypatch.setattr(tree_module._Batch, "__init__", watched_init)
        RandomForest(n_trees=42, max_depth=3, feature_fraction=0.68).fit_stack(
            *self._fold_stack(10), seed=1)
        assert [t for t, _, _ in batches] == [327, 93]  # at most 2^20 ids of (3 + 1) * 800
        for t, rows, flags in batches:
            assert rows == t * 4 * 800 * 4 and flags == t * 800


@pytest.mark.parametrize("family", ["cart_tree", "random_forest"])
@pytest.mark.parametrize("task", ["regression", "classification"])
def test_train_folds_stacks_tree_folds_by_shape_and_classes(monkeypatch, family, task):
    # 53 rows in 5 folds train on 42 or 43 rows: two stacks.  In classification
    # class 2 sits only in fold 0's held-out rows, so fold 0 gets a stack of its own.
    g = substream(20, 0)
    n = 53
    x = g.normal(0, 1, (n, 3))
    folds = kfold_split(n, 5, seed=1)
    if task == "classification":
        y = (x[:, 0] > 0).astype(np.int64)
        y[folds[0][:4]] = 2
        want_stacks = [1, 2, 2]
    else:
        y = 3.0 * x[:, 0] + g.normal(0, 0.1, n)
        want_stacks = [2, 3]
    train_idx = [np.setdiff1d(np.arange(n), fold) for fold in folds]
    params = {"max_depth": 4, "min_leaf": 2}
    if family == "random_forest":
        params.update(n_trees=7, feature_fraction=0.6)
    spec = ModelSpec(family, task, params)
    cls = {"cart_tree": CartTree, "random_forest": RandomForest}[family]
    stacks = []
    fit_stack = cls.fit_stack

    def recording_fit_stack(self, X, y, seed=0):
        stacks.append(len(X))
        return fit_stack(self, X, y, seed)

    monkeypatch.setattr(cls, "fit_stack", recording_fit_stack)
    got = list(train_folds(spec, [x[i] for i in train_idx], [y[i] for i in train_idx], seed=4))
    assert sorted(stacks) == want_stacks
    for fold_model, idx in zip(got, train_idx, strict=True):
        alone = cls(task=task, **params).fit(x[idx], y[idx], seed=4)
        assert json.dumps(fold_model.model.to_state()) == json.dumps(alone.to_state())


def reference_mlp_fit(model: MlpModel, X, y, seed: int) -> MlpModel:
    """The per-batch gather and loss-computing SGD loop that ``fit`` replaced."""
    if model.task == "classification":
        model.classes_ = np.unique(y)
    model._init_params(X.shape[1], 1 if model.task == "regression" else len(model.classes_), seed)
    target = model._encode_targets(y)
    n = len(X)
    for epoch in range(model.epochs):
        order = substream(seed, 1, epoch).permutation(n)
        for start in range(0, n, model.batch_size):
            batch = order[start : start + model.batch_size]
            xb, tb = X[batch], target[batch]
            acts = model._forward(xb)
            out = acts[-1]
            if model.task == "regression":
                diff = out - tb
                _ = float(np.mean(diff**2))
                delta = 2.0 * diff / (len(xb) * out.shape[1])
            else:
                probs = _softmax(out)
                _ = float(-np.mean(np.sum(tb * np.log(probs + 1e-12), axis=1)))
                delta = (probs - tb) / len(xb)
            grads_w = [np.empty(0)] * len(model.weights)
            grads_b = [np.empty(0)] * len(model.biases)
            for layer in range(len(model.weights) - 1, -1, -1):
                grads_w[layer] = acts[layer].T @ delta
                grads_b[layer] = delta.sum(axis=0)
                if layer > 0:
                    delta = (delta @ model.weights[layer].T) * (acts[layer] > 0.0)
            for layer in range(len(model.weights)):
                model.weights[layer] -= model.learning_rate * grads_w[layer]
                model.biases[layer] -= model.learning_rate * grads_b[layer]
    return model


def _stacked_forward_pass(X, weights, biases):
    acts = [X]
    for layer in range(len(weights) - 1):
        acts.append(np.maximum(acts[-1] @ weights[layer] + biases[layer], 0.0))
    acts.append(acts[-1] @ weights[-1] + biases[-1])
    return acts


def _stacked_backward_pass(task, acts, target, weights):
    out = acts[-1]
    if task == "regression":
        delta = 2.0 * (out - target) / (out.shape[-2] * out.shape[-1])
    else:
        z = out - out.max(axis=-1, keepdims=True)
        e = np.exp(z)
        delta = (e / e.sum(axis=-1, keepdims=True) - target) / out.shape[-2]
    grads_w = [np.empty(0)] * len(weights)
    grads_b = [np.empty(0)] * len(weights)
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] = acts[layer].swapaxes(-1, -2) @ delta
        grads_b[layer] = delta.sum(axis=-2, keepdims=True)
        if layer > 0:
            delta = (delta @ weights[layer].swapaxes(-1, -2)) * (acts[layer] > 0.0)
    return grads_w, grads_b


def stacked_reference_train(model: MlpModel, X, y, seed: int):
    """The stacked SGD loop with one array per weight, bias and gradient that the
    preallocated parameter buffer of ``MlpModel._train`` replaced."""
    problems = [fit_data(model.task, x, yk) for x, yk in zip(X, y, strict=True)]
    model.classes_ = problems[0][2]
    X, y = (np.stack([p[j] for p in problems]) for j in (0, 1))
    n_problems, n, n_in = X.shape
    model._init_params(n_in, 1 if model.classes_ is None else len(model.classes_), seed)
    weights = [np.repeat(w[None], n_problems, axis=0) for w in model.weights]
    biases = [np.repeat(b[None, None], n_problems, axis=0) for b in model.biases]
    target = np.stack([model._encode_targets(yk) for yk in y])
    for epoch in range(model.epochs):
        order = substream(seed, 1, epoch).permutation(n)
        X_epoch, target_epoch = X[:, order], target[:, order]
        for start in range(0, n, model.batch_size):
            stop = start + model.batch_size
            acts = _stacked_forward_pass(X_epoch[:, start:stop], weights, biases)
            grads_w, grads_b = _stacked_backward_pass(
                model.task, acts, target_epoch[:, start:stop], weights
            )
            for layer in range(len(weights)):
                weights[layer] -= model.learning_rate * grads_w[layer]
                biases[layer] -= model.learning_rate * grads_b[layer]
    return weights, biases


class TestMlp:
    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("hidden", [(8,), (6, 5)])
    @pytest.mark.parametrize("n_problems", [1, 3])
    @pytest.mark.parametrize("learning_rate, scale, diverges", [(0.01, 1.0, False),
                                                                (1.0, 1e3, True)])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_train_matches_stacked_reference_loop(self, task, hidden, n_problems,
                                                  learning_rate, scale, diverges):
        # 61 rows in batches of 16 leave a short last batch.  A target near 1e3
        # with a large learning rate overflows to inf and NaN (in the first of
        # the three (6, 5) problems, in all (8,) ones), so the NaNs are pinned too.
        g = substream(22, 0)
        x = g.normal(0, 1, (n_problems, 61, 3))
        y = scale * x[:, :, 0] + g.normal(0, 1, (n_problems, 61))
        if task == "classification":
            y = np.digitize(y, [-0.3 * scale, 0.3 * scale])
        params = dict(hidden=hidden, learning_rate=learning_rate, epochs=5, batch_size=16,
                      task=task)
        got_w, got_b = MlpModel(**params)._train(x, y, seed=6)
        want_w, want_b = stacked_reference_train(MlpModel(**params), x, y, seed=6)
        for a, b in zip(got_w + got_b, want_w + want_b, strict=True):
            assert a.shape == b.shape
            assert np.array_equal(a, b, equal_nan=True)
            assert a.tobytes() == b.tobytes()
        if task == "regression":
            assert np.isnan(want_w[0][0]).any() == diverges
            if hidden == (6, 5) and n_problems == 3:
                assert not np.isnan(want_w[0][1:]).any()

    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("hidden", [(8,), (6, 5)])
    @pytest.mark.parametrize("nan", [np.nan, -np.nan], ids=["nan", "negative-nan"])
    def test_all_nan_parameters_are_a_fixed_point_of_the_step(self, task, hidden, nan):
        # Why ``_train`` may stop once every weight and bias is NaN: every
        # activation past the input and every gradient is NaN, even for an
        # all-zero input row, and the SGD step keeps every bit of ``params``.
        # A ReLU that maps NaN to 0, as ``np.fmax`` does, fails here.
        g = substream(24, 0)
        x = g.normal(0, 1, (2, 7, 3))
        x[:, 2] = 0.0
        if task == "regression":
            target = g.normal(0, 1, (2, 7, 1))
        else:
            target = np.eye(3)[g.integers(0, 3, (2, 7))]
        sizes = [3, *hidden, target.shape[-1]]
        n_params = 2 * sum((a + 1) * b for a, b in zip(sizes, sizes[1:]))
        params, grads = np.full(n_params, nan), np.empty(n_params)
        weights, biases = _layer_views(params, 2, sizes)
        grads_w, grads_b = _layer_views(grads, 2, sizes)
        before = params.tobytes()
        acts = _forward_pass(x, weights, biases)
        assert all(np.isnan(a).all() for a in acts[1:])
        _backward_pass(task, acts, target, weights, grads_w, grads_b)
        assert np.isnan(grads).all()
        grads *= 0.01
        params -= grads
        assert params.tobytes() == before

    @pytest.mark.parametrize("learning_rate, scales, stops", [(20.0, (1e3, 1e3), True),
                                                              (0.1, (1e3, 1.0), False)])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_training_stops_after_the_first_all_nan_epoch(self, monkeypatch, learning_rate,
                                                         scales, stops):
        # Both problems of the first stack are NaN in every weight and bias
        # after epoch 2 of 40; in the second, problem 0 diverges and problem
        # 1 stays finite, so the stack trains all 40 epochs.
        g = substream(23, 0)
        x = g.normal(0, 1, (2, 61, 3))
        y = np.array(scales)[:, None] * x[:, :, 0] + 0.1 * g.normal(0, 1, (2, 61))
        params = dict(hidden=(8,), learning_rate=learning_rate, epochs=40, batch_size=16)
        calls = []

        def counting_forward_pass(*args):
            calls.append(args)
            return _forward_pass(*args)

        monkeypatch.setattr(mlp_module, "_forward_pass", counting_forward_pass)
        got_w, got_b = MlpModel(**params)._train(x, y, seed=6)
        want_w, want_b = stacked_reference_train(MlpModel(**params), x, y, seed=6)
        for a, b in zip(got_w + got_b, want_w + want_b, strict=True):
            assert a.tobytes() == b.tobytes()
        epochs_run, rest = divmod(len(calls), 4)  # 61 rows make 4 batches
        assert rest == 0

        def reference_all_nan(epochs):
            w, b = stacked_reference_train(MlpModel(**{**params, "epochs": epochs}), x, y, seed=6)
            return all(np.isnan(a).all() for a in w + b)

        first_all_nan = next((epochs for epochs in range(1, 41) if reference_all_nan(epochs)), None)
        if stops:
            assert epochs_run == first_all_nan == 2
        else:
            assert epochs_run == 40 and first_all_nan is None
            assert all(np.isnan(a[0]).all() and np.isfinite(a[1]).all()
                       for a in want_w + want_b)

    @given(n_problems=st.integers(1, 3), hidden=st.sampled_from([(2,), (3, 2)]),
           log_rate=st.floats(-3.0, 2.0), log_scales=st.lists(st.floats(0.0, 4.0),
                                                                min_size=3, max_size=3),
           epochs=st.integers(1, 12), seed=st.integers(0, 2**16))
    # the stack goes all NaN in epoch 4: its last, then mid-run; then a
    # stack whose problem 0 goes all NaN beside a finite problem 1
    @example(n_problems=2, hidden=(2,), log_rate=-1.0, log_scales=[3.0, 3.5, 0.0], epochs=4,
             seed=2)
    @example(n_problems=2, hidden=(2,), log_rate=-1.0, log_scales=[3.0, 3.5, 0.0], epochs=12,
             seed=2)
    @example(n_problems=2, hidden=(2,), log_rate=-2.0, log_scales=[4.0, 0.0, 0.0], epochs=12,
             seed=2)
    @settings(max_examples=60, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_train_matches_stacked_reference_wherever_divergence_starts(
            self, n_problems, hidden, log_rate, log_scales, epochs, seed):
        # Learning rates 1e-3..1e2 and target scales 1..1e4 give stacks that
        # never diverge, that go all NaN mid-run or in the last epoch, and
        # stacks where only some problems do.  Problem k's target scale is
        # 10 ** log_scales[k].
        g = substream(seed, 0)
        x = g.normal(0, 1, (n_problems, 20, 2))
        scales = 10.0 ** np.array(log_scales[:n_problems])
        y = scales[:, None] * (x[:, :, 0] + 0.1 * g.normal(0, 1, (n_problems, 20)))
        params = dict(hidden=hidden, learning_rate=10.0**log_rate, epochs=epochs, batch_size=8)
        got_w, got_b = MlpModel(**params)._train(x, y, seed=seed)
        want_w, want_b = stacked_reference_train(MlpModel(**params), x, y, seed=seed)
        for a, b in zip(got_w + got_b, want_w + want_b, strict=True):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("hidden", [(4,), (32,), (6, 5), (3, 2)])
    @pytest.mark.parametrize("batch_size", [7, 32, 53, 64])
    @pytest.mark.parametrize("learning_rate", [0.01, 20.0])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fit_matches_reference_loop(self, task, hidden, batch_size, learning_rate):
        # n = 53 is divided by none of the batch sizes but itself; the
        # 1e3-scale regression target drives several fits to inf and NaN.
        g = substream(5, 0)
        x = g.normal(0, 1, (53, 4))
        y = 1e3 * x[:, 0] + g.normal(0, 1, 53)
        if task == "classification":
            y = np.digitize(y, [-300.0, 300.0])
        params = dict(hidden=hidden, learning_rate=learning_rate, epochs=6,
                      batch_size=batch_size, task=task)
        got = MlpModel(**params).fit(x, y, seed=3)
        want = reference_mlp_fit(MlpModel(**params), x, y, seed=3)
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("hidden", [(4,), (6, 5)])
    @pytest.mark.parametrize("batch_size", [7, 53, 64])
    @pytest.mark.parametrize("learning_rate", [0.01, 20.0])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stacked_fit_matches_reference_loop(self, task, hidden, batch_size, learning_rate):
        g = substream(19, 0)
        x = g.normal(0, 1, (3, 53, 4))
        y = 1e3 * x[:, :, 0] + g.normal(0, 1, (3, 53))
        if task == "classification":
            y = np.digitize(y, [-300.0, 300.0])
        params = dict(hidden=hidden, learning_rate=learning_rate, epochs=6,
                      batch_size=batch_size, task=task)
        template = MlpModel(**params)
        models = template.fit_stack(x, y, seed=3)
        assert template.weights == [] and len(models) == 3
        for k, got in enumerate(models):
            want = reference_mlp_fit(MlpModel(**params), x[k], y[k], seed=3)
            for a, b in zip(got.weights + got.biases, want.weights + want.biases, strict=True):
                assert a.tobytes() == b.tobytes()

    def test_stack_with_different_classes_rejected(self):
        x = np.zeros((2, 6, 1))
        y = np.array([[0, 1, 2, 0, 1, 2], [0, 1, 0, 1, 0, 1]])
        with pytest.raises(TrainingError):
            MlpModel(task="classification").fit_stack(x, y)

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_train_folds_matches_train_per_fold(self, monkeypatch, task):
        # 53 rows in 5 folds train on 42 or 43 rows: two stacks.  In
        # classification class 2 sits only in fold 0's held-out rows, so fold
        # 0 trains on two classes and gets a stack of its own.
        g = substream(20, 0)
        n = 53
        x = g.normal(0, 1, (n, 3))
        folds = kfold_split(n, 5, seed=1)
        if task == "classification":
            y = (x[:, 0] > 0).astype(np.int64)
            y[folds[0][:4]] = 2
            want_stacks = [1, 2, 2]
        else:
            y = 3.0 * x[:, 0] + g.normal(0, 0.1, n)
            want_stacks = [2, 3]
        train_idx = [np.setdiff1d(np.arange(n), fold) for fold in folds]
        spec = ModelSpec("mlp", task, {"hidden": (5,), "learning_rate": 0.05, "epochs": 8,
                                       "batch_size": 16})
        stacks = []
        fit_stack = MlpModel.fit_stack

        def recording_fit_stack(self, X, y, seed=0):
            stacks.append(len(X))
            return fit_stack(self, X, y, seed)

        monkeypatch.setattr(MlpModel, "fit_stack", recording_fit_stack)
        got = list(train_folds(spec, [x[i] for i in train_idx], [y[i] for i in train_idx], seed=4))
        assert sorted(stacks) == want_stacks
        for fold_model, idx in zip(got, train_idx, strict=True):
            want = train(spec, x[idx], y[idx], seed=4)
            assert json.dumps(model_to_dict(fold_model)) == json.dumps(model_to_dict(want))

    def _probe(self, task, seed=11):
        g = substream(seed, 0)
        x = g.normal(0, 1, (12, 3))
        if task == "regression":
            y = g.normal(0, 1, 12)
        else:
            y = g.integers(0, 3, 12).astype(np.int64)
            while len(np.unique(y)) < 3:
                y = g.integers(0, 3, 12).astype(np.int64)
        return x, y

    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("hidden", [(7,), (6, 5)])
    def test_gradients_match_central_differences(self, task, hidden):
        x, y = self._probe(task)
        model = MlpModel(hidden=hidden, task=task)
        n_out = 3 if task == "classification" else 1
        if task == "classification":
            model.classes_ = np.unique(y)
        model._init_params(x.shape[1], n_out, seed=42)
        target = model._encode_targets(y)
        _, grads_w, grads_b = model.loss_and_grads(x, target)

        h = 1e-5
        worst = 0.0
        for params, grads in ((model.weights, grads_w), (model.biases, grads_b)):
            for layer in range(len(params)):
                flat = params[layer].ravel()
                gflat = grads[layer].ravel()
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    up, _, _ = model.loss_and_grads(x, target)
                    flat[idx] = orig - h
                    down, _, _ = model.loss_and_grads(x, target)
                    flat[idx] = orig
                    numeric = (up - down) / (2 * h)
                    denom = max(abs(numeric), abs(gflat[idx]), 1e-8)
                    worst = max(worst, abs(numeric - gflat[idx]) / denom)
        assert worst < 1e-4

    def test_single_sgd_step_decreases_loss(self):
        x, y = self._probe("regression", seed=12)
        model = MlpModel(hidden=(8,), task="regression")
        model._init_params(x.shape[1], 1, seed=7)
        target = model._encode_targets(y)
        loss0, grads_w, grads_b = model.loss_and_grads(x, target)
        eta = 1e-4
        for layer in range(len(model.weights)):
            model.weights[layer] -= eta * grads_w[layer]
            model.biases[layer] -= eta * grads_b[layer]
        loss1, _, _ = model.loss_and_grads(x, target)
        assert loss1 < loss0

    def test_learns_linear_map(self):
        g = substream(13, 0)
        x = g.normal(0, 1, (200, 2))
        y = x @ np.array([1.0, -1.0])
        spec = ModelSpec(
            "mlp", "regression",
            {"hidden": (16,), "learning_rate": 0.05, "epochs": 300, "batch_size": 32},
        )
        model = train(spec, x, y, seed=3)
        mse = float(np.mean((model.predict(x) - y) ** 2))
        assert mse < 0.05

    def test_classification_separable(self):
        g = substream(14, 0)
        x = np.vstack([g.normal(-2, 0.5, (50, 2)), g.normal(2, 0.5, (50, 2))])
        y = np.array([0] * 50 + [1] * 50, dtype=np.int64)
        spec = ModelSpec(
            "mlp", "classification",
            {"hidden": (8,), "learning_rate": 0.1, "epochs": 100, "batch_size": 16},
        )
        model = train(spec, x, y, seed=4)
        assert float(np.mean(model.predict(x) == y)) > 0.95

    def test_seed_determinism(self):
        g = substream(15, 0)
        x = g.normal(0, 1, (50, 2))
        y = g.normal(0, 1, 50)
        spec = ModelSpec(
            "mlp", "regression",
            {"hidden": (8,), "learning_rate": 0.01, "epochs": 20, "batch_size": 10},
        )
        m1 = train(spec, x, y, seed=5)
        m2 = train(spec, x, y, seed=5)
        for w1, w2 in zip(m1.model.weights, m2.model.weights):
            assert np.array_equal(w1, w2)


class TestSpecValidation:
    def test_unknown_param_rejected(self):
        with pytest.raises(ModelSpecError):
            ModelSpec("knn", "regression", {"kk": 3}).validate()

    def test_range_left_in_train_rejected(self):
        from simfarm.models import FloatRange

        spec = ModelSpec("linear_ridge", "regression", {"lam": FloatRange(0.1, 1.0)})
        with pytest.raises(ModelSpecError):
            train(spec, np.zeros((4, 1)), np.zeros(4))

    @pytest.mark.parametrize("bad", [1.6, np.nan, -np.inf, 2.0**70])
    def test_non_integer_class_label_rejected(self, bad):
        y = np.array([0.0, 1.0, 0.0, bad, 1.0, 0.0])
        with pytest.raises(InvalidArgumentError, match="'y'.*row 3"):
            train(ModelSpec("cart_tree", "classification", {}), np.arange(12.0).reshape(6, 2), y)

    @pytest.mark.parametrize("family", ["linear_ridge", "random_forest", "mlp"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_regression_target_rejected(self, family, bad):
        y = np.array([0.5, 1.0, 0.0, bad, 1.0, 0.0])
        with pytest.raises(InvalidArgumentError, match="'y'.*row 3"):
            train(ModelSpec(family, "regression", {}), np.arange(12.0).reshape(6, 2), y)

    def test_whole_float_class_labels_accepted(self):
        y = np.array([0.0, 1.0, 0.0, 2.0, 1.0, 0.0])
        model = train(ModelSpec("knn", "classification", {"k": 1}), np.arange(6.0)[:, None], y)
        assert model.model.classes_.dtype == np.int64
        assert model.model.classes_.tolist() == [0, 1, 2]

    def test_degenerate_data_rejected(self):
        with pytest.raises(TrainingError):
            train(ModelSpec("knn", "regression", {"k": 1}), np.zeros((1, 1)), np.zeros(1))
