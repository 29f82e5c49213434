import json

import numpy as np
import pytest

import simfarm.models.selection as selection
from simfarm.errors import InvalidArgumentError
from simfarm.models import (
    ModelSpec,
    FloatRange,
    default_spec,
    evaluate_metrics,
    kfold_split,
    random_search_cv,
    random_search_cv_table,
)
from simfarm.models import save_model, train
from simfarm.rng import substream
from simfarm.tables import DataColumn


class TestKfold:
    def test_even_split(self):
        folds = kfold_split(10, 5, seed=0)
        assert [len(f) for f in folds] == [2, 2, 2, 2, 2]

    def test_uneven_split_sizes(self):
        folds = kfold_split(11, 5, seed=0)
        assert sorted((len(f) for f in folds), reverse=True) == [3, 2, 2, 2, 2]

    def test_partition_property(self):
        folds = kfold_split(37, 5, seed=3)
        joined = np.sort(np.concatenate(folds))
        assert np.array_equal(joined, np.arange(37))

    def test_determinism(self):
        assert all(
            np.array_equal(a, b)
            for a, b in zip(kfold_split(20, 4, seed=9), kfold_split(20, 4, seed=9))
        )

    def test_seed_changes_folds(self):
        a = kfold_split(30, 3, seed=1)
        b = kfold_split(30, 3, seed=2)
        assert any(not np.array_equal(x, y) for x, y in zip(a, b))

    def test_invalid_k(self):
        with pytest.raises(InvalidArgumentError):
            kfold_split(10, 1, seed=0)
        with pytest.raises(InvalidArgumentError):
            kfold_split(3, 5, seed=0)


def noisy_line(n=200, seed=0):
    g = substream(seed, 0)
    x = g.uniform(-2, 2, (n, 1))
    y = 2.0 * x.ravel() + 1.0 + g.normal(0, 0.1, n)
    return x, y


class TestRandomSearch:
    def test_budget_is_respected_exactly(self):
        x, y = noisy_line()
        spec = default_spec("linear_ridge", "regression")
        _, report = random_search_cv(spec, x, y, k=3, budget=7, seed=0)
        assert len(report.evaluated) == 7

    def test_best_is_argmin_for_regression(self):
        x, y = noisy_line(seed=1)
        spec = default_spec("linear_ridge", "regression")
        _, report = random_search_cv(spec, x, y, k=4, budget=10, seed=2)
        means = [e.mean_score for e in report.evaluated]
        assert report.best.mean_score == min(means)

    def test_best_is_argmax_for_classification(self):
        g = substream(3, 0)
        x = g.normal(0, 1, (120, 2))
        y = (x[:, 0] > 0).astype(np.int64)
        spec = default_spec("knn", "classification")
        _, report = random_search_cv(spec, x, y, k=4, budget=8, seed=4)
        means = [e.mean_score for e in report.evaluated]
        assert report.best.mean_score == max(means)

    def test_noisy_line_reaches_high_holdout_r2(self):
        x, y = noisy_line(n=300, seed=5)
        x_hold, y_hold = noisy_line(n=100, seed=6)
        spec = ModelSpec(
            "linear_ridge", "regression", {"lam": FloatRange(1e-6, 1e2, log=True)}
        )
        model, _ = random_search_cv(spec, x, y, k=5, budget=20, seed=7)
        metrics = evaluate_metrics(model.predict(x_hold), y_hold, "regression")
        assert metrics["r2"] >= 0.95

    def test_search_determinism(self):
        x, y = noisy_line(seed=8)
        spec = default_spec("cart_tree", "regression")
        m1, r1 = random_search_cv(spec, x, y, k=3, budget=5, seed=11)
        m2, r2 = random_search_cv(spec, x, y, k=3, budget=5, seed=11)
        assert r1.to_dict() == r2.to_dict()
        assert np.array_equal(m1.predict(x), m2.predict(x))

    def test_zero_budget_rejected(self):
        x, y = noisy_line()
        with pytest.raises(InvalidArgumentError):
            random_search_cv(default_spec("knn", "regression"), x, y, budget=0)

    def test_invalid_range_fails_before_training(self):
        x, y = noisy_line()
        spec = ModelSpec("linear_ridge", "regression", {"lam": FloatRange(5.0, 1.0)})
        from simfarm.errors import ModelSpecError

        with pytest.raises(ModelSpecError):
            random_search_cv(spec, x, y, budget=3)


class TestTableSearch:
    def test_per_fold_preprocessing_and_final_model(self):
        g = substream(9, 0)
        n = 120
        x1 = g.normal(10, 3, n)
        levels = np.array([("a", "b")[i] for i in g.integers(0, 2, n)], dtype=object)
        y = 2.0 * x1 + np.where(levels == "b", 5.0, 0.0) + g.normal(0, 0.1, n)
        features = [
            DataColumn.numeric("x1", x1),
            DataColumn.categorical("grp", levels),
        ]
        spec = ModelSpec(
            "linear_ridge", "regression", {"lam": FloatRange(1e-6, 1.0, log=True)}
        )
        model, report = random_search_cv_table(spec, features, y, k=4, budget=6, seed=10)
        assert len(report.evaluated) == 6
        assert model.preprocessor is not None
        pred = model.predict_table(features)
        metrics = evaluate_metrics(pred, y, "regression")
        assert metrics["r2"] > 0.99


@pytest.mark.parametrize("budget", [1, 4])
def test_fold_preprocessors_are_fit_once(monkeypatch, budget):
    g = substream(12, 0)
    x = g.normal(0, 1, 60)
    features = [DataColumn.numeric("x", x)]
    y = 3.0 * x + g.normal(0, 0.1, 60)
    calls = []
    fit = selection.fit_preprocessor

    def counted(columns):
        calls.append(len(columns[0]))
        return fit(columns)

    monkeypatch.setattr(selection, "fit_preprocessor", counted)
    spec = ModelSpec("linear_ridge", "regression", {"lam": FloatRange(1e-6, 1.0, log=True)})
    random_search_cv_table(spec, features, y, k=3, budget=budget, seed=4)
    assert calls == [40, 40, 40, 60]  # the k folds, then the refit on every row


def train_each_fold(spec, xs, ys, seed=0):
    """The per-fold ``train`` loop that the stacked MLP fit replaced."""
    return [train(spec, x, y, seed=seed) for x, y in zip(xs, ys)]


@pytest.mark.parametrize("task", ["regression", "classification"])
@pytest.mark.parametrize("entry", ["table", "matrix"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mlp_search_matches_per_fold_training(monkeypatch, tmp_path, task, entry):
    # 61 rows in 4 folds train on 45 or 46 rows, so each configuration fits two stacks.
    g = substream(21, 0)
    n = 61
    x1 = g.normal(10, 3, n)
    levels = np.array(["a", "b", "c"], dtype=object)[g.integers(0, 3, n)]
    y = 2.0 * x1 + np.where(levels == "b", 5.0, 0.0) + g.normal(0, 0.5, n)
    if task == "classification":
        y = np.digitize(y, np.quantile(y, [1 / 3, 2 / 3])).astype(np.int64)
    features = [DataColumn.numeric("x1", x1), DataColumn.categorical("grp", levels)]
    spec = default_spec("mlp", task)

    def search():
        if entry == "table":
            return random_search_cv_table(spec, features, y, k=4, budget=3, seed=5)
        x = np.column_stack([(x1 - 10.0) / 3.0, levels == "b"])
        return random_search_cv(spec, x, y, k=4, budget=3, seed=5)

    def outputs(name):
        model, report = search()
        save_model(model, tmp_path / name)
        return json.dumps(report.to_dict()), (tmp_path / name).read_bytes()

    stacked = outputs("stacked.json")
    monkeypatch.setattr(selection, "train_folds", train_each_fold)
    assert stacked == outputs("per_fold.json")
