"""The family table in ``models/spec.py`` and the one protocol of its model classes."""

import contextlib
import io
import json
import math
import weakref

import numpy as np
import pytest

from simfarm.cli import dispatch
from simfarm.errors import InvalidArgumentError, ModelSpecError, TrainingError
from simfarm.models import ModelSpec, default_spec, load_model, save_model, train
from simfarm.models.linear import RidgeRegressor
from simfarm.models.serialize import model_to_dict
from simfarm.models.spec import FAMILIES, MODEL_CLASSES, TASKS, sample_params
from simfarm.models.train import train_folds
from simfarm.rng import substream

FIXED = {
    "linear_ridge": {"lam": 0.1},
    "knn": {"k": 3},
    "cart_tree": {"max_depth": 4, "min_leaf": 2},
    "random_forest": {"n_trees": 5, "max_depth": 4, "min_leaf": 1, "feature_fraction": 0.7,
                      "bootstrap": True},
    "mlp": {"hidden": (6, 4), "learning_rate": 0.05, "epochs": 10, "batch_size": 8},
}
SUPPORTED = [(f, t) for f in FAMILIES for t in TASKS
             if not (f == "linear_ridge" and t == "classification")]


def data_for(task, seed=0, n=60):
    g = substream(seed, 0)
    x = g.normal(0, 1, (n, 3))
    if task == "classification":
        return x, (x[:, 0] + x[:, 1] > 0).astype(np.int64)
    return x, x @ np.array([1.0, -0.5, 0.2]) + g.normal(0, 0.05, n)


def test_families_are_the_table_in_order():
    assert FAMILIES == ("linear_ridge", "knn", "cart_tree", "random_forest", "mlp")
    assert list(MODEL_CLASSES) == list(FAMILIES)
    assert set(FIXED) == set(FAMILIES)


@pytest.mark.parametrize("family,task", SUPPORTED)
def test_default_space_builds_trains_and_round_trips(family, task, tmp_path):
    spec = default_spec(family, task)
    assert not spec.is_fixed()
    params = sample_params(spec, substream(3, 0))
    assert set(params) == set(spec.params)
    MODEL_CLASSES[family](task=task, **params)  # the class builds from a sampled configuration
    x, y = data_for(task)
    model = train(spec.with_params(**params), x, y, seed=2)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, first)
    save_model(load_model(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_hyperparameter_rules_cover_the_default_space():
    for family in FAMILIES:
        space = default_spec(family, "regression").params
        assert set(MODEL_CLASSES[family].HYPERPARAMETERS) == set(space)


@pytest.mark.parametrize("family, params, message", [
    ("knn", {"k": 2.5}, "knn hyperparameter 'k' must be an integer, got 2.5"),
    ("knn", {"k": 0}, "knn hyperparameter 'k' must be >= 1, got 0"),
    ("mlp", {"hidden": [8, 4.7]}, "mlp hyperparameter 'hidden[1]' must be an integer, got 4.7"),
    ("mlp", {"hidden": [8, 4, 2]}, "mlp hyperparameter 'hidden' must be a list of 1 to 2 items"),
    ("mlp", {"epochs": True}, "mlp hyperparameter 'epochs' must be an integer, got True"),
    ("cart_tree", {"max_depth": 2.9}, "cart_tree hyperparameter 'max_depth' must be an integer"),
    ("random_forest", {"bootstrap": "no"},
     "random_forest hyperparameter 'bootstrap' must be a bool, got 'no'"),
    ("random_forest", {"feature_fraction": 1.5},
     "random_forest hyperparameter 'feature_fraction' must be > 0 and <= 1, got 1.5"),
    ("linear_ridge", {"lam": math.nan},
     "linear_ridge hyperparameter 'lam' must be a finite real number, got nan"),
])
def test_constructor_refuses_what_it_used_to_truncate(family, params, message):
    with pytest.raises(TrainingError) as exc:
        MODEL_CLASSES[family](**params)
    assert str(exc.value).startswith(message)


def test_constructor_takes_numpy_integers_as_ints():
    model = MODEL_CLASSES["mlp"](hidden=[np.int64(8)], epochs=np.int32(3))
    assert model.hidden == (8,) and type(model.hidden[0]) is int and type(model.epochs) is int


@pytest.mark.parametrize("family", FAMILIES)
def test_every_sampled_configuration_builds(family):
    spec = default_spec(family, "regression")
    for draw in range(200):
        MODEL_CLASSES[family](**sample_params(spec, substream(5, draw)))


def test_ridge_is_regression_only():
    with pytest.raises(ModelSpecError, match="^linear_ridge supports regression only$"):
        default_spec("linear_ridge", "classification")
    with pytest.raises(TrainingError, match="regression only"):
        RidgeRegressor(lam=1.0, task="classification")


def test_unknown_family_names_the_known_ones():
    with pytest.raises(ModelSpecError) as exc:
        default_spec("kriging", "regression")
    assert str(exc.value) == f"unknown family 'kriging'; known: {list(FAMILIES)}"


@pytest.mark.parametrize("family,task", SUPPORTED)
def test_train_is_one_fold_of_train_folds(family, task):
    x, y = data_for(task, seed=4)
    spec = ModelSpec(family, task, FIXED[family])
    alone = train(spec, x, y, seed=9)
    folded = next(train_folds(spec, [x], [y], seed=9))
    assert json.dumps(model_to_dict(alone)) == json.dumps(model_to_dict(folded))


X6 = np.arange(12.0).reshape(6, 2)
# (task, or None for both; X; y; the error and message every family's fit raises)
REFUSED = {
    "one row": (None, X6[:1], np.array([0]), TrainingError, "need at least 2 training rows"),
    "misaligned": (None, X6, np.array([0, 1] * 2 + [0]), TrainingError, "aligned with y"),
    "3-D X": (None, X6[:, :, None], np.array([0, 1] * 3), TrainingError, "aligned with y"),
    "one class": ("classification", X6, np.ones(6, dtype=np.int64), TrainingError,
                  "at least 2 classes"),
    "fractional labels": ("classification", X6, np.array([0.5, 2.5] * 3), InvalidArgumentError,
                          "whole-number class labels; row 0 holds 0.5"),
    "string labels": ("classification", X6, np.array(["a", "b"] * 3), InvalidArgumentError,
                      "must be numeric"),
    "NaN target": ("regression", X6, np.array([0.0, 1.0, np.nan, 1.0, 0.0, 1.0]),
                   InvalidArgumentError, "finite numbers; row 2 holds nan"),
    "inf target": ("regression", X6, np.array([0.0, np.inf, 1.0, 1.0, 0.0, 1.0]),
                   InvalidArgumentError, "finite numbers; row 1 holds inf"),
}


@pytest.mark.parametrize("family,task,case", [
    (f, t, case) for f, t in SUPPORTED for case, (only, *_) in REFUSED.items() if only in (None, t)
])
def test_direct_fit_refuses_what_train_refuses(family, task, case):
    _, x, y, error, message = REFUSED[case]
    with pytest.raises(error, match=message):
        MODEL_CLASSES[family](task=task, **FIXED[family]).fit(x, y)
    with pytest.raises(error, match=message):
        train(ModelSpec(family, task, FIXED[family]), x, y)


@pytest.mark.parametrize("family,task", SUPPORTED)
def test_a_reloaded_model_predicts_what_the_fitted_one_does(family, task):
    x, y = data_for(task, seed=6)
    if task == "classification":  # whole-number float labels that are not 0..C-1
        y = np.array([-3.0, 4.0, 9.0])[np.digitize(x[:, 0] + x[:, 1], [-0.5, 0.5])]
    model = MODEL_CLASSES[family](task=task, **FIXED[family]).fit(x, y, seed=1)
    state = json.loads(json.dumps(model.to_state()))
    got, again = model.predict(x), MODEL_CLASSES[family].from_state(state).predict(x)
    assert (got.dtype, got.tobytes()) == (again.dtype, again.tobytes())
    if task == "classification":
        assert got.dtype == np.int64 and set(got.tolist()) <= {-3, 4, 9}


@pytest.mark.parametrize("family", [f for f in FAMILIES if not hasattr(MODEL_CLASSES[f], "fit_stack")])
def test_a_dropped_fold_model_is_freed_before_the_next_fold_trains(family, monkeypatch):
    cls = MODEL_CLASSES[family]
    fit = cls.fit
    refs, alive_at_fit = [], []

    def watched_fit(self, *args, **kwargs):
        alive_at_fit.append([r() is not None for r in refs])
        return fit(self, *args, **kwargs)

    monkeypatch.setattr(cls, "fit", watched_fit)
    xs, ys = zip(*(data_for("regression", seed=s) for s in range(3)))
    folds = train_folds(ModelSpec(family, "regression", FIXED[family]), list(xs), list(ys))
    for _ in range(3):
        refs.append(weakref.ref(next(folds).model))  # the caller keeps no reference
    assert alive_at_fit == [[], [False], [False, False]]
    assert all(r() is None for r in refs)


def _help(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        dispatch(argv)
    assert exc.value.code == 0
    return out.getvalue()


def test_model_search_help_is_unchanged(monkeypatch):
    assert _help(["model", "search", "--help"], monkeypatch) == """\
usage: simfarm model search [-h] --data DATA --target TARGET --task
                            {regression,classification} --family
                            {linear_ridge,knn,cart_tree,random_forest,mlp}
                            [--k K] [--budget BUDGET] [--seed SEED] --out OUT
                            [--cv-report CV_REPORT]

options:
  -h, --help            show this help message and exit
  --data DATA
  --target TARGET
  --task {regression,classification}
  --family {linear_ridge,knn,cart_tree,random_forest,mlp}
  --k K
  --budget BUDGET
  --seed SEED
  --out OUT             model JSON path
  --cv-report CV_REPORT
                        also write the CV report JSON here
"""


def test_model_train_help_is_unchanged(monkeypatch):
    assert _help(["model", "train", "--help"], monkeypatch) == """\
usage: simfarm model train [-h] --data DATA --target TARGET --task
                           {regression,classification} --family
                           {linear_ridge,knn,cart_tree,random_forest,mlp}
                           [--params PARAMS] [--seed SEED] --out OUT

options:
  -h, --help            show this help message and exit
  --data DATA
  --target TARGET
  --task {regression,classification}
  --family {linear_ridge,knn,cart_tree,random_forest,mlp}
  --params PARAMS       fixed hyperparameters as JSON, e.g. '{"lam": 0.1}'
  --seed SEED
  --out OUT
"""
