"""Training entry point and the serializable TrainedModel wrapper."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidArgumentError, TrainingError
from ..tables import DataColumn
from .forest import RandomForest
from .linear import RidgeRegressor
from .mlp import MlpModel
from .neighbors import KnnModel
from .preprocess import FittedPreprocessor
from .spec import ModelSpec
from .tree import CartTree

__all__ = [
    "TrainedModel", "train", "train_folds", "class_codes", "regression_targets", "MODEL_CLASSES",
]

MODEL_CLASSES = {
    "linear_ridge": RidgeRegressor,
    "knn": KnnModel,
    "cart_tree": CartTree,
    "random_forest": RandomForest,
    "mlp": MlpModel,
}


@dataclass
class TrainedModel:
    family: str
    task: str
    params: dict
    model: object
    seed: int
    preprocessor: FittedPreprocessor | None = None
    class_labels: list[str] | None = None  # original labels for classification

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.model.predict(np.asarray(X, dtype=np.float64))

    def predict_table(self, table: list[DataColumn]) -> np.ndarray:
        """Predict from raw columns via the stored preprocessor."""
        if self.preprocessor is None:
            raise TrainingError("model was trained without a preprocessor")
        return self.predict(self.preprocessor.transform(table).matrix)


def _build(family: str, task: str, params: dict):
    # the ridge model is regression-only and takes no task
    cls = MODEL_CLASSES[family]
    return cls(**params) if cls is RidgeRegressor else cls(task=task, **params)


def class_codes(values: np.ndarray, name: str) -> np.ndarray:
    """Numeric class labels as int64; each must be a finite whole number.

    Raises ``InvalidArgumentError`` naming ``name`` and the first bad row,
    where a plain cast would truncate 1.6 to 1 and turn NaN into a garbage class.
    """
    values = np.asarray(values)
    if values.dtype.kind in "biu":
        return values.astype(np.int64)
    floats = values.astype(np.float64)
    bad = ~(np.isfinite(floats) & (np.trunc(floats) == floats) & (np.abs(floats) < 2.0**63))
    if bad.any():
        row = int(np.argmax(bad))
        raise InvalidArgumentError(
            f"classification target {name!r} must hold whole-number class labels; "
            f"row {row} holds {float(floats[row])!r}"
        )
    return floats.astype(np.int64)


def regression_targets(values: np.ndarray, name: str) -> np.ndarray:
    """Regression targets as float64; each must be finite.

    Raises ``InvalidArgumentError`` naming ``name`` and the first bad row,
    where a missing value would train every fold on NaN and save a NaN model.
    """
    y = np.asarray(values).astype(np.float64)
    bad = ~np.isfinite(y)
    if bad.any():
        row = int(np.argmax(bad))
        raise InvalidArgumentError(
            f"regression target {name!r} must hold finite numbers; row {row} holds {float(y[row])!r}"
        )
    return y


def _checked(spec: ModelSpec, X, y) -> tuple[dict, np.ndarray, np.ndarray]:
    """``spec``'s fixed parameters and ``(X, y)`` as validated float / label arrays."""
    spec.validate()
    params = spec.fixed_params()
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(y):
        raise TrainingError("X must be a 2-D matrix aligned with y")
    if len(X) < 2:
        raise TrainingError("need at least 2 training rows")
    if spec.task == "classification":
        y = class_codes(y, "y")
        if len(np.unique(y)) < 2:
            raise TrainingError("classification needs at least 2 classes in y")
    else:
        y = regression_targets(y, "y")
    return params, X, y


def train(
    spec: ModelSpec,
    X: np.ndarray,
    y: np.ndarray,
    seed: int = 0,
    preprocessor: FittedPreprocessor | None = None,
    class_labels: list[str] | None = None,
) -> TrainedModel:
    """Fit ``spec`` (all hyperparameters fixed) on ``(X, y)``."""
    params, X, y = _checked(spec, X, y)
    model = _build(spec.family, spec.task, params)
    if spec.family in ("random_forest", "mlp"):
        model.fit(X, y, seed=seed)
    else:
        model.fit(X, y)
    return TrainedModel(
        family=spec.family,
        task=spec.task,
        params=params,
        model=model,
        seed=int(seed),
        preprocessor=preprocessor,
        class_labels=class_labels,
    )


def train_folds(
    spec: ModelSpec, xs: list[np.ndarray], ys: list[np.ndarray], seed: int = 0
) -> Iterator[TrainedModel]:
    """``train(spec, xs[i], ys[i], seed)`` for every fold i in order, bit for bit.

    MLP folds with the same training-matrix shape and class set start from the
    same weights and see the same batch order, so each such group trains as one
    stack (``MlpModel.fit_stack``) before the first model is yielded.  Folds of
    every other family train one at a time as the iterator advances, so only
    one fitted model, which for a forest can take megabytes, is alive at once.
    """
    if spec.family != "mlp":
        for x, y in zip(xs, ys):
            yield train(spec, x, y, seed=seed)
        return
    checked = [_checked(spec, x, y) for x, y in zip(xs, ys)]
    groups: dict[tuple, list[int]] = {}
    for i, (_, x, y) in enumerate(checked):
        classes = np.unique(y).tobytes() if spec.task == "classification" else b""
        groups.setdefault((x.shape, classes), []).append(i)
    out: list[TrainedModel | None] = [None] * len(checked)
    for members in groups.values():
        params = checked[members[0]][0]
        models = _build(spec.family, spec.task, params).fit_stack(
            np.stack([checked[i][1] for i in members]),
            np.stack([checked[i][2] for i in members]),
            seed=seed,
        )
        for i, model in zip(members, models):
            out[i] = TrainedModel(family=spec.family, task=spec.task, params=params,
                                  model=model, seed=int(seed))
    yield from out
