"""Training entry point and the serializable TrainedModel wrapper."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidArgumentError, TrainingError
from ..tables import DataColumn
from .preprocess import FittedPreprocessor
from .spec import MODEL_CLASSES, ModelSpec

__all__ = [
    "TrainedModel", "train", "train_folds", "class_codes", "regression_targets", "MODEL_CLASSES",
]

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


def _checked(task: str, X, y) -> tuple[np.ndarray, np.ndarray]:
    """``(X, y)`` as validated float / label arrays."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(y):
        raise TrainingError("X must be a 2-D matrix aligned with y")
    if len(X) < 2:
        raise TrainingError("need at least 2 training rows")
    if task == "classification":
        y = class_codes(y, "y")
        if len(np.unique(y)) < 2:
            raise TrainingError("classification needs at least 2 classes in y")
    else:
        y = regression_targets(y, "y")
    return X, y


def train(
    spec: ModelSpec,
    X: np.ndarray,
    y: np.ndarray,
    seed: int = 0,
    preprocessor: FittedPreprocessor | None = None,
    class_labels: list[str] | None = None,
) -> TrainedModel:
    """Fit ``spec`` (all hyperparameters fixed) on ``(X, y)``."""
    model = next(train_folds(spec, [X], [y], seed))
    model.preprocessor = preprocessor
    model.class_labels = class_labels
    return model


def train_folds(
    spec: ModelSpec, xs: list[np.ndarray], ys: list[np.ndarray], seed: int = 0
) -> Iterator[TrainedModel]:
    """A model of ``spec`` fitted on ``(xs[i], ys[i])`` with ``seed`` for every fold i, in order.

    A family whose class has ``fit_stack`` (MLP) trains folds with the same
    training-matrix shape and class set as one stack, bit-identical to
    fitting them one by one, before the first model is yielded.  Folds of
    every other family train one at a time as the iterator advances, so only
    one fitted model, which for a forest can take megabytes, is alive at once.
    """
    spec.validate()
    params = spec.fixed_params()
    cls = MODEL_CLASSES[spec.family]

    def trained(model) -> TrainedModel:
        return TrainedModel(family=spec.family, task=spec.task, params=params, model=model,
                            seed=int(seed))

    if not hasattr(cls, "fit_stack"):
        for x, y in zip(xs, ys):
            # no name holds the model across the yield, so it is freed once the caller drops it
            yield trained(cls(task=spec.task, **params).fit(*_checked(spec.task, x, y), seed=seed))
        return
    data = [_checked(spec.task, x, y) for x, y in zip(xs, ys)]
    groups: dict[tuple, list[int]] = {}
    for i, (x, y) in enumerate(data):
        classes = np.unique(y).tobytes() if spec.task == "classification" else b""
        groups.setdefault((x.shape, classes), []).append(i)
    out: list[TrainedModel | None] = [None] * len(data)
    for members in groups.values():
        stacked = cls(task=spec.task, **params).fit_stack(
            *(np.stack([data[i][j] for i in members]) for j in (0, 1)), seed=seed)
        for i, model in zip(members, stacked):
            out[i] = trained(model)
    yield from out
