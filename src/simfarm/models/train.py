"""Training entry point and the serializable TrainedModel wrapper."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..errors import TrainingError
from ..tables import DataColumn
from .preprocess import FittedPreprocessor, fit_data
from .spec import MODEL_CLASSES, ModelSpec

__all__ = ["TrainedModel", "train", "train_folds", "MODEL_CLASSES"]

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

    A family whose class has ``fit_stack`` (CART, forest, MLP) trains folds
    with the same training-matrix shape and class set as one stack,
    byte-identical to fitting them one by one, before the first model is
    yielded; all of a stack's models are alive until the caller drops them.
    Folds of every other family (kNN, ridge) train one at a time as the
    iterator advances, so only one fitted model is alive at once.
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
            yield trained(cls(task=spec.task, **params).fit(x, y, seed=seed))
        return
    data = [fit_data(spec.task, x, y) for x, y in zip(xs, ys)]
    groups: dict[tuple, list[int]] = {}
    for i, (x, _, classes) in enumerate(data):
        groups.setdefault((x.shape, None if classes is None else classes.tobytes()), []).append(i)
    out: list[TrainedModel | None] = [None] * len(data)
    for members in groups.values():
        stacked = cls(task=spec.task, **params).fit_stack(
            *(np.stack([data[i][j] for i in members]) for j in (0, 1)), seed=seed)
        for i, model in zip(members, stacked):
            out[i] = trained(model)
    yield from out
