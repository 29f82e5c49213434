"""k-nearest-neighbor regression and classification.

Distances are Euclidean over the (already preprocessed) feature matrix;
neighbor ties break by training-row order, class-vote ties by the smallest
class label.
"""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError
from .preprocess import fit_data, majority

__all__ = ["KnnModel"]

_BLOCK = 1 << 20


class KnnModel:
    def __init__(self, k: int = 5, task: str = "regression"):
        if k < 1:
            raise TrainingError(f"k must be >= 1, got {k}")
        self.k = int(k)
        self.task = task
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self.classes_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, seed: int = 0) -> "KnnModel":
        """Store the training rows; the fit is deterministic, so ``seed`` is ignored."""
        X, y, self.classes_ = fit_data(self.task, X, y)
        if self.k > len(X):
            raise TrainingError(f"k = {self.k} exceeds training size {len(X)}")
        self._X, self._y = X, y
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._X is None:
            raise TrainingError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        # test rows go in blocks so the (rows, n_train, p) difference stays near _BLOCK elements
        step = max(1, _BLOCK // max(1, self._X.size))
        nearest = np.empty((len(X), self.k), dtype=np.intp)
        for start in range(0, len(X), step):
            block = X[start : start + step]
            d2 = ((block[:, None, :] - self._X[None, :, :]) ** 2).sum(axis=2)
            nearest[start : start + step] = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
        if self.task == "regression":
            return self._y[nearest].mean(axis=1)
        return majority(self.classes_, self._y[nearest])

    def to_state(self) -> dict:
        return {
            "k": self.k,
            "task": self.task,
            "X": self._X.tolist(),
            "y": self._y.tolist(),
            "classes": None if self.classes_ is None else self.classes_.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "KnnModel":
        model = cls(k=state["k"], task=state["task"])
        model._X = np.asarray(state["X"], dtype=np.float64)
        if state["classes"] is not None:
            model.classes_ = np.asarray(state["classes"], dtype=np.int64)
        model._y = np.asarray(state["y"], dtype=np.float64 if model.classes_ is None else np.int64)
        return model
